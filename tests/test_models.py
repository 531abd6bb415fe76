import math

import numpy as np
import pytest

from countsim.engine import couple, simulate
from countsim.errors import ConfigError, ConfigurationError, DivergenceError
from countsim.linalg import companion, spectral_radius
from countsim import models
from countsim.models import (
    FLOAT_ROW_LIMIT,
    IMMIGRATION_FAMILIES,
    GinarSpec,
    ImmigrationSpec,
    IngarchSpec,
    LogLinearSpec,
    MU_LIMIT,
    _lambdas,
    block_state,
    default_window,
    ingarch_intensity,
    loglinear_mu,
    step,
    validate_window,
    window_distance,
)
from countsim.randomness import (
    COUNTING_FAMILIES,
    POISSON_LAM_MAX,
    Dependence,
    block_rng,
    make_stream,
    shared_poisson,
)


def ginar_2d():
    return GinarSpec(2, 1, ([[0.4, 0.0], [0.1, 0.2]],), "bernoulli",
                     ImmigrationSpec("poisson", [1.0, 1.0]))


def ingarch_1d(d=1.0, a=0.3, b=0.5):
    return IngarchSpec(1, 1, [d], ([[a]],), ([[b]],))


def start(spec, window=None, replicates=1):
    """The block state of ``replicates`` copies of a window (default: the model's)."""
    return block_state([validate_window(spec, default_window(spec) if window is None else window)], replicates)


def one_step(spec, window, replicates, seed):
    """Counts and intensity of one batched step of ``replicates`` copies of a window."""
    _, counts, intensity = step(spec, start(spec, window, replicates), block_rng(seed, 0))
    return counts[0], intensity[0]


# --- spec validation ---------------------------------------------------------

def test_bernoulli_mean_above_one_rejected_at_construction():
    with pytest.raises(ConfigurationError):
        GinarSpec(1, 1, ([[1.5]],), "bernoulli", ImmigrationSpec("poisson", [1.0]))


def test_poisson_family_allows_means_above_one():
    spec = GinarSpec(1, 1, ([[1.5]],), "poisson", ImmigrationSpec("poisson", [1.0]))
    assert spec.counting_family == "poisson"


def test_geometric_means_past_numpys_draw_limit_are_refused_by_path():
    # A positive count n draws negative_binomial(n, 1 / (1 + m)), which numpy
    # refuses past m = 8.385e17 even for n = 1; step 1 draws one such term.
    immigration = ImmigrationSpec("constant", [1])
    spec = GinarSpec(1, 1, ([[8.38e17]],), "geometric", immigration)
    assert simulate(spec, 2, 0).counts[0, 0] == 1
    with pytest.raises(ConfigError, match=r"mean_matrices\[0\]\[0\]\[0\]: mean 8.39e\+17 exceeds 8.385e\+17"):
        GinarSpec(1, 1, ([[8.39e17]],), "geometric", immigration)


def test_constant_immigration_requires_integers():
    with pytest.raises(ConfigurationError):
        ImmigrationSpec("constant", [1.5])
    imm = ImmigrationSpec("constant", [2.0])
    assert np.array_equal(imm.draw(make_stream(0, 0, 0)), [2])


@pytest.mark.parametrize("value", [10**19, 1e19, 2**53, 2**53 + 1])
def test_counts_past_2_53_are_refused_by_entry(value):
    # 10**19 became the row [-2**63] and 2**53 + 1 was read as 2**53.
    spec = ginar_2d()
    for build, problem in ((lambda: validate_window(spec, {"counts": [[0, value]]}), "counts[0][1]"),
                           (lambda: couple(spec, 10, default_window(spec), {"counts": [[value, 0]]}), "counts[0][0]"),
                           (lambda: ImmigrationSpec("constant", [1, value]), "values[1]"),
                           (lambda: GinarSpec(1, 1, ([[0.5]],), immigration={"family": "constant", "values": [value]}),
                            "immigration.values[0]")):
        with pytest.raises(ConfigError) as err:
            build()
        assert err.value.problems == [f"{problem}: count not below 2**53"]
    assert validate_window(spec, {"counts": [[0, 2**53 - 1]]}).tolist() == [0, 2**53 - 1]


def test_immigration_families_mean():
    for family in ("poisson", "geometric"):
        imm = ImmigrationSpec(family, [1.5, 0.5])
        draws = imm.sample(block_rng(1, 0), 50000)
        assert draws.shape == (50000, 2)
        se = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
        assert np.all(np.abs(draws.mean(axis=0) - imm.mean()) < 3.5 * se)


def test_negative_matrix_rejected_for_counting_models():
    with pytest.raises(ConfigurationError):
        IngarchSpec(1, 1, [1.0], ([[-0.1]],), ([[0.2]],))
    with pytest.raises(ConfigurationError):
        GinarSpec(1, 1, ([[-0.2]],), "poisson", ImmigrationSpec("poisson", [1.0]))


def test_loglinear_allows_negative_matrices():
    spec = LogLinearSpec(1, 1, [0.1], ([[-0.4]],), ([[0.3]],))
    assert spec.mu_matrices[0][0, 0] == -0.4


def test_correlation_dimension_checked():
    with pytest.raises(ConfigurationError):
        IngarchSpec(2, 1, [1.0, 1.0], ([[0.1, 0.0], [0.0, 0.1]],),
                    ([[0.1, 0.0], [0.0, 0.1]],),
                    Dependence("gaussian", np.eye(3)))


def test_spec_problems_are_collected_with_paths():
    with pytest.raises(ConfigError) as err:
        GinarSpec(2, 1, ([[0.4, -0.1], [0.0, 1.2]],), "bernoulli", {"family": "constant", "values": [1.5, 2.0]})
    assert err.value.problems == ["mean_matrices[0][0][1]: negative entry -0.1",
                                  "immigration.values[0]: non-integer entry 1.5"]
    with pytest.raises(ConfigError) as err:
        IngarchSpec(True, 1, [1.0], ([["x"]],), ([[0.2]],))
    assert err.value.problems == ["p: expected an integer >= 1, got True"]
    with pytest.raises(ConfigError) as err:
        LogLinearSpec(1, 1, [np.inf], ([["x"]],), ([[0.3]],), {"scheme": "gaussian"})
    assert err.value.problems == ["offset: contains non-finite entries",
                                  "mu_matrices[0]: expected a 1x1 matrix of numbers",
                                  "dependence.correlation: gaussian dependence requires a correlation matrix"]


def test_window_validation():
    spec = ingarch_1d()
    with pytest.raises(ConfigurationError):
        validate_window(spec, {"counts": [], "intensities": []})
    with pytest.raises(ConfigurationError):
        validate_window(spec, {"counts": [[-1]], "intensities": [[1.0]]})
    ok = validate_window(spec, {"counts": [[2]], "intensities": [[2.0]]})
    assert ok.dtype == np.float64 and ok.tolist() == [2.0, 2.0]
    with pytest.raises(ConfigurationError):
        validate_window(spec, {"counts": [[1.5]], "intensities": [[2.0]]})
    with pytest.raises(ConfigurationError):
        validate_window(ginar_2d(), {"counts": [[1.5, 0.0]]})
    # The mapping is the only window form; a list or a list of pairs is refused.
    for window in ([], [(np.array([2]), np.array([2.0]))], [np.array([2])]):
        with pytest.raises(ConfigError) as err:
            validate_window(spec, window)
        assert err.value.problems == ["window: expected a mapping with keys counts, intensities"]


@pytest.mark.parametrize("kind", ["ginar", "ingarch", "loglinear"])
def test_window_mapping_becomes_the_companion_row(kind):
    # p = q = 2: the lead lags (lambda or mu) first, then the count lags, most
    # recent first; log-linear holds log(1 + counts).  Only GINAR is int64.
    p = q = 2
    zeros = [np.zeros((p, p))] * q
    counts = [[1, 2], [3, 4]]
    if kind == "ginar":
        spec = GinarSpec(p, q, zeros, "bernoulli", ImmigrationSpec("poisson", [1.0, 1.0]))
        default, window = np.zeros(4, dtype=np.int64), {"counts": counts}
        row = np.array([1, 2, 3, 4], dtype=np.int64)
    elif kind == "ingarch":
        spec = IngarchSpec(p, q, [0.5, 1.5], zeros, zeros)
        default = np.array([0.5, 1.5, 0.5, 1.5, 0.0, 0.0, 0.0, 0.0])
        window = {"counts": counts, "intensities": [[5.0, 6.0], [7.0, 8.0]]}
        row = np.array([5.0, 6.0, 7.0, 8.0, 1.0, 2.0, 3.0, 4.0])
    else:
        spec = LogLinearSpec(p, q, [0.5, 1.5], zeros, zeros)
        default = np.zeros(8)
        window = {"counts": counts, "mus": [[-5.0, 6.0], [7.0, -8.0]]}
        row = np.concatenate(([-5.0, 6.0, 7.0, -8.0], np.log1p([1.0, 2.0, 3.0, 4.0])))  # as the step writes it
    for got, expected in ((validate_window(spec, default_window(spec)), default), (validate_window(spec, window), row)):
        assert got.dtype == expected.dtype and (got.dtype == np.int64) == (kind == "ginar")
        assert np.array_equal(got, expected)


# --- ginar steps -------------------------------------------------------------

def test_ginar_zero_window_zero_immigration_absorbs():
    spec = GinarSpec(1, 1, ([[0.5]],), "bernoulli", ImmigrationSpec("constant", [0.0]))
    counts, mean = one_step(spec, {"counts": [[0]]}, 64, 1)
    assert np.array_equal(counts, np.zeros((64, 1), dtype=np.int64))
    assert np.array_equal(mean, np.zeros((64, 1)))


def test_ginar_pure_immigration_is_poisson():
    mu = 1.7
    spec = GinarSpec(1, 1, ([[0.0]],), "bernoulli", ImmigrationSpec("poisson", [mu]))
    window = {"counts": [[5]]}
    n = 100000
    draws = one_step(spec, window, n, 2)[0][:, 0].astype(float)
    se = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - mu) < 3 * se
    # Poisson: variance equals the mean.
    assert abs(draws.var(ddof=1) - mu) < 5 * se


def test_ginar_conditional_mean_formula():
    spec = ginar_2d()
    window = {"counts": [[3, 1]]}
    target = np.array([0.4 * 3 + 1.0, 0.1 * 3 + 0.2 * 1 + 1.0])  # (2.2, 1.5)
    n = 100000
    draws, mean = one_step(spec, window, n, 3)
    np.testing.assert_allclose(mean, np.broadcast_to(target, (n, 2)), rtol=1e-15)
    se = draws.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - target) < 3 * se)


# --- ingarch steps -----------------------------------------------------------

def test_ingarch_intensity_at_zero_window_is_offset():
    spec = IngarchSpec(2, 2, [1.0, 0.5],
                       ([[0.1, 0.0], [0.0, 0.1]], [[0.05, 0.0], [0.0, 0.05]]),
                       ([[0.2, 0.0], [0.0, 0.2]], [[0.1, 0.0], [0.0, 0.1]]))
    window = {"counts": [[0, 0], [0, 0]], "intensities": [[0.0, 0.0], [0.0, 0.0]]}
    lam = ingarch_intensity(spec, window)
    assert np.array_equal(lam, spec.intensity_offset)


def test_ingarch_intensity_arithmetic():
    spec = ingarch_1d()
    lam = ingarch_intensity(spec, {"counts": [[2]], "intensities": [[2.0]]})
    assert lam[0] == pytest.approx(1.0 + 0.3 * 2 + 0.5 * 2)


def test_ingarch_conditional_mean_is_intensity():
    spec = ingarch_1d()
    window = {"counts": [[2]], "intensities": [[2.0]]}
    n = 100000
    draws, lam = one_step(spec, window, n, 4)
    assert np.all(lam == pytest.approx(2.6))
    se = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - 2.6) < 3 * se


def test_ingarch_intensity_dominates_offset_along_path():
    spec = IngarchSpec(2, 1, [0.7, 0.2],
                       ([[0.2, 0.1], [0.0, 0.2]],),
                       ([[0.3, 0.05], [0.1, 0.25]],))
    state = start(spec, replicates=8)
    rng = block_rng(5, 0)
    for t in range(500):
        state, _, lam = step(spec, state, rng)
        assert np.all(lam >= spec.intensity_offset - 1e-12)


# --- loglinear steps ---------------------------------------------------------

def test_loglinear_zero_parameters_unit_intensity():
    spec = LogLinearSpec(1, 1, [0.0], ([[0.0]],), ([[0.0]],))
    state, _, lam = step(spec, block_state([np.zeros(2)]), block_rng(6, 0))
    assert state.shape == (1, 1, 2)
    assert state[0, 0, 0] == 0.0  # mu, the newest lead lag
    assert lam[0, 0, 0] == 1.0


def test_loglinear_worked_example():
    spec = LogLinearSpec(1, 1, [0.1], ([[-0.4]],), ([[0.3]],))
    window = {"counts": [[2]], "mus": [[0.5]]}
    mu = loglinear_mu(spec, window)
    expected_mu = 0.1 - 0.4 * 0.5 + 0.3 * math.log(3.0)
    assert mu[0] == pytest.approx(expected_mu, abs=1e-12)
    assert math.exp(mu[0]) == pytest.approx(1.25807, abs=1e-5)


def test_loglinear_counts_mean_matches_intensity():
    spec = LogLinearSpec(1, 1, [0.1], ([[-0.4]],), ([[0.3]],))
    window = {"counts": [[2]], "mus": [[0.5]]}
    lam_target = math.exp(0.1 - 0.4 * 0.5 + 0.3 * math.log(3.0))
    n = 100000
    draws = one_step(spec, window, n, 7)[0].astype(float)
    se = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - lam_target) < 3 * se


def test_loglinear_divergence_is_tagged_at_the_first_step():
    # mu = 0.5 + 1.3 * 600 exceeds the limit on the first step of the coupled pair.
    spec = LogLinearSpec(1, 1, [0.5], ([[1.3]],), ([[0.2]],))
    with pytest.raises(DivergenceError, match="log intensity exceeded") as err:
        couple(spec, 10, {"counts": [[0]], "mus": [[600.0]]}, default_window(spec), master_seed=8)
    assert err.value.time_index == 0


# --- dispatch ----------------------------------------------------------------

# One replicate of the batched step: the intensity is the scalar reference's
# and the counts are the documented closed-form draws, taken from a second
# generator with the same address.

def test_step_matches_ginar_step_bit_exactly():
    spec = ginar_2d()
    x = np.array([3, 1], dtype=np.int64)
    state = block_state([x])
    rng, ref = block_rng(9, 1), block_rng(9, 1)
    for t in range(20):
        state, counts, mean = step(spec, state, rng)
        np.testing.assert_allclose(mean[0, 0], spec.immigration.mean() + spec.mean_matrices[0] @ x, rtol=1e-15)
        immigration = ref.poisson(spec.immigration.values)
        thinned = ref.binomial(np.broadcast_to(x, (2, 2)), spec.mean_matrices[0]).sum(axis=1)
        assert np.array_equal(counts[0, 0], immigration + thinned)
        x = counts[0, 0]
        assert state.dtype == np.int64
        assert np.array_equal(state[0, 0], x)


def test_step_matches_ingarch_step_bit_exactly():
    spec = ingarch_1d()
    window = {"counts": [[2]], "intensities": [[2.0]]}
    state = start(spec, window)
    rng, ref = block_rng(10, 1), block_rng(10, 1)
    for t in range(20):
        state, counts, lam = step(spec, state, rng)
        assert np.array_equal(lam[0, 0], ingarch_intensity(spec, window))
        assert np.array_equal(counts[0, 0], ref.poisson(lam[0, 0]))
        window = {"counts": [counts[0, 0]], "intensities": [lam[0, 0]]}


def test_step_matches_loglinear_step_bit_exactly():
    spec = LogLinearSpec(1, 1, [0.1], ([[-0.4]],), ([[0.3]],))
    window = {"counts": [[2]], "mus": [[0.5]]}
    state = start(spec, window)
    rng, ref = block_rng(11, 1), block_rng(11, 1)
    for t in range(20):
        state, counts, lam = step(spec, state, rng)
        mu = loglinear_mu(spec, window)
        assert np.array_equal(lam[0, 0], np.exp(mu))
        assert np.array_equal(counts[0, 0], ref.poisson(np.exp(mu)))
        window = {"counts": [counts[0, 0]], "mus": [mu]}


@pytest.mark.parametrize("kind", ["ginar", "ingarch", "loglinear"])
def test_stepping_matrix_matches_the_lag_sums(kind):
    # p = q = 3 with random coefficients and windows: the newest slot of one
    # step is the term-by-term lag sum, and every other lag moves back by one.
    p, q = 3, 3
    gen = np.random.default_rng(31)
    counts = [gen.integers(0, 20, p) for _ in range(q)]
    if kind == "ginar":
        spec = GinarSpec(p, q, [gen.uniform(0, 0.3, (p, p)) for _ in range(q)], "bernoulli",
                         ImmigrationSpec("poisson", gen.uniform(0.5, 2, p)))
        window = {"counts": counts}
        reference = spec.immigration.mean() + sum(m @ x for m, x in zip(spec.mean_matrices, counts))
    elif kind == "ingarch":
        spec = IngarchSpec(p, q, gen.uniform(0.5, 2, p), [gen.uniform(0, 0.1, (p, p)) for _ in range(q)],
                           [gen.uniform(0, 0.1, (p, p)) for _ in range(q)])
        window = {"counts": counts, "intensities": [gen.uniform(0.5, 20, p) for _ in counts]}
        reference = ingarch_intensity(spec, window)
    else:
        spec = LogLinearSpec(p, q, gen.uniform(-1, 1, p), [gen.uniform(-0.2, 0.2, (p, p)) for _ in range(q)],
                             [gen.uniform(-0.2, 0.2, (p, p)) for _ in range(q)])
        window = {"counts": counts, "mus": [gen.uniform(-2, 2, p) for _ in counts]}
        reference = np.exp(loglinear_mu(spec, window))
    state = start(spec, window)
    new, drawn, intensity = step(spec, state, block_rng(32, 0))
    np.testing.assert_allclose(intensity[0, 0], reference, rtol=1e-13)
    if kind == "ginar":
        assert np.array_equal(new[0, 0], np.concatenate([drawn[0, 0]] + counts[:-1]))
    else:
        assert np.array_equal(new[0, 0, p:q * p], state[0, 0, :(q - 1) * p])
        y = drawn[0, 0] if kind == "ingarch" else np.log1p(drawn[0, 0])
        assert np.array_equal(new[0, 0, q * p:], np.concatenate([y, state[0, 0, q * p:-p]]))


def test_stepping_matrix_mean_dynamics_is_the_criterion_companion():
    # Folding the count lags onto the lambda lags (E y = lambda) leaves the
    # block companion of A_j + B_j whose spectral radius criterion 3 checks.
    p, q = 3, 3
    gen = np.random.default_rng(33)
    a = [gen.uniform(0, 0.1, (p, p)) for _ in range(q)]
    b = [gen.uniform(0, 0.1, (p, p)) for _ in range(q)]
    matrix, _ = IngarchSpec(p, q, np.ones(p), a, b).stepping
    assert not matrix[q * p:(q + 1) * p].any()  # the newest counts are drawn, not mapped
    folded = matrix[:q * p, :q * p] + matrix[:q * p, q * p:]
    target = companion([aj + bj for aj, bj in zip(a, b)])
    assert np.array_equal(folded, target)
    assert spectral_radius(folded) == pytest.approx(spectral_radius(target), rel=1e-12)
    ginar = GinarSpec(p, q, a, "poisson", ImmigrationSpec("poisson", np.ones(p)))
    assert np.array_equal(ginar.stepping[0], companion(a))


def test_step_keeps_window_length():
    spec = IngarchSpec(1, 3, [1.0],
                       ([[0.1]], [[0.1]], [[0.1]]),
                       ([[0.2]], [[0.1]], [[0.05]]))
    state = block_state([validate_window(spec, default_window(spec))] * 2, 5)
    assert state.shape == (2, 5, 2 * 3 * 1)  # 3 lags of lambda, then 3 of the counts
    rng = block_rng(12, 0)
    for t in range(10):
        state, _, _ = step(spec, state, rng)
        assert state.shape == (2, 5, 2 * 3 * 1)


def test_step_rejects_mismatched_state():
    gspec = ginar_2d()
    ispec = ingarch_1d()
    with pytest.raises(ConfigurationError):
        step(gspec, start(ispec), block_rng(1, 0))
    with pytest.raises(ConfigurationError):
        step(ispec, start(gspec), block_rng(1, 0))
    wide = IngarchSpec(2, 1, [1.0, 1.0], (np.zeros((2, 2)),), (np.zeros((2, 2)),))
    with pytest.raises(ConfigurationError):
        step(ispec, start(wide), block_rng(1, 0))
    for state in (np.array(1.0), start(ispec)[0]):  # rank 0 and rank 2: neither a row nor a block
        with pytest.raises(ConfigurationError):
            step(ispec, state, block_rng(1, 0))


@pytest.mark.parametrize("spec, row", [
    pytest.param(ginar_2d(), np.array([1.5, 2.0]), id="ginar-float-row"),
    pytest.param(ginar_2d(), np.array([1]), id="ginar-short-row"),
    pytest.param(LogLinearSpec(2, 1, [0.0, 0.0], ([[0.1, 0.0], [0.0, 0.1]],), ([[0.1, 0.0], [0.0, 0.1]],)),
                 np.zeros(3), id="loglinear-short-row"),
    pytest.param(ingarch_1d(), np.array([1, 0]), id="ingarch-int64-row"),
    pytest.param(ingarch_1d(), [1.0], id="ingarch-short-list"),
    pytest.param(ingarch_1d(), [1.0, 0, 0], id="ingarch-long-list"),
    pytest.param(ginar_2d(), [1, 2], id="ginar-list"),
    pytest.param(ingarch_1d(), (1.0, 0), id="ingarch-tuple"),
    pytest.param(IngarchSpec(1, 1, [1.0], ([[0.3]],), ([[0.5]],), {"scheme": "comonotone"}), [1.0, 0],
                 id="copula-list"),
])
def test_a_row_that_does_not_match_the_model_is_refused(spec, row):
    # A row is checked by the block's rule: k entries, an integer dtype exactly
    # for GINAR.  A list, the float step's own row, is checked for its length,
    # and only a row with a float_lead takes one; no other sequence is a row.
    with pytest.raises(ConfigurationError, match=f"row state does not match a {spec.kind} model"):
        step(spec, row, block_rng(1, 0))


def _lead_case(k: int, gen: np.random.Generator) -> tuple[list, np.ndarray, np.ndarray]:
    """A row of ``k`` entries, floats of mixed magnitude and ints past 2**53, and 3 lead rows with zeros."""
    x = (gen.uniform(0, 1, k) * 10.0 ** gen.integers(-3, 8, k)).tolist()
    for i in np.flatnonzero(gen.uniform(size=k) < 0.3):
        x[i] = int(gen.integers(2**53, 2**62)) | 1  # odd past 2**53: the float rounds it
    c = gen.uniform(0, 1, (3, k)) * 10.0 ** gen.integers(-6, 2, (3, k))
    c[gen.uniform(size=c.shape) < 0.25] = 0.0
    return x, c, gen.uniform(0, 10, 3) * (gen.uniform(size=3) < 0.7)


@pytest.mark.parametrize("k", range(1, FLOAT_ROW_LIMIT + 1))
def test_the_float_lambdas_add_as_einsum_does(k):
    # Bit for bit against einsum's products added by a plain loop in index
    # order, at every row length the float step admits, so whole groups of
    # eight, pairs and the product left over; ints enter as numpy's float64
    # cast rounds them.  Einsum only multiplies here, so its own order of
    # addition on this build does not enter.
    gen = np.random.default_rng(k)
    for _ in range(200):
        x, c, d = _lead_case(k, gen)
        floats = np.array([v if isinstance(v, float) else float(np.int64(v)) for v in x])
        expected = []
        for row, offset in zip(np.einsum("k,jk->jk", floats, c).tolist(), d.tolist()):
            total = 0.0
            for term in row:
                total = total + term
            expected.append(total + offset)
        assert _lambdas(x, list(zip(c.tolist(), d.tolist()))) == expected


@pytest.mark.parametrize("p, q", [(1, FLOAT_ROW_LIMIT // 2 + 1), (8, 1)])
def test_a_row_past_the_float_limit_runs_as_a_block_of_one(p, q):
    spec = IngarchSpec(p, q, [1.0] * p, [np.eye(p) * 0.1 / q] * q, [np.eye(p) * 0.1 / q] * q)
    assert spec.float_lead is None
    new, counts, lam = step(spec, validate_window(spec, default_window(spec)), block_rng(3, 0))
    assert isinstance(new, np.ndarray) and len(counts) == len(lam) == p
    with pytest.raises(ConfigurationError, match="row state does not match"):
        step(spec, new.tolist(), block_rng(3, 0))


def test_a_block_of_one_of_a_float_row_model_steps_in_floats(monkeypatch):
    # A (1, 1, k) block takes the float step and comes back as arrays in the
    # block's dtypes, equal to the list row's step, whose counts are ints past
    # 2**53 that the block holds as float64 rounds them; a block of two
    # replicates or of two chains still runs the einsum block path.
    chain_step, calls = models.ingarch_chain_step, []

    def counted(*args):
        calls.append(args)
        return chain_step(*args)

    monkeypatch.setattr(models, "ingarch_chain_step", counted)
    lags = ([[0.2, 0.05], [0.1, 0.15]], [[0.1, 0.0], [0.05, 0.1]])
    spec = IngarchSpec(2, 2, [1.0, 0.5], lags, lags[::-1])
    row = [3.5, 1.25, 2.0, 0.75, 2**53 + 1, 2**55 + 3, 2**60 + 5, 7]
    block = np.array(row, dtype=float)[None, None]
    new_list, counts, lam = step(spec, row, block_rng(3, 0))
    new, counts_block, lam_block = step(spec, block, block_rng(3, 0))
    assert len(calls) == 2 and isinstance(new_list, list)
    assert (new.dtype, counts_block.dtype, lam_block.dtype) == (np.float64, np.int64, np.float64)
    assert new.shape == (1, 1, 8) and counts_block.shape == lam_block.shape == (1, 1, 2)
    assert new[0, 0].tolist() == [float(v) for v in new_list]
    assert counts_block[0, 0].tolist() == counts and lam_block[0, 0].tolist() == lam
    for shape in ((2, 1), (1, 2)):
        step(spec, np.broadcast_to(block, shape + (8,)).copy(), block_rng(3, 0))
    assert len(calls) == 2


_IDENTITY_2D = ([[1.0, 0.0], [0.0, 1.0]],)


def _loglinear_nan_at(coordinate: int) -> LogLinearSpec:
    """A model whose mu at ``coordinate`` is inf - inf = NaN from the row (1e308, 1e308), the other 0."""
    lead = np.zeros((2, 2))
    lead[coordinate] = [2.0, -2.0]
    return LogLinearSpec(2, 1, [0.0, 0.0], (lead,), _IDENTITY_2D)


@pytest.mark.parametrize("spec, row", [
    pytest.param(_loglinear_nan_at(0), [1e308, 1e308, 0.0, 0.0], id="loglinear-nan-first"),
    pytest.param(_loglinear_nan_at(1), [1e308, 1e308, 0.0, 0.0], id="loglinear-nan-last"),
    pytest.param(LogLinearSpec(2, 1, [0.0, 0.0], _IDENTITY_2D, _IDENTITY_2D), [0.0, MU_LIMIT + 0.5, 0.0, 0.0],
                 id="loglinear-just-past-the-limit"),
    pytest.param(IngarchSpec(2, 1, [0.0, 0.0], _IDENTITY_2D, _IDENTITY_2D), [1.0, 2e18, 0.0, 0.0],
                 id="ingarch-past-the-limit"),
])
def test_row_step_refuses_what_the_block_step_refuses(spec, row):
    with pytest.raises(DivergenceError) as by_row:
        step(spec, np.array(row), block_rng(1, 0))
    with pytest.raises(DivergenceError) as by_block:
        step(spec, block_state([np.array(row)]), block_rng(1, 0))
    assert str(by_row.value) == str(by_block.value)


#: Each counting family's largest admissible mean: bernoulli's 1, none for
#: poisson (so the intensity limit), and the geometric rule's bound.
_LARGEST_COUNTING_MEAN = {"bernoulli": 1.0, "poisson": 1e18, "geometric": POISSON_LAM_MAX / 11}


def _ginar_at_its_largest_means(gen: np.random.Generator, counting: str, immigration: str) -> GinarSpec:
    """A GINAR spec whose entries are its family's largest admissible mean, 0 or a random fraction of it."""
    p, q = int(gen.integers(1, 4)), int(gen.integers(1, 3))
    scale = gen.choice([1.0, 0.0, -1.0], size=(q, p, p), p=[0.4, 0.2, 0.4])
    scale[scale < 0] = gen.uniform(size=int((scale < 0).sum())) ** 4
    if immigration == "constant":
        values = gen.integers(0, 2**53, p).tolist()
    else:
        values = (1e18 * np.where(gen.uniform(size=p) < 0.5, 1.0, gen.uniform(size=p))).tolist()
    return GinarSpec(p, q, tuple(_LARGEST_COUNTING_MEAN[counting] * scale), counting,
                     ImmigrationSpec(immigration, values))


def test_ginar_steps_at_the_largest_means_end_in_success_or_divergence():
    # Under the one mean rule no GINAR draw refuses its parameters: each split
    # part's thinning mean is at most its chain's checked mean, a geometric
    # term's m (n + 10 sqrt(n)) stays below numpy's limit for n >= 2 and
    # GinarSpec's rule covers n = 1.  Starting lags put the mean between half
    # and four times 1e18, in a row, a block of 8 and a coupled pair.
    gen = np.random.default_rng(0)
    for i in range(270):
        spec = _ginar_at_its_largest_means(gen, COUNTING_FAMILIES[i % 3], IMMIGRATION_FAMILIES[i // 3 % 3])
        weight = max(float(spec.stacked_means.sum(axis=(0, 2)).max()), 1e-300)
        for chains, replicates in ((1, 1), (1, 8), (2, 4)):
            factor = np.exp(gen.uniform(np.log(0.5), np.log(4.0), (chains, replicates, spec.q * spec.p)))
            state = np.minimum(1e18 / weight * factor, 2.0**62).astype(np.int64)
            if replicates == 1:
                state = state[0, 0]  # a row
            rng = block_rng(0, i)
            try:
                for _ in range(5):
                    state, _, _ = step(spec, state, rng)
            except DivergenceError:
                pass


def test_ginar_order_two_equals_hand_stacked_pair_map():
    # A 2nd-order scalar model stepped through the window machinery must
    # reproduce the first-order map on pairs (x_t, x_{t-1}) built by hand,
    # when both consume the same per-step noise.
    spec = GinarSpec(1, 2, ([[0.3]], [[0.2]]), "bernoulli",
                     ImmigrationSpec("poisson", [1.0]))
    state = start(spec, {"counts": [[4], [2]]})
    rng, ref = block_rng(13, 0), block_rng(13, 0)
    cur, prev = 4, 2
    for t in range(60):
        state, got, _ = step(spec, state, rng)

        immigration = ref.poisson(1.0)
        thinned = ref.binomial([cur, prev], [0.3, 0.2])
        cur, prev = int(immigration + thinned.sum()), cur

        assert got[0, 0, 0] == cur
        assert np.array_equal(state[0, 0], [cur, prev])


# --- shared-path log bound ---------------------------------------------------

@pytest.mark.parametrize("s,t", [(1.0, 2.0), (2.0, 5.0), (0.5, 4.0)])
def test_log_count_ratio_respects_log_time_ratio(s, t):
    # For one shared unit-rate path, E log((1+N_t)/(1+N_s)) <= log(t) - log(s).
    n = 20000
    lam = np.empty((2, n, 1))
    lam[0], lam[1] = s, t
    ns, nt = shared_poisson(block_rng(14, 0), lam)[:, :, 0]
    values = np.log((1 + nt) / (1 + ns))
    se = values.std(ddof=1) / math.sqrt(n)
    assert values.mean() <= math.log(t) - math.log(s) + 3 * se


def test_window_distance_l1():
    spec = ingarch_1d()
    wa = {"counts": [[2]], "intensities": [[3.0]]}
    wb = {"counts": [[5]], "intensities": [[1.5]]}
    state = block_state([validate_window(spec, wa), validate_window(spec, wb)], 3)
    assert window_distance(state).tolist() == pytest.approx([3 + 1.5] * 3)
    state = block_state([np.array([1, 2]), np.array([4, 0])])
    assert window_distance(state).tolist() == pytest.approx([5.0])

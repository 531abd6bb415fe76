import math

import numpy as np
import pytest

from countsim.errors import ConfigError, ConfigurationError, DivergenceError
from countsim.models import (
    GinarSpec,
    ImmigrationSpec,
    IngarchSpec,
    LogLinearSpec,
    block_state,
    default_window,
    ginar_step,
    ingarch_intensity,
    loglinear_block_step,
    loglinear_mu,
    step,
    validate_window,
    window_distance,
)
from countsim.randomness import CountingCache, Dependence, block_rng, make_stream, shared_poisson


def ginar_2d():
    return GinarSpec(2, 1, ([[0.4, 0.0], [0.1, 0.2]],), "bernoulli",
                     ImmigrationSpec("poisson", [1.0, 1.0]))


def ingarch_1d(d=1.0, a=0.3, b=0.5):
    return IngarchSpec(1, 1, [d], ([[a]],), ([[b]],))


def one_step(spec, window, replicates, seed):
    """Counts and intensity of one batched step of ``replicates`` copies of a window."""
    _, counts, intensity = step(spec, block_state(spec, [window], replicates), 0, block_rng(seed, 0))
    return counts[0], intensity[0]


# --- spec validation ---------------------------------------------------------

def test_bernoulli_mean_above_one_rejected_at_construction():
    with pytest.raises(ConfigurationError):
        GinarSpec(1, 1, ([[1.5]],), "bernoulli", ImmigrationSpec("poisson", [1.0]))


def test_poisson_family_allows_means_above_one():
    spec = GinarSpec(1, 1, ([[1.5]],), "poisson", ImmigrationSpec("poisson", [1.0]))
    assert spec.counting_family == "poisson"


def test_constant_immigration_requires_integers():
    with pytest.raises(ConfigurationError):
        ImmigrationSpec("constant", [1.5])
    imm = ImmigrationSpec("constant", [2.0])
    assert np.array_equal(imm.draw(make_stream(0, 0, 0)), [2])


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
        validate_window(spec, [])
    with pytest.raises(ConfigurationError):
        validate_window(spec, [(np.array([-1]), np.array([1.0]))])
    ok = validate_window(spec, [(np.array([2]), np.array([2.0]))])
    assert ok[0][0].dtype == np.int64
    with pytest.raises(ConfigurationError):
        validate_window(spec, [(np.array([1.5]), np.array([2.0]))])
    with pytest.raises(ConfigurationError):
        validate_window(ginar_2d(), [np.array([1.5, 0.0])])


# --- ginar steps -------------------------------------------------------------

def test_ginar_zero_window_zero_immigration_absorbs():
    spec = GinarSpec(1, 1, ([[0.5]],), "bernoulli", ImmigrationSpec("constant", [0.0]))
    out = ginar_step(spec, [np.zeros(1, dtype=np.int64)], 0, CountingCache(), make_stream(1, 0, 0))
    assert np.array_equal(out, [0])
    counts, mean = one_step(spec, [np.zeros(1, dtype=np.int64)], 64, 1)
    assert np.array_equal(counts, np.zeros((64, 1), dtype=np.int64))
    assert np.array_equal(mean, np.zeros((64, 1)))


def test_ginar_pure_immigration_is_poisson():
    mu = 1.7
    spec = GinarSpec(1, 1, ([[0.0]],), "bernoulli", ImmigrationSpec("poisson", [mu]))
    window = [np.array([5], dtype=np.int64)]
    n = 100000
    draws = one_step(spec, window, n, 2)[0][:, 0].astype(float)
    se = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - mu) < 3 * se
    # Poisson: variance equals the mean.
    assert abs(draws.var(ddof=1) - mu) < 5 * se


def test_ginar_conditional_mean_formula():
    spec = ginar_2d()
    window = [np.array([3, 1], dtype=np.int64)]
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
    window = [(np.zeros(2, dtype=np.int64), np.zeros(2)) for _ in range(2)]
    lam = ingarch_intensity(spec, window)
    assert np.array_equal(lam, spec.intensity_offset)


def test_ingarch_intensity_arithmetic():
    spec = ingarch_1d()
    lam = ingarch_intensity(spec, [(np.array([2]), np.array([2.0]))])
    assert lam[0] == pytest.approx(1.0 + 0.3 * 2 + 0.5 * 2)


def test_ingarch_conditional_mean_is_intensity():
    spec = ingarch_1d()
    window = [(np.array([2]), np.array([2.0]))]
    n = 100000
    draws, lam = one_step(spec, window, n, 4)
    assert np.all(lam == pytest.approx(2.6))
    se = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - 2.6) < 3 * se


def test_ingarch_intensity_dominates_offset_along_path():
    spec = IngarchSpec(2, 1, [0.7, 0.2],
                       ([[0.2, 0.1], [0.0, 0.2]],),
                       ([[0.3, 0.05], [0.1, 0.25]],))
    state = block_state(spec, [default_window(spec)], 8)
    rng = block_rng(5, 0)
    for t in range(500):
        state, _, lam = step(spec, state, t, rng)
        assert np.all(lam >= spec.intensity_offset - 1e-12)


# --- loglinear steps ---------------------------------------------------------

def test_loglinear_zero_parameters_unit_intensity():
    spec = LogLinearSpec(1, 1, [0.0], ([[0.0]],), ([[0.0]],))
    state, _, lam = step(spec, block_state(spec, [[(np.zeros(1), np.zeros(1))]]), 0, block_rng(6, 0))
    assert state[1][0, 0, 0, 0] == 0.0  # mu
    assert lam[0, 0, 0] == 1.0


def test_loglinear_worked_example():
    spec = LogLinearSpec(1, 1, [0.1], ([[-0.4]],), ([[0.3]],))
    window = [(np.array([math.log(3.0)]), np.array([0.5]))]
    mu = loglinear_mu(spec, window)
    expected_mu = 0.1 - 0.4 * 0.5 + 0.3 * math.log(3.0)
    assert mu[0] == pytest.approx(expected_mu, abs=1e-12)
    assert math.exp(mu[0]) == pytest.approx(1.25807, abs=1e-5)


def test_loglinear_counts_mean_matches_intensity():
    spec = LogLinearSpec(1, 1, [0.1], ([[-0.4]],), ([[0.3]],))
    window = [(np.array([math.log(3.0)]), np.array([0.5]))]
    lam_target = math.exp(0.1 - 0.4 * 0.5 + 0.3 * math.log(3.0))
    n = 100000
    draws = one_step(spec, window, n, 7)[0].astype(float)
    se = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - lam_target) < 3 * se


def test_loglinear_divergence_carries_time_index():
    spec = LogLinearSpec(1, 1, [0.5], ([[1.3]],), ([[0.2]],))
    state = block_state(spec, [[(np.zeros(1), np.array([600.0]))]])
    with pytest.raises(DivergenceError) as err:
        loglinear_block_step(spec, state, block_rng(8, 0), t=3)
    assert err.value.time_index == 3


# --- dispatch ----------------------------------------------------------------

# One replicate of the batched step: the intensity is the scalar reference's
# and the counts are the documented closed-form draws, taken from a second
# generator with the same address.

def test_step_matches_ginar_step_bit_exactly():
    spec = ginar_2d()
    x = np.array([3, 1], dtype=np.int64)
    state = block_state(spec, [[x]])
    rng, ref = block_rng(9, 1), block_rng(9, 1)
    for t in range(20):
        state, counts, mean = step(spec, state, t, rng)
        np.testing.assert_allclose(mean[0, 0], spec.immigration.mean() + spec.mean_matrices[0] @ x, rtol=1e-15)
        immigration = ref.poisson(spec.immigration.values)
        thinned = ref.binomial(np.broadcast_to(x, (2, 2)), spec.mean_matrices[0]).sum(axis=1)
        assert np.array_equal(counts[0, 0], immigration + thinned)
        x = counts[0, 0]
        assert np.array_equal(state[0][0, 0, 0], x)


def test_step_matches_ingarch_step_bit_exactly():
    spec = ingarch_1d()
    window = [(np.array([2]), np.array([2.0]))]
    state = block_state(spec, [window])
    rng, ref = block_rng(10, 1), block_rng(10, 1)
    for t in range(20):
        state, counts, lam = step(spec, state, t, rng)
        assert np.array_equal(lam[0, 0], ingarch_intensity(spec, window))
        assert np.array_equal(counts[0, 0], ref.poisson(lam[0, 0]))
        window = [(counts[0, 0], lam[0, 0])]


def test_step_matches_loglinear_step_bit_exactly():
    spec = LogLinearSpec(1, 1, [0.1], ([[-0.4]],), ([[0.3]],))
    window = [(np.array([math.log(3.0)]), np.array([0.5]))]
    state = block_state(spec, [window])
    rng, ref = block_rng(11, 1), block_rng(11, 1)
    for t in range(20):
        state, counts, lam = step(spec, state, t, rng)
        mu = loglinear_mu(spec, window)
        assert np.array_equal(lam[0, 0], np.exp(mu))
        assert np.array_equal(counts[0, 0], ref.poisson(np.exp(mu)))
        window = [(np.log1p(counts[0, 0].astype(float)), mu)]


def test_step_keeps_window_length():
    spec = IngarchSpec(1, 3, [1.0],
                       ([[0.1]], [[0.1]], [[0.1]]),
                       ([[0.2]], [[0.1]], [[0.05]]))
    state = block_state(spec, [default_window(spec)] * 2, 5)
    assert [part.shape for part in state] == [(2, 5, 3, 1)] * 2
    rng = block_rng(12, 0)
    for t in range(10):
        state, _, _ = step(spec, state, t, rng)
        assert [part.shape for part in state] == [(2, 5, 3, 1)] * 2


def test_step_rejects_mismatched_state():
    gspec = ginar_2d()
    ispec = ingarch_1d()
    with pytest.raises(ConfigurationError):
        step(gspec, block_state(ispec, [default_window(ispec)]), 0, block_rng(1, 0))
    with pytest.raises(ConfigurationError):
        step(ispec, block_state(gspec, [default_window(gspec)]), 0, block_rng(1, 0))


def test_ginar_order_two_equals_hand_stacked_pair_map():
    # A 2nd-order scalar model stepped through the window machinery must
    # reproduce the first-order map on pairs (x_t, x_{t-1}) built by hand,
    # when both consume the same per-step noise.
    spec = GinarSpec(1, 2, ([[0.3]], [[0.2]]), "bernoulli",
                     ImmigrationSpec("poisson", [1.0]))
    state = block_state(spec, [[np.array([4], dtype=np.int64), np.array([2], dtype=np.int64)]])
    rng, ref = block_rng(13, 0), block_rng(13, 0)
    cur, prev = 4, 2
    for t in range(60):
        state, got, _ = step(spec, state, t, rng)

        immigration = ref.poisson(1.0)
        thinned = ref.binomial([cur, prev], [0.3, 0.2])
        cur, prev = int(immigration + thinned.sum()), cur

        assert got[0, 0, 0] == cur
        assert np.array_equal(state[0][0, 0, :, 0], [cur, prev])


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
    wa = [(np.array([2]), np.array([3.0]))]
    wb = [(np.array([5]), np.array([1.5]))]
    assert window_distance(spec, block_state(spec, [wa, wb], 3)).tolist() == pytest.approx([3 + 1.5] * 3)
    gspec = ginar_2d()
    state = block_state(gspec, [[np.array([1, 2])], [np.array([4, 0])]])
    assert window_distance(gspec, state).tolist() == pytest.approx([5.0])

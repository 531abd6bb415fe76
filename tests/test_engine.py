import hashlib
import json
import math

import numpy as np
import pytest

from countsim import engine
from countsim.config import plain
from countsim.engine import (
    couple,
    couple_ensemble,
    monte_carlo_moments,
    simulate,
)
from countsim.errors import ConfigError, DivergenceError
from countsim.models import (
    FLOAT_ROW_LIMIT,
    GinarSpec,
    ImmigrationSpec,
    IngarchSpec,
    LogLinearSpec,
    block_state,
    default_window,
    step,
    validate_window,
)
from countsim.randomness import SCALAR_DRAW_LIMIT, block_rng
from manifest import load_manifest, moved


def iid_poisson1():
    return IngarchSpec(1, 1, [1.0], ([[0.0]],), ([[0.0]],))


def stationary_2d():
    return IngarchSpec(2, 1, [1.0, 0.5],
                       ([[0.2, 0.1], [0.0, 0.2]],),
                       ([[0.3, 0.05], [0.1, 0.25]],))


def _batch_se(series: np.ndarray, batches: int = 100) -> float:
    means = series[: len(series) // batches * batches].reshape(batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(batches))


# --- simulate ----------------------------------------------------------------

def test_degenerate_model_is_iid_poisson():
    path = simulate(iid_poisson1(), 100000, 100, master_seed=7)
    sizes = path.counts[:, 0].astype(float)
    se = sizes.std(ddof=1) / math.sqrt(len(sizes))
    assert abs(sizes.mean() - 1.0) < 3 * se
    assert np.all(path.intensities == 1.0)


def test_simulate_is_reproducible():
    a = simulate(stationary_2d(), 3000, 200, master_seed=99)
    b = simulate(stationary_2d(), 3000, 200, master_seed=99)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.intensities, b.intensities)
    c = simulate(stationary_2d(), 3000, 200, master_seed=100)
    assert not np.array_equal(a.counts, c.counts)


def test_result_records_compare_by_identity():
    spec = stationary_2d()
    window = default_window(spec)
    for make in (lambda: simulate(spec, 5, 0), lambda: couple(spec, 10, window, window)):
        record = make()
        hash(record)
        assert record == record and record != make()


def test_ginar_scalar_long_run_mean():
    spec = GinarSpec(1, 1, ([[0.5]],), "bernoulli", ImmigrationSpec("poisson", [1.0]))
    path = simulate(spec, 200000, 1000, master_seed=11)
    series = path.counts[:, 0].astype(float)
    se = _batch_se(series)  # batch means absorb the autocorrelation
    assert abs(series.mean() - 2.0) < 3 * se


@pytest.mark.parametrize("call, field", [
    pytest.param(lambda spec, w: simulate(spec, 0), "T", id="simulate-T-zero"),
    pytest.param(lambda spec, w: simulate(spec, 10.5), "T", id="simulate-T-float"),
    pytest.param(lambda spec, w: simulate(spec, True, 0), "T", id="simulate-T-bool"),
    pytest.param(lambda spec, w: simulate(spec, 10, burn_in=-1), "burn_in", id="simulate-burn_in-negative"),
    pytest.param(lambda spec, w: couple(spec, 10.5, w, w), "n", id="couple-n-float"),
    pytest.param(lambda spec, w: couple_ensemble(spec, 20, w, w, replicates=True), "replicates",
                 id="couple_ensemble-replicates-bool"),
    pytest.param(lambda spec, w: monte_carlo_moments(spec, [1.0], [0.1], T=100, replicates=2.5), "replicates",
                 id="moments-replicates-float"),
    pytest.param(lambda spec, w: monte_carlo_moments(spec, [], [0.1], T=100), "r_values",
                 id="moments-r_values-empty"),
])
def test_library_arguments_are_checked_by_field(call, field):
    spec = iid_poisson1()
    with pytest.raises(ConfigError) as err:
        call(spec, default_window(spec))
    assert [problem.split(":")[0] for problem in err.value.problems] == [field]


def test_simulate_divergence_reports_time_index():
    bad = IngarchSpec(1, 1, [1.0], ([[0.5]],), ([[0.7]],))
    with pytest.raises(DivergenceError) as err:
        simulate(bad, 400, 0, master_seed=3)
    assert err.value.time_index is not None


def test_divergence_index_is_the_first_step_that_fails():
    spec = LogLinearSpec(1, 1, [0.5], ([[1.3]],), ([[0.2]],))
    with pytest.raises(DivergenceError) as err:
        simulate(spec, 100, 0, master_seed=8)
    k = err.value.time_index
    assert k is not None and k > 0
    assert simulate(spec, k, 0, master_seed=8).length == k
    with pytest.raises(DivergenceError) as err:
        simulate(spec, k + 1, 0, master_seed=8)
    assert err.value.time_index == k


@pytest.mark.parametrize("spec, seed, message", [
    pytest.param(IngarchSpec(1, 1, [1.0], ([[0.5]],), ([[0.7]],)), 3, "intensity exceeded 1e", id="ingarch-intensity"),
    pytest.param(GinarSpec(1, 1, ([[1.5]],), "geometric", ImmigrationSpec("poisson", [1.0])), 3,
                 "intensity exceeded 1e", id="ginar-geometric-counts"),
    pytest.param(GinarSpec(1, 1, ([[1.5]],), "poisson", ImmigrationSpec("poisson", [1.0])), 3,
                 "intensity exceeded 1e", id="ginar-poisson-thinning-mean"),
    pytest.param(LogLinearSpec(1, 1, [0.5], ([[1.3]],), ([[0.2]],)), 8, "log intensity exceeded", id="loglinear-mu"),
    # Five lag x column terms: the mean passes 1e18 before their int64 sum could wrap.
    pytest.param(GinarSpec(5, 1, ([[1.0] * 5] * 5,), "bernoulli", ImmigrationSpec("constant", [1] * 5)), 3,
                 "intensity exceeded 1e", id="ginar-bernoulli-sum-of-terms"),
    # A stationary model whose mean stays below 1e18 (9.9e17 + 1e-3 * 2**63)
    # while its geometric immigration tail passes 2**63.
    pytest.param(GinarSpec(1, 1, ([[1e-3]],), "bernoulli", ImmigrationSpec("geometric", [9.9e17])), 33,
                 "counts wrapped past the 64-bit range", id="ginar-geometric-immigration-tail"),
])
def test_each_family_fails_at_its_range_check(spec, seed, message):
    with pytest.raises(DivergenceError, match=message) as err:
        simulate(spec, 400, 0, master_seed=seed)
    k = err.value.time_index
    assert k is not None and k > 0
    assert simulate(spec, k, 0, master_seed=seed).length == k
    with pytest.raises(DivergenceError, match=message) as err:
        simulate(spec, k + 1, 0, master_seed=seed)
    assert err.value.time_index == k


def test_a_geometric_immigration_draw_past_64_bits_is_a_divergence():
    # numpy returns 2**63 - 1 for every geometric draw past it, which the row
    # reported as the count 2**63 - 2 at t = 11962; no thinning sum wraps it.
    # About one draw in 10,000 passes 2**63 at mean 1e18.
    spec = GinarSpec(1, 1, ([[0.0]],), "bernoulli", ImmigrationSpec("geometric", [1e18]))
    with pytest.raises(DivergenceError, match="counts wrapped past the 64-bit range") as err:
        simulate(spec, 30000, 0, master_seed=1)
    assert 0 < err.value.time_index <= 11962
    with pytest.raises(DivergenceError, match="counts wrapped past the 64-bit range") as err:
        monte_carlo_moments(spec, [1.0], [1e-20], 2000, burn_in=0, replicates=64, master_seed=1)
    assert err.value.time_index > 0


@pytest.mark.parametrize("family", ["poisson", "geometric"])
def test_immigration_means_past_the_intensity_limit_are_refused(family):
    with pytest.raises(ConfigError, match=r"immigration\.values\[0\]: mean 1e\+19 exceeds 1e\+18"):
        GinarSpec(1, 1, ([[0.5]],), "bernoulli", {"family": family, "values": [1e19]})


def test_linear_intensity_offsets_past_the_intensity_limit_are_refused():
    # lambda >= d entrywise: past 1e18 the first step would diverge.  1e18 itself
    # runs, and log-linear offsets stay unbounded, since their coefficients are signed.
    assert simulate(IngarchSpec(1, 1, [1e18], ([[0.0]],), ([[0.0]],)), 1, 0).length == 1
    with pytest.raises(ConfigError, match=r"intensity_offset\[0\]: mean 1.7976931348623157e\+308 exceeds 1e\+18"):
        IngarchSpec(1, 1, [np.finfo(float).max], ([[0.0]],), ([[0.0]],))
    assert LogLinearSpec(1, 1, [np.finfo(float).max], ([[-1.0]],), ([[0.0]],)).offset[0] == np.finfo(float).max


def test_a_draw_that_refuses_its_parameters_is_a_divergence():
    # numpy refuses a negative binomial whose Poisson mixing could pass its limit:
    # this mean draws one term, but not the two that immigration brings in at
    # step 0.  Their mean, 1.4e18, is past the mean rule, which refuses it first.
    spec = GinarSpec(1, 1, ([[7e17]],), "geometric", ImmigrationSpec("constant", [2]))
    with pytest.raises(DivergenceError, match="intensity exceeded 1e") as err:
        simulate(spec, 10, 0)
    assert err.value.time_index == 1


@pytest.mark.parametrize("replicates", [
    8,
    128,  # two blocks; at this seed block 1 diverges at 210, before block 0 at 212
])
def test_a_divergence_in_a_pool_worker_keeps_its_index(monkeypatch, replicates):
    monkeypatch.setattr(engine, "POOL_MIN_BLOCK_STEPS", 0)  # a run this short would run in process
    spec = IngarchSpec(1, 1, [1.0], ([[0.5]],), ([[0.7]],))
    window = {"counts": [[4]], "intensities": [[3.0]]}
    errors = []
    for jobs in (1, 2):
        with pytest.raises(DivergenceError) as err:
            couple_ensemble(spec, 400, default_window(spec), window, master_seed=9, replicates=replicates, jobs=jobs)
        errors.append(err.value)
    assert errors[0].time_index == errors[1].time_index > 0
    assert str(errors[0]) == str(errors[1])


def _ginar_at_the_limit(thinning: float) -> GinarSpec:
    """Poisson immigration of mean 1e18 from the zero window, and bernoulli thinning of mean ``thinning``.

    With no thinning every step's mean is exactly 1e18.  A thinning mean of
    1e-16 adds about 100 to step 1's mean, which rounds to 1e18 + 128, one
    ulp past the limit, whatever step 0's count of about 1e18 drew.
    """
    return GinarSpec(1, 1, ([[thinning]],), "bernoulli", ImmigrationSpec("poisson", [1e18]))


_LIMIT_REGIMES = {
    "row": lambda spec, T, jobs: simulate(spec, T, 0, master_seed=5).intensities,
    "block-of-8": lambda spec, T, jobs: monte_carlo_moments(spec, [1.0], [1e-20], T, burn_in=0, replicates=8,
                                                            master_seed=5, jobs=jobs),
    "coupled-pair": lambda spec, T, jobs: couple_ensemble(spec, T, default_window(spec), {"counts": [[7]]},
                                                          master_seed=5, replicates=1, jobs=jobs),
}


@pytest.mark.parametrize("regime", list(_LIMIT_REGIMES))
def test_a_ginar_mean_runs_at_1e18_and_diverges_one_ulp_past_it(monkeypatch, regime):
    monkeypatch.setattr(engine, "POOL_MIN_BLOCK_STEPS", 0)  # so that jobs=2 runs the blocks in a worker
    run = _LIMIT_REGIMES[regime]
    result = run(_ginar_at_the_limit(0.0), 20, 2)
    if regime == "row":
        assert np.all(result == 1e18)
    errors = []
    for jobs in (1, 2):
        with pytest.raises(DivergenceError, match=r"intensity exceeded 1e\+18") as err:
            run(_ginar_at_the_limit(1e-16), 20, jobs)
        errors.append(err.value)
    assert errors[0].time_index == errors[1].time_index == 1
    assert str(errors[0]) == str(errors[1])


def _block_of_one(spec, T: int, burn_in: int, master_seed: int, replicate_id: int = 0):
    """The reference for simulate: models.step on a block of one from block_rng(master_seed, replicate_id)."""
    rng = block_rng(master_seed, replicate_id)
    state = block_state([validate_window(spec, default_window(spec))])
    counts, intensities = [], []
    for t in range(T + burn_in):
        try:
            state, y, lam = step(spec, state, rng)
        except DivergenceError as exc:
            exc.time_index = t
            raise
        if t >= burn_in:
            counts.append(y[0, 0])
            intensities.append(lam[0, 0])
    return np.array(counts), np.array(intensities)


def _lag_matrices(p: int, q: int, total: float, seed: int, signed: bool = False) -> tuple:
    """``q`` p x p matrices whose absolute entries sum to ``total`` along every row, over the lags."""
    gen = np.random.default_rng(seed)
    mats = gen.uniform(0.1, 1.0, (q, p, p))
    mats *= total / mats.sum(axis=(0, 2))[None, :, None]
    if signed:
        mats *= gen.choice([-1.0, 1.0], mats.shape)
    return tuple(m.tolist() for m in mats)


def _dependence(scheme: str, p: int):
    if scheme != "gaussian":
        return {"scheme": scheme}
    return {"scheme": scheme, "correlation": (0.7 * np.eye(p) + 0.3).tolist()}


def _intensity_spec(kind: str, p: int, q: int, scheme: str):
    if kind == "ingarch":
        return IngarchSpec(p, q, [1.0 + 0.5 * j for j in range(p)], _lag_matrices(p, q, 0.3, 1),
                           _lag_matrices(p, q, 0.4, 2), _dependence(scheme, p))
    return LogLinearSpec(p, q, [0.3] * p, _lag_matrices(p, q, 0.3, 3, signed=True),
                         _lag_matrices(p, q, 0.4, 4, signed=True), _dependence(scheme, p))


def _ginar_spec(p: int, q: int, counting: str, immigration: str):
    values = [1.0] * p if immigration != "constant" else [1] * p
    return GinarSpec(p, q, _lag_matrices(p, q, 0.6, 5), counting, ImmigrationSpec(immigration, values))


_WIDE = SCALAR_DRAW_LIMIT + 1  # past the scalar draws: the block step makes array calls
# Linear rows around FLOAT_ROW_LIMIT (products 2 p**2 q): a first fold of eight
# (k = 8), the largest p = 1 row admitted and the first past it, and p = 3, 7
# and 8 at q = 1 (18, 98 and 128 products).
_FLOAT_ROW_EDGES = ((1, 4), (1, FLOAT_ROW_LIMIT // 2), (1, FLOAT_ROW_LIMIT // 2 + 1), (3, 1), (7, 1), (8, 1))
_SINGLE_PATH_CASES = [
    pytest.param(lambda c=c, i=i: _ginar_spec(2, 1, c, i), id=f"ginar-{c}-{i}")
    for c in ("bernoulli", "poisson", "geometric") for i in ("poisson", "geometric", "constant")
] + [
    pytest.param(lambda c=c: _ginar_spec(2, 2, c, "poisson"), id=f"ginar-{c}-q2")
    for c in ("bernoulli", "poisson", "geometric")
] + [
    pytest.param(lambda c=c: _ginar_spec(_WIDE, 1, c, "geometric"), id=f"ginar-{c}-p{_WIDE}")
    for c in ("bernoulli", "poisson")
] + [
    pytest.param(lambda k=k, p=p, q=q, s=s: _intensity_spec(k, p, q, s), id=f"{k}-{s}-p{p}-q{q}")
    for k in ("ingarch", "loglinear") for s in ("independent", "comonotone", "gaussian")
    for p, q in ((2, 1), (2, 2), (_WIDE, 1))
] + [
    pytest.param(lambda p=p, q=q: _intensity_spec("ingarch", p, q, "independent"), id=f"ingarch-independent-p{p}-q{q}")
    for p, q in _FLOAT_ROW_EDGES
]


@pytest.mark.parametrize("make", _SINGLE_PATH_CASES)
def test_simulate_matches_the_block_step_bit_for_bit(make):
    spec = make()
    path = simulate(spec, 300, 25, master_seed=21, replicate_id=4)
    counts, intensities = _block_of_one(spec, 300, 25, master_seed=21, replicate_id=4)
    assert path.counts.dtype == counts.dtype and path.intensities.dtype == intensities.dtype
    assert np.array_equal(path.counts, counts)
    assert np.array_equal(path.intensities, intensities)


@pytest.mark.parametrize("spec, seed", [
    pytest.param(IngarchSpec(1, 1, [1.0], ([[0.5]],), ([[0.7]],)), 3, id="ingarch"),
    pytest.param(IngarchSpec(2, 1, [1.0, 1.0], ([[0.5, 0.0], [0.0, 0.5]],), ([[0.7, 0.0], [0.0, 0.7]],),
                             {"scheme": "comonotone"}), 3, id="ingarch-comonotone"),
    pytest.param(GinarSpec(1, 1, ([[1.5]],), "geometric", ImmigrationSpec("poisson", [1.0])), 3, id="ginar-geometric"),
    pytest.param(GinarSpec(1, 1, ([[1.5]],), "poisson", ImmigrationSpec("poisson", [1.0])), 3, id="ginar-poisson"),
    pytest.param(LogLinearSpec(1, 1, [0.5], ([[1.3]],), ([[0.2]],)), 8, id="loglinear"),
])
def test_simulate_diverges_at_the_block_step_index(spec, seed):
    with pytest.raises(DivergenceError) as row:
        simulate(spec, 400, 5, master_seed=seed)
    with pytest.raises(DivergenceError) as block:
        _block_of_one(spec, 400, 5, master_seed=seed)
    assert row.value.time_index == block.value.time_index > 5
    assert str(row.value) == str(block.value)


def _pinned_library_runs(seed: int) -> dict:
    """Small in-process runs on the paths neither CLI manifest reaches, by name.

    Copula rows (comonotone and Gaussian), a log-linear row, comonotone blocks,
    geometric immigration in a row and in blocks of 64 and 3 replicates, and a
    linear block of one replicate, which steps in Python floats.
    Geometric counting is left out: its draws skip zero counts, which moved
    its bits after these digests were made.
    """
    gaussian = {"scheme": "gaussian", "correlation": [[1.0, 0.6], [0.6, 1.0]]}
    comonotone = {"scheme": "comonotone"}

    def ingarch(dependence):
        return IngarchSpec(2, 1, [1.0, 0.5], ([[0.2, 0.1], [0.0, 0.2]],), ([[0.3, 0.05], [0.1, 0.25]],), dependence)

    def loglinear(dependence):
        return LogLinearSpec(2, 1, [0.3, 0.2], ([[0.2, -0.1], [0.1, 0.3]],), ([[0.3, 0.1], [-0.2, 0.25]],),
                             dependence)

    ginar = GinarSpec(2, 1, ([[0.3, 0.1], [0.2, 0.4]],), "bernoulli", ImmigrationSpec("geometric", [1.0, 0.5]))
    window = {"counts": [[9, 0]], "intensities": [[6.0, 1.0]]}
    return {
        "simulate/loglinear-independent": lambda: simulate(loglinear({}), 200, 20, seed),
        "simulate/ingarch-comonotone": lambda: simulate(ingarch(comonotone), 200, 20, seed),
        "simulate/ingarch-gaussian": lambda: simulate(ingarch(gaussian), 200, 20, seed),
        "simulate/loglinear-gaussian": lambda: simulate(loglinear(gaussian), 200, 20, seed),
        "simulate/ginar-geometric-immigration": lambda: simulate(ginar, 200, 20, seed),
        "couple_ensemble/ingarch-comonotone":
            lambda: couple_ensemble(ingarch(comonotone), 30, default_window(ingarch(comonotone)), window, seed, 67),
        "couple_ensemble/ginar-geometric-immigration":
            lambda: couple_ensemble(ginar, 30, default_window(ginar), {"counts": [[9, 0]]}, seed, 67),
        "monte_carlo_moments/loglinear-comonotone":
            lambda: monte_carlo_moments(loglinear(comonotone), [1, 2], [0.1], 100, 10, 67, seed),
        "monte_carlo_moments/ingarch-independent-one-replicate":
            lambda: monte_carlo_moments(ingarch({}), [1, 2], [0.1], 100, 10, 1, seed),
    }


def test_library_runs_match_the_determinism_manifest():
    # The SHA-256 of each run's record in JSON types; made at the commit
    # before copula rows ran through the block step, so a row, a copula score
    # draw or an immigration draw that moves a bit fails here.
    manifest = load_manifest()
    digests = {name: hashlib.sha256(json.dumps(plain(run()), sort_keys=True).encode()).hexdigest()
               for name, run in _pinned_library_runs(manifest["seed"]).items()}
    assert digests == manifest["library"]["digests"], moved(digests, manifest["library"]["digests"], "outputs moved")


def test_csv_export_layout(tmp_path):
    path = simulate(stationary_2d(), 50, 10, master_seed=5)
    out = tmp_path / "path.csv"
    path.to_csv(out)
    raw = out.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "t,y_1,y_2,lambda_1,lambda_2"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert first[0] == "0"
    int(first[1]); int(first[2])
    float(first[3]); float(first[4])


def _reference_csv(path) -> bytes:
    """Row-by-row formatter: the byte layout the chunked writer must keep."""
    p = path.dimension
    lines = ["t," + ",".join(f"y_{j + 1}" for j in range(p)) + "," + ",".join(f"lambda_{j + 1}" for j in range(p))]
    for t in range(path.length):
        ys = ",".join(str(int(v)) for v in path.counts[t])
        lams = ",".join(repr(float(v)) for v in path.intensities[t])
        lines.append(f"{t},{ys},{lams}")
    return ("\n".join(lines) + "\n").encode()


def test_chunked_csv_writer_matches_row_by_row_reference(tmp_path, monkeypatch):
    path = simulate(stationary_2d(), 50, 10, master_seed=5)
    monkeypatch.setattr(engine, "_CSV_CHUNK_ROWS", 7)  # 50 rows span eight chunks
    path.to_csv(tmp_path / "small.csv")
    assert (tmp_path / "small.csv").read_bytes() == _reference_csv(path)
    ginar = simulate(GinarSpec(1, 1, ([[0.5]],), "bernoulli", ImmigrationSpec("poisson", [1.0])), 9, 0)
    ginar.to_csv(tmp_path / "ginar.csv")
    assert (tmp_path / "ginar.csv").read_bytes() == _reference_csv(ginar)


def test_csv_export_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    simulate(stationary_2d(), 500, 100, master_seed=21).to_csv(a)
    simulate(stationary_2d(), 500, 100, master_seed=21).to_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_ergodic_mean_approaches_fixed_point():
    from countsim.linalg import stationary_mean

    spec = stationary_2d()
    target = stationary_mean([1.0, 0.5], [[0.5, 0.15], [0.1, 0.45]])
    errors = []
    for T in (10000, 100000):
        path = simulate(spec, T, 1000, master_seed=20260810)
        errors.append(float(np.abs(path.counts.mean(axis=0) - target).sum()))
    assert errors[1] < errors[0]


# --- couple ------------------------------------------------------------------

def test_coupling_null_case_stays_at_zero():
    spec = stationary_2d()
    w = default_window(spec)
    report = couple(spec, 50, w, w, master_seed=1)
    assert report.initial_distance == 0.0
    assert all(d == 0.0 for d in report.mean_distances)
    assert report.fitted_rate == "degenerate-equal"


def test_coupling_contracts_for_stationary_model():
    spec = IngarchSpec(2, 1, [1.0, 1.0],
                       ([[0.0, 0.0], [0.0, 0.0]],),
                       ([[0.5, 0.4], [0.0, 0.5]],))
    wa = default_window(spec)
    wb = {"counts": [[10, 10]], "intensities": [[8.0, 8.0]]}
    ens = couple_ensemble(spec, 200, wa, wb, master_seed=5, replicates=64)
    assert isinstance(ens.fitted_rate, float)
    assert ens.fitted_rate < 1.0
    assert ens.mean_distances[-1] < 1e-3 * ens.initial_distance


def test_coupling_decays_for_scalar_model_near_the_boundary():
    # rho(A + B) = 0.8 < 1; mean distance over 200 replicates decays.
    spec = IngarchSpec(1, 1, [1.0], ([[0.3]],), ([[0.5]],))
    wa = default_window(spec)
    wb = {"counts": [[10]], "intensities": [[8.0]]}
    ens = couple_ensemble(spec, 200, wa, wb, master_seed=7, replicates=200, jobs=4)
    assert ens.mean_distances[-1] < ens.initial_distance
    assert isinstance(ens.fitted_rate, float) and ens.fitted_rate < 1.0


def test_coupling_no_decay_for_violating_model():
    bad = IngarchSpec(1, 1, [1.0], ([[0.5]],), ([[0.7]],))
    wa = default_window(bad)
    wb = {"counts": [[10]], "intensities": [[8.0]]}
    ens = couple_ensemble(bad, 200, wa, wb, master_seed=5, replicates=32)
    assert ens.median_final_distance >= ens.initial_distance
    assert ens.fitted_rate == "no-decay"


def test_couple_requires_minimum_iterations_and_valid_windows():
    spec = stationary_2d()
    w = default_window(spec)
    with pytest.raises(ValueError):
        couple(spec, 5, w, w, master_seed=1)
    from countsim.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        couple(spec, 20, w, [np.array([1, 2])], master_seed=1)
    with pytest.raises(ConfigurationError):
        couple(spec, 20, w, {"counts": [[1, 2]]}, master_seed=1)


def test_couple_rejects_non_integer_window_counts():
    from countsim.errors import ConfigurationError

    ginar = GinarSpec(1, 1, ([[0.5]],), "bernoulli", ImmigrationSpec("poisson", [1.0]))
    with pytest.raises(ConfigurationError):
        couple(ginar, 20, {"counts": [[1.5]]}, {"counts": [[0]]}, master_seed=1)
    ingarch = stationary_2d()
    with pytest.raises(ConfigurationError):
        couple(ingarch, 20, {"counts": [[1.5, 0.0]], "intensities": [[1.0, 1.0]]},
               default_window(ingarch), master_seed=1)


def test_windows_a_distance_past_the_double_range_apart_are_refused_before_any_block(monkeypatch):
    # The model of configs/ingarch_couple.yaml: lambda reads no intensity, so the
    # chains meet within a few steps, and the fit took log(inf) and reported NaN.
    spec = IngarchSpec(2, 1, [1.0, 1.0], ([[0.0, 0.0], [0.0, 0.0]],), ([[0.5, 0.4], [0.0, 0.5]],))
    far = {"counts": [[10, 10]], "intensities": [[1.7e308, 1.7e308]]}
    assert couple(spec, 20, far, far).fitted_rate == "degenerate-equal"  # such a window runs
    monkeypatch.setattr(engine, "_map_blocks", lambda *args: pytest.fail("a block ran"))
    for run in (lambda: couple(spec, 50, default_window(spec), far, master_seed=502),
                lambda: couple_ensemble(spec, 50, default_window(spec), far, master_seed=502, replicates=4)):
        with pytest.raises(ConfigError) as err:
            run()
        assert err.value.problems == ["window_b: expected a finite l1 distance from window_a, got inf"]


def test_couple_single_run_reproducible():
    spec = stationary_2d()
    wa = default_window(spec)
    wb = {"counts": [[4, 4]], "intensities": [[3.0, 3.0]]}
    r1 = couple(spec, 60, wa, wb, master_seed=9)
    r2 = couple(spec, 60, wa, wb, master_seed=9)
    assert np.array_equal(r1.mean_distances, r2.mean_distances)
    assert r1.fitted_rate == r2.fitted_rate
    # A single run is the ensemble of one: replicate 0 is block 0 of one replicate.
    one = couple_ensemble(spec, 60, wa, wb, master_seed=9, replicates=1)
    assert np.array_equal(couple(spec, 60, wa, wb, master_seed=9, replicate_id=0).mean_distances, one.mean_distances)
    assert r1.replicates == one.replicates == 1


def test_couple_ensemble_parallel_matches_serial(monkeypatch):
    monkeypatch.setattr(engine, "POOL_MIN_BLOCK_STEPS", 0)  # a run this short would run in process
    spec = stationary_2d()
    wa = default_window(spec)
    wb = {"counts": [[4, 4]], "intensities": [[3.0, 3.0]]}
    serial = couple_ensemble(spec, 40, wa, wb, master_seed=9, replicates=6, jobs=1)
    parallel = couple_ensemble(spec, 40, wa, wb, master_seed=9, replicates=6, jobs=3)
    assert np.array_equal(serial.mean_distances, parallel.mean_distances)
    assert serial.fitted_rate == parallel.fitted_rate
    # Several blocks, shared out over fewer workers than blocks.
    assert engine._blocks(130) == [(0, 64), (1, 64), (2, 2)]
    serial = couple_ensemble(spec, 20, wa, wb, master_seed=9, replicates=130, jobs=1)
    parallel = couple_ensemble(spec, 20, wa, wb, master_seed=9, replicates=130, jobs=2)
    assert np.array_equal(serial.mean_distances, parallel.mean_distances)
    assert serial.median_final_distance == parallel.median_final_distance


def test_a_run_short_of_pool_min_block_steps_starts_no_worker(monkeypatch):
    import multiprocessing

    started = []

    class InlinePool:  # multiprocessing.Pool as _map_blocks uses it, run in process
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks):
            return map(fn, tasks)

    spec = stationary_2d()
    wa, wb = default_window(spec), {"counts": [[4, 4]], "intensities": [[3.0, 3.0]]}
    limit = engine.POOL_MIN_BLOCK_STEPS
    monkeypatch.setattr(multiprocessing, "Pool", lambda processes: pytest.fail("a worker started"))
    couple_ensemble(spec, limit - 1, wa, wb, replicates=2, jobs=4)  # one block of limit - 1 steps
    monte_carlo_moments(spec, [1.0], [0.1], T=limit - 11, burn_in=10, replicates=2, jobs=4)
    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    couple_ensemble(spec, limit, wa, wb, replicates=2, jobs=4)
    monte_carlo_moments(spec, [1.0], [0.1], T=limit - 10, burn_in=10, replicates=2, jobs=4)  # burn-in counts
    couple_ensemble(spec, limit // 2, wa, wb, replicates=65, jobs=4)  # two blocks of limit / 2 steps
    assert started == [1, 1, 2]


@pytest.mark.parametrize("values", [
    [3.5],
    [2.0, 1.0],
    [5.0, 1.0, 3.0],
    [1.0, 2.0, 2.0, 7.0],
    [4.0] * 6,
    [0.1, 0.2, 0.1, 0.2, 0.1],
    np.round(np.random.default_rng(3).exponential(size=64), 1).tolist(),  # even, with ties
    np.random.default_rng(4).exponential(size=65).tolist(),
])
def test_median_is_np_medians(values):
    arr = np.array(values)
    assert engine._median(arr) == np.median(arr)
    assert arr.tolist() == values  # the input is not reordered


def test_the_decay_fit_recovers_a_geometric_rate_and_agrees_with_polyfit():
    for rate in (0.05, 0.3, 0.5, 0.9, 0.999):
        fitted, _ = engine._fit_decay_rate(7.0, [7.0 * rate**k for k in range(1, 201)])
        assert fitted == pytest.approx(rate, rel=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(200):
        n, rate = int(rng.integers(10, 200)), rng.uniform(0.2, 0.95)
        distances = (10.0 * rate ** np.arange(1, n + 1) * np.exp(rng.normal(0.0, 0.05, n))).tolist()
        fitted, (start, end) = engine._fit_decay_rate(10.0, distances)
        ys = np.log([10.0, *distances][start:end])
        expected = float(np.exp(np.polyfit(np.arange(start, end, dtype=float), ys, 1)[0]))
        assert fitted == pytest.approx(expected, rel=8 * np.finfo(float).eps)


def test_rate_fit_handles_immediate_coalescence():
    rate, window = engine._fit_decay_rate(5.0, [0.0] * 20)
    assert rate == "coalesced"
    rate, _ = engine._fit_decay_rate(0.0, [0.0] * 20)
    assert rate == "degenerate-equal"
    # Growing distances fit a rate above one and flag no decay.
    growing = [float(2.0**k) for k in range(1, 21)]
    rate, _ = engine._fit_decay_rate(1.0, growing)
    assert rate == "no-decay"
    # Clean geometric decay recovers the factor.
    decaying = [0.5**k for k in range(1, 41)]
    rate, _ = engine._fit_decay_rate(1.0, decaying)
    assert rate == pytest.approx(0.5, rel=1e-6)


# --- moments -----------------------------------------------------------------

def test_moments_degenerate_oracles():
    from countsim.analysis import poisson_mgf, poisson_raw_moment

    report = monte_carlo_moments(iid_poisson1(), [2.0], [0.1],
                                 T=16000, burn_in=200, replicates=8, master_seed=2)
    poly = report.polynomial[2.0]
    assert abs(poly.estimate - poisson_raw_moment(1.0, 2)) < 3 * poly.std_error
    expo = report.exponential[0.1]
    assert abs(expo.log_estimate - poisson_mgf(1.0, 0.1)) < 3 * expo.std_error
    assert not expo.saturated
    assert report.sample_size == 8 * 16000


def test_moments_first_moment_matches_stationary_mean():
    from countsim.linalg import stationary_mean

    target = float(np.sum(stationary_mean([1.0, 0.5], [[0.5, 0.15], [0.1, 0.45]])))
    assert target == pytest.approx(3.75, abs=1e-6)
    report = monte_carlo_moments(stationary_2d(), [1.0], [0.05],
                                 T=20000, burn_in=1000, replicates=8, master_seed=4)
    poly = report.polynomial[1.0]
    assert abs(poly.estimate - target) < 3 * poly.std_error


def test_moment_log_estimate_stable_when_T_doubles():
    # linf of A+B is 0.65 < 1, so the exponential moment exists; the log
    # estimate should move by less than 5 standard errors when T doubles.
    spec = stationary_2d()
    small = monte_carlo_moments(spec, [1.0], [0.05], T=4000, burn_in=500,
                                replicates=12, master_seed=6)
    large = monte_carlo_moments(spec, [1.0], [0.05], T=8000, burn_in=500,
                                replicates=12, master_seed=6)
    a, b = small.exponential[0.05], large.exponential[0.05]
    assert not a.saturated and not b.saturated
    assert abs(a.log_estimate - b.log_estimate) < 5 * max(a.std_error, b.std_error)


def test_saturation_flag_reports_heavy_domination():
    # With delta = 8 neighbouring counts differ by a factor e^8 in weight, so
    # the ten largest of these 20000 Poisson(1) samples carry more than half
    # the exponential mass unless twenty of them tie at the maximum
    # (probability about 5e-4; at delta = 2 the share passes 1/2 only about
    # half the time).
    report = monte_carlo_moments(iid_poisson1(), [1.0], [8.0],
                                 T=5000, burn_in=100, replicates=4, master_seed=8)
    expo = report.exponential[8.0]
    assert expo.top10_share > 0.5
    assert expo.saturated
    # Near the threshold the flag still reads off the share.
    near = monte_carlo_moments(iid_poisson1(), [1.0], [2.0], T=5000, burn_in=100,
                               replicates=4, master_seed=8).exponential[2.0]
    assert near.saturated == (near.top10_share > 0.5)


def test_moment_fold_batches_match_direct_statistics():
    from countsim.engine import _batch_lengths, _fold, _logsumexp

    def ends(T):
        return [(i + 1) * T // math.isqrt(T) for i in range(math.isqrt(T))]

    for T in (1, 2, 99, 100, 101, 5000):
        lengths = _batch_lengths(T)
        assert np.cumsum(lengths).tolist() == ends(T) and ends(T)[-1] == T
        assert lengths.min() >= 1
    T = 2**44 + 12345  # (i + 1) * T passes 2**63 here, and wrapped to negative lengths
    lengths, batches = _batch_lengths(T), math.isqrt(T)
    assert lengths.min() >= 1 and np.cumsum(lengths)[-1] == T
    for i in (0, 1, batches // 2, batches - 1):
        assert np.cumsum(lengths[:i + 1])[-1] == (i + 1) * T // batches
    T = 2507  # 50 batches of 50 or 51 steps
    sizes = np.random.default_rng(14).poisson(6.0, size=(3, T)).astype(float)
    sums, lse, top = _fold(iter(sizes.T), 3, T, [1.0, 2.5], [0.3])
    for i, (start, end) in enumerate(zip([0] + ends(T)[:-1], ends(T))):
        batch = sizes[:, start:end]
        for r in (1.0, 2.5):
            np.testing.assert_allclose(sums[r][:, i], np.sum(batch**r, axis=1), rtol=1e-12)
        np.testing.assert_allclose(lse[0.3][:, i], _logsumexp(0.3 * batch, axis=1), rtol=1e-12)
    assert np.array_equal(0.3 * top, np.sort(0.3 * sizes, axis=None)[-10:])


def test_single_replicate_standard_error_accounts_for_dependence():
    # rho(A + B) = 0.95: one path's mean is strongly autocorrelated, so the
    # i.i.d. formula on it would read about a fifth of the true spread,
    # taken here from 16 independent replicates.
    spec = IngarchSpec(1, 1, [0.5], ([[0.6]],), ([[0.35]],))
    kwargs = dict(r_values=[1.0], delta_values=[0.05], T=20000, burn_in=1000, master_seed=2)
    one = monte_carlo_moments(spec, replicates=1, **kwargs)
    many = monte_carlo_moments(spec, replicates=16, **kwargs)
    for a, b in ((one.polynomial[1.0], many.polynomial[1.0]), (one.exponential[0.05], many.exponential[0.05])):
        assert 0.5 <= a.std_error / (math.sqrt(16) * b.std_error) <= 2.0


@pytest.mark.parametrize("replicates", [1, 3])
def test_zero_paths_have_zero_standard_errors(replicates):
    spec = GinarSpec(1, 1, ([[0.0]],), "bernoulli", ImmigrationSpec("constant", [0]))
    report = monte_carlo_moments(spec, [1.0, 2.0], [0.1], T=100, burn_in=10, replicates=replicates)
    assert [m.estimate for m in report.polynomial.values()] == [0.0, 0.0]
    assert [m.std_error for m in (*report.polynomial.values(), *report.exponential.values())] == [0.0] * 3


def test_polynomial_standard_error_finite_while_the_estimate_is():
    # |Y|_1 ** 400 squared overflows, but the spread is taken of scaled means.
    poly = monte_carlo_moments(iid_poisson1(), [400.0], [0.1], T=200, burn_in=500,
                               replicates=2, master_seed=7).polynomial[400.0]
    assert math.isfinite(poly.estimate)
    assert math.isfinite(poly.std_error) and poly.std_error > 0


@pytest.mark.parametrize("replicates", [1, 4])
def test_an_exponential_moment_past_the_double_range_is_infinite_and_saturated(replicates):
    # 1e308 |Y|_1 passes the double range once a count reaches 2; as an
    # overflowing polynomial moment does, the estimate is +inf and its SE
    # NaN, without a warning, and the average is flagged saturated.
    spec = IngarchSpec(1, 1, [1.0], ([[0.3]],), ([[0.5]],))
    report = monte_carlo_moments(spec, [1.0], [0.1, 1e308], T=200, burn_in=10,
                                 replicates=replicates, master_seed=7)
    huge = report.exponential[1e308]
    assert huge.log_estimate == math.inf and math.isnan(huge.std_error) and huge.saturated
    small = report.exponential[0.1]
    assert math.isfinite(small.log_estimate) and math.isfinite(small.std_error) and not small.saturated


def test_moments_reproducible_and_parallel_consistent():
    spec = stationary_2d()
    kwargs = dict(T=2000, burn_in=200, replicates=6, master_seed=10)
    a = monte_carlo_moments(spec, [1.0, 2.0], [0.05], jobs=1, **kwargs)
    b = monte_carlo_moments(spec, [1.0, 2.0], [0.05], jobs=1, **kwargs)
    c = monte_carlo_moments(spec, [1.0, 2.0], [0.05], jobs=3, **kwargs)
    assert a == b == c


def test_moments_validates_arguments():
    with pytest.raises(ValueError):
        monte_carlo_moments(iid_poisson1(), [], [0.1], T=100)
    with pytest.raises(ValueError):
        monte_carlo_moments(iid_poisson1(), [0.5], [0.1], T=100)
    with pytest.raises(ValueError):
        monte_carlo_moments(iid_poisson1(), [1.0], [0.0], T=100)


def test_loglinear_paths_simulate_and_couple():
    spec = LogLinearSpec(2, 1, [0.2, 0.1],
                         ([[-0.3, 0.0], [0.2, -0.1]],),
                         ([[0.2, 0.1], [0.0, 0.3]],))
    path = simulate(spec, 2000, 200, master_seed=12)
    assert np.all(path.counts >= 0)
    assert np.all(path.intensities > 0)
    wa = default_window(spec)
    wb = {"counts": [[5, 5]], "mus": [[2.0, -1.0]]}
    ens = couple_ensemble(spec, 200, wa, wb, master_seed=13, replicates=32)
    assert isinstance(ens.fitted_rate, float) and ens.fitted_rate < 1.0
    assert ens.mean_distances[-1] < 1e-3 * ens.initial_distance


# --- lineage parts and run lengths ------------------------------------------

@pytest.mark.parametrize("run, path", [
    (lambda s: simulate(iid_poisson1(), 5, 0, master_seed=s), "master_seed"),
    (lambda s: simulate(iid_poisson1(), 5, 0, replicate_id=s), "replicate_id"),
    (lambda s: couple(iid_poisson1(), 10, default_window(iid_poisson1()), default_window(iid_poisson1()),
                      replicate_id=s), "replicate_id"),
    (lambda s: couple_ensemble(iid_poisson1(), 10, default_window(iid_poisson1()), default_window(iid_poisson1()),
                               master_seed=s, replicates=2), "master_seed"),
    (lambda s: monte_carlo_moments(iid_poisson1(), [1.0], [0.1], 5, 0, 2, master_seed=s), "master_seed"),
])
def test_lineage_parts_outside_64_bits_are_refused_before_any_block(run, path):
    # _mix reads 64 bits of each part: -1 would alias 2**64 - 1, and 2**64 alias 0.
    for value in (-1, 2**64):
        with pytest.raises(ConfigError) as err:
            run(value)
        assert err.value.problems == [f"{path}: expected an integer in [0, 2**64), got {value}"]
    for value in (0, 2**64 - 1):
        run(value)


@pytest.mark.parametrize("build, path", [
    (lambda v: engine.SimulateExperiment(v, 0), "T"),
    (lambda v: engine.SimulateExperiment(1, v - 1), "burn_in"),  # T + burn_in = v
    (lambda v: engine.MomentsExperiment([1], [0.1], v - 7, 7), "burn_in"),
    (lambda v: engine.MomentsExperiment([1], [0.1], 5, 0, v), "replicates"),
    (lambda v: engine.CoupleExperiment(v, None, None), "n"),
    (lambda v: engine.CoupleExperiment(10, None, None, v), "replicates"),
])
def test_run_lengths_are_refused_by_path_at_2_63(build, path):
    # Records only: a run of this length is never started.
    build(2**63 - 1)
    with pytest.raises(ConfigError) as err:
        build(2**63)
    assert len(err.value.problems) == 1 and err.value.problems[0].startswith(f"{path}: ")

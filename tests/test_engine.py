import math

import numpy as np
import pytest

from countsim import engine
from countsim.engine import (
    couple,
    couple_ensemble,
    monte_carlo_moments,
    simulate,
)
from countsim.errors import ConfigError, DivergenceError
from countsim.models import GinarSpec, ImmigrationSpec, IngarchSpec, LogLinearSpec, default_window


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
    assert all(d == 0.0 for d in report.distances)
    assert report.fitted_rate == "degenerate-equal"


def test_coupling_contracts_for_stationary_model():
    spec = IngarchSpec(2, 1, [1.0, 1.0],
                       ([[0.0, 0.0], [0.0, 0.0]],),
                       ([[0.5, 0.4], [0.0, 0.5]],))
    wa = default_window(spec)
    wb = [(np.array([10, 10]), np.array([8.0, 8.0]))]
    ens = couple_ensemble(spec, 200, wa, wb, master_seed=5, replicates=64)
    assert isinstance(ens.fitted_rate, float)
    assert ens.fitted_rate < 1.0
    assert ens.mean_distances[-1] < 1e-3 * ens.initial_distance


def test_coupling_decays_for_scalar_model_near_the_boundary():
    # rho(A + B) = 0.8 < 1; mean distance over 200 replicates decays.
    spec = IngarchSpec(1, 1, [1.0], ([[0.3]],), ([[0.5]],))
    wa = default_window(spec)
    wb = [(np.array([10]), np.array([8.0]))]
    ens = couple_ensemble(spec, 200, wa, wb, master_seed=7, replicates=200, jobs=4)
    assert ens.mean_distances[-1] < ens.initial_distance
    assert isinstance(ens.fitted_rate, float) and ens.fitted_rate < 1.0


def test_coupling_no_decay_for_violating_model():
    bad = IngarchSpec(1, 1, [1.0], ([[0.5]],), ([[0.7]],))
    wa = default_window(bad)
    wb = [(np.array([10]), np.array([8.0]))]
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


def test_couple_rejects_non_integer_window_counts():
    from countsim.errors import ConfigurationError

    ginar = GinarSpec(1, 1, ([[0.5]],), "bernoulli", ImmigrationSpec("poisson", [1.0]))
    with pytest.raises(ConfigurationError):
        couple(ginar, 20, [np.array([1.5])], [np.array([0.0])], master_seed=1)
    ingarch = stationary_2d()
    with pytest.raises(ConfigurationError):
        couple(ingarch, 20, [(np.array([1.5, 0.0]), np.array([1.0, 1.0]))],
               default_window(ingarch), master_seed=1)


def test_couple_single_run_reproducible():
    spec = stationary_2d()
    wa = default_window(spec)
    wb = [(np.array([4, 4]), np.array([3.0, 3.0]))]
    r1 = couple(spec, 60, wa, wb, master_seed=9)
    r2 = couple(spec, 60, wa, wb, master_seed=9)
    assert r1.distances == r2.distances
    assert r1.fitted_rate == r2.fitted_rate


def test_couple_ensemble_parallel_matches_serial():
    spec = stationary_2d()
    wa = default_window(spec)
    wb = [(np.array([4, 4]), np.array([3.0, 3.0]))]
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


def test_moment_fold_over_chunks_matches_whole_path_statistics():
    from countsim.engine import _MomentFold, _logsumexp

    sizes = np.random.default_rng(14).poisson(6.0, size=(3, 2500)).astype(float)
    fold = _MomentFold(3, [1.0, 2.5], [0.3])
    for start in range(0, 2500, 1024):
        fold.add(sizes[:, start:start + 1024])
    for row, (n, poly, expo) in zip(sizes, fold.summaries()):
        assert n == 2500
        for r in (1.0, 2.5):
            assert poly[r] == pytest.approx((np.mean(row**r), np.std(row**r, ddof=1)), rel=1e-12)
        lse, lse2, top = expo[0.3]
        assert (lse, lse2) == pytest.approx((_logsumexp(0.3 * row), _logsumexp(0.6 * row)), rel=1e-12)
        assert top == np.sort(0.3 * row)[-10:].tolist()


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
    wb = [(np.log1p(np.array([5.0, 5.0])), np.array([2.0, -1.0]))]
    ens = couple_ensemble(spec, 200, wa, wb, master_seed=13, replicates=32)
    assert isinstance(ens.fitted_rate, float) and ens.fitted_rate < 1.0
    assert ens.mean_distances[-1] < 1e-3 * ens.initial_distance

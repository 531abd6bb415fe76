"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line; run with ``pytest -s`` to see them
as they complete.  Tolerances are fixed here, not tuned: Monte Carlo bands
use the stated multiples of the estimated standard error at the stated
sample sizes.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from countsim import analysis, cli, engine, linalg
from countsim.config import parse_config_file, window_from_config
from countsim.models import IngarchSpec
from countsim.randomness import block_rng, shared_poisson

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}", flush=True)
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_stationary_mean_reproduction():
    spec = IngarchSpec(2, 1, [1.0, 0.5],
                       ([[0.2, 0.1], [0.0, 0.2]],),
                       ([[0.3, 0.05], [0.1, 0.25]],))
    total = spec.lambda_matrices[0] + spec.count_matrices[0]
    assert linalg.spectral_radius(total) == pytest.approx(0.6, abs=1e-8)
    target = linalg.stationary_mean(spec.intensity_offset, total)
    assert target == pytest.approx([2.403846, 1.346154], abs=1e-6)

    start = time.perf_counter()
    path = engine.simulate(spec, 200000, 1000, master_seed=20260810)
    elapsed = time.perf_counter() - start
    sample = path.counts.mean(axis=0)
    rel = np.abs(sample - target) / target
    report(
        "criterion 1 (stationary mean)",
        bool(np.all(rel < 0.02) and elapsed < 30.0),
        f"sample mean {sample.round(5).tolist()} vs {target.round(6).tolist()}, "
        f"rel err {rel.round(5).tolist()}, {elapsed:.1f}s",
    )


def test_criterion_2_norm_versus_spectral_radius_gap():
    narrow = IngarchSpec(2, 1, [1.0, 1.0],
                         ([[0.0, 0.0], [0.0, 0.0]],),
                         ([[0.5, 0.4], [0.0, 0.5]],))
    rep1 = analysis.check_ingarch(narrow)
    ok = (abs(rep1.computed["rho_sum_AB"].value - 0.5) < 1e-8
          and abs(rep1.computed["l1_sum_norms"].value - 0.9) < 1e-12
          and rep1.verdicts["stationarity"].status == "holds")

    wide = IngarchSpec(2, 1, [1.0, 1.0],
                       ([[0.0, 0.0], [0.0, 0.0]],),
                       ([[0.5, 0.6], [0.0, 0.5]],))
    rep2 = analysis.check_ingarch(wide)
    ok = (ok and rep2.verdicts["stationarity"].status == "holds"
          and rep2.verdicts["exp_moment_l1"].status == "fails"
          and rep2.verdicts["exp_moment_linf"].status == "fails")
    report(
        "criterion 2 (norm vs spectral radius)",
        ok,
        f"rho {rep1.computed['rho_sum_AB'].value:.10f}, l1 {rep1.computed['l1_sum_norms'].value:.10f}; "
        f"wide case: stationarity {rep2.verdicts['stationarity'].status}, "
        f"exp-moment criteria {rep2.verdicts['exp_moment_l1'].status}/{rep2.verdicts['exp_moment_linf'].status}",
    )


def test_criterion_3_companion_matrix_stability():
    rng = np.random.default_rng(20260810)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        q = int(rng.integers(1, 4))
        e = int(rng.integers(1, 4))
        blocks = [rng.uniform(size=(e, e)) for _ in range(q)]
        total = sum(blocks[1:], blocks[0].copy())
        scale = rng.uniform(0.05, 0.95) / linalg.spectral_radius(total)
        blocks = [scale * b for b in blocks]
        rho = linalg.spectral_radius(linalg.companion(blocks))
        worst = max(worst, rho)
    elapsed = time.perf_counter() - start
    report(
        "criterion 3 (companion stability)",
        bool(worst < 1.0 and elapsed < 10.0),
        f"200 families, largest companion radius {worst:.6f}, {elapsed:.2f}s",
    )


def test_criterion_4_poisson_oracles_against_monte_carlo():
    rng = np.random.default_rng(41)
    start = time.perf_counter()
    n = 10**6
    worst_z = 0.0
    for lam in (1.0, 3.0, 7.0):
        draws = rng.poisson(lam, n).astype(float)
        for r in (1, 2, 3, 4):
            sample = draws**r
            se = sample.std(ddof=1) / math.sqrt(n)
            z = abs(sample.mean() - analysis.poisson_raw_moment(lam, r)) / se
            worst_z = max(worst_z, z)
    for lam in (1.0, 3.0):
        draws = rng.poisson(lam, n).astype(float)
        for delta in (0.05, 0.1):
            w = np.exp(delta * draws)
            se_log = w.std(ddof=1) / (w.mean() * math.sqrt(n))
            z = abs(math.log(w.mean()) - analysis.poisson_mgf(lam, delta)) / se_log
            worst_z = max(worst_z, z)
    elapsed = time.perf_counter() - start
    report(
        "criterion 4 (poisson oracles)",
        bool(worst_z < 4.0 and elapsed < 60.0),
        f"worst |z| {worst_z:.2f} over moment and mgf grids at 1e6 samples, {elapsed:.1f}s",
    )


def test_criterion_5_contraction_and_its_failure():
    decaying = ["ginar_couple.yaml", "ingarch_couple.yaml", "loglinear_couple.yaml"]
    details = []
    ok = True
    for name in decaying:
        config = parse_config_file(CONFIG_DIR / name)
        exp = config.experiment
        spec = config.model
        ens = engine.couple_ensemble(
            spec, exp.n,
            window_from_config(spec, exp.window_a),
            window_from_config(spec, exp.window_b),
            master_seed=config.seed, replicates=exp.replicates, jobs=4,
        )
        final = float(ens.mean_distances[-1])
        good = final < 1e-3 * ens.initial_distance and (
            isinstance(ens.fitted_rate, float) and ens.fitted_rate < 1.0)
        ok = ok and good
        rate = ens.fitted_rate if isinstance(ens.fitted_rate, str) else f"{ens.fitted_rate:.4f}"
        details.append(f"{name}: final/initial {final / ens.initial_distance:.2e}, rate {rate}")

    config = parse_config_file(CONFIG_DIR / "ingarch_couple_violating.yaml")
    exp = config.experiment
    spec = config.model
    ens = engine.couple_ensemble(
        spec, exp.n,
        window_from_config(spec, exp.window_a),
        window_from_config(spec, exp.window_b),
        master_seed=config.seed, replicates=exp.replicates, jobs=4,
    )
    violates = ens.median_final_distance >= ens.initial_distance
    ok = ok and violates
    details.append(f"violating: median final {ens.median_final_distance:.3e} "
                   f">= initial {ens.initial_distance:g}: {violates}")
    report("criterion 5 (contraction exhibition)", ok, "; ".join(details))


def test_criterion_6_degenerate_iid_reduction():
    spec = IngarchSpec(1, 1, [1.0], ([[0.0]],), ([[0.0]],))
    rep = engine.monte_carlo_moments(spec, [2.0], [0.1], T=16000, burn_in=500,
                                     replicates=8, master_seed=20260810)
    poly = rep.polynomial[2.0]
    expo = rep.exponential[0.1]
    target_poly = analysis.poisson_raw_moment(1.0, 2)  # lam + lam^2 = 2
    target_expo = analysis.poisson_mgf(1.0, 0.1)       # e^0.1 - 1
    assert target_expo == pytest.approx(0.105171, abs=1e-6)
    ok = (abs(poly.estimate - target_poly) < 3 * poly.std_error
          and abs(expo.log_estimate - target_expo) < 3 * expo.std_error
          and not expo.saturated)
    report(
        "criterion 6 (degenerate i.i.d. reduction)",
        ok,
        f"E Y^2 = {poly.estimate:.4f} (target 2, se {poly.std_error:.4f}); "
        f"log-mgf = {expo.log_estimate:.6f} (target {target_expo:.6f}, se {expo.std_error:.6f})",
    )


def test_criterion_7_jensen_log_poisson_bound():
    pairs = [(1.0, 2.0), (2.0, 5.0), (0.5, 4.0)]
    n = 100000
    ok = True
    details = []
    for s, t in pairs:
        # One unit-rate Poisson process per sample, counted at s and at t.
        lam = np.empty((2, n, 1))
        lam[0], lam[1] = s, t
        ns, nt = shared_poisson(block_rng(20260810, 0), lam)[:, :, 0]
        values = np.log((1 + nt) / (1 + ns))
        mean = values.mean()
        se = values.std(ddof=1) / math.sqrt(n)
        bound = math.log(t) - math.log(s)
        good = mean <= bound + 3 * se
        ok = ok and good
        details.append(f"(s={s:g},t={t:g}): mean {mean:.5f} <= {bound:.5f} + 3se")
    report("criterion 7 (log-count ratio bound)", ok, "; ".join(details))


def test_criterion_8_byte_identical_reruns(tmp_path):
    jobs_cycle = ["1", "4"]  # parallelism must not change any byte
    cases = [
        ("check", "ingarch_check.yaml"),
        ("simulate", "ginar_simulate.yaml"),
        ("couple", "ginar_couple.yaml"),
        ("moments", "ingarch_moments.yaml"),
    ]
    ok = True
    details = []
    for command, name in cases:
        outputs = []
        for attempt, jobs in enumerate(jobs_cycle):
            out = tmp_path / f"{name}-{attempt}"
            code = cli.main([command, "--config", str(CONFIG_DIR / name),
                             "--out", str(out), "--jobs", jobs])
            assert code == 0
            blob = (out / "report.json").read_bytes()
            csv = out / "path.csv"
            if csv.exists():
                blob += csv.read_bytes()
            outputs.append(blob)
        same = outputs[0] == outputs[1]
        ok = ok and same
        details.append(f"{name}: {'identical' if same else 'DIFFER'}")
    report("criterion 8 (determinism)", ok, "; ".join(details))

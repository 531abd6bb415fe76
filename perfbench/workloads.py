"""The benchmark's workloads: generated configs and their correctness gates.

Each workload is a fixed list of CLI invocations.  The models are written
out here rather than read from ``configs/``, so that a change to a shipped
config cannot silently change what the benchmark measures.  The workload
seed becomes the master seed of every generated config; nothing else
depends on it.

Statistical tolerances are stated for the full size.  At a reduced size
(``scale < 1``, used by the smoke test) they widen with the square root of
the lost sample size, so the gate keeps the same number of standard errors
and the same false-alarm rate at every size.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

# Criterion 1's tolerance on the stationary mean, at T = 100000 about four
# batch-means standard errors of the smaller coordinate.
SIMULATE_MEAN_TOL = 0.02
SIMULATE_T = 100_000
SIMULATE_BURN_IN = 1000

COUPLE_N = 200
COUPLE_REPLICATES = 96

# About six standard errors of the pooled r = 1 estimate at T = 5000 x 8.
MOMENTS_MEAN_TOL = 0.03
MOMENTS_T = 5000
MOMENTS_BURN_IN = 500
MOMENTS_REPLICATES = 8

# Criterion 1's model: 2-dim INGARCH, rho(A + B) = 0.6, independent noise.
CRITERION1_MODEL = {
    "kind": "ingarch", "p": 2, "q": 1,
    "intensity_offset": [1.0, 0.5],
    "lambda_matrices": [[[0.2, 0.1], [0.0, 0.2]]],
    "count_matrices": [[[0.3, 0.05], [0.1, 0.25]]],
}

# The four shipped coupling experiments: model, windows and whether the
# distance must decay (criterion 5).
COUPLE_CASES = [
    ("ginar_couple", True, {
        "kind": "ginar", "p": 2, "q": 1,
        "mean_matrices": [[[0.4, 0.0], [0.1, 0.2]]],
        "counting_family": "bernoulli",
        "immigration": {"family": "poisson", "values": [1.0, 1.0]},
    }, {"counts": [[0, 0]]}, {"counts": [[12, 7]]}),
    ("ingarch_couple", True, {
        "kind": "ingarch", "p": 2, "q": 1,
        "intensity_offset": [1.0, 1.0],
        "lambda_matrices": [[[0.0, 0.0], [0.0, 0.0]]],
        "count_matrices": [[[0.5, 0.4], [0.0, 0.5]]],
    }, {"counts": [[0, 0]], "intensities": [[1.0, 1.0]]},
       {"counts": [[10, 10]], "intensities": [[8.0, 8.0]]}),
    ("loglinear_couple", True, {
        "kind": "loglinear", "p": 2, "q": 1,
        "offset": [0.2, 0.1],
        "mu_matrices": [[[-0.3, 0.0], [0.2, -0.1]]],
        "logcount_matrices": [[[0.2, 0.1], [0.0, 0.3]]],
    }, {"counts": [[0, 0]], "mus": [[0.0, 0.0]]},
       {"counts": [[5, 5]], "mus": [[2.0, -1.0]]}),
    ("ingarch_couple_violating", False, {
        "kind": "ingarch", "p": 1, "q": 1,
        "intensity_offset": [1.0],
        "lambda_matrices": [[[0.5]]],
        "count_matrices": [[[0.7]]],
    }, {"counts": [[0]], "intensities": [[1.0]]},
       {"counts": [[10]], "intensities": [[8.0]]}),
]

# 3-dim, q = 2 INGARCH with a Gaussian copula; every row of
# sum_j (A_j + B_j) sums to 0.7, so the stationary mean is 3 / 0.3 = 10.
COPULA_MODEL = {
    "kind": "ingarch", "p": 3, "q": 2,
    "intensity_offset": [3.0, 3.0, 3.0],
    "lambda_matrices": [
        [[0.15, 0.05, 0.0], [0.0, 0.15, 0.05], [0.05, 0.0, 0.15]],
        [[0.05, 0.0, 0.0], [0.0, 0.05, 0.0], [0.0, 0.0, 0.05]],
    ],
    "count_matrices": [
        [[0.25, 0.05, 0.05], [0.05, 0.25, 0.05], [0.05, 0.05, 0.25]],
        [[0.1, 0.0, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1]],
    ],
    "dependence": {
        "scheme": "gaussian",
        "correlation": [[1.0, 0.5, 0.3], [0.5, 1.0, 0.4], [0.3, 0.4, 1.0]],
    },
}

# 2-dim GINAR with Poisson counting and Poisson(4) immigration; the
# stationary mean (I - M)^-1 (4, 4) is 20 per coordinate.
HIGHCOUNT_GINAR_MODEL = {
    "kind": "ginar", "p": 2, "q": 1,
    "mean_matrices": [[[0.6, 0.2], [0.1, 0.7]]],
    "counting_family": "poisson",
    "immigration": {"family": "poisson", "values": [4.0, 4.0]},
}


@dataclass
class Invocation:
    """One CLI run of a workload: ``countsim <command> --config <name>.json``."""

    command: str
    name: str
    document: dict
    jobs: int
    steps: int  # replicate-steps, burn-in included, a coupled step once
    stationary: bool  # expected stationarity verdict of ``countsim check``
    outputs: tuple = ("report.json",)
    gate: dict = field(default_factory=dict)  # parameters of the correctness gate

    def check_document(self) -> dict:
        """The same model and seed as a ``check`` experiment, for set-up timing."""
        return {**self.document, "experiment": {"kind": "check"}}


@dataclass
class Workload:
    name: str
    invocations: list


def _document(seed: int, model: dict, experiment: dict, csv_on: bool = False) -> dict:
    return {"seed": seed, "model": model, "experiment": experiment,
            "output": {"directory": "out/bench", "csv": csv_on}}


def _scaled(full: int, scale: float, floor: int) -> int:
    return max(floor, int(round(full * scale)))


def simulate_path(seed: int, scale: float, jobs: int) -> Workload:
    """One long chain at small intensity, CSV on: per-step fixed costs.

    Stream construction, dispatch, map arithmetic, the dense Poisson path and
    the CSV writer; no replicates, no pool, no distance.
    """
    T = _scaled(SIMULATE_T, scale, 1000)
    doc = _document(seed, CRITERION1_MODEL,
                    {"kind": "simulate", "T": T, "burn_in": SIMULATE_BURN_IN}, csv_on=True)
    tol = SIMULATE_MEAN_TOL * math.sqrt(SIMULATE_T / T)
    inv = Invocation("simulate", "criterion1_simulate", doc, 1, T + SIMULATE_BURN_IN, True,
                     outputs=("report.json", "path.csv"), gate={"T": T, "tol": tol})
    return Workload("simulate-path", [inv])


def couple_mix(seed: int, scale: float, jobs: int) -> Workload:
    """The four shipped couple configs with more replicates: short tasks.

    Two chains share one noise object; counting-cache reuse, window distance
    and decay fit, pool overhead for short tasks.  The violating model drives
    intensities to about 1e17, where the Poisson path keeps mark records.
    """
    R = _scaled(COUPLE_REPLICATES, scale, 4)
    invs = []
    for name, decays, model, wa, wb in COUPLE_CASES:
        doc = _document(seed, model, {"kind": "couple", "n": COUPLE_N, "replicates": R,
                                      "window_a": wa, "window_b": wb})
        invs.append(Invocation("couple", name, doc, jobs, COUPLE_N * R, decays,
                               gate={"n": COUPLE_N, "R": R, "decays": decays}))
    return Workload("couple-mix", invs)


def moments_highcount(seed: int, scale: float, jobs: int) -> Workload:
    """Eight long replicates per model at counts of 10 to 20: long tasks.

    Per-step noise work grows with the counts: the copula inverse-CDF search
    and the thinning sums.  The Poisson process path is idle.  The only
    workload with the copula scheme or q > 1.
    """
    T = _scaled(MOMENTS_T, scale, 500)
    tol = MOMENTS_MEAN_TOL * math.sqrt(MOMENTS_T / T)
    invs = []
    for name, model in (("copula_moments", COPULA_MODEL), ("highcount_ginar_moments", HIGHCOUNT_GINAR_MODEL)):
        doc = _document(seed, model, {"kind": "moments", "r_values": [1, 2], "delta_values": [0.01, 0.05],
                                      "T": T, "burn_in": MOMENTS_BURN_IN,
                                      "replicates": MOMENTS_REPLICATES})
        invs.append(Invocation("moments", name, doc, jobs,
                               (T + MOMENTS_BURN_IN) * MOMENTS_REPLICATES, True,
                               gate={"T": T, "R": MOMENTS_REPLICATES, "tol": tol}))
    return Workload("moments-highcount", invs)


WORKLOADS = {
    "simulate-path": simulate_path,
    "couple-mix": couple_mix,
    "moments-highcount": moments_highcount,
}


def stationary_mean(model: dict) -> list[float]:
    """Solve ``(I - E) m = d`` independently of the program under test.

    Plain Python, so the harness holds no numpy: a child's peak resident set
    as ``wait4`` reports it starts from the harness's own at spawn time.
    """
    if model["kind"] == "ginar":
        d = model["immigration"]["values"]
        blocks = model["mean_matrices"]
    else:
        d = model["intensity_offset"]
        blocks = model["lambda_matrices"] + model["count_matrices"]
    p = len(d)
    rows = [[float(i == j) - sum(b[i][j] for b in blocks) for j in range(p)] + [float(d[i])]
            for i in range(p)]
    for col in range(p):
        pivot = max(range(col, p), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(p):
            if r != col:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][p] / rows[i][i] for i in range(p)]


def check_outputs(inv: Invocation, out_dir: str) -> list[str]:
    """Problems found in one invocation's outputs; empty when they are right."""
    try:
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        results = report["results"]
        if report["lineage"]["master_seed"] != inv.document["seed"]:
            return [f"{inv.name}: report lineage seed differs from the config"]
        if inv.command == "simulate":
            return _check_simulate(inv, results, out_dir)
        if inv.command == "couple":
            return _check_couple(inv, results)
        return _check_moments(inv, results)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{inv.name}: unreadable output: {exc!r}"]


def check_setup_report(inv: Invocation, out_dir: str) -> list[str]:
    """The ``check`` report must give the stationarity verdict the model has."""
    try:
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            status = json.load(fh)["results"]["verdicts"]["stationarity"]["status"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{inv.name} check: unreadable report: {exc!r}"]
    want = "holds" if inv.stationary else "fails"
    return [] if status == want else [f"{inv.name} check: stationarity {status}, expected {want}"]


def _check_simulate(inv: Invocation, results: dict, out_dir: str) -> list[str]:
    problems = []
    T, tol = inv.gate["T"], inv.gate["tol"]
    target = stationary_mean(inv.document["model"])
    means = results["mean_counts"]
    if results["T"] != T or len(means) != len(target):
        return [f"{inv.name}: report T {results['T']} or dimension {len(means)} is wrong"]
    for j, (got, want) in enumerate(zip(means, target)):
        if not abs(got - want) / want < tol:
            problems.append(f"{inv.name}: mean_counts[{j}] {got} is not within {tol:.2%} of {want:.6f}")
    p = len(target)
    header = ",".join(["t"] + [f"y_{j + 1}" for j in range(p)] + [f"lambda_{j + 1}" for j in range(p)])
    sums = [0] * p
    rows = 0
    with open(os.path.join(out_dir, "path.csv"), "rb") as fh:
        first = fh.readline()
        if first != header.encode() + b"\n":
            problems.append(f"{inv.name}: path.csv header {first!r} is not {header!r} with LF")
        for line in fh:
            if not line.endswith(b"\n") or line.endswith(b"\r\n"):
                return problems + [f"{inv.name}: path.csv row {rows} does not end in LF"]
            fields = line.split(b",")
            if len(fields) != 1 + 2 * p or int(fields[0]) != rows:
                return problems + [f"{inv.name}: path.csv row {rows} is malformed: {line!r}"]
            for j in range(p):
                sums[j] += int(fields[1 + j])
            rows += 1
    if rows != T:
        return problems + [f"{inv.name}: path.csv has {rows} rows, expected {T}"]
    for j in range(p):
        if not math.isclose(sums[j] / T, means[j], rel_tol=1e-12):
            problems.append(f"{inv.name}: path.csv y_{j + 1} mean {sums[j] / T} != report {means[j]}")
    return problems


def _check_couple(inv: Invocation, results: dict) -> list[str]:
    n, R = inv.gate["n"], inv.gate["R"]
    if results["n"] != n or results["replicates"] != R or len(results["mean_distances"]) != n:
        return [f"{inv.name}: report sizes differ from the config"]
    initial = results["initial_distance"]
    if inv.gate["decays"]:
        final, rate = results["final_mean_distance"], results["fitted_rate"]
        ok = final < 1e-3 * initial and isinstance(rate, float) and 0.0 < rate < 1.0
        return [] if ok else [f"{inv.name}: no contraction: final {final} vs initial {initial}, rate {rate}"]
    median = results["median_final_distance"]
    ok = median >= initial
    return [] if ok else [f"{inv.name}: violating model contracted: median final {median} < initial {initial}"]


def _check_moments(inv: Invocation, results: dict) -> list[str]:
    T, R, tol = inv.gate["T"], inv.gate["R"], inv.gate["tol"]
    if results["sample_size"] != T * R or results["replicates"] != R:
        return [f"{inv.name}: report sample size differs from the config"]
    problems = []
    target = sum(stationary_mean(inv.document["model"]))
    estimate = results["polynomial"]["1.0"]["estimate"]
    if not abs(estimate - target) / target < tol:
        problems.append(f"{inv.name}: E|Y|_1 estimate {estimate} is not within {tol:.2%} of {target:.6f}")
    for delta, moment in results["exponential"].items():
        if moment["saturated"]:
            problems.append(f"{inv.name}: exponential moment at delta {delta} is saturated")
    return problems

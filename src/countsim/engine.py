"""Forward simulation, common-noise coupling and Monte Carlo moments.

Everything here is a pure function of ``(spec, parameters, master_seed)``.
Replicates run in fixed blocks of :data:`BLOCK_SIZE` that advance in
lockstep, as one array state, on one persistent generator per block
addressed by ``(master_seed, block)``.  With ``jobs > 1`` whole blocks go to
worker processes; block results merge in replicate order either way.  The
partition depends only on the replicate count, so every output is the same
for every ``jobs`` value.  :func:`simulate` and :func:`couple` run a block
of one, addressed by ``(master_seed, replicate_id)``.

Coupled chains are the two chains of one block state, driven through the
same noise at every step: one Poisson process per coordinate counted at each
chain's own intensity (or the same copula scores), the same counting
sequences and the same immigration.  Contraction of the underlying random
maps then shows up as decay of the l1 distance between the stacked
composite states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import ClassVar

import numpy as np

from .errors import DivergenceError, Problems
from .models import (
    ModelSpec,
    block_state,
    default_window,
    step,
    validate_window,
    window_distance,
)
from .randomness import block_rng, checked_int

DEFAULT_BURN_IN = 1000
DEFAULT_REPLICATES = 32

#: Replicates advanced in lockstep on one generator.  A constant, not an
#: option: outputs depend on the partition into blocks.
BLOCK_SIZE = 64

_COUNT_LIMIT = float(2**62)
_CSV_CHUNK_ROWS = 4096
# Time steps of l1 sizes a moment block holds before folding them in.
_MOMENT_CHUNK = 1024


def _blocks(replicates: int) -> list[tuple[int, int]]:
    """``(block, size)`` of every block, in replicate order."""
    return [(b, min(BLOCK_SIZE, replicates - b * BLOCK_SIZE))
            for b in range(-(-replicates // BLOCK_SIZE))]


def _lockstep(spec: ModelSpec, state, steps: int, rng: np.random.Generator):
    """Advance a block state ``steps`` times; yields ``(t, state, counts, intensity)``.

    Raises :class:`DivergenceError`, tagged with the offending time index,
    if a trajectory leaves the representable range.
    """
    for t in range(steps):
        try:
            state, counts, intensity = step(spec, state, t, rng)
        except DivergenceError as exc:
            if exc.time_index is None:
                raise DivergenceError(str(exc), time_index=t) from exc
            raise
        if counts.max() > _COUNT_LIMIT:
            raise DivergenceError("counts exceeded the 64-bit safe range", time_index=t)
        yield t, state, counts, intensity


def _numbers(values, path: str, bound: str, holds, problems: Problems) -> tuple[float, ...] | None:
    """``values`` as a tuple of floats, or None after filing a problem.

    ``values`` must be a nonempty sequence of finite real numbers (booleans
    are not) for each of which ``holds`` is true; ``bound`` says so in words.
    """
    try:
        items = list(values)
    except TypeError:
        items = []
    if not items or not all(isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v) and holds(v)
                            for v in items):
        problems.add(path, f"expected a nonempty list of finite numbers {bound}")
        return None
    return tuple(float(v) for v in items)


@dataclass(frozen=True)
class CheckExperiment:
    """Evaluate the model's conditions; takes no run parameters."""

    kind: ClassVar[str] = "check"


@dataclass(frozen=True)
class SimulateExperiment:
    """One path of ``T`` steps, kept after ``burn_in`` discarded steps."""

    T: int
    burn_in: int = DEFAULT_BURN_IN
    kind: ClassVar[str] = "simulate"

    def __post_init__(self):
        problems = Problems()
        checked_int(self.T, "T", problems, 1)
        checked_int(self.burn_in, "burn_in", problems, 0)
        problems.raise_if_any()


@dataclass(frozen=True)
class CoupleExperiment:
    """``replicates`` coupled pairs run ``n`` steps from two start windows.

    The windows are checked against the model (:func:`validate_window`)
    when the experiment runs, since their shape depends on it.
    """

    n: int
    window_a: object
    window_b: object
    replicates: int = DEFAULT_REPLICATES
    kind: ClassVar[str] = "couple"

    def __post_init__(self):
        problems = Problems()
        checked_int(self.n, "n", problems, 10)
        checked_int(self.replicates, "replicates", problems, 1)
        problems.raise_if_any()


@dataclass(frozen=True)
class MomentsExperiment:
    """Moments of orders ``r_values`` and scales ``delta_values`` from ``replicates`` paths.

    Both lists are normalised to tuples of floats.
    """

    r_values: tuple[float, ...]
    delta_values: tuple[float, ...]
    T: int
    burn_in: int = DEFAULT_BURN_IN
    replicates: int = DEFAULT_REPLICATES
    kind: ClassVar[str] = "moments"

    def __post_init__(self):
        problems = Problems()
        r_values = _numbers(self.r_values, "r_values", ">= 1", lambda r: r >= 1, problems)
        delta_values = _numbers(self.delta_values, "delta_values", "> 0", lambda d: d > 0, problems)
        checked_int(self.T, "T", problems, 1)
        checked_int(self.burn_in, "burn_in", problems, 0)
        checked_int(self.replicates, "replicates", problems, 1)
        problems.raise_if_any()
        object.__setattr__(self, "r_values", r_values)
        object.__setattr__(self, "delta_values", delta_values)


@dataclass
class SamplePath:
    """A simulated trajectory with burn-in discarded.

    ``counts`` is T x p integers; ``intensities`` holds the conditional mean
    of the counts given the past (lambda for the intensity models, the
    thinning mean plus immigration mean for GINAR).
    """

    counts: np.ndarray
    intensities: np.ndarray
    burn_in: int
    lineage: tuple[int, int]
    model_kind: str

    @property
    def length(self) -> int:
        return self.counts.shape[0]

    @property
    def dimension(self) -> int:
        return self.counts.shape[1]

    def to_csv(self, path) -> None:
        """Write ``t,y_1..y_p,lambda_1..lambda_p`` rows with LF endings.

        Intensities are written as ``repr(float)``.  Rows go out in chunks,
        so the file is never held in memory as one string.
        """
        p = self.dimension
        header = "t," + ",".join(f"y_{j + 1}" for j in range(p)) \
            + "," + ",".join(f"lambda_{j + 1}" for j in range(p))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(header + "\n")
            for start in range(0, self.length, _CSV_CHUNK_ROWS):
                stop = start + _CSV_CHUNK_ROWS
                fh.write("".join(
                    f"{t},{','.join(map(str, ys))},{','.join(map(repr, lams))}\n"
                    for t, ys, lams in zip(range(start, self.length),
                                           self.counts[start:stop].tolist(),
                                           self.intensities[start:stop].tolist())))


def simulate(spec: ModelSpec, T: int, burn_in: int = DEFAULT_BURN_IN,
             master_seed: int = 0, replicate_id: int = 0) -> SamplePath:
    """Iterate the one-step map ``T + burn_in`` times from the default window.

    A block of one, bit-reproducible from ``(master_seed, replicate_id)``.
    Raises :class:`DivergenceError`, tagged with the offending time index, if
    the trajectory leaves the representable range.
    """
    SimulateExperiment(T, burn_in)  # checks the run parameters
    counts = np.zeros((T, spec.p), dtype=np.int64)
    intensities = np.zeros((T, spec.p))
    state = block_state(spec, [default_window(spec)])
    for t, _, y, intensity in _lockstep(spec, state, T + burn_in, block_rng(master_seed, replicate_id)):
        if t >= burn_in:
            counts[t - burn_in] = y[0, 0]
            intensities[t - burn_in] = intensity[0, 0]
    return SamplePath(counts, intensities, burn_in, (int(master_seed), int(replicate_id)), spec.kind)


@dataclass
class CouplingReport:
    """Distances between two common-noise chains and a fitted decay rate.

    ``fitted_rate`` is either a per-iteration geometric factor in (0, 1] or
    one of the flags ``"no-decay"`` (least-squares slope not below zero),
    ``"degenerate-equal"`` (identical start windows) or ``"coalesced"``
    (chains met exactly before a slope could be fitted).
    """

    distances: list[float]
    fitted_rate: float | str
    fit_window: tuple[int, int]
    initial_pair: tuple
    initial_distance: float

    def final_distance(self) -> float:
        return self.distances[-1]


def _fit_decay_rate(initial: float, distances: list[float]) -> tuple[float | str, tuple[int, int]]:
    """Least squares on log distance over the last three quarters of the run.

    Exact zeros (integer chains can coalesce) terminate the fit window; if
    the tail window holds fewer than two positive distances the fit falls
    back to every positive distance before coalescence.
    """
    n = len(distances)
    series = [initial] + distances  # index = iterations applied
    if initial == 0.0:
        return "degenerate-equal", (0, 0)
    zeros = [i for i, d in enumerate(series) if d == 0.0]
    end = zeros[0] if zeros else len(series)
    start = n // 4
    points = [(i, np.log(series[i])) for i in range(start, end) if series[i] > 0.0]
    if len(points) < 2:
        start = 0
        points = [(i, np.log(series[i])) for i in range(end) if series[i] > 0.0]
    if len(points) < 2:
        return "coalesced", (0, end)
    xs = np.array([float(i) for i, _ in points])
    ys = np.array([v for _, v in points])
    slope = float(np.polyfit(xs, ys, 1)[0])
    rate = float(np.exp(slope))
    if rate > 1.0:
        return "no-decay", (start, end)
    return rate, (start, end)


def _couple_block(spec: ModelSpec, n: int, window_a, window_b, replicates: int,
                  rng: np.random.Generator) -> np.ndarray:
    """``(replicates, n)`` distances of one coupled block after each step."""
    distances = np.empty((replicates, n))
    state = block_state(spec, [window_a, window_b], replicates)
    for t, state, _, _ in _lockstep(spec, state, n, rng):
        distances[:, t] = window_distance(spec, state)
    return distances


def _coupling_start(spec: ModelSpec, window_a, window_b):
    """Validated windows and their distance."""
    wa = validate_window(spec, window_a)
    wb = validate_window(spec, window_b)
    return wa, wb, float(window_distance(spec, block_state(spec, [wa, wb]))[0])


def couple(spec: ModelSpec, n: int, window_a, window_b,
           master_seed: int = 0, replicate_id: int = 0) -> CouplingReport:
    """Run two chains from different windows under fully shared noise.

    Both chains consume the same noise at every step, so equal windows stay
    equal forever and, under the model's contraction condition, the l1
    distance between the stacked states decays geometrically.  A block of
    one, addressed by ``(master_seed, replicate_id)``.

    Because the per-step noise is i.i.d., iterating n frozen random maps
    forward has the same law as composing them in reverse order; this run is
    therefore a cheap stand-in for the backward iterations whose convergence
    defines the stationary solution.
    """
    CoupleExperiment(n, window_a, window_b, replicates=1)  # checks the run parameters
    wa, wb, initial = _coupling_start(spec, window_a, window_b)
    distances = _couple_block(spec, n, wa, wb, 1, block_rng(master_seed, replicate_id))[0].tolist()
    rate, window = _fit_decay_rate(initial, distances)
    return CouplingReport(distances, rate, window, (window_a, window_b), initial)


@dataclass
class CouplingEnsemble:
    """Replicate-averaged coupling behaviour for one pair of start windows."""

    replicates: int
    n: int
    initial_distance: float
    mean_distances: np.ndarray
    median_final_distance: float
    fitted_rate: float | str
    fit_window: tuple[int, int]


def couple_ensemble(spec: ModelSpec, n: int, window_a, window_b, master_seed: int = 0,
                    replicates: int = DEFAULT_REPLICATES, jobs: int = 1) -> CouplingEnsemble:
    """Average the coupling distances over independent replicates.

    Replicates run in lockstep blocks; block ``b`` draws all its noise from
    ``(master_seed, b)``.  The decay rate is fitted on the replicate-mean
    curve.  With ``jobs > 1`` blocks run in up to ``jobs`` worker processes.
    """
    CoupleExperiment(n, window_a, window_b, replicates)  # checks the run parameters
    wa, wb, initial = _coupling_start(spec, window_a, window_b)
    tasks = [(spec, n, wa, wb, size, master_seed, b) for b, size in _blocks(replicates)]
    stacked = np.concatenate(_map_blocks(_couple_task, tasks, jobs))
    mean_distances = stacked.mean(axis=0)
    rate, fit_window = _fit_decay_rate(initial, [float(v) for v in mean_distances])
    return CouplingEnsemble(
        replicates=replicates,
        n=n,
        initial_distance=initial,
        mean_distances=mean_distances,
        median_final_distance=float(np.median(stacked[:, -1])),
        fitted_rate=rate,
        fit_window=fit_window,
    )


@dataclass
class PolynomialMoment:
    estimate: float
    std_error: float


@dataclass
class ExponentialMoment:
    """Log-scale estimate of E exp(delta |Y|_1) with a saturation diagnostic.

    ``top10_share`` is the fraction of the exponential mass carried by the
    ten largest samples; the estimate is flagged saturated when that share
    exceeds one half, i.e. the average is dominated by fewer than 10 samples.
    """

    log_estimate: float
    std_error: float
    top10_share: float
    saturated: bool


@dataclass
class MomentReport:
    polynomial: dict[float, PolynomialMoment]
    exponential: dict[float, ExponentialMoment]
    sample_size: int
    burn_in: int
    replicates: int
    lineage: tuple[int, ...] = field(default=())


def _logsumexp(values: np.ndarray, axis=None):
    m = np.max(values, axis=axis, keepdims=True)
    return np.squeeze(m, axis) + np.log(np.sum(np.exp(values - m), axis=axis))


class _MomentFold:
    """Per-replicate statistics of a block's l1 sizes, folded in time chunks.

    For every replicate it keeps the mean and the sum of squared deviations
    of ``s ** r`` (chunk statistics merged as in Chan, Golub & LeVeque), the
    log-sum-exp of ``delta * s`` and of ``2 * delta * s`` and the ten largest
    ``delta * s``, so memory stays O(replicates * chunk) for any path length.
    """

    def __init__(self, replicates: int, r_values, delta_values):
        self.replicates, self.n = replicates, 0
        self.mean = {r: np.zeros(replicates) for r in r_values}
        self.m2 = {r: np.zeros(replicates) for r in r_values}
        self.lse = {d: np.full((2, replicates), -np.inf) for d in delta_values}
        self.top = {d: np.empty((replicates, 0)) for d in delta_values}

    def add(self, sizes: np.ndarray) -> None:
        """Fold in a ``(replicates, k)`` chunk of l1 sizes."""
        k = sizes.shape[1]
        n = self.n + k
        with np.errstate(over="ignore", invalid="ignore"):  # see monte_carlo_moments
            for r in self.mean:
                x = sizes**r
                mean = x.mean(axis=1)
                gap = mean - self.mean[r]
                self.m2[r] += np.sum((x - mean[:, None]) ** 2, axis=1) + gap**2 * (self.n * k / n)
                self.mean[r] += gap * (k / n)
        for d in self.lse:
            scaled = d * sizes
            chunk_lse = np.stack((_logsumexp(scaled, axis=1), _logsumexp(2.0 * scaled, axis=1)))
            self.lse[d] = np.logaddexp(self.lse[d], chunk_lse)
            self.top[d] = np.sort(np.concatenate((self.top[d], scaled), axis=1), axis=1)[:, -10:]
        self.n = n

    def summaries(self) -> list:
        """One ``(n, {r: (mean, std)}, {delta: (lse, lse of 2x, top 10)})`` per replicate."""
        # Undefined (NaN) for a single sample, as np.std with ddof=1.
        std = {r: np.sqrt(self.m2[r] / (self.n - 1)) if self.n > 1 else np.full(self.replicates, np.nan)
               for r in self.m2}
        return [(self.n,
                 {r: (float(self.mean[r][i]), float(std[r][i])) for r in self.mean},
                 {d: (float(self.lse[d][0, i]), float(self.lse[d][1, i]), self.top[d][i].tolist())
                  for d in self.lse})
                for i in range(self.replicates)]


def _moment_block(spec: ModelSpec, exp: MomentsExperiment, replicates: int, rng: np.random.Generator) -> list:
    """Per-replicate moment summaries of one block after burn-in."""
    T, burn_in = exp.T, exp.burn_in
    fold = _MomentFold(replicates, exp.r_values, exp.delta_values)
    chunk = np.empty((replicates, min(T, _MOMENT_CHUNK)))
    state = block_state(spec, [default_window(spec)], replicates)
    for t, _, y, _ in _lockstep(spec, state, T + burn_in, rng):
        if t >= burn_in:
            i = (t - burn_in) % chunk.shape[1]
            chunk[:, i] = y[0].sum(axis=1)
            if i == chunk.shape[1] - 1 or t == T + burn_in - 1:
                fold.add(chunk[:, :i + 1])
    return fold.summaries()


def monte_carlo_moments(spec: ModelSpec, r_values, delta_values, T: int,
                        burn_in: int = DEFAULT_BURN_IN, replicates: int = DEFAULT_REPLICATES,
                        master_seed: int = 0, jobs: int = 1) -> MomentReport:
    """Estimate polynomial and exponential moments of |Y_t|_1 by pooling.

    Polynomial moments are plain averages of ``|Y_t|_1 ** r`` pooled over
    replicates, with the standard error taken across replicate means (a
    within-path fallback is used for a single replicate).  Exponential
    moments are accumulated in log space (log-sum-exp) and reported on the
    log scale together with the top-10-sample mass share, since a finite
    moment estimated by naive averaging fails silently under heavy tails.
    Replicates run in lockstep blocks, placed as in :func:`couple_ensemble`.

    For large ``r``, ``|Y_t|_1 ** r`` can overflow; such estimates and
    standard errors come out infinite or NaN without a warning.
    """
    exp = MomentsExperiment(r_values, delta_values, T, burn_in, replicates)
    tasks = [(spec, exp, size, master_seed, b) for b, size in _blocks(replicates)]
    summaries = [row for block in _map_blocks(_moment_task, tasks, jobs) for row in block]

    total = sum(s[0] for s in summaries)
    polynomial = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for r in exp.r_values:
            means = np.array([s[1][r][0] for s in summaries])
            estimate = float(np.mean(means))
            if replicates > 1:
                se = float(np.std(means, ddof=1) / np.sqrt(replicates))
            else:
                se = float(summaries[0][1][r][1] / np.sqrt(total))
            polynomial[r] = PolynomialMoment(estimate, se)

    exponential = {}
    for delta in exp.delta_values:
        lses = np.array([s[2][delta][0] for s in summaries])
        counts = np.array([float(s[0]) for s in summaries])
        log_means = lses - np.log(counts)
        total_lse = _logsumexp(lses)
        log_estimate = total_lse - np.log(total)
        if replicates > 1:
            # Delta method across replicate means, evaluated in shifted space.
            shift = float(np.max(log_means))
            scaled = np.exp(log_means - shift)
            se = float(np.std(scaled, ddof=1) / (np.mean(scaled) * np.sqrt(replicates)))
        else:
            lse2 = summaries[0][2][delta][1]
            ratio = np.exp(lse2 + np.log(total) - 2.0 * lses[0]) - 1.0
            se = float(np.sqrt(max(ratio, 0.0) / total))
        top10_all = np.sort(np.concatenate([np.asarray(s[2][delta][2]) for s in summaries]))[-10:]
        top10_share = float(np.exp(_logsumexp(top10_all) - total_lse))
        exponential[delta] = ExponentialMoment(float(log_estimate), se, top10_share, top10_share > 0.5)

    return MomentReport(polynomial, exponential, total, burn_in, replicates,
                        lineage=(int(master_seed),))


def _couple_task(args) -> np.ndarray:
    spec, n, wa, wb, size, master_seed, block = args
    return _couple_block(spec, n, wa, wb, size, block_rng(master_seed, block))


def _moment_task(args) -> list:
    spec, exp, size, master_seed, block = args
    return _moment_block(spec, exp, size, block_rng(master_seed, block))


def _map_blocks(fn, tasks, jobs: int) -> list:
    """Results of the block tasks in block order.

    With ``jobs > 1`` the blocks run in worker processes, even a single
    block: the calling process then never loads ``numpy.random`` or holds a
    block's working set, so the largest process stays about 4 MB (10 %)
    smaller than one process doing everything, at about the same wall time.
    """
    if jobs <= 1:
        return [fn(task) for task in tasks]
    import multiprocessing

    with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
        return pool.map(fn, tasks)

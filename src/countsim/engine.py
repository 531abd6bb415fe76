"""Forward simulation, common-noise coupling and Monte Carlo moments.

Everything here is a pure function of ``(spec, parameters, master_seed)``.
Replicates run in fixed blocks of :data:`BLOCK_SIZE` that advance in
lockstep, as one array state, on one persistent generator per block
addressed by ``(master_seed, block)``.  With ``jobs > 1`` a run long enough
to pay for them sends whole blocks to worker processes; block results merge
in replicate order either way.  The partition depends only on the replicate
count, so every output is the same for every ``jobs`` value.  :func:`couple`
runs a block of one, addressed by ``(master_seed, replicate_id)``;
:func:`simulate` steps one chain's companion row on that generator.  All
three run through one loop, :func:`_lockstep`.

Coupled chains are the two chains of one block state, driven through the
same noise at every step: one Poisson process per coordinate counted at each
chain's own intensity (or the same copula scores), the same counting
sequences and the same immigration.  Contraction of the underlying random
maps then shows up as decay of the l1 distance between the stacked
composite states.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DivergenceError, Problems, checked_array, checked_int
from .models import (
    ModelSpec,
    block_state,
    default_window,
    step,
    validate_window,
    window_distance,
)
from .randomness import block_rng, check_lineage

DEFAULT_BURN_IN = 1000
DEFAULT_REPLICATES = 32

#: Replicates advanced in lockstep on one generator.  A constant, not an
#: option: outputs depend on the partition into blocks.
BLOCK_SIZE = 64

#: Run lengths (``T + burn_in``, ``n``) and replicate counts lie below
#: ``2**RUN_BITS``, the int64 of numpy's shapes and of the step index.
RUN_BITS = 63

#: Block-steps (blocks times steps per block) below which a run's blocks run
#: in the calling process whatever ``jobs`` says; see :func:`_map_blocks`.
POOL_MIN_BLOCK_STEPS = 2000

_CSV_CHUNK_ROWS = 4096


def _blocks(replicates: int) -> list[tuple[int, int]]:
    """``(block, size)`` of every block, in replicate order."""
    return [(b, min(BLOCK_SIZE, replicates - b * BLOCK_SIZE))
            for b in range(-(-replicates // BLOCK_SIZE))]


def _lockstep(spec: ModelSpec, state, rng: np.random.Generator, burn_in: int, steps: int):
    """Advance ``state`` ``burn_in`` steps, then yield :func:`step`'s result after each of ``steps`` more.

    The engine's one loop over the one-step map, for a chain's companion row
    and a block state alike.  Raises :class:`DivergenceError`, tagged with the
    absolute index of the step that left the representable range (burn-in
    included), as each family's step checks.
    """
    for t in range(burn_in + steps):
        try:
            result = step(spec, state, rng)
        except DivergenceError as exc:
            exc.time_index = t
            raise
        state = result[0]
        if t >= burn_in:
            yield result


def _path_length(T, burn_in, problems: Problems) -> None:
    """Check ``T`` and ``burn_in``, and that a path's ``T + burn_in`` steps number below ``2**RUN_BITS``."""
    if all([checked_int(T, "T", problems, 1, RUN_BITS), checked_int(burn_in, "burn_in", problems, 0, RUN_BITS)]) \
            and T + burn_in >= 1 << RUN_BITS:
        problems.add("burn_in", f"expected T + burn_in below 2**{RUN_BITS}, got {T + burn_in}")


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
        _path_length(self.T, self.burn_in, problems)
        problems.raise_if_any()


@dataclass(frozen=True, eq=False)
class CoupleExperiment:
    """``replicates`` coupled pairs run ``n`` steps from two start windows.

    The windows are mappings (see :func:`default_window`), checked against
    the model by :func:`validate_window` when the experiment runs, since
    their shape depends on it.
    """

    n: int
    window_a: object
    window_b: object
    replicates: int = DEFAULT_REPLICATES
    kind: ClassVar[str] = "couple"

    def __post_init__(self):
        problems = Problems()
        checked_int(self.n, "n", problems, 10, RUN_BITS)
        checked_int(self.replicates, "replicates", problems, 1, RUN_BITS)
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
        values = {}
        for name, bound, holds in (("r_values", ">= 1", lambda v: v >= 1), ("delta_values", "> 0", lambda v: v > 0)):
            arr = checked_array(getattr(self, name), (None,), name, problems, "real")
            if arr is not None and not (arr.size and holds(arr).all()):
                problems.add(name, f"expected a nonempty list of finite numbers {bound}")
            values[name] = None if arr is None else tuple(arr.tolist())
        _path_length(self.T, self.burn_in, problems)
        checked_int(self.replicates, "replicates", problems, 1, RUN_BITS)
        problems.raise_if_any()
        for name, value in values.items():
            object.__setattr__(self, name, value)


@dataclass(eq=False)
class SamplePath:
    """A simulated trajectory with burn-in discarded.

    ``counts`` is T x p integers; ``intensities`` holds the conditional mean
    of the counts given the past (lambda for the intensity models, the
    thinning mean plus immigration mean for GINAR).
    """

    counts: np.ndarray
    intensities: np.ndarray

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
        row = ",".join(["{}"] * (p + 1) + ["{!r}"] * p) + "\n"  # one format string per file
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(["t"] + [f"y_{j + 1}" for j in range(p)] + [f"lambda_{j + 1}" for j in range(p)]) + "\n")
            for start in range(0, self.length, _CSV_CHUNK_ROWS):
                stop = start + _CSV_CHUNK_ROWS
                columns = self.counts[start:stop].T.tolist() + self.intensities[start:stop].T.tolist()
                fh.write("".join(map(row.format, range(start, stop), *columns)))


def simulate(spec: ModelSpec, T: int, burn_in: int = DEFAULT_BURN_IN,
             master_seed: int = 0, replicate_id: int = 0) -> SamplePath:
    """Iterate the one-step map ``T + burn_in`` times from the default window.

    One chain's companion row runs through :func:`_lockstep`, with the same
    arithmetic and draws as a block of one, on the generator addressed by
    ``(master_seed, replicate_id)``; the path is bit-reproducible from them.
    Raises :class:`DivergenceError`, tagged with the absolute step index, if
    the trajectory leaves the representable range.
    """
    SimulateExperiment(T, burn_in)  # checks the run parameters
    check_lineage(master_seed=master_seed, replicate_id=replicate_id)
    row = validate_window(spec, default_window(spec))
    counts, intensities = array("q"), array("d")  # int64 and float64, row after row
    for _, y, intensity in _lockstep(spec, row, block_rng(master_seed, replicate_id), burn_in, T):
        counts.extend(y)
        intensities.extend(intensity)
    return SamplePath(np.frombuffer(counts, np.int64).reshape(T, spec.p),
                      np.frombuffer(intensities).reshape(T, spec.p))


def _fit_decay_rate(initial: float, distances: list[float]) -> tuple[float | str, tuple[int, int]]:
    """Least squares on log distance over the last three quarters of the run.

    The first exact zero (integer chains can coalesce) ends the fit window
    ``[start, end)``; every distance before it is positive.  The window
    starts at ``n // 4``, or at 0 when that leaves fewer than two distances.
    The slope is the closed form ``sum(dx * dy) / sum(dx * dx)`` about the
    means; it agrees with ``np.polyfit``'s to a few ulps and needs no LAPACK.
    """
    n = len(distances)
    series = [initial] + distances  # index = iterations applied
    if initial == 0.0:
        return "degenerate-equal", (0, 0)
    zeros = [i for i, d in enumerate(series) if d == 0.0]
    end = zeros[0] if zeros else len(series)
    start = n // 4 if end - n // 4 >= 2 else 0
    if end - start < 2:
        return "coalesced", (0, end)
    dx = np.arange(start, end, dtype=float) - (start + end - 1) / 2  # exact: the mean is a half-integer
    ys = np.array([np.log(series[i]) for i in range(start, end)])
    slope = float(dx @ (ys - ys.mean()) / (dx @ dx))
    rate = float(np.exp(slope))
    if rate > 1.0:
        return "no-decay", (start, end)
    return rate, (start, end)


def _median(values: np.ndarray) -> float:
    """``np.median`` of a vector, bit for bit, from ``np.partition``; ``np.median`` loads ``numpy.ma``."""
    half = len(values) // 2
    if len(values) % 2:
        return float(np.partition(values, half)[half])
    low, high = np.partition(values, (half - 1, half))[half - 1:half + 1]
    return float((low + high) / 2)


@dataclass(eq=False)
class CouplingEnsemble:
    """Replicate-averaged coupling behaviour for one pair of start windows.

    ``fitted_rate`` is either a per-iteration geometric factor in (0, 1] or
    one of the flags ``"no-decay"`` (least-squares slope not below zero),
    ``"degenerate-equal"`` (identical start windows) or ``"coalesced"``
    (chains met exactly before a slope could be fitted).
    ``final_mean_distance`` is the last entry of ``mean_distances``, and
    ``median_final_distance`` the median over replicates of the last
    distances.  Every field is the same for every ``jobs`` value, whether
    the blocks ran in process or in workers.
    """

    replicates: int
    n: int
    initial_distance: float
    mean_distances: np.ndarray
    final_mean_distance: float
    median_final_distance: float
    fitted_rate: float | str
    fit_window: tuple[int, int]


def _couple_block(spec: ModelSpec, n: int, window_a, window_b, replicates: int,
                  rng: np.random.Generator) -> np.ndarray:
    """``(replicates, n)`` distances of one coupled block after each step."""
    distances = np.empty((replicates, n))
    state = block_state([window_a, window_b], replicates)
    for t, (state, _, _) in enumerate(_lockstep(spec, state, rng, 0, n)):
        distances[:, t] = window_distance(state)
    return distances


def _coupling(spec: ModelSpec, n: int, window_a, window_b, master_seed: int,
              blocks: list[tuple[int, int]], jobs: int) -> CouplingEnsemble:
    """The coupled ``(block, size)`` blocks from the two windows, averaged over replicates.

    Each block runs ``n`` steps, placed by :func:`_map_blocks`.  The summary
    takes its median from ``np.partition`` and its rate from a closed-form
    slope (:func:`_fit_decay_rate`), so a run in process loads neither
    ``numpy.ma`` nor LAPACK's least squares.
    """
    rows = [validate_window(spec, window_a), validate_window(spec, window_b)]
    with np.errstate(over="ignore"):  # a sum past the double range is +inf, refused next
        initial = float(window_distance(block_state(rows))[0])
    if not math.isfinite(initial):
        raise ConfigError([f"window_b: expected a finite l1 distance from window_a, got {initial}"])
    tasks = [(_couple_block, spec, (n, *rows), size, master_seed, b) for b, size in blocks]
    stacked = np.concatenate(_map_blocks(tasks, jobs, n))
    mean_distances = stacked.mean(axis=0)
    rate, fit_window = _fit_decay_rate(initial, [float(v) for v in mean_distances])
    return CouplingEnsemble(
        replicates=len(stacked),
        n=n,
        initial_distance=initial,
        mean_distances=mean_distances,
        final_mean_distance=float(mean_distances[-1]),
        median_final_distance=_median(stacked[:, -1]),
        fitted_rate=rate,
        fit_window=fit_window,
    )


def couple(spec: ModelSpec, n: int, window_a, window_b,
           master_seed: int = 0, replicate_id: int = 0) -> CouplingEnsemble:
    """Run two chains from different windows under fully shared noise.

    Both chains consume the same noise at every step, so equal windows stay
    equal forever and, under the model's contraction condition, the l1
    distance between the stacked states decays geometrically.  An ensemble
    of one: the block of one replicate addressed by ``(master_seed,
    replicate_id)``.  Windows are mappings, as :func:`validate_window` reads them.

    Because the per-step noise is i.i.d., iterating n frozen random maps
    forward has the same law as composing them in reverse order; this run is
    therefore a cheap stand-in for the backward iterations whose convergence
    defines the stationary solution.
    """
    CoupleExperiment(n, window_a, window_b, replicates=1)  # checks the run parameters
    check_lineage(master_seed=master_seed, replicate_id=replicate_id)
    return _coupling(spec, n, window_a, window_b, master_seed, [(replicate_id, 1)], jobs=1)


def couple_ensemble(spec: ModelSpec, n: int, window_a, window_b, master_seed: int = 0,
                    replicates: int = DEFAULT_REPLICATES, jobs: int = 1) -> CouplingEnsemble:
    """Average the coupling distances over independent replicates.

    Replicates run in lockstep blocks; block ``b`` draws all its noise from
    ``(master_seed, b)``.  The decay rate is fitted on the replicate-mean
    curve.  With ``jobs > 1`` blocks run in up to ``jobs`` worker processes
    once the run has :data:`POOL_MIN_BLOCK_STEPS` block-steps.
    """
    CoupleExperiment(n, window_a, window_b, replicates)  # checks the run parameters
    check_lineage(master_seed=master_seed)
    return _coupling(spec, n, window_a, window_b, master_seed, _blocks(replicates), jobs)


@dataclass
class PolynomialMoment:
    estimate: float
    std_error: float


@dataclass
class ExponentialMoment:
    """Log-scale estimate of E exp(delta |Y|_1) with a saturation diagnostic.

    ``top10_share`` is the fraction of the exponential mass carried by the
    ten largest samples; the estimate is flagged saturated when that share
    exceeds one half, i.e. the average is dominated by fewer than 10 samples,
    and when ``delta |Y|_1`` passes the double range (estimate +inf, SE and
    share NaN).
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


def _logsumexp(values: np.ndarray, axis=None):
    """``log(sum(exp(values)))`` along ``axis``; +inf, without a warning, where a value is +inf."""
    m = np.max(values, axis=axis, keepdims=True)
    m = np.where(m < np.inf, m, 0.0)
    with np.errstate(over="ignore"):
        return np.squeeze(m, axis) + np.log(np.sum(np.exp(values - m), axis=axis))


def _batch_lengths(T: int) -> np.ndarray:
    """Lengths of the ``isqrt(T)`` consecutive batches of a path of ``T`` steps.

    Batch ``i`` ends at ``(i + 1) * T // isqrt(T)``, so lengths differ by at most one.
    That is computed as ``(i + 1) * (T // b) + (i + 1) * (T % b) // b``, since
    ``(i + 1) * T`` wraps past int64 once ``T`` passes about 2**42.
    """
    batches = math.isqrt(T)
    whole, rest = divmod(T, batches)
    return whole + np.diff(np.arange(1, batches + 1) * rest // batches, prepend=0)


def _relative_se(log_means: np.ndarray) -> float:
    """Standard error of the mean of ``exp(log_means)``, relative to that mean.

    The spread is taken after shifting by the largest unit, so it is finite
    whenever every unit is.  NaN (undefined) for fewer than two units or an
    infinite unit; 0 when every unit is zero.
    """
    shift = np.max(log_means)
    if len(log_means) < 2 or shift == np.inf:
        return math.nan
    if shift == -np.inf:
        return 0.0
    scaled = np.exp(log_means - shift)
    return float(np.std(scaled, ddof=1) / (np.mean(scaled) * math.sqrt(len(scaled))))


def _fold(sizes, replicates: int, T: int, r_values, delta_values) -> tuple:
    """``(sums, lse, top)``: per-replicate, per-batch statistics of a block's l1 sizes.

    ``sizes`` yields ``T`` vectors, one size per replicate and step.  Each
    replicate's path is cut into the batches of :func:`_batch_lengths`, and
    each batch is folded into its cell: the sum of ``s ** r`` and the
    log-sum-exp of ``delta * s``.  ``top`` holds the block's ten largest
    ``s`` (``delta > 0`` times them are the ten largest ``delta * s``, bit
    for bit), so memory is O(replicates * sqrt(T)).
    """
    lengths = _batch_lengths(T)
    buffer = np.empty((replicates, lengths.max()))
    sums = {r: np.empty((replicates, len(lengths))) for r in r_values}
    lse = {d: np.empty((replicates, len(lengths))) for d in delta_values}
    top = np.empty(0)
    for b, length in enumerate(lengths):
        for i, size in zip(range(length), sizes):
            buffer[:, i] = size
        batch = buffer[:, :length]
        with np.errstate(over="ignore"):  # see monte_carlo_moments
            for r in sums:
                sums[r][:, b] = np.sum(batch**r, axis=1)
            for d in lse:
                lse[d][:, b] = _logsumexp(d * batch, axis=1)
        top = np.sort(np.concatenate((top, batch), axis=None))[-10:]
    return sums, lse, top


def _moment_block(spec: ModelSpec, exp: MomentsExperiment, replicates: int, rng: np.random.Generator) -> tuple:
    """:func:`_fold` of one block's l1 sizes after burn-in, from the default window."""
    state = block_state([validate_window(spec, default_window(spec))], replicates)
    sizes = (y[0].sum(axis=1) for _, y, _ in _lockstep(spec, state, rng, exp.burn_in, exp.T))
    return _fold(sizes, replicates, exp.T, exp.r_values, exp.delta_values)


def monte_carlo_moments(spec: ModelSpec, r_values, delta_values, T: int,
                        burn_in: int = DEFAULT_BURN_IN, replicates: int = DEFAULT_REPLICATES,
                        master_seed: int = 0, jobs: int = 1) -> MomentReport:
    """Estimate polynomial and exponential moments of |Y_t|_1 by pooling.

    Polynomial moments are plain averages of ``|Y_t|_1 ** r`` pooled over
    replicates.  Exponential moments are accumulated in log space
    (log-sum-exp) and reported on the log scale together with the
    top-10-sample mass share, since a finite moment estimated by naive
    averaging fails silently under heavy tails.  Replicates run in lockstep
    blocks, placed as in :func:`couple_ensemble`.

    Every standard error follows one batch-means rule: the units are the
    replicates when there are at least two, otherwise the ``isqrt(T)``
    consecutive batches of the single path, so serial dependence within a
    path is accounted for either way.  The relative spread of the unit means
    is the standard error of the log estimate, and the estimate times that
    spread the standard error of a polynomial moment.  Fewer than two units
    leave it undefined (NaN).  Per-batch statistics take memory that grows
    as ``sqrt(T)``.

    For large ``r``, ``|Y_t|_1 ** r`` can overflow; such estimates come out
    infinite and their standard errors NaN, without a warning.  So does the
    log estimate of an exponential moment once ``delta |Y_t|_1`` passes the
    double range; it is flagged saturated, with its top-10 share NaN.
    """
    exp = MomentsExperiment(r_values, delta_values, T, burn_in, replicates)
    check_lineage(master_seed=master_seed)
    tasks = [(_moment_block, spec, (exp,), size, master_seed, b) for b, size in _blocks(replicates)]
    blocks = _map_blocks(tasks, jobs, exp.T + exp.burn_in)
    total = replicates * T
    by_replicate = replicates > 1  # else the units are the batches of the one path
    counts = np.full(replicates, float(T)) if by_replicate else _batch_lengths(T).astype(float)

    polynomial = {}
    for r in exp.r_values:
        sums = np.concatenate([block[0][r] for block in blocks])
        with np.errstate(over="ignore", divide="ignore"):  # log 0 = -inf marks an all-zero unit
            estimate = float(np.sum(sums / total))
            log_means = np.log((sums / T).sum(axis=1) if by_replicate else sums[0] / counts)
        polynomial[r] = PolynomialMoment(estimate, estimate * _relative_se(log_means))

    top10_sizes = np.sort(np.concatenate([block[2] for block in blocks], axis=None))[-10:]
    exponential = {}
    for delta in exp.delta_values:
        lses = np.concatenate([block[1][delta] for block in blocks])
        total_lse = _logsumexp(lses)
        if total_lse == math.inf:
            exponential[delta] = ExponentialMoment(math.inf, math.nan, math.nan, True)
            continue
        se = _relative_se((_logsumexp(lses, axis=1) if by_replicate else lses[0]) - np.log(counts))
        top10_all = delta * top10_sizes
        top10_share = float(np.exp(_logsumexp(top10_all) - total_lse))
        exponential[delta] = ExponentialMoment(float(total_lse - np.log(total)), se, top10_share, top10_share > 0.5)

    return MomentReport(polynomial, exponential, total, burn_in, replicates)


def _block_task(args):
    """``fn(spec, *params, size, rng)`` on the generator of block ``(master_seed, block)``."""
    fn, spec, params, size, master_seed, block = args
    return fn(spec, *params, size, block_rng(master_seed, block))


def _map_blocks(tasks, jobs: int, steps: int) -> list:
    """Results of the block tasks (see :func:`_block_task`) in block order.

    ``steps`` is the number of steps each block runs.  An error is the first
    failing block's, in block order, for every ``jobs``.  A run of fewer than
    :data:`POOL_MIN_BLOCK_STEPS` block-steps (blocks times ``steps``) runs in
    the calling process whatever ``jobs`` says; so does every run at
    ``jobs == 1``.  Otherwise the blocks go to ``min(jobs, blocks)`` worker
    processes, even a single block.

    The threshold is where two workers pay.  They save at most half the work
    and cost 25-45 ms more than running in process, so they pay only above
    about 90 ms of work; a block-step costs about 35-70 us, which puts that at
    roughly 1,300-2,600 block-steps.  Within couple-mix's ``ginar_couple`` run
    (2 blocks of 200 steps; 2 vCPUs, Python 3.11, numpy 2.4) the blocks took
    34-44 ms in process, ``numpy.random``'s import included, 58-60 ms with one
    worker and 76-79 ms with two.  A single long block still goes to a worker,
    which buys no time but keeps peak RSS down: the calling process then never
    loads ``numpy.random`` or holds a block's working set.  Each
    ``moments-highcount`` benchmark run (one block of 5,500 steps) peaks at
    34.0 MB that way against 38.9 MB in process (``wait4``'s ``ru_maxrss``).
    """
    if jobs <= 1 or len(tasks) * steps < POOL_MIN_BLOCK_STEPS:
        return [_block_task(task) for task in tasks]
    import multiprocessing

    with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
        return list(pool.imap(_block_task, tasks))  # map raises the first failure to arrive

"""Seeded deterministic randomness for count-process simulation.

Every random object here is addressed by a *lineage*, a tuple of integers
folded into a 64-bit PCG64 seed with a fixed SplitMix64-based mixer, so any
stream can be reconstructed independently of construction order and the same
lineage yields the same draws on every run with the same numpy.  Bit-identical
paths are promised no further than that: the determinism manifest pins
numpy's version, and a block's sums follow the order in which the build's
``np.einsum`` adds.  A small linear row, and a block of one of it, add in
index order in Python floats (``models._lambdas``) instead, so on any build
a path has a block of one's bits.

The engine advances a block of replicates, and for coupling both chains, in
lockstep.  Each block owns one persistent generator addressed by
``(master_seed, block)`` (:func:`block_rng`), and the noise two coupled
chains share is drawn in closed form from both chains' parameters at once:

* :func:`shared_poisson` and :func:`shared_thinning` -- counts of one
  unit-rate Poisson process at the two chains' intensities, and thinning sums
  over one counting sequence: the part both chains read, at ``min(a_0, a_1)``,
  and each chain's own excess over it, none for the lower one, drawn in one
  call (:func:`_split`);
* :func:`poisson_quantile` -- the Poisson inverse CDF at the copula's normal
  scores, which both chains share (:func:`shared_counts`): one cumulative sum
  over a window of Poisson terms gives the CDF of lower-half entries and the
  upper tail of upper-half ones, and the window grows until the geometric
  bound on the mass beyond it, from the first omitted term on, cannot change
  an answer.

Both copulas draw one step's scores in one call, through the scheme's
Cholesky factor, in :func:`shared_counts` and nowhere else.  Draws of at most
:data:`SCALAR_DRAW_LIMIT` entries loop the generator's scalar call, with the
same bits and the same argument checks, and larger arrays use one array call.
A lineage part, a seed or a replicate id, lies in ``[0, 2**64)``
(:func:`checked_lineage`).

No run calls the per-step primitives addressed by ``(master_seed,
replicate_id, time_index)`` (:class:`PoissonProcessPath`, :class:`CountNoise`,
:class:`CountingCache`, :func:`thinning`, :func:`make_stream`).  Only
:func:`poisson_inverse_cdf` is a scalar reference, the one the law tests check
:func:`poisson_quantile`'s lower half against; the rest stays only because the
benchmark tracer (``perfbench/tracer.py``) patches it by name.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass
from itertools import starmap

import numpy as np

from .errors import ConfigurationError, DivergenceError, Problems, checked_array, checked_int

_MASK64 = (1 << 64) - 1

#: Counting-sequence families supported by the thinning operator.
COUNTING_FAMILIES = ("bernoulli", "poisson", "geometric")

#: Conditional means above this are refused; counts would overflow 64-bit integers.
INTENSITY_LIMIT = 1e18

#: numpy's Poisson limit: it refuses ``negative_binomial(n, p)`` when ``(1 - p) / p * (n + 10 sqrt(n))`` exceeds it.
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))


def _splitmix64(x: int) -> int:
    """One SplitMix64 output step (Steele, Lea & Flood constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix(parts: tuple[int, ...]) -> int:
    """Fold a lineage tuple into one 64-bit seed, order-sensitively."""
    acc = 0
    for part in parts:
        acc = _splitmix64(acc ^ (int(part) & _MASK64))
    return acc


class Stream:
    """A deterministic pseudo-random stream identified by its lineage.

    Two streams with equal lineage produce identical draw sequences; streams
    with different lineages are statistically independent.  The generator is
    built lazily on first use (derivation chains create many streams that
    never draw).  Instances own their generator state and must not be shared
    between concurrent tasks.  Only the per-step primitives draw through
    streams; :func:`block_rng` seeds from the same mixer directly.
    """

    __slots__ = ("lineage", "_rng")

    def __init__(self, lineage: tuple[int, ...]):
        self.lineage = tuple(int(x) for x in lineage)
        self._rng = None

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = np.random.Generator(np.random.PCG64(_mix(self.lineage)))
        return self._rng


def make_stream(master_seed: int, replicate_id: int, time_index: int) -> Stream:
    """Stream for one time step of one replicate; pure in its arguments."""
    return Stream((int(master_seed), int(replicate_id), int(time_index)))


def checked_lineage(value, path: str, problems: Problems) -> bool:
    """Whether ``value`` is a lineage part, an integer in ``[0, 2**64)``; files a problem if not.

    The one rule for a seed or a replicate id: outside that range two parts
    would alias one stream, as -1 and 2**64 - 1 do.
    """
    return checked_int(value, path, problems, bits=64)


def check_lineage(**parts) -> None:
    """Refuse, by name, every part that is not a lineage part, in one :class:`ConfigError`."""
    problems = Problems()
    for path, value in parts.items():
        checked_lineage(value, path, problems)
    problems.raise_if_any()


def block_rng(master_seed: int, block: int) -> np.random.Generator:
    """The persistent generator of one replicate block; pure in its arguments."""
    return np.random.Generator(np.random.PCG64(_mix((master_seed, block))))


#: Draws of at most this many entries loop the generator's scalar call: today
#: a GINAR or log-linear single path's draws, and blocks of at most 8 entries
#: (a linear row draws its own scalar calls).  An array call spends
#: about 12 us on its argument checks, which a scalar call skips; a Poisson
#: loop breaks even near 8-12 entries, a broadcast binomial one lower.  With the
#: limit at 0, in two runs of 8 alternating fresh-process pairs (2 vCPUs,
#: numpy 2.4), a GINAR path went from 22-28 to 36-41 us/step at p = 1 and from
#: 29 to 35-58 at p = 2, and an 8-replicate p = 1 moments block from 38-46 to
#: 46-58 us/step, so the scalar calls stay.
SCALAR_DRAW_LIMIT = 8


def _filled(a: np.ndarray, shape: tuple) -> np.ndarray:
    """``a`` itself if it has ``shape``, else a new array of ``a`` broadcast to it.

    Filling an empty array costs about 3 us less than ``np.broadcast_to`` and
    gives a contiguous array.
    """
    if a.shape == shape:
        return a
    out = np.empty(shape)
    out[...] = a
    return out


def _draw(method, *params) -> np.ndarray:
    """``method(*params)`` for a generator method such as ``rng.poisson`` and array parameters.

    Two regimes, one result: up to :data:`SCALAR_DRAW_LIMIT` entries are drawn
    by one scalar call each, in C order as the array call draws them, so the
    values and the generator state afterwards are the same, and a bad
    parameter raises ``ValueError`` either way.  The result has the
    parameters' broadcast shape: to draw more, fill them (:func:`_filled`),
    which draws the bits ``size`` would.  Two-parameter draws read the
    broadcast iterator (``np.broadcast_arrays`` costs more than the draws).
    """
    values = params[0]
    if len(params) > 1:
        entries = np.broadcast(*params)
        if entries.size <= SCALAR_DRAW_LIMIT:
            return np.fromiter(starmap(method, entries), np.int64, entries.size).reshape(entries.shape)
    elif values.size <= SCALAR_DRAW_LIMIT:
        # Python floats take the scalar call's fastest path.
        return np.fromiter(map(method, values.ravel().tolist()), np.int64, values.size).reshape(values.shape)
    return method(*params)


def check_intensities(peak: float) -> None:
    """Refuse a conditional mean peak past the limit, every family's one range rule (log-linear's in ``mu``).

    The draws refuse negative and NaN intensities.
    """
    if peak > INTENSITY_LIMIT:
        raise DivergenceError(f"intensity exceeded {INTENSITY_LIMIT:g}")


def geometric_mean_refused(means: np.ndarray) -> np.ndarray:
    """Where numpy refuses even one geometric counting term of mean ``means``.

    :func:`shared_thinning` draws ``negative_binomial(n, 1 / (1 + m))`` for
    every positive lag count ``n``, so such a mean fails at the first positive
    count.
    """
    p = 1.0 / (1.0 + means)
    return (1.0 - p) / p * 11.0 > POISSON_LAM_MAX


def _split(a: np.ndarray) -> np.ndarray:
    """The parts one or two chains' amounts ``a`` are drawn in: one chain, or ``(lo, a_0 - lo, a_1 - lo)``.

    ``lo = min(a_0, a_1)`` is what both chains read; each adds its own excess.
    """
    if a.shape[0] == 1:
        return a
    lo = np.minimum(a[0], a[1])
    return np.stack((lo, a[0] - lo, a[1] - lo))


def _join(sums: np.ndarray) -> np.ndarray:
    """Each chain's draw from the draws of :func:`_split`'s parts: the common part plus its own excess."""
    return sums if sums.shape[0] == 1 else sums[0] + sums[1:]


def shared_poisson(rng: np.random.Generator, lam: np.ndarray) -> np.ndarray:
    """Counts of one unit-rate Poisson process per entry, at each chain's intensity.

    ``lam`` has one or two chains on its first axis.  Two chains both read
    ``N(lo)`` at ``lo = min(lam_0, lam_1)``, and each chain adds its own
    independent excess ``N(lam_c) - N(lo) ~ Poisson(lam_c - lo)`` (see
    :func:`_split`), so each chain is Poisson at its own intensity and the
    counts are monotone in it.  The parts are drawn in one call, in C order.
    """
    return _join(_draw(rng.poisson, _split(lam)))


_TINY = np.finfo(float).tiny
_SQRT_HALF = math.sqrt(0.5)


def poisson_quantile(scores, lam) -> np.ndarray:
    """Poisson(lam) quantiles at the probabilities Phi(scores), elementwise.

    The lower half (``score <= 0``) is the smallest ``k`` with CDF ``>= u``,
    ``u = Phi(score)``, summed term by term exactly as
    :func:`poisson_inverse_cdf` does.  The upper half is the smallest ``k``
    with ``P(X > k) <= Phi(-score)``, so a probability that would round to 1
    is never formed; ``P(X > k)`` is summed from the far end of the window
    down.  Both tail masses come from ``erfc``.

    One pass serves both halves: the term matrix has its upper-half columns
    reversed, so one cumulative sum gives the CDF in lower columns and the
    upper tail sums in upper ones, and one comparison against the tail mass
    counts ``k``.  The window widens until the mass beyond it cannot change
    the result.  Past the last term ``pmf_W`` the first omitted term is
    ``pmf_W * lam / (W + 1)`` and each later one at most ``lam / (W + 1)``
    times the one before, so the omitted mass is at most
    ``pmf_W * lam / (W + 1 - lam)``; the ratio is below 1 because every
    window ends past ``lam + 4``.  An :class:`OverflowError` is raised when
    that needs more than ``lam + 40*sqrt(lam) + 250`` terms (more than any
    tail mass down to the smallest normal double needs) or when the leading
    term underflows, and a :class:`ValueError` for a non-finite score or a
    negative or NaN intensity.  Empty input gives an empty result.
    """
    z, lam = np.asarray(scores, dtype=float), np.asarray(lam, dtype=float)
    if z.shape != lam.shape:
        shape = np.broadcast(z, lam).shape
        z, lam = _filled(z, shape), _filled(lam, shape)
    shape = lam.shape
    z, lam = z.ravel(), lam.ravel()
    n = lam.size
    if n == 0:
        return np.zeros(shape, dtype=np.int64)
    az = np.abs(z)
    if not (lam.min() >= 0.0 and az.max() < math.inf):
        raise ValueError("scores must be finite; intensities must be nonnegative")
    head = np.exp(-lam)
    if not head.min() > 0.0:
        raise OverflowError(f"intensity {lam.max()} too large for sequential inverse CDF")
    reach = float((lam + (az + 3.0) * np.sqrt(lam)).max())
    upper = z > 0.0
    tail = np.fromiter(map(math.erfc, (az * _SQRT_HALF).tolist()), float, n)
    tail *= 0.5
    np.maximum(tail, _TINY, out=tail)
    # acc < thresh is acc < tail in lower columns and acc <= tail in upper ones.
    thresh = np.where(upper, np.nextafter(tail, np.inf), tail)
    last_row = np.arange(-n, 0)  # flat offsets of row -1, for reading row count - 1
    lam_max = float(lam.max())
    cap = int(lam_max + 40.0 * math.sqrt(lam_max) + 250.0)
    width = min(cap, int(reach) + 5)
    while True:
        # Row k holds term k of every entry and row width + 1 a zero, so each
        # column is multiplied and summed in order, as the scalar search does.
        pmf = np.empty((width + 2, n))
        pmf[0] = head
        np.divide(lam, np.arange(1.0, width + 1.0)[:, None], out=pmf[1:-1])
        pmf[-1] = 0.0
        np.multiply.accumulate(pmf, axis=0, out=pmf)
        # Upper columns are reversed: they start at the zero row, and row j
        # sums to P(X > width - j) within the window.  Lower columns sum to the CDF.
        acc = np.where(upper, pmf[::-1], pmf)
        np.add.accumulate(acc, axis=0, out=acc)
        count = np.add.reduce(acc < thresh, axis=0)
        k = np.where(upper, width + 1 - count, count)
        # A lower answer is exact once it lies in the window; an upper one once
        # P(X > k), its row count - 1, stays <= tail with the mass beyond added.
        beyond = pmf[-2] * lam / (width + 1.0 - lam)
        if k.max() <= width and ((acc.take(count * n + last_row) + beyond < thresh) >= upper).all():
            return k.reshape(shape)
        if width >= cap:
            raise OverflowError(f"inverse CDF search exceeded cap {cap} at intensity {lam_max}")
        width = min(cap, 2 * width)


def shared_counts(rng: np.random.Generator, dependence: Dependence, lam: np.ndarray) -> np.ndarray:
    """One step's counts for ``(chains, replicates, p)`` intensities under the scheme.

    Marginals are Poisson at each chain's own intensity; the chains share
    the Poisson processes (independent scheme) or the copula scores, drawn
    for both copulas through ``Dependence.cholesky``.  The caller keeps
    ``lam`` within the intensity limit (see :func:`check_intensities`).
    """
    if dependence.scheme == "independent":
        return shared_poisson(rng, lam)
    chol = dependence.cholesky
    scores = rng.standard_normal((lam.shape[1], len(chol))) @ chol.T
    try:
        return poisson_quantile(scores, lam)
    except OverflowError as exc:
        raise DivergenceError(str(exc)) from exc


def shared_thinning(rng: np.random.Generator, family: str, means: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Thinning sums of one step for ``(chains, replicates, q, p)`` lagged counts.

    Coordinate ``i`` of chain ``c`` is ``sum_j sum_l`` of the first
    ``counts[c, r, j, l]`` terms of the counting sequence with mean
    ``means[j, i, l]``; returns ``(chains, replicates, p)``.  Two chains read
    the same sequence, so they split as :func:`shared_poisson` does: the sum
    over the shorter prefix ``lo`` is drawn once for both and each chain adds
    an independent sum over its own ``n - lo`` further terms, none for the
    shorter one (:func:`_split`).  Sums of ``n`` terms are drawn in closed form:
    ``Bin(n, m)`` (bernoulli), ``Poisson(n m)`` summed over the lags and
    columns (poisson) or a negative binomial, drawn only where ``n > 0``
    (geometric).  The caller checks each chain's conditional mean, which
    bounds every part's thinning mean, against the intensity limit.
    """
    parts = _split(counts)
    if family == "poisson":
        sums = _draw(rng.poisson, np.einsum("jil,krjl->kri", means, parts))
    else:
        n = parts[:, :, :, None, :]
        if family == "bernoulli":
            draws = _draw(rng.binomial, n, means)
        else:  # geometric; GinarSpec refuses every other family
            n, prob = np.broadcast_arrays(n, 1.0 / (1.0 + means))
            positive = n > 0
            draws = np.zeros(n.shape, np.int64)
            draws[positive] = _draw(rng.negative_binomial, n[positive], prob[positive])
        sums = draws.sum(axis=(2, 4))
    return _join(sums)


def poisson_inverse_cdf(u: float, lam: float) -> int:
    """Smallest k with Poisson(lam) CDF(k) >= u, by sequential summation.

    Intended for small/moderate intensities; the search is capped at
    ``lam + 40*sqrt(lam) + 50`` and an :class:`OverflowError` is raised if
    the cap is hit or the leading probability underflows.
    """
    if not 0.0 <= u < 1.0:
        raise ValueError(f"u must lie in [0, 1), got {u}")
    if lam < 0.0 or not math.isfinite(lam):
        raise ValueError(f"intensity must be finite and nonnegative, got {lam}")
    if lam == 0.0:
        return 0
    cap = int(lam + 40.0 * math.sqrt(lam) + 50.0)
    prob = math.exp(-lam)
    if prob == 0.0:
        raise OverflowError(f"intensity {lam} too large for sequential inverse CDF")
    cdf = prob
    k = 0
    while cdf < u:
        if k >= cap:
            raise OverflowError(f"inverse CDF search exceeded cap {cap} at intensity {lam}")
        k += 1
        prob *= lam / k
        cdf += prob
    return k


class PoissonProcessPath:
    """One realization of a unit-rate Poisson process on the half line.

    Arrival times are materialized lazily as partial sums of unit-mean
    exponential interarrivals, so the same realization can be counted at
    several intensities: counts are monotone in the intensity and extending
    the horizon never changes arrivals already drawn.

    Beyond :attr:`dense_cap` arrivals are no longer materialized one by one;
    counts are recorded at the queried points instead and new queries are
    filled in exactly with Poisson increments past the frontier and binomial
    bridges between recorded points.  This keeps evaluation O(1) for the very
    large intensities reached by nonstationary configurations.
    """

    #: Largest time up to which individual arrivals are materialized.
    dense_cap = 4096.0

    __slots__ = ("arrivals", "_marks")

    def __init__(self):
        self.arrivals: list[float] = []
        # Sorted (time, count) records governing times beyond the dense region.
        self._marks: list[tuple[float, int]] = []

    def count(self, lam: float, stream: Stream) -> int:
        """Number of arrivals in (0, lam], extending the path if needed."""
        if not math.isfinite(lam) or lam < 0.0:
            raise ValueError(f"intensity must be finite and nonnegative, got {lam}")
        if lam == 0.0:
            return 0
        if not self._marks and lam <= self.dense_cap:
            self._extend_dense(lam, stream)
            return bisect_right(self.arrivals, lam)
        return self._count_marked(lam, stream)

    def _extend_dense(self, lam: float, stream: Stream) -> None:
        # Materialize until one arrival lies strictly beyond lam.
        total = self.arrivals[-1] if self.arrivals else 0.0
        while total <= lam:
            gaps = stream.rng.exponential(size=16)
            for g in gaps:
                total += g
                self.arrivals.append(total)
            total = self.arrivals[-1]

    def _count_marked(self, lam: float, stream: Stream) -> int:
        if not self._marks:
            # Anchor the mark records at the dense frontier.
            anchor_t = self.arrivals[-1] if self.arrivals else 0.0
            self._marks.append((anchor_t, len(self.arrivals)))
        if lam <= self._marks[0][0]:
            return bisect_right(self.arrivals, lam)
        idx = bisect_right(self._marks, (lam, float("inf")))
        lo_t, lo_n = self._marks[idx - 1]
        if lam == lo_t:
            return lo_n
        if idx == len(self._marks):
            count = lo_n + int(stream.rng.poisson(lam - lo_t))
        else:
            hi_t, hi_n = self._marks[idx]
            gap = hi_n - lo_n
            count = lo_n
            if gap > 0:
                count += int(stream.rng.binomial(gap, (lam - lo_t) / (hi_t - lo_t)))
        insort(self._marks, (lam, count))
        return count


@dataclass(frozen=True, eq=False)
class Dependence:
    """Joint law of the per-coordinate unit Poisson noise.

    ``scheme`` is one of ``independent`` (independent coordinates),
    ``comonotone`` (all coordinates driven by one shared normal score) or
    ``gaussian`` (a Gaussian copula with the given correlation matrix, whose
    entries pass :func:`errors.checked_array`, so a boolean or a string is
    refused).  Marginals are Poisson under every scheme; only the joint changes.
    A copula draws normal scores times ``cholesky.T``: the correlation's factor,
    or ``[[1.0]]`` for comonotone, one score that every coordinate reads.
    """

    scheme: str = "independent"
    correlation: np.ndarray | None = None

    SCHEMES = ("independent", "comonotone", "gaussian")

    def __post_init__(self):
        problems = Problems()
        corr, chol = None, np.ones((1, 1)) if self.scheme == "comonotone" else None
        if self.scheme not in self.SCHEMES:
            problems.add("scheme", f"expected one of {self.SCHEMES}, got {self.scheme!r}")
        elif self.scheme != "gaussian":
            if self.correlation is not None:
                problems.add("correlation", f"scheme {self.scheme!r} does not take a correlation matrix")
        elif self.correlation is None:
            problems.add("correlation", "gaussian dependence requires a correlation matrix")
        else:
            corr = checked_array(self.correlation, (None, None), "correlation", problems, "real")
        if corr is not None:
            if corr.shape[0] != corr.shape[1]:
                problems.add("correlation", f"expected a square matrix, got shape {corr.shape}")
            elif not np.allclose(corr, corr.T, atol=1e-12):
                problems.add("correlation", "matrix is not symmetric")
            elif not np.allclose(np.diag(corr), 1.0, atol=1e-12):
                problems.add("correlation", "matrix must have unit diagonal")
            else:
                try:
                    chol = np.linalg.cholesky(corr)
                except np.linalg.LinAlgError:
                    problems.add("correlation", "matrix is not positive definite")
        problems.raise_if_any()
        object.__setattr__(self, "correlation", corr)
        object.__setattr__(self, "cholesky", chol)


class CountNoise:
    """Independent unit-rate Poisson counts of a single time step, one process path per coordinate.

    Evaluable at any intensity vector via :meth:`at`; repeated evaluations
    count the same paths, which is what coupled chains rely on when they
    share an instance.  Copula counts are drawn by :func:`shared_counts` only.
    """

    __slots__ = ("p", "_stream", "_paths")

    def __init__(self, p: int, stream: Stream):
        self.p = int(p)
        self._stream = stream
        self._paths = None

    def at(self, lambdas) -> np.ndarray:
        """Counts with marginal law Poisson(lambdas_j), independent across coordinates."""
        lam = np.asarray(lambdas, dtype=float)
        if lam.shape != (self.p,):
            raise ValueError(f"expected {self.p} intensities, got shape {lam.shape}")
        check_intensities(lam.max())
        if self._paths is None:
            self._paths = [PoissonProcessPath() for _ in range(self.p)]
        counts = [path.count(x, self._stream) for path, x in zip(self._paths, lam.tolist())]
        return np.array(counts, dtype=np.int64)


def _draw_counting(family: str, mean: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` i.i.d. nonnegative-integer draws with the given mean."""
    if family == "bernoulli":
        if mean > 1.0:
            raise ConfigurationError(f"bernoulli counting mean {mean} exceeds 1")
        return (rng.random(size) < mean).astype(np.int64)
    if family == "poisson":
        return rng.poisson(mean, size).astype(np.int64)
    if family == "geometric":
        # Geometric on {0, 1, 2, ...} with success probability 1/(1+mean).
        return (rng.geometric(1.0 / (1.0 + mean), size) - 1).astype(np.int64)
    raise ConfigurationError(f"unknown counting family {family!r}, expected one of {COUNTING_FAMILIES}")


class CountingCache:
    """Lazily extended counting sequences keyed by (t, j, i, l).

    Extensions append draws from the supplied stream and never touch earlier
    entries, so re-reading a key always returns the same prefix: two coupled
    chains sharing a cache see the same underlying variables wherever their
    counts overlap.  Instances are single-owner (or shared deliberately
    between two coupled chains processed in turn).
    """

    def __init__(self):
        self._entries: dict[tuple[int, int, int, int], list[int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def draws(self, key: tuple[int, int, int, int], n: int, family: str, mean: float, stream: Stream) -> list[int]:
        """First ``n`` draws of the sequence at ``key``, extending on demand."""
        if n <= 0:
            return []
        values = self._entries.get(key)
        if values is None:
            values = []
            self._entries[key] = values
        deficit = n - len(values)
        if deficit > 0:
            values.extend(int(v) for v in _draw_counting(family, mean, deficit, stream.rng))
        return values[:n]


def thinning(cache: CountingCache, key: tuple[int, int], mean_matrix: np.ndarray, family: str, x, stream: Stream) -> np.ndarray:
    """Apply the thinning operator to a count vector.

    Coordinate ``i`` of the result is the sum over ``l`` of the first
    ``x[l]`` draws of the counting sequence with mean ``mean_matrix[i, l]``,
    read from the cache under key ``(t, j, i, l)`` with ``(t, j) = key``.
    The conditional mean of the output is ``mean_matrix @ x``.
    """
    t, j = key
    counts = np.asarray(x)
    if np.any(counts < 0):
        raise ValueError("thinning input must be nonnegative")
    p = mean_matrix.shape[0]
    out = np.zeros(p, dtype=np.int64)
    for i in range(p):
        row = mean_matrix[i]
        acc = 0
        for l in range(p):
            n = int(counts[l])
            mean = float(row[l])
            if n == 0 or mean == 0.0:
                continue
            acc += sum(cache.draws((t, j, i, l), n, family, mean, stream))
        out[i] = acc
    return out

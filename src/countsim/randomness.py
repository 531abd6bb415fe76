"""Seeded deterministic randomness for count-process simulation.

Every random object here is addressed by a *lineage*, a tuple of integers
folded into a 64-bit PCG64 seed with a fixed SplitMix64-based mixer, so any
stream can be reconstructed independently of construction order and the same
lineage yields bit-identical draws on every platform.

The engine advances a block of replicates, and for coupling both chains, in
lockstep.  Each block owns one persistent generator addressed by
``(master_seed, block)`` (:func:`block_rng`), and the noise two coupled
chains share is drawn in closed form from both chains' parameters at once:

* :func:`shared_poisson` -- counts of one unit-rate Poisson process at the two
  chains' intensities: ``Poisson(lo)`` for both plus an independent
  ``Poisson(hi - lo)`` increment for the chain with the higher intensity;
* :func:`shared_thinning` -- thinning sums over the shared prefix of one
  counting sequence, plus independent sums over each chain's extra terms;
* :func:`poisson_quantile` -- the Poisson inverse CDF at the copula's normal
  scores, which both chains share (:func:`shared_counts`).

The per-step primitives addressed by ``(master_seed, replicate_id,
time_index)`` (:class:`PoissonProcessPath`, :class:`CountNoise`,
:class:`CountingCache`, :func:`thinning`, :func:`poisson_inverse_cdf`) are the
scalar references the law tests compare the block primitives against.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ConfigurationError, DivergenceError, Problems

_MASK64 = (1 << 64) - 1

#: Counting-sequence families supported by the thinning operator.
COUNTING_FAMILIES = ("bernoulli", "poisson", "geometric")

#: Intensities above this are refused; counts would overflow 64-bit integers.
INTENSITY_LIMIT = 1e18


def checked_array(value, shape: tuple, path: str, problems: Problems, rule: str) -> np.ndarray | None:
    """``value`` as a float array of ``shape`` obeying ``rule``, or None after filing a problem.

    ``None`` in ``shape`` matches any length.  ``rule`` is ``"real"`` (finite
    entries), ``"nonnegative"`` or ``"count"`` (nonnegative integers); a
    broken rule is reported at its first offending entry.
    """
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape)):
        if len(shape) == 1:
            what = "a vector of numbers" if shape[0] is None else f"a vector of {shape[0]} numbers"
        else:
            what = "a matrix of numbers" if shape[0] is None else f"a {shape[0]}x{shape[1]} matrix of numbers"
        problems.add(path, f"expected {what}")
        return None
    if not np.isfinite(arr).all():
        problems.add(path, "contains non-finite entries")
        return None
    if rule != "real" and flag_entry(arr, arr < 0, "negative entry {}", path, problems):
        return None
    if rule == "count" and flag_entry(arr, arr != np.floor(arr), "non-integer entry {}", path, problems):
        return None
    return arr


def flag_entry(arr: np.ndarray, mask: np.ndarray, message: str, path: str, problems: Problems) -> bool:
    """File ``message`` (formatted with the entry) at the first entry ``mask`` marks, if any."""
    bad = np.argwhere(mask)
    if bad.size:
        at = tuple(int(i) for i in bad[0])
        problems.add(path + "".join(f"[{i}]" for i in at), message.format(arr[at]))
    return bool(bad.size)


def checked_int(value, path: str, problems: Problems, minimum: int | None = None) -> bool:
    """Whether ``value`` is an integer (booleans are not) of at least ``minimum``; files a problem if not."""
    if isinstance(value, bool) or not isinstance(value, Integral) or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        problems.add(path, f"expected an integer{bound}, got {value!r}")
        return False
    return True


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
    between concurrent tasks.
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

    def substream(self, *tags: int) -> "Stream":
        """Fresh stream derived from this lineage plus extra tag components."""
        return Stream(self.lineage + tags)

    def __repr__(self) -> str:
        return f"Stream(lineage={self.lineage})"


def make_stream(master_seed: int, replicate_id: int, time_index: int) -> Stream:
    """Stream for one time step of one replicate; pure in its arguments."""
    return Stream((int(master_seed), int(replicate_id), int(time_index)))


def block_rng(master_seed: int, block: int) -> np.random.Generator:
    """The persistent generator of one replicate block; pure in its arguments."""
    return Stream((int(master_seed), int(block))).rng


def _check_intensities(lam: np.ndarray) -> None:
    """Refuse negative or non-finite intensities and those past the limit."""
    if not lam.min() >= 0.0:  # also false for NaN
        raise ValueError("intensities must be finite and nonnegative")
    if lam.max() > INTENSITY_LIMIT:
        raise DivergenceError(f"intensity exceeded {INTENSITY_LIMIT:g}")


def shared_poisson(rng: np.random.Generator, lam: np.ndarray) -> np.ndarray:
    """Counts of one unit-rate Poisson process per entry, at each chain's intensity.

    ``lam`` has one or two chains on its first axis.  With two chains both
    read ``N(lo)`` and the chain with the higher intensity adds the
    independent increment ``N(hi) - N(lo) ~ Poisson(hi - lo)``, so each chain
    is Poisson at its own intensity and the counts are monotone in it.
    """
    if lam.shape[0] == 1:
        return rng.poisson(lam)
    lo = np.minimum(lam[0], lam[1])
    base = rng.poisson(lo)
    extra = rng.poisson(np.maximum(lam[0], lam[1]) - lo)
    first_higher = lam[0] > lam[1]
    return np.stack((base + np.where(first_higher, extra, 0),
                     base + np.where(first_higher, 0, extra)))


_erfc = np.frompyfunc(math.erfc, 1, 1)
_TINY = np.finfo(float).tiny


def poisson_quantile(scores, lam) -> np.ndarray:
    """Poisson(lam) quantiles at the probabilities Phi(scores), elementwise.

    The lower half (``score <= 0``) is the smallest ``k`` with CDF ``>= u``,
    ``u = Phi(score)``, summed term by term exactly as
    :func:`poisson_inverse_cdf` does.  The upper half is the smallest ``k``
    with ``P(X > k) <= Phi(-score)``, so a probability that would round to 1
    is never formed.  Both tail masses come from ``erfc``.  Terms are taken
    over a window that widens until the mass beyond it cannot change the
    result; an :class:`OverflowError` is raised when that needs more than
    ``lam + 40*sqrt(lam) + 250`` terms (more than any tail mass down to the
    smallest normal double needs) or when the leading term underflows.
    """
    z, lam = np.broadcast_arrays(np.asarray(scores, dtype=float), np.asarray(lam, dtype=float))
    shape = lam.shape
    z, lam = z.ravel(), lam.ravel()
    if np.isnan(z).any() or not lam.min() >= 0.0:
        raise ValueError("scores must not be NaN; intensities must be nonnegative")
    head = np.exp(-lam)
    if (head == 0.0).any():
        raise OverflowError(f"intensity {lam.max()} too large for sequential inverse CDF")
    upper = z > 0.0
    tail = np.maximum(0.5 * _erfc(np.abs(z) * math.sqrt(0.5)).astype(float), _TINY)
    columns = np.arange(lam.size)
    lam_max = float(lam.max())
    cap = int(lam_max + 40.0 * math.sqrt(lam_max) + 250.0)
    width = min(cap, int(np.max(lam + (np.abs(z) + 3.0) * np.sqrt(lam))) + 5)
    while True:
        # Row k holds term k of every entry, so each column is summed in
        # order, exactly as the scalar search sums it.
        pmf = np.empty((width + 1, lam.size))
        pmf[0] = head
        np.divide(lam, np.arange(1.0, width + 1.0)[:, None], out=pmf[1:])
        np.cumprod(pmf, axis=0, out=pmf)
        cdf = np.cumsum(pmf, axis=0)
        above = np.zeros_like(pmf)  # P(X > k) within the window
        above[:-1] = np.cumsum(pmf[:0:-1], axis=0)[::-1]
        k = np.where(upper, np.count_nonzero(above > tail, axis=0), np.count_nonzero(cdf < tail, axis=0))
        # The mass beyond the window is at most pmf_width * r / (1 - r); an
        # upper-half answer is exact once adding it keeps P(X > k) <= tail.
        ratio = lam / (width + 2.0)
        beyond = np.where(ratio < 1.0, pmf[-1] * ratio / np.maximum(1.0 - ratio, _TINY), np.inf)
        if np.where(upper, above[k, columns] + beyond <= tail, cdf[-1] >= tail).all():
            return k.reshape(shape)
        if width >= cap:
            raise OverflowError(f"inverse CDF search exceeded cap {cap} at intensity {lam_max}")
        width = min(cap, 2 * width)


def shared_counts(rng: np.random.Generator, dependence: Dependence, lam: np.ndarray) -> np.ndarray:
    """One step's counts for ``(chains, replicates, p)`` intensities under the scheme.

    Marginals are Poisson at each chain's own intensity; the chains share
    the Poisson processes (independent scheme) or the copula scores.
    """
    _check_intensities(lam)
    if dependence.scheme == "independent":
        return shared_poisson(rng, lam)
    replicates, p = lam.shape[1:]
    if dependence.scheme == "comonotone":
        scores = rng.standard_normal((replicates, 1))
    else:
        scores = rng.standard_normal((replicates, p)) @ dependence.cholesky.T
    try:
        return poisson_quantile(scores, lam)
    except OverflowError as exc:
        raise DivergenceError(str(exc)) from exc


def shared_thinning(rng: np.random.Generator, family: str, means: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Thinning sums of one step for ``(chains, replicates, q, p)`` lagged counts.

    Coordinate ``i`` of chain ``c`` is ``sum_j sum_l`` of the first
    ``counts[c, r, j, l]`` terms of the counting sequence with mean
    ``means[j, i, l]``; returns ``(chains, replicates, p)``.  Two chains read
    the same sequence, so the sum over the shorter prefix ``lo`` is drawn
    once for both and each chain adds an independent sum over its own
    ``n - lo`` further terms.  Sums of ``n`` terms are drawn in closed form:
    ``Bin(n, m)`` (bernoulli), ``Poisson(n m)`` summed over the lags and
    columns (poisson) or a negative binomial, zero where ``n = 0``
    (geometric).
    """
    if counts.shape[0] == 1:
        parts = counts
    else:
        lo = np.minimum(counts[0], counts[1])
        parts = np.stack((lo, counts[0] - lo, counts[1] - lo))
    if family == "poisson":
        mean = np.einsum("jil,krjl->kri", means, parts)
        _check_intensities(mean)
        sums = rng.poisson(mean)
    else:
        n = parts[:, :, :, None, :]
        if family == "bernoulli":
            draws = rng.binomial(n, means)
        elif family == "geometric":
            draws = np.where(n > 0, rng.negative_binomial(np.maximum(n, 1), 1.0 / (1.0 + means)), 0)
        else:
            raise ConfigurationError(f"unknown counting family {family!r}, expected one of {COUNTING_FAMILIES}")
        sums = draws.sum(axis=(2, 4))
    return sums if counts.shape[0] == 1 else sums[0] + sums[1:]


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

    @property
    def horizon(self) -> float:
        """Largest time up to which the realization is pinned down."""
        last_dense = self.arrivals[-1] if self.arrivals else 0.0
        last_mark = self._marks[-1][0] if self._marks else 0.0
        return max(last_dense, last_mark)

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


@dataclass(frozen=True)
class Dependence:
    """Joint law of the per-coordinate unit Poisson noise.

    ``scheme`` is one of ``independent`` (independent coordinates),
    ``comonotone`` (all coordinates driven by one shared normal score) or
    ``gaussian`` (a Gaussian copula with the given correlation matrix).
    Marginals are Poisson under every scheme; only the joint changes.
    """

    scheme: str = "independent"
    correlation: np.ndarray | None = None

    SCHEMES = ("independent", "comonotone", "gaussian")

    def __post_init__(self):
        problems = Problems()
        corr, chol = None, None
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dependence):
            return NotImplemented
        if self.scheme != other.scheme:
            return False
        if self.correlation is None:
            return other.correlation is None
        return other.correlation is not None and np.array_equal(self.correlation, other.correlation)

    def __repr__(self) -> str:
        if self.scheme == "gaussian":
            return f"Dependence('gaussian', correlation={self.correlation.tolist()})"
        return f"Dependence({self.scheme!r})"


class CountNoise:
    """The count-process noise of a single time step.

    Evaluable at any intensity vector via :meth:`at`; repeated evaluations
    reuse the same underlying realization (paths or normal scores), which is what coupled chains rely on when they share an instance.
    """

    __slots__ = ("dependence", "p", "_stream", "_paths", "_scores")

    def __init__(self, dependence: Dependence, p: int, stream: Stream):
        self.dependence = dependence
        self.p = int(p)
        self._stream = stream
        self._paths = None
        self._scores = None

    def at(self, lambdas) -> np.ndarray:
        """Counts with marginal law Poisson(lambdas_j), joint per the scheme."""
        lam = np.asarray(lambdas, dtype=float)
        if lam.shape != (self.p,):
            raise ValueError(f"expected {self.p} intensities, got shape {lam.shape}")
        lo, hi = float(lam.min()), float(lam.max())
        if lo < 0.0 or not math.isfinite(lo) or math.isnan(hi):
            raise ValueError("intensities must be finite and nonnegative")
        if hi > INTENSITY_LIMIT:
            raise DivergenceError(f"intensity exceeded {INTENSITY_LIMIT:g}")
        if self.dependence.scheme == "independent":
            return self._independent(lam)
        return self._via_scores(lam)

    def _independent(self, lam: np.ndarray) -> np.ndarray:
        if self._paths is None:
            self._paths = [PoissonProcessPath() for _ in range(self.p)]
        out = np.zeros(self.p, dtype=np.int64)
        for j in range(self.p):
            out[j] = self._paths[j].count(float(lam[j]), self._stream)
        return out

    def _via_scores(self, lam: np.ndarray) -> np.ndarray:
        if self._scores is None:
            if self.dependence.scheme == "comonotone":
                self._scores = np.full(self.p, float(self._stream.rng.standard_normal()))
            else:
                self._scores = self.dependence.cholesky @ self._stream.rng.standard_normal(self.p)
        try:
            return poisson_quantile(self._scores, lam)
        except OverflowError as exc:
            raise DivergenceError(str(exc)) from exc


def sample_count_vector(lambdas, dependence: Dependence, stream: Stream) -> np.ndarray:
    """One fresh count vector with Poisson marginals coupled per the scheme."""
    lam = np.asarray(lambdas, dtype=float)
    return CountNoise(dependence, lam.shape[0], stream).at(lam)


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

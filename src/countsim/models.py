"""The three count autoregression families as one-step random maps.

Each model advances a window of its ``q`` most recent composite states
(most recent first) through a random map driven by the step's noise:

* GINAR: thinning sums over lagged counts plus i.i.d. immigration.
* Linear intensity: ``lambda_t = d + sum_i A_i lambda_{t-i} + sum_i B_i y_{t-i}``
  with conditionally Poisson counts.
* Log-linear: ``mu_t = d + sum_j A_j mu_{t-j} + sum_j B_j log(1 + y_{t-j})``,
  ``lambda_t = exp(mu_t)``; coefficients may be negative.

Specs are immutable and shareable.  A block of replicates, each with one or
two coupled chains, advances in lockstep through :func:`step`: its state is
a tuple of ``(chains, replicates, q, p)`` arrays holding the windows (see
:func:`block_state`).  The log-linear window stores ``(log(1 + y), mu)``
pairs, the coordinates in which that model contracts, so coupling distances
are measured where contraction actually happens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .randomness import (  # noqa: F401  (make_stream: perfbench/tracer.py patches it here)
    COUNTING_FAMILIES,
    CountingCache,
    Dependence,
    Stream,
    make_stream,
    shared_counts,
    shared_thinning,
    thinning,
)

#: Any component of mu exceeding this makes exp(mu) useless; treat as blow-up.
MU_LIMIT = 700.0

IMMIGRATION_FAMILIES = ("poisson", "geometric", "constant")


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_matrices(mats, q: int, p: int, label: str, nonnegative: bool) -> tuple[np.ndarray, ...]:
    if len(mats) != q:
        raise ConfigurationError(f"{label}: expected {q} matrices, got {len(mats)}")
    out = []
    for idx, m in enumerate(mats):
        arr = np.asarray(m, dtype=float)
        if arr.shape != (p, p):
            raise ConfigurationError(f"{label}[{idx}]: expected shape ({p}, {p}), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ConfigurationError(f"{label}[{idx}] contains non-finite entries")
        if nonnegative and np.any(arr < 0):
            raise ConfigurationError(f"{label}[{idx}] has negative entries")
        out.append(_freeze(arr))
    return tuple(out)


@dataclass(frozen=True)
class ImmigrationSpec:
    """The i.i.d. additive innovation of a GINAR process.

    ``values`` are per-coordinate means; for the ``constant`` family they are
    the constants themselves and must be nonnegative integers.
    """

    family: str
    values: np.ndarray

    def __post_init__(self):
        if self.family not in IMMIGRATION_FAMILIES:
            raise ConfigurationError(
                f"immigration family {self.family!r} not in {IMMIGRATION_FAMILIES}"
            )
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ConfigurationError("immigration values must be a vector")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ConfigurationError("immigration values must be finite and nonnegative")
        if self.family == "constant" and np.any(vals != np.floor(vals)):
            raise ConfigurationError("constant immigration requires integer values")
        object.__setattr__(self, "values", _freeze(vals))

    def mean(self) -> np.ndarray:
        return self.values

    def draw(self, stream: Stream) -> np.ndarray:
        """One immigration vector from a per-step stream."""
        return self.sample(stream.rng)

    def sample(self, rng: np.random.Generator, replicates: int | None = None) -> np.ndarray:
        """One vector, or a ``(replicates, p)`` array of independent ones."""
        shape = self.values.shape if replicates is None else (replicates,) + self.values.shape
        if self.family == "poisson":
            return rng.poisson(self.values, size=shape)
        if self.family == "geometric":
            return rng.geometric(1.0 / (1.0 + self.values), size=shape) - 1
        return np.broadcast_to(self.values.astype(np.int64), shape).copy()


@dataclass(frozen=True)
class GinarSpec:
    """Thinning-based autoregression of order ``q`` in dimension ``p``."""

    p: int
    q: int
    mean_matrices: tuple[np.ndarray, ...]
    counting_family: str = "bernoulli"
    immigration: ImmigrationSpec | None = None

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ConfigurationError("dimension and order must be positive")
        mats = _check_matrices(self.mean_matrices, self.q, self.p, "mean_matrices", nonnegative=True)
        object.__setattr__(self, "mean_matrices", mats)
        if self.counting_family not in COUNTING_FAMILIES:
            raise ConfigurationError(
                f"counting family {self.counting_family!r} not in {COUNTING_FAMILIES}"
            )
        if self.counting_family == "bernoulli":
            for idx, m in enumerate(mats):
                if np.any(m > 1.0):
                    bad = np.argwhere(m > 1.0)[0]
                    raise ConfigurationError(
                        f"mean_matrices[{idx}][{bad[0]}][{bad[1]}] > 1 is invalid for the bernoulli family"
                    )
        if self.immigration is None:
            raise ConfigurationError("an immigration distribution is required")
        if self.immigration.values.shape != (self.p,):
            raise ConfigurationError(
                f"immigration values must have length {self.p}, got {self.immigration.values.shape}"
            )

    @property
    def kind(self) -> str:
        return "ginar"

    @cached_property
    def stacked_means(self) -> np.ndarray:
        """``mean_matrices`` as one ``(q, p, p)`` array."""
        return _freeze(np.stack(self.mean_matrices))


@dataclass(frozen=True)
class IngarchSpec:
    """Linear-intensity model: counts conditionally Poisson given the past."""

    p: int
    q: int
    intensity_offset: np.ndarray
    lambda_matrices: tuple[np.ndarray, ...]
    count_matrices: tuple[np.ndarray, ...]
    dependence: Dependence = field(default_factory=Dependence)

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ConfigurationError("dimension and order must be positive")
        d = np.asarray(self.intensity_offset, dtype=float)
        if d.shape != (self.p,) or not np.all(np.isfinite(d)) or np.any(d < 0):
            raise ConfigurationError("intensity offset must be a nonnegative vector of length p")
        object.__setattr__(self, "intensity_offset", _freeze(d))
        object.__setattr__(
            self, "lambda_matrices",
            _check_matrices(self.lambda_matrices, self.q, self.p, "lambda_matrices", nonnegative=True),
        )
        object.__setattr__(
            self, "count_matrices",
            _check_matrices(self.count_matrices, self.q, self.p, "count_matrices", nonnegative=True),
        )
        _check_correlation_size(self.dependence, self.p)

    @property
    def kind(self) -> str:
        return "ingarch"


@dataclass(frozen=True)
class LogLinearSpec:
    """Log-linear intensity model; coefficient signs are unrestricted."""

    p: int
    q: int
    offset: np.ndarray
    mu_matrices: tuple[np.ndarray, ...]
    logcount_matrices: tuple[np.ndarray, ...]
    dependence: Dependence = field(default_factory=Dependence)

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ConfigurationError("dimension and order must be positive")
        d = np.asarray(self.offset, dtype=float)
        if d.shape != (self.p,) or not np.all(np.isfinite(d)):
            raise ConfigurationError("offset must be a finite vector of length p")
        object.__setattr__(self, "offset", _freeze(d))
        object.__setattr__(
            self, "mu_matrices",
            _check_matrices(self.mu_matrices, self.q, self.p, "mu_matrices", nonnegative=False),
        )
        object.__setattr__(
            self, "logcount_matrices",
            _check_matrices(self.logcount_matrices, self.q, self.p, "logcount_matrices", nonnegative=False),
        )
        _check_correlation_size(self.dependence, self.p)

    @property
    def kind(self) -> str:
        return "loglinear"


def _check_correlation_size(dependence: Dependence, p: int) -> None:
    if not isinstance(dependence, Dependence):
        raise ConfigurationError("dependence must be a Dependence instance")
    if dependence.correlation is not None and dependence.correlation.shape != (p, p):
        raise ConfigurationError(
            f"correlation must be {p}x{p}, got {dependence.correlation.shape}"
        )


ModelSpec = GinarSpec | IngarchSpec | LogLinearSpec


def default_window(spec: ModelSpec) -> list:
    """Start-up window: zero counts, intensity at the offset, mu at zero.

    The stationary law does not depend on the start; burn-in absorbs the
    transient.
    """
    zeros = np.zeros(spec.p, dtype=np.int64)
    if isinstance(spec, GinarSpec):
        return [zeros.copy() for _ in range(spec.q)]
    if isinstance(spec, IngarchSpec):
        return [(zeros.copy(), spec.intensity_offset.copy()) for _ in range(spec.q)]
    return [(np.zeros(spec.p), np.zeros(spec.p)) for _ in range(spec.q)]


def validate_window(spec: ModelSpec, window) -> list:
    """Check a window against its model; returns a normalized copy."""
    if len(window) != spec.q:
        raise ConfigurationError(f"window must hold {spec.q} lagged states, got {len(window)}")
    out = []
    if isinstance(spec, GinarSpec):
        for entry in window:
            x = np.asarray(entry)
            if x.shape != (spec.p,) or np.any(x < 0):
                raise ConfigurationError("window counts must be nonnegative vectors of length p")
            out.append(x.astype(np.int64))
        return out
    for entry in window:
        first, second = entry
        a = np.asarray(first, dtype=float)
        b = np.asarray(second, dtype=float)
        if a.shape != (spec.p,) or b.shape != (spec.p,):
            raise ConfigurationError("window entries must be pairs of vectors of length p")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ConfigurationError("window entries must be finite")
        if isinstance(spec, IngarchSpec):
            if np.any(a < 0) or np.any(b < 0):
                raise ConfigurationError("counts and intensities must be nonnegative")
            out.append((a.astype(np.int64), b))
        else:
            if np.any(a < 0):
                raise ConfigurationError("log(1+y) window entries must be nonnegative")
            out.append((a, b))
    return out


def ginar_step(spec: GinarSpec, window, t: int, cache: CountingCache, stream: Stream) -> np.ndarray:
    """One GINAR transition: immigration plus thinning of each lag.

    The conditional mean given the window is
    ``sum_j mean_matrices[j] @ window[j] + immigration.mean()``.
    """
    total = spec.immigration.draw(stream)
    for j in range(spec.q):
        total = total + thinning(cache, (t, j + 1), spec.mean_matrices[j],
                                 spec.counting_family, window[j], stream)
    return total.astype(np.int64)


def ingarch_intensity(spec: IngarchSpec, window) -> np.ndarray:
    lam = spec.intensity_offset.copy()
    for j in range(spec.q):
        y, prev_lam = window[j]
        lam += spec.lambda_matrices[j] @ prev_lam + spec.count_matrices[j] @ y
    return lam


def loglinear_mu(spec: LogLinearSpec, window) -> np.ndarray:
    mu = spec.offset.copy()
    for j in range(spec.q):
        log1p_y, prev_mu = window[j]
        mu += spec.mu_matrices[j] @ prev_mu + spec.logcount_matrices[j] @ log1p_y
    return mu


def block_state(spec: ModelSpec, windows, replicates: int = 1) -> tuple[np.ndarray, ...]:
    """Stack validated windows, one per chain, into a block state.

    Every replicate of chain ``c`` starts from ``windows[c]``.  The state is
    ``(counts,)`` for GINAR, ``(counts, lambda)`` for the linear model and
    ``(log(1 + counts), mu)`` for the log-linear one, each array of shape
    ``(chains, replicates, q, p)`` with the most recent lag first.
    """
    fields = 1 if isinstance(spec, GinarSpec) else 2
    state = []
    for f in range(fields):
        stacked = np.array([[entry if fields == 1 else entry[f] for entry in window] for window in windows])
        state.append(np.repeat(stacked[:, None], replicates, axis=1))
    return tuple(state)


def _lag_sum(mats, window: np.ndarray) -> np.ndarray:
    """``sum_j mats[j] @ window[c, r, j]`` for every chain and replicate."""
    total = window[:, :, 0] @ mats[0].T
    for j in range(1, len(mats)):
        total = total + window[:, :, j] @ mats[j].T
    return total


def _push(window: np.ndarray, newest: np.ndarray) -> np.ndarray:
    """Prepend the newest lag and drop the oldest."""
    if window.shape[2] == 1:
        return newest[:, :, None]
    return np.concatenate((newest[:, :, None], window[:, :, :-1]), axis=2)


def ginar_block_step(spec: GinarSpec, state, rng: np.random.Generator):
    """One GINAR transition of a block: shared immigration plus thinning.

    Returns ``(state, counts, mean)``; ``mean`` is the conditional mean
    ``immigration.mean() + sum_j mean_matrices[j] @ window[j]``.
    """
    (x,) = state
    counts = spec.immigration.sample(rng, x.shape[1]) \
        + shared_thinning(rng, spec.counting_family, spec.stacked_means, x)
    mean = spec.immigration.mean() + _lag_sum(spec.mean_matrices, x)
    return (_push(x, counts),), counts, mean


def ingarch_block_step(spec: IngarchSpec, state, rng: np.random.Generator):
    """One linear-intensity transition of a block; returns ``(state, counts, lambda)``."""
    y, prev_lam = state
    lam = spec.intensity_offset + (_lag_sum(spec.lambda_matrices, prev_lam)
                                   + _lag_sum(spec.count_matrices, y))
    counts = shared_counts(rng, spec.dependence, lam)
    return (_push(y, counts), _push(prev_lam, lam)), counts, lam


def loglinear_block_step(spec: LogLinearSpec, state, rng: np.random.Generator, t: int | None = None):
    """One log-linear transition of a block; returns ``(state, counts, lambda)``.

    Raises :class:`DivergenceError` if any component of mu exceeds 700,
    which parameter choices violating the stability condition can produce.
    """
    log1p_y, prev_mu = state
    mu = spec.offset + (_lag_sum(spec.mu_matrices, prev_mu) + _lag_sum(spec.logcount_matrices, log1p_y))
    if mu.max() > MU_LIMIT:
        raise DivergenceError(
            f"log intensity exceeded {MU_LIMIT:g}; parameters appear nonstationary",
            time_index=t,
        )
    lam = np.exp(mu)
    counts = shared_counts(rng, spec.dependence, lam)
    return (_push(log1p_y, np.log1p(counts)), _push(prev_mu, mu)), counts, lam


def step(spec: ModelSpec, state, t: int, rng: np.random.Generator):
    """Uniform one-step dispatch over the three families for a block state.

    Returns ``(new_state, counts, intensity)``: counts and intensity have
    shape ``(chains, replicates, p)`` and ``intensity`` is the conditional
    mean of the counts given the window.  Every chain of a replicate
    consumes the same noise.
    """
    if len(state) != (1 if isinstance(spec, GinarSpec) else 2):
        raise ConfigurationError(f"block state does not match a {spec.kind} model")
    if isinstance(spec, GinarSpec):
        return ginar_block_step(spec, state, rng)
    if isinstance(spec, IngarchSpec):
        return ingarch_block_step(spec, state, rng)
    if isinstance(spec, LogLinearSpec):
        return loglinear_block_step(spec, state, rng, t)
    raise ConfigurationError(f"unknown model spec {type(spec).__name__}")


def window_distance(spec: ModelSpec, state) -> np.ndarray:
    """l1 distance between the two chains' stacked composite states, per replicate."""
    total = 0.0
    for part in state:
        total = total + np.abs(part[0] - part[1]).sum(axis=(1, 2), dtype=float)
    return total

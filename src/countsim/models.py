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

from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DivergenceError, Problems
from .randomness import (  # noqa: F401  (make_stream: perfbench/tracer.py patches it here)
    COUNTING_FAMILIES,
    CountingCache,
    Dependence,
    Stream,
    checked_array,
    checked_int,
    flag_entry,
    make_stream,
    shared_counts,
    shared_thinning,
    thinning,
)

#: Any component of mu exceeding this makes exp(mu) useless; treat as blow-up.
MU_LIMIT = 700.0

IMMIGRATION_FAMILIES = ("poisson", "geometric", "constant")

#: The per-lag lists of a window given as a mapping, by family.
WINDOW_KEYS = {"ginar": ("counts",), "ingarch": ("counts", "intensities"), "loglinear": ("counts", "mus")}

# The rule each window series obeys; ``log1p_counts`` are the log-linear
# window's ``log(1 + counts)``.
_SERIES_RULES = {"counts": "count", "intensities": "nonnegative", "log1p_counts": "nonnegative", "mus": "real"}


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def from_mapping(cls, mapping: Mapping):
    """A spec or experiment record built from the mapping's entries named like its fields.

    A missing field without a default is passed as None, so the record's own
    check reports it; other keys are ignored.
    """
    kwargs = {}
    for f in fields(cls):
        if f.name in mapping:
            kwargs[f.name] = mapping[f.name]
        elif f.default is MISSING and f.default_factory is MISSING:
            kwargs[f.name] = None
    return cls(**kwargs)


def _nested(cls, value, path: str, problems: Problems):
    """``value`` as a ``cls``: an instance, or a mapping of its fields (None: empty)."""
    if isinstance(value, cls):
        return value
    if value is None or isinstance(value, Mapping):
        return problems.nest(path, lambda: from_mapping(cls, value or {}))
    problems.add(path, f"expected a {cls.__name__} or a mapping of its fields")
    return None


def _dimensions(spec, problems: Problems) -> bool:
    """Whether ``p`` and ``q`` are positive integers; both are checked."""
    return all([checked_int(spec.p, "p", problems, 1), checked_int(spec.q, "q", problems, 1)])


def _per_lag(value, spec, path: str, expected: str, problems: Problems) -> list | None:
    """``value`` as a list of ``q`` items, or None after filing a problem."""
    try:
        items = list(value)
    except TypeError:
        items = None
    if items is None or len(items) != spec.q:
        problems.add(path, f"expected {expected}")
        return None
    return items


def _matrices(spec, name: str, rule: str, problems: Problems) -> tuple[np.ndarray, ...] | None:
    """Field ``name`` as ``q`` frozen ``p x p`` matrices obeying ``rule``."""
    items = _per_lag(getattr(spec, name), spec, name, f"a list of {spec.q} matrices", problems)
    if items is None:
        return None
    mats = [checked_array(m, (spec.p, spec.p), f"{name}[{i}]", problems, rule) for i, m in enumerate(items)]
    return None if any(m is None for m in mats) else tuple(_freeze(m) for m in mats)


def _intensity_fields(spec, offset: str, matrices: tuple[str, str], rule: str) -> None:
    """Check and freeze the offset, matrices and dependence of an intensity model."""
    problems = Problems()
    values = {}
    ok = _dimensions(spec, problems)
    if ok:
        d = checked_array(getattr(spec, offset), (spec.p,), offset, problems, rule)
        values[offset] = None if d is None else _freeze(d)
        for name in matrices:
            values[name] = _matrices(spec, name, rule, problems)
    dep = values["dependence"] = _nested(Dependence, spec.dependence, "dependence", problems)
    if ok and dep is not None and dep.correlation is not None and dep.correlation.shape != (spec.p, spec.p):
        problems.add("dependence.correlation", f"expected a {spec.p}x{spec.p} matrix")
    problems.raise_if_any()
    for name, value in values.items():
        object.__setattr__(spec, name, value)


@dataclass(frozen=True)
class ImmigrationSpec:
    """The i.i.d. additive innovation of a GINAR process.

    ``values`` are per-coordinate means; for the ``constant`` family they are
    the constants themselves and must be nonnegative integers.
    """

    family: str
    values: np.ndarray

    def __post_init__(self):
        problems = Problems()
        if self.family not in IMMIGRATION_FAMILIES:
            problems.add("family", f"expected one of {IMMIGRATION_FAMILIES}, got {self.family!r}")
        rule = "count" if self.family == "constant" else "nonnegative"
        vals = checked_array(self.values, (None,), "values", problems, rule)
        problems.raise_if_any()
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
    """Thinning-based autoregression of order ``q`` in dimension ``p``.

    ``immigration`` may be given as a mapping of its fields.
    """

    p: int
    q: int
    mean_matrices: tuple[np.ndarray, ...]
    counting_family: str = "bernoulli"
    immigration: ImmigrationSpec | None = None

    def __post_init__(self):
        problems = Problems()
        ok = _dimensions(self, problems)
        mats = _matrices(self, "mean_matrices", "nonnegative", problems) if ok else None
        if self.counting_family not in COUNTING_FAMILIES:
            problems.add("counting_family", f"expected one of {COUNTING_FAMILIES}, got {self.counting_family!r}")
        elif mats is not None and self.counting_family == "bernoulli":
            for idx, m in enumerate(mats):
                flag_entry(m, m > 1.0, "mean {} exceeds 1, invalid for the bernoulli family",
                           f"mean_matrices[{idx}]", problems)
        immigration = _nested(ImmigrationSpec, self.immigration, "immigration", problems)
        if ok and immigration is not None and immigration.values.shape != (self.p,):
            problems.add("immigration.values", f"expected a vector of {self.p} numbers")
        problems.raise_if_any()
        object.__setattr__(self, "mean_matrices", mats)
        object.__setattr__(self, "immigration", immigration)

    @property
    def kind(self) -> str:
        return "ginar"

    @cached_property
    def stacked_means(self) -> np.ndarray:
        """``mean_matrices`` as one ``(q, p, p)`` array."""
        return _freeze(np.stack(self.mean_matrices))


@dataclass(frozen=True)
class IngarchSpec:
    """Linear-intensity model: counts conditionally Poisson given the past.

    ``dependence`` may be given as a mapping of its fields.
    """

    p: int
    q: int
    intensity_offset: np.ndarray
    lambda_matrices: tuple[np.ndarray, ...]
    count_matrices: tuple[np.ndarray, ...]
    dependence: Dependence = field(default_factory=Dependence)

    def __post_init__(self):
        _intensity_fields(self, "intensity_offset", ("lambda_matrices", "count_matrices"), "nonnegative")

    @property
    def kind(self) -> str:
        return "ingarch"


@dataclass(frozen=True)
class LogLinearSpec:
    """Log-linear intensity model; coefficient signs are unrestricted.

    ``dependence`` may be given as a mapping of its fields.
    """

    p: int
    q: int
    offset: np.ndarray
    mu_matrices: tuple[np.ndarray, ...]
    logcount_matrices: tuple[np.ndarray, ...]
    dependence: Dependence = field(default_factory=Dependence)

    def __post_init__(self):
        _intensity_fields(self, "offset", ("mu_matrices", "logcount_matrices"), "real")

    @property
    def kind(self) -> str:
        return "loglinear"


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
    """Check a window against its model; returns the lagged states the step reads.

    A window holds ``q`` lagged states, most recent first: count vectors
    (GINAR), ``(counts, intensities)`` pairs (linear) or ``(log(1 + counts),
    mus)`` pairs (log-linear).  It may also be a mapping of per-lag lists
    under ``WINDOW_KEYS[spec.kind]``, as configs give it, with plain counts
    for every family.  Counts must be nonnegative integers; problems are
    named by series and lag, e.g. ``counts[0]``.
    """
    problems = Problems()
    if isinstance(window, Mapping):
        names = WINDOW_KEYS[spec.kind]
        series = [window.get(name) for name in names]
    elif isinstance(spec, GinarSpec):
        names, series = ("counts",), [window]
    else:
        names = ("counts", "intensities") if isinstance(spec, IngarchSpec) else ("log1p_counts", "mus")
        series = _unzip(window, problems)
        problems.raise_if_any()
    checked = [_lags(rows, name, spec, problems) for name, rows in zip(names, series)]
    problems.raise_if_any()
    if names[0] == "counts":
        convert = np.log1p if isinstance(spec, LogLinearSpec) else (lambda c: c.astype(np.int64))
        checked[0] = [convert(c) for c in checked[0]]
    return checked[0] if len(checked) == 1 else list(zip(*checked))


def _unzip(window, problems: Problems) -> list:
    """The two series of a list of ``(first, second)`` pairs."""
    try:
        pairs = [tuple(entry) for entry in window]
    except TypeError:
        pairs = None
    if pairs is None or any(len(pair) != 2 for pair in pairs):
        problems.add("window", "expected a list of pairs of vectors")
        return []
    return [[a for a, _ in pairs], [b for _, b in pairs]]


def _lags(rows, name: str, spec: ModelSpec, problems: Problems) -> list | None:
    """``q`` vectors of length ``p`` obeying the series' rule."""
    rows = _per_lag(rows, spec, name, f"{spec.q} vectors (most recent lag first)", problems)
    if rows is None:
        return None
    return [checked_array(row, (spec.p,), f"{name}[{j}]", problems, _SERIES_RULES[name])
            for j, row in enumerate(rows)]


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

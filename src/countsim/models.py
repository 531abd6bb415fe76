"""The three count autoregression families as one-step random maps.

Each model advances a window of its ``q`` most recent composite states
(most recent first) through a random map driven by the step's noise:

* GINAR: thinning sums over lagged counts plus i.i.d. immigration.
* Linear intensity: ``lambda_t = d + sum_i A_i lambda_{t-i} + sum_i B_i y_{t-i}``
  with conditionally Poisson counts.
* Log-linear: ``mu_t = d + sum_j A_j mu_{t-j} + sum_j B_j log(1 + y_{t-j})``,
  ``lambda_t = exp(mu_t)``; coefficients may be negative.

Specs are immutable and shareable, and compare by identity, as every record
that holds arrays or mappings does.  :func:`step` advances a state of
companion rows (see :func:`validate_window`): one chain's 1-D row, or a
block of replicates, each with one or two coupled chains, in lockstep as one
``(chains, replicates, k)`` array, with the same arithmetic and draws.  A
linear row of independent Poisson counts, up to a size, and a block of one
of it step in Python floats, one scalar call per count; every other row,
log-linear ones too, runs as a block of one.  The log-linear row holds mu and
``log(1 + y)``, the coordinates in which that model contracts, so coupling
distances are measured where contraction actually happens.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import (
    ConfigError,
    ConfigurationError,
    DivergenceError,
    Problems,
    checked_array,
    checked_int,
    flag_entry,
)
from .randomness import (  # noqa: F401  (make_stream, thinning: perfbench/tracer.py patches them here)
    COUNTING_FAMILIES,
    INTENSITY_LIMIT,
    POISSON_LAM_MAX,
    Dependence,
    Stream,
    _draw,
    _filled,
    check_intensities,
    geometric_mean_refused,
    make_stream,
    shared_counts,
    shared_thinning,
    thinning,
)

#: Any component of mu above this puts lambda past the intensity limit; treat as blow-up.
MU_LIMIT = float(np.log(INTENSITY_LIMIT))

#: GINAR counts above this are refused: thinning needs them exact in 64 bits.
COUNT_LIMIT = 2**62

#: A linear row of independent counts whose ``p`` lead rows of the stepping
#: matrix hold at most this many products (``2 p**2 q``) steps in Python
#: floats (:func:`ingarch_chain_step`): p = 1 up to q = 50, p = 2 up to q = 12,
#: p = 3 up to q = 5, p = 4 up to q = 3, p = 5 up to q = 2 and p = 7 at q = 1.
#: A larger row runs the einsum block path.  Same process, min of 5 rounds of
#: 10,000 steps in each of two runs, block of one -> floats, in us/step
#: (2 vCPUs, Python 3.11, numpy 2.4): p1q1 8.8 -> 2.1, p2q1 9.5 -> 3.2,
#: p4q1 10.7 -> 5.5, p1q50 11.3-11.8 -> 7.7-8.0, p5q2 10.9-11.0 -> 9.9-10.0,
#: p7q1 12.0-12.4 -> 10.3-11.2; at 128 products either may win by up to 10 %
#: (p8q1 12.5-13.0 -> 12.7-12.8, p2q16 10.1-11.2 -> 9.7-12.2).
FLOAT_ROW_LIMIT = 100

#: Counting means a family cannot draw, and the message that refuses them.
_MEAN_RULES = {
    "bernoulli": (lambda m: m > 1.0, "mean {} exceeds 1, invalid for the bernoulli family"),
    "geometric": (geometric_mean_refused,
                  f"mean {{}} exceeds {POISSON_LAM_MAX / 11:.4g}, past numpy's negative binomial limit"),
}

#: The message that refuses an immigration mean or a linear intensity offset past the intensity limit.
_MEAN_PAST_LIMIT = f"mean {{}} exceeds {INTENSITY_LIMIT:g}"

IMMIGRATION_FAMILIES = ("poisson", "geometric", "constant")

#: The per-lag lists of a window given as a mapping, by family.
WINDOW_KEYS = {"ginar": ("counts",), "ingarch": ("counts", "intensities"), "loglinear": ("counts", "mus")}

# The rule each window series obeys.
_SERIES_RULES = {"counts": "count", "intensities": "nonnegative", "mus": "real"}


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def from_mapping(cls, mapping: Mapping):
    """The record ``cls`` built from a mapping of its fields: the one rule for every config section.

    A missing field without a default is passed as None, so the record's own
    check reports it.  A key that names no field is filed as ``key: unknown
    key``, in the same :class:`ConfigError` as the record's own problems.
    """
    problems = Problems()
    problems.unknown(mapping, [f.name for f in fields(cls)])
    kwargs = {f.name: mapping.get(f.name) for f in fields(cls)
              if f.name in mapping or (f.default is MISSING and f.default_factory is MISSING)}
    try:
        record = cls(**kwargs)
    except ConfigError as exc:
        problems.items += exc.problems
    problems.raise_if_any()
    return record


def _nested(cls, value, path: str, problems: Problems):
    """``value`` as a ``cls``: an instance, or a mapping of its fields (None: empty)."""
    if isinstance(value, cls):
        return value
    if value is None or isinstance(value, Mapping):
        return problems.nest(path, lambda: from_mapping(cls, value or {}))
    problems.add(path, f"expected a mapping of the fields of {cls.__name__}")
    return None


def _dimensions(spec, problems: Problems) -> bool:
    """Whether ``p`` and ``q`` are positive integers; both are checked."""
    return all([checked_int(spec.p, "p", problems, 1), checked_int(spec.q, "q", problems, 1)])


def _per_lag(value, spec, path: str, shape: tuple, rule: str, problems: Problems) -> tuple | None:
    """``value`` as ``q`` frozen arrays of ``shape`` obeying ``rule``, most recent lag first, or None.

    A problem is filed at ``path`` for the list, or at ``path[j]`` for lag ``j``.
    """
    try:
        items = list(value)
    except TypeError:
        items = None
    if items is None or len(items) != spec.q:
        what = f"a list of {spec.q} matrices" if len(shape) == 2 else f"{spec.q} vectors (most recent lag first)"
        problems.add(path, f"expected {what}")
        return None
    arrays = [checked_array(item, shape, f"{path}[{j}]", problems, rule) for j, item in enumerate(items)]
    return None if any(a is None for a in arrays) else tuple(map(_freeze, arrays))


def _companion_map(spec) -> tuple[np.ndarray, np.ndarray]:
    """The stepping matrix ``C`` and offset ``c`` of a :func:`block_state` of the spec.

    ``state @ C.T + c`` puts the conditional mean, lambda or mu in the newest
    lead slot, moves every other lag back by one and zeroes the newest count.
    """
    p, q = spec.p, spec.q
    if isinstance(spec, GinarSpec):
        lead, offset = spec.mean_matrices, spec.immigration.mean()
    elif isinstance(spec, IngarchSpec):
        lead, offset = spec.lambda_matrices + spec.count_matrices, spec.intensity_offset
    else:
        lead, offset = spec.mu_matrices + spec.logcount_matrices, spec.offset
    matrix = np.eye(len(lead) * p, k=-p)  # each lag takes the one before it,
    matrix[:p] = np.hstack(lead)  # but the newest lead lag is the map's linear part
    matrix[q * p:(q + 1) * p] = 0.0  # and the newest count lag is drawn (GINAR has none)
    return _freeze(matrix), _freeze(np.concatenate((offset, np.zeros(len(matrix) - p))))


def _intensity_fields(spec, offset: str, matrices: tuple[str, str], rule: str) -> None:
    """Check and freeze the offset, matrices and dependence of an intensity model."""
    problems = Problems()
    values = {}
    ok = _dimensions(spec, problems)
    if ok:
        d = checked_array(getattr(spec, offset), (spec.p,), offset, problems, rule)
        if d is not None and rule == "nonnegative":  # lambda >= d, so a larger d diverges at time index 0
            flag_entry(d, d > INTENSITY_LIMIT, _MEAN_PAST_LIMIT, offset, problems)
        values[offset] = None if d is None else _freeze(d)
        for name in matrices:
            values[name] = _per_lag(getattr(spec, name), spec, name, (spec.p, spec.p), rule, problems)
    dep = values["dependence"] = _nested(Dependence, spec.dependence, "dependence", problems)
    if ok and dep is not None and dep.correlation is not None and dep.correlation.shape != (spec.p, spec.p):
        problems.add("dependence.correlation", f"expected a {spec.p}x{spec.p} matrix")
    problems.raise_if_any()
    for name, value in values.items():
        object.__setattr__(spec, name, value)


@dataclass(frozen=True, eq=False)
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
        if vals is not None:
            flag_entry(vals, vals > INTENSITY_LIMIT, _MEAN_PAST_LIMIT, "values", problems)
        problems.raise_if_any()
        object.__setattr__(self, "values", _freeze(vals))

    def mean(self) -> np.ndarray:
        return self.values

    def draw(self, stream: Stream) -> np.ndarray:
        """One immigration vector from a per-step stream."""
        return self.sample(stream.rng, 1)[0]

    def sample(self, rng: np.random.Generator, replicates: int) -> np.ndarray:
        """A ``(replicates, p)`` array of independent immigration vectors."""
        shape = (replicates,) + self.values.shape
        if self.family == "poisson":
            return _draw(rng.poisson, _filled(self.values, shape))
        if self.family == "geometric":
            return _draw(rng.geometric, _filled(1.0 / (1.0 + self.values), shape)) - 1
        return np.broadcast_to(self.values.astype(np.int64), shape).copy()


@dataclass(frozen=True, eq=False)
class GinarSpec:
    """Thinning-based autoregression of order ``q`` in dimension ``p``.

    ``immigration`` may be given as a mapping of its fields.
    """

    p: int
    q: int
    mean_matrices: tuple[np.ndarray, ...]
    counting_family: str = "bernoulli"
    immigration: ImmigrationSpec | None = None
    kind: ClassVar[str] = "ginar"
    stepping = cached_property(_companion_map)

    def __post_init__(self):
        problems = Problems()
        ok = _dimensions(self, problems)
        mats = _per_lag(self.mean_matrices, self, "mean_matrices", (self.p, self.p), "nonnegative",
                        problems) if ok else None
        if self.counting_family not in COUNTING_FAMILIES:
            problems.add("counting_family", f"expected one of {COUNTING_FAMILIES}, got {self.counting_family!r}")
        elif mats is not None and self.counting_family in _MEAN_RULES:
            refused, message = _MEAN_RULES[self.counting_family]
            for idx, m in enumerate(mats):
                flag_entry(m, refused(m), message, f"mean_matrices[{idx}]", problems)
        immigration = _nested(ImmigrationSpec, self.immigration, "immigration", problems)
        if ok and immigration is not None and immigration.values.shape != (self.p,):
            problems.add("immigration.values", f"expected a vector of {self.p} numbers")
        problems.raise_if_any()
        object.__setattr__(self, "mean_matrices", mats)
        object.__setattr__(self, "immigration", immigration)

    @cached_property
    def stacked_means(self) -> np.ndarray:
        """``mean_matrices`` as one ``(q, p, p)`` array."""
        return _freeze(np.stack(self.mean_matrices))


@dataclass(frozen=True, eq=False)
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
    kind: ClassVar[str] = "ingarch"
    stepping = cached_property(_companion_map)

    def __post_init__(self):
        _intensity_fields(self, "intensity_offset", ("lambda_matrices", "count_matrices"), "nonnegative")

    @cached_property
    def float_lead(self) -> list | None:
        """The stepping map's ``p`` lead rows as ``(coefficients, offset)`` in Python floats, for :func:`ingarch_chain_step`.

        None where that step does not apply and the row runs the einsum block
        path: a copula's counts, or more than :data:`FLOAT_ROW_LIMIT` products.
        """
        matrix, offset = self.stepping
        if self.dependence.scheme != "independent" or self.p * len(offset) > FLOAT_ROW_LIMIT:
            return None
        return list(zip(matrix[:self.p].tolist(), offset[:self.p].tolist()))


@dataclass(frozen=True, eq=False)
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
    kind: ClassVar[str] = "loglinear"
    stepping = cached_property(_companion_map)

    def __post_init__(self):
        _intensity_fields(self, "offset", ("mu_matrices", "logcount_matrices"), "real")


ModelSpec = GinarSpec | IngarchSpec | LogLinearSpec


def default_window(spec: ModelSpec) -> dict:
    """Start-up window mapping: zero counts, intensities at the offset, mus at zero.

    The stationary law does not depend on the start; burn-in absorbs the
    transient.
    """
    window = {"counts": [[0] * spec.p for _ in range(spec.q)]}
    if isinstance(spec, IngarchSpec):
        window["intensities"] = [spec.intensity_offset.tolist() for _ in range(spec.q)]
    elif isinstance(spec, LogLinearSpec):
        window["mus"] = [[0.0] * spec.p for _ in range(spec.q)]
    return window


def validate_window(spec: ModelSpec, window) -> np.ndarray:
    """Check a window against its model; returns its companion row, the state :func:`step` reads.

    A window is a mapping of ``q`` vectors of length ``p``, most recent lag
    first, under each key of ``WINDOW_KEYS[spec.kind]``: ``counts`` for every
    family, plus ``intensities`` (linear) or ``mus`` (log-linear); any other
    key is refused.  Counts must be nonnegative integers; problems are named
    by key and lag, e.g. ``counts[0]``.  The row is the ``q`` counts as int64
    (GINAR), the ``q`` lambdas followed by the ``q`` counts (linear), or the
    ``q`` mus followed by the ``q`` values of ``log(1 + counts)`` (log-linear).
    """
    names = WINDOW_KEYS[spec.kind]
    if not isinstance(window, Mapping):
        raise ConfigError([f"window: expected a mapping with keys {', '.join(names)}"])
    problems = Problems()
    problems.unknown(window, names)
    series = [_per_lag(window.get(name), spec, name, (spec.p,), _SERIES_RULES[name], problems)
              for name in names]
    problems.raise_if_any()
    counts, *lead = [np.concatenate(rows) for rows in series]
    if isinstance(spec, GinarSpec):
        return counts.astype(np.int64)
    return np.concatenate(lead + [np.log1p(counts) if isinstance(spec, LogLinearSpec) else counts])


def ingarch_intensity(spec: IngarchSpec, window: Mapping) -> np.ndarray:
    """lambda given a window mapping, summed lag by lag: the scalar reference of the step."""
    lam = spec.intensity_offset.copy()
    for j in range(spec.q):
        lam += spec.lambda_matrices[j] @ window["intensities"][j] + spec.count_matrices[j] @ window["counts"][j]
    return lam


def loglinear_mu(spec: LogLinearSpec, window: Mapping) -> np.ndarray:
    """mu given a window mapping, summed lag by lag: the scalar reference of the step."""
    mu = spec.offset.copy()
    for j in range(spec.q):
        mu += spec.mu_matrices[j] @ window["mus"][j] + spec.logcount_matrices[j] @ np.log1p(window["counts"][j])
    return mu


def block_state(rows, replicates: int = 1) -> np.ndarray:
    """A block state: ``replicates`` copies of each chain's companion row.

    ``rows`` holds one row of :func:`validate_window` per chain; the state is
    one ``(chains, replicates, k)`` array that keeps the rows' dtype.
    """
    return np.repeat(np.asarray(rows)[:, None], replicates, axis=1)


def ginar_block_step(spec: GinarSpec, state: np.ndarray, drift: np.ndarray, rng: np.random.Generator):
    """One GINAR transition of a block: shared immigration plus thinning.

    Returns ``(state, counts, mean)``; ``mean`` is the conditional mean
    ``immigration.mean() + sum_j mean_matrices[j] @ window[j]``.  Lags stay
    int64, so thinning reads them exactly.  The range check, the same for
    every counting family, refuses a mean above :data:`COUNT_LIMIT` before
    any draw, so the int64 sums of the draws stay below 2**64.  A sum past
    2**63, which a geometric tail can still reach, leaves a negative count;
    that, and a draw that refuses its parameters (geometric counting means
    past about 8e17 do at any count), are divergences too.
    """
    p = spec.p
    mean = drift[:, :, :p]
    if mean.max() > COUNT_LIMIT:
        raise DivergenceError("mean counts exceeded the 64-bit safe range")
    try:
        counts = spec.immigration.sample(rng, state.shape[1]) + shared_thinning(
            rng, spec.counting_family, spec.stacked_means, state.reshape(state.shape[:2] + (spec.q, p)))
    except ValueError as exc:
        raise DivergenceError(f"a draw refused its parameters: {exc}") from exc
    if counts.min() < 0:
        raise DivergenceError("counts wrapped past the 64-bit range")
    lags = counts if spec.q == 1 else np.concatenate((counts, state[:, :, :-p]), axis=2)
    return lags, counts, mean


def ingarch_block_step(spec: IngarchSpec, state: np.ndarray, drift: np.ndarray, rng: np.random.Generator):
    """One linear-intensity transition of a block; returns ``(state, counts, lambda)``.

    The one range check is lambda <= 1e18, which keeps the counts far below
    the 64-bit limit; lambda >= 0 by the nonnegative coefficients.
    """
    p, q = spec.p, spec.q
    lam = drift[:, :, :p]
    check_intensities(lam.max())
    counts = shared_counts(rng, spec.dependence, lam)
    drift[:, :, q * p:(q + 1) * p] = counts
    return drift, counts, lam


def loglinear_block_step(spec: LogLinearSpec, state: np.ndarray, drift: np.ndarray, rng: np.random.Generator):
    """One log-linear transition of a block; returns ``(state, counts, lambda)``.

    Raises :class:`DivergenceError` if a component of mu is NaN or exceeds :data:`MU_LIMIT`,
    as parameters violating the stability condition can make it; below it lambda is within
    the intensity limit (``exp(MU_LIMIT)`` rounds just under 1e18), so counts are in range.
    """
    p, q = spec.p, spec.q
    mu = drift[:, :, :p]
    if not mu.max() <= MU_LIMIT:  # also true for NaN
        raise DivergenceError(f"log intensity exceeded {MU_LIMIT:g}; parameters appear nonstationary")
    lam = np.exp(mu)
    counts = shared_counts(rng, spec.dependence, lam)
    drift[:, :, q * p:(q + 1) * p] = np.log1p(counts)
    return drift, counts, lam


def _lambdas(x: list, lead: list) -> list:
    """``sum_k x[k] * c[k] + d`` for each lead row ``(c, d)``, added in index order from 0.0.

    The additions are written out, eight and then two to a line: builtin
    ``sum`` compensates from Python 3.12.  An int entry of ``x`` rounds to a
    float as numpy's float64 cast rounds it.
    """
    n = len(x)
    lam = []
    for c, d in lead:
        s = 0.0
        i = 0
        while i + 8 <= n:
            s = s + x[i] * c[i] + x[i + 1] * c[i + 1] + x[i + 2] * c[i + 2] + x[i + 3] * c[i + 3] \
                + x[i + 4] * c[i + 4] + x[i + 5] * c[i + 5] + x[i + 6] * c[i + 6] + x[i + 7] * c[i + 7]
            i += 8
        while i + 2 <= n:
            s = s + x[i] * c[i] + x[i + 1] * c[i + 1]
            i += 2
        if i < n:
            s = s + x[i] * c[i]
        lam.append(s + d)
    return lam


def ingarch_chain_step(spec: IngarchSpec, row, rng: np.random.Generator):
    """One linear transition of one chain's row of independent counts, in Python floats; returns ``(row, counts, lambda)``.

    For a spec with a :attr:`~IngarchSpec.float_lead`.  Each lambda adds its
    lead row's products in index order (:func:`_lambdas`), and one scalar
    Poisson call per entry, in order, draws what ``_draw`` draws.  The new row
    is a list built by slicing, its counts Python ints; an array row is read
    as a list.  :func:`step` runs a block of one of such a model here too, so
    a row has a block of one's bits by construction.
    """
    p, q = spec.p, spec.q
    if not isinstance(row, list):
        row = row.tolist()
    lam = _lambdas(row, spec.float_lead)
    check_intensities(max(lam))
    counts = list(map(rng.poisson, lam))
    lags = (q - 1) * p
    return lam + row[:lags] + counts + row[q * p:q * p + lags], counts, lam


_BLOCK_STEPS = {"ginar": ginar_block_step, "ingarch": ingarch_block_step, "loglinear": loglinear_block_step}


def step(spec: ModelSpec, state: np.ndarray | list, rng: np.random.Generator):
    """One transition of the model's random map; the state's rank picks the regime.

    A 1-D state is one chain's companion row from :func:`validate_window`;
    it returns ``(new_row, counts, intensity)``, counts and intensity as
    lists of ``p`` Python numbers.  A 3-D state is a :func:`block_state`; it
    returns ``(new_state, counts, intensity)`` as arrays, counts and intensity
    of shape ``(chains, replicates, p)``, and every chain of a replicate
    consumes the same noise.  ``intensity`` is the conditional mean of the
    counts given the window.  Either state is checked against the model:
    ``k`` entries, an integer dtype exactly for GINAR; a state of any other
    rank fails.  A linear model with a :attr:`~IngarchSpec.float_lead`, the
    row simulate-path and criterion 1 run, steps a row and a ``(1, 1, k)``
    block in :func:`ingarch_chain_step`; the row comes back as a list, which
    only such a model takes and which is checked for its length only.  Every
    other row runs the block path as a block of one, so a row's bits are
    always a block of one's.
    """
    matrix, offset = spec.stepping
    lead = spec.float_lead if spec.kind == "ingarch" else None
    if isinstance(state, list):
        row, fits = True, lead is not None and len(state) == len(offset)
    else:
        row = state.ndim == 1
        fits = state.shape[0 if row else 2:] == offset.shape and \
            (state.dtype.kind == "i") == isinstance(spec, GinarSpec)
    if not fits:
        raise ConfigurationError(f"{'row' if row else 'block'} state does not match a {spec.kind} model")
    if row and lead is not None:
        return ingarch_chain_step(spec, state, rng)
    if lead is not None and state.shape[:2] == (1, 1):
        return tuple(np.array(v)[None, None] for v in ingarch_chain_step(spec, state[0, 0], rng))
    block = state[None, None] if row else state
    drift = np.einsum("crk,jk->crj", block, matrix) + offset  # not matmul: BLAS adds another way
    new, counts, intensity = _BLOCK_STEPS[spec.kind](spec, block, drift, rng)
    return (new[0, 0], counts[0, 0].tolist(), intensity[0, 0].tolist()) if row else (new, counts, intensity)


def window_distance(state: np.ndarray) -> np.ndarray:
    """l1 distance between the two chains' companion rows, per replicate.

    ``state`` is a two-chain block state; the distance reads the model only
    through its rows, so log-linear chains are compared in mu and ``log(1 + y)``.
    """
    return np.abs(state[0] - state[1]).sum(axis=1, dtype=float)

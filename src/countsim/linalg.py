"""Dense linear algebra for small nonnegative systems.

Operator norms, spectral radii, companion matrices, certified brackets and
the fixed-point mean solve used by the stability checkers.  Inputs
may be nested lists; each passes :func:`errors.checked_array`, so a
nonsquare, empty, non-finite or (where the function needs it) negative one,
or one with a boolean or string entry, raises :class:`ConfigError`, a
``ValueError``.  All functions are pure.

One rule decides every ``x < 1``, for a spectral radius or a norm: it holds
only when the certified :class:`Bracket` of ``x`` lies below 1, and a bracket
that contains 1 is a ``boundary`` case that fails.  The checkers and
:func:`stationary_mean` both apply it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import Problems, StationarityError, checked_array

#: Supported operator-norm kinds.
NORM_KINDS = ("l1", "l2", "linf")

_EPS = float(np.finfo(float).eps)
# Relative widening of a Collatz-Wielandt bound per row entry, covering the
# rounding of the matrix-vector product it is computed from.
_BRACKET_SLACK = 4.0 * _EPS


def _checked(values, path: str, problems: Problems, rule: str = "real"):
    """``values`` as a non-empty square float matrix obeying ``rule``, or None after filing a problem."""
    m = checked_array(values, (None, None), path, problems, rule)
    if m is not None and (m.size == 0 or m.shape[0] != m.shape[1]):
        problems.add(path, f"expected a non-empty square matrix, got shape {m.shape}")
        return None
    return m


def _matrix(values, rule: str = "real") -> np.ndarray:
    problems = Problems()
    m = _checked(values, "matrix", problems, rule)
    problems.raise_if_any()
    return m


def matrix_norm(m, kind: str) -> float:
    """Operator norm of a square matrix: ``kind`` is ``"l1"`` (max absolute
    column sum), ``"linf"`` (max absolute row sum) or ``"l2"`` (largest
    singular value)."""
    m = _matrix(m)
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}, expected one of {NORM_KINDS}")
    if kind == "l1":
        return float(np.max(np.sum(np.abs(m), axis=0)))
    if kind == "linf":
        return float(np.max(np.sum(np.abs(m), axis=1)))
    return float(np.linalg.norm(m, 2))


def spectral_radius(m) -> float:
    """Largest modulus of the eigenvalues (LAPACK ``geev``), uncertified."""
    return float(np.max(np.abs(np.linalg.eigvals(_matrix(m)))))


def strong_components(m) -> list[list[int]]:
    """Index sets of the strongly connected components of ``i -> j`` where ``m[i, j] != 0``."""
    m = _matrix(m)
    n = m.shape[0]
    reach = (m != 0) | np.eye(n, dtype=bool)
    for k in range(n):  # Warshall's transitive closure
        reach |= reach[:, k:k + 1] & reach[k:k + 1, :]
    components, seen = [], set()
    for i in range(n):
        if i not in seen:
            component = [j for j in range(n) if reach[i, j] and reach[j, i]]
            seen.update(component)
            components.append(component)
    return components


class Bracket(NamedTuple):
    """Estimate ``value`` of a quantity ``x`` inside certified bounds ``lo <= x <= hi``."""

    value: float
    lo: float
    hi: float

    @property
    def below_one(self) -> bool:  # x < 1 is certified
        return self.hi < 1.0

    @property
    def boundary(self) -> bool:  # undecided, so not below 1
        return self.lo <= 1.0 <= self.hi


def sum_bracket(value: float, terms: int) -> Bracket:
    """Bracket of the exact sum of ``terms`` nonnegative floats, given their float sum ``value``.

    Each addition rounds by at most eps/2 of its partial sum, which ``terms * eps`` covers."""
    slack = terms * _EPS
    return Bracket(value, value * (1.0 - slack), value * (1.0 + slack))


def certified_radius(m) -> Bracket:
    """Perron root of a nonnegative matrix, clamped into certified bounds.

    The spectral radius of a nonnegative matrix is the largest over its
    strongly connected diagonal blocks.  On an irreducible block ``B``, every
    positive ``x`` gives the Collatz-Wielandt bounds
    ``min_i (Bx)_i / x_i <= rho(B) <= max_i (Bx)_i / x_i``; with ``x`` the
    block's numerical Perron vector they are tight, and they are widened by
    the rounding of ``Bx``.  A 1 x 1 block is its own radius, exactly.
    Unlike eigenvalues, these bounds stay accurate for defective matrices.

    The Perron root is the eigenvalue with the largest real part: on a
    periodic block every peripheral eigenvalue has modulus ``rho``, but only
    the Perron root is real and positive.  Its eigenvector is a complex
    multiple of a positive vector, so ``x`` is its entrywise modulus.  One
    eigendecomposition per block of size > 1 gives both the estimate and
    the bracket; the estimate is clamped into the bracket, so it agrees with
    any bracket that excludes 1.
    """
    m = _matrix(m, "nonnegative")
    value = lo = hi = 0.0
    for component in strong_components(m):
        block = m[np.ix_(component, component)]
        if len(component) == 1:
            block_value = block_lo = block_hi = float(block[0, 0])
        else:
            values, vectors = np.linalg.eig(block)
            perron = np.argmax(values.real)
            block_value = float(values[perron].real)
            x = np.maximum(np.abs(vectors[:, perron]), np.finfo(float).tiny)
            ratios = (block @ x) / x
            slack = _BRACKET_SLACK * len(component)
            block_lo = float(ratios.min()) * (1.0 - slack)
            block_hi = float(ratios.max()) * (1.0 + slack)
        value, lo, hi = max(value, block_value), max(lo, block_lo), max(hi, block_hi)
    return Bracket(min(max(value, lo), hi), lo, hi)


def companion(blocks: Sequence) -> np.ndarray:
    """Block companion matrix of a list of square coefficient blocks.

    For blocks ``E_1, ..., E_q`` of common size ``e`` the result is the
    ``qe x qe`` matrix with first block row ``[E_1 ... E_q]``, an identity of
    size ``(q-1)e`` below-left and zeros below-right.  For ``q == 1`` the
    single block is returned unchanged.  Blocks must be nonnegative.
    """
    problems = Problems()
    mats = [_checked(b, f"block {i}", problems, "nonnegative") for i, b in enumerate(blocks)]
    if not mats or len({b.shape for b in mats if b is not None}) > 1:
        problems.add("blocks", "expected one or more blocks of one size")
    problems.raise_if_any()
    q, e = len(mats), mats[0].shape[0]
    if q == 1:
        return mats[0]
    f = np.zeros((q * e, q * e))
    for j, b in enumerate(mats):
        f[:e, j * e : (j + 1) * e] = b
    f[e:, : (q - 1) * e] = np.eye((q - 1) * e)
    return f


def stationary_mean(d, e_total) -> np.ndarray:
    """Unique solution ``m`` of the fixed-point identity ``m = d + E m``.

    ``d`` is a nonnegative vector and ``e_total`` a nonnegative square
    matrix.  ``(I - E) m = d`` is solved directly, with partial pivoting,
    and every component of ``m`` is nonnegative.  Raises
    :class:`StationarityError` unless the certified bracket of
    :func:`certified_radius` lies below 1, so ``rho = 1`` is refused too.
    """
    problems = Problems()
    d = checked_array(d, (None,), "offset", problems, "nonnegative")
    e = _checked(e_total, "coefficient matrix", problems, "nonnegative")
    if d is not None and e is not None and d.shape[0] != e.shape[0]:
        problems.add("offset", f"length {d.shape[0]} does not match matrix size {e.shape[0]}")
    problems.raise_if_any()
    radius = certified_radius(e)
    if not radius.below_one:
        raise StationarityError(f"spectral radius bracket [{radius.lo!r}, {radius.hi!r}] "
                                "is not below 1, no stationary mean exists")
    return np.linalg.solve(np.eye(e.shape[0]) - e, d)

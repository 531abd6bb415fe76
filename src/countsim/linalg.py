"""Dense linear algebra for small nonnegative systems.

Operator norms, spectral radii, companion matrices and the fixed-point mean
solve used by the stability checkers.  Matrices are plain ``numpy`` arrays
(row-major nested lists are accepted everywhere and converted eagerly, with
shape and finiteness validated up front).  All functions are pure.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import StationarityError

#: Supported operator-norm kinds.
NORM_KINDS = ("l1", "l2", "linf")

# Relative widening of a Collatz-Wielandt bound per row entry, covering the
# rounding of the matrix-vector product it is computed from.
_BRACKET_SLACK = 4.0 * float(np.finfo(float).eps)


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Convert ``values`` to a validated 2-D float array.

    Parameters
    ----------
    values : array-like
        Nested sequences or ndarray, row-major.
    name : str
        Label used in error messages.

    Raises
    ------
    ValueError
        If the input is not two-dimensional or contains non-finite entries.
    """
    m = np.asarray(values, dtype=float)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError(f"{name} must be a non-empty 2-D array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Convert ``values`` to a validated 1-D float array."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.shape[0] == 0:
        raise ValueError(f"{name} must be a non-empty 1-D array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _require_square(m: np.ndarray, name: str) -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def entrywise_abs(m) -> np.ndarray:
    """Entrywise absolute value, same shape as the input."""
    return np.abs(as_matrix(m))


def matrix_norm(m, kind: str) -> float:
    """Operator norm of a square matrix.

    Parameters
    ----------
    m : array-like
        Square matrix.
    kind : str
        One of ``"l1"`` (max absolute column sum), ``"linf"`` (max absolute
        row sum) or ``"l2"`` (largest singular value).

    Returns
    -------
    float
        The requested norm, nonnegative.
    """
    m = _require_square(as_matrix(m), "matrix")
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}, expected one of {NORM_KINDS}")
    if kind == "l1":
        return float(np.max(np.sum(np.abs(m), axis=0)))
    if kind == "linf":
        return float(np.max(np.sum(np.abs(m), axis=1)))
    return float(np.linalg.norm(m, 2))


def spectral_radius(m) -> float:
    """Largest modulus of the eigenvalues (LAPACK ``geev``)."""
    m = _require_square(as_matrix(m), "matrix")
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def strong_components(m) -> list[list[int]]:
    """Index sets of the strongly connected components of ``i -> j`` where ``m[i, j] != 0``."""
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


def radius_bracket(m) -> tuple[float, float]:
    """Certified bounds ``lo <= rho(m) <= hi`` for a nonnegative matrix.

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
    multiple of a positive vector, so ``x`` is its entrywise modulus.
    """
    m = _require_square(as_matrix(m), "matrix")
    if np.any(m < 0):
        raise ValueError("radius bracket needs a nonnegative matrix")
    lo = hi = 0.0
    for component in strong_components(m):
        block = m[np.ix_(component, component)]
        if len(component) == 1:
            block_lo = block_hi = float(block[0, 0])
        else:
            values, vectors = np.linalg.eig(block)
            x = np.maximum(np.abs(vectors[:, np.argmax(values.real)]), np.finfo(float).tiny)
            ratios = (block @ x) / x
            slack = _BRACKET_SLACK * len(component)
            block_lo = float(ratios.min()) * (1.0 - slack)
            block_hi = float(ratios.max()) * (1.0 + slack)
        lo, hi = max(lo, block_lo), max(hi, block_hi)
    return lo, hi


def companion(blocks: Sequence) -> np.ndarray:
    """Block companion matrix of a list of square coefficient blocks.

    For blocks ``E_1, ..., E_q`` of common size ``e`` the result is the
    ``qe x qe`` matrix with first block row ``[E_1 ... E_q]``, an identity of
    size ``(q-1)e`` below-left and zeros below-right.  For ``q == 1`` the
    single block is returned unchanged.

    Raises
    ------
    ValueError
        If block sizes mismatch or any entry is negative.
    """
    if len(blocks) == 0:
        raise ValueError("expected at least one block")
    mats = [_require_square(as_matrix(b, f"block {i}"), f"block {i}") for i, b in enumerate(blocks)]
    e = mats[0].shape[0]
    for i, b in enumerate(mats):
        if b.shape != (e, e):
            raise ValueError(f"block {i} has shape {b.shape}, expected ({e}, {e})")
        if np.any(b < 0):
            raise ValueError(f"block {i} has negative entries")
    q = len(mats)
    if q == 1:
        return mats[0].copy()
    f = np.zeros((q * e, q * e))
    for j, b in enumerate(mats):
        f[:e, j * e : (j + 1) * e] = b
    f[e:, : (q - 1) * e] = np.eye((q - 1) * e)
    return f


def stationary_mean(d, e_total) -> np.ndarray:
    """Unique solution ``m`` of the fixed-point identity ``m = d + E m``.

    Parameters
    ----------
    d : array-like
        Nonnegative offset vector.
    e_total : array-like
        Nonnegative square matrix with spectral radius strictly below 1.

    Returns
    -------
    np.ndarray
        The solution of ``(I - E) m = d`` by a direct linear solve with
        partial pivoting; all components nonnegative.

    Raises
    ------
    StationarityError
        If ``rho(e_total) >= 1``.
    ValueError
        On negative inputs or a numerically singular system.
    """
    d = as_vector(d, "offset")
    e = _require_square(as_matrix(e_total, "coefficient matrix"), "coefficient matrix")
    if d.shape[0] != e.shape[0]:
        raise ValueError(f"offset length {d.shape[0]} does not match matrix size {e.shape[0]}")
    if np.any(d < 0):
        raise ValueError("offset has negative entries")
    if np.any(e < 0):
        raise ValueError("coefficient matrix has negative entries")
    rho = spectral_radius(e)
    if rho >= 1.0:
        raise StationarityError(f"spectral radius {rho:.6f} >= 1, no stationary mean exists")
    try:
        m = np.linalg.solve(np.eye(e.shape[0]) - e, d)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"mean solve failed: {exc}") from exc
    return m

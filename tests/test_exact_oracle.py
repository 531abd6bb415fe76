"""Every ``< 1`` verdict against exact rational arithmetic.

Each case is decided exactly on the floats the checker sees: the lag sum it
computed, and for the l1 criterion the coefficient matrices themselves.  For
a nonnegative ``M``, ``rho(M) < 1`` iff every leading principal minor of
``I - M`` is positive, and ``rho(M) <= 1`` iff every principal minor of
``I - M`` is nonnegative: ``I - M`` is then a nonsingular, or a possibly
singular, M-matrix (Berman & Plemmons, *Nonnegative Matrices in the
Mathematical Sciences*, ch. 6).  A float is a dyadic rational, so scaling
``I - M`` by a power of two makes those minors integer determinants.
"""

import itertools
from fractions import Fraction

import numpy as np

from countsim import linalg
from countsim.analysis import FAILS, HOLDS, Verdict, check_ginar, check_ingarch, check_loglinear
from countsim.models import GinarSpec, ImmigrationSpec, IngarchSpec, LogLinearSpec

BELOW, ONE, ABOVE = "below 1", "exactly 1", "above 1"
EPS = float(np.finfo(float).eps)

# Dyadic shares of one matrix across the 2q INGARCH and log-linear
# coefficients (A_1, B_1, A_2, B_2) and the q GINAR ones; each share is exact.
INTENSITY_SHARES = {1: (0.5, 0.5), 2: (0.5, 0.25, 0.125, 0.125)}
GINAR_SHARES = {1: (1.0,), 2: (0.5, 0.5)}


def _compare(value: Fraction) -> str:
    return BELOW if value < 1 else ONE if value == 1 else ABOVE


def _exact_sum(values) -> Fraction:
    """Exact sum of floats, over their least common power-of-two denominator."""
    ratios = [x.as_integer_ratio() for x in values]
    denominator = max(d for _, d in ratios)
    return Fraction(sum(n * (denominator // d) for n, d in ratios), denominator)


def _integer_i_minus(m) -> list[list[int]]:
    """``s (I - m)`` as integers, for the least power of two ``s`` that makes it integral."""
    ratios = [[x.as_integer_ratio() for x in row] for row in m]
    s = max(d for row in ratios for _, d in row)
    return [[s * (i == j) - n * (s // d) for j, (n, d) in enumerate(row)] for i, row in enumerate(ratios)]


def _eliminate(a, pivoting: bool):
    """Fraction-free (Bareiss) elimination of an integer matrix, yielding each pivot.

    Without pivoting, the k-th pivot is the k-th leading principal minor; the
    last one, times the sign of the row swaps, is the determinant.
    """
    a, prev, sign = [row[:] for row in a], 1, 1
    n = len(a)
    for k in range(n):
        if pivoting and a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                yield 0
                return
            a[k], a[swap], sign = a[swap], a[k], -sign
        yield sign * a[k][k] if k == n - 1 else a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]


def _det(a) -> int:
    *_, last = _eliminate(a, pivoting=True)
    return last


def exact_radius(m) -> str:
    """``rho(m)`` compared with 1, exactly."""
    a = _integer_i_minus(m)
    if all(minor > 0 for minor in _eliminate(a, pivoting=False)):
        return BELOW
    n = len(a)
    principal = (_det([[a[i][j] for j in rows] for i in rows])
                 for k in range(1, n + 1) for rows in itertools.combinations(range(n), k))
    return ONE if all(minor >= 0 for minor in principal) else ABOVE


def exact_linf(m) -> str:
    return _compare(max(_exact_sum(abs(x) for x in row) for row in m))


def exact_l1_sum(matrices) -> str:
    return _compare(sum(max(_exact_sum(abs(x) for x in col) for col in np.asarray(m).T.tolist())
                        for m in matrices))


def test_exact_radius_agrees_with_eigenvalues_away_from_one():
    assert [exact_radius(m) for m in ([[1.0, 1.0], [0.0, 1.0]], [[0.0, 2.0], [0.5, 0.0]],
                                      [[0.0, 2.0], [0.6, 0.0]], [[0.5, 0.25], [0.0, 0.75]])] \
        == [ONE, ONE, ABOVE, BELOW]
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = rng.uniform(size=(n, n))
        m *= rng.uniform(0.5, 1.5) / linalg.spectral_radius(m)
        rho = linalg.spectral_radius(m)
        if abs(rho - 1.0) > 1e-6:
            assert exact_radius(m.tolist()) == (BELOW if rho < 1.0 else ABOVE)


def _straddling(rng, n: int) -> np.ndarray:
    """Rows whose exact sums reach 1 while their float sums fall below 1."""
    rows = []
    while len(rows) < n:
        head = rng.dirichlet(np.ones(n))[:-1].tolist()
        row = head + [float(1 - _exact_sum(head))]
        if float(np.sum(row)) < 1 <= _exact_sum(row):
            rows.append(row)
    return np.array(rows)


def _bases(rng):
    """(family, nonnegative matrix) pairs, n <= 6; each exact family has rho >= 1."""
    families = ("dense", "sparse", "triangular", "periodic", "dyadic", "row-stochastic",
                "column-stochastic", "jordan", "reducible", "straddling")
    for index in range(300):
        family, n = families[index % len(families)], int(rng.integers(1, 7))
        if family == "dense":
            m = rng.uniform(size=(n, n))
        elif family == "sparse":  # often reducible
            m = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.35)
        elif family == "triangular":  # one repeated eigenvalue: defective
            m = np.triu(rng.uniform(size=(n, n)), 1) + rng.uniform() * np.eye(n)
        elif family == "periodic":
            m = np.roll(np.eye(n), 1, axis=1) * rng.uniform(0.5, 2.0, size=(n, 1))
        elif family == "dyadic":
            m = rng.integers(0, 8, size=(n, n)) / 8.0
        elif family in ("row-stochastic", "column-stochastic"):
            m = rng.multinomial(16, np.full(n, 1.0 / n), size=n) / 16.0
            m = m if family == "row-stochastic" else m.T
        elif family == "straddling":
            m = _straddling(rng, max(n, 4))
            m = m if rng.integers(2) else m.T
        elif family == "jordan":
            m = np.eye(n) + np.triu(rng.integers(0, 4, size=(n, n)) / 4.0, 1)
        else:
            k = int(rng.integers(0, n)) + 1
            m = np.zeros((n, n))
            m[:k, :k] = rng.multinomial(8, np.full(k, 1.0 / k), size=k) / 8.0
            m[k:, :] = rng.integers(0, 4, size=(n - k, n)) / 16.0
        yield family, m if m.any() else np.eye(n)


def _cases():
    """(family, matrix, q) with rho or a norm set 1e-15 ... 1e-3 from 1, on both sides."""
    rng = np.random.default_rng(20240616)
    targets = (linalg.spectral_radius, lambda m: linalg.matrix_norm(m, "linf"),
               lambda m: linalg.matrix_norm(m, "l1"))
    for index, (family, m) in enumerate(_bases(rng)):
        q = int(rng.integers(1, 3))
        if family == "straddling":  # one lag keeps the lag sum exact
            yield family, m, 1
        elif family in ("dyadic", "row-stochastic", "column-stochastic", "jordan", "reducible") \
                and rng.integers(2):
            yield family, m, q
        else:
            # One case in three sits within a few roundings of 1, where the
            # float sums themselves decide the side.
            scale = EPS * rng.integers(0, 5) / 2 if index % 3 == 0 else 10.0 ** rng.uniform(-15, -3)
            value = targets[int(rng.integers(3))](m) or linalg.matrix_norm(m, "linf")  # nilpotent: rho = 0
            yield family, m * ((1.0 + rng.choice((-1.0, 1.0)) * scale) / value), q


def _pairs():
    """(case, verdict name, verdict, exact comparison) for every "< 1" verdict of every case."""
    for family, m, q in _cases():
        p, case = m.shape[0], f"{family} q={q} {m.tolist()!r}"
        shares = [m * s for s in INTENSITY_SHARES[q]]
        signs = np.where(np.arange(m.size).reshape(m.shape) % 2, -1.0, 1.0)
        ingarch = IngarchSpec(p, q, [1.0] * p, tuple(shares[0::2]), tuple(shares[1::2]))
        report = check_ingarch(ingarch)
        total = report.computed["rho_sum_AB"].matrix
        rho = exact_radius(total)
        yield case, "ingarch stationarity", report.verdicts["stationarity"], rho
        yield case, "ingarch polynomial_moments", report.verdicts["polynomial_moments"], rho
        yield case, "ingarch exp_moment_linf", report.verdicts["exp_moment_linf"], exact_linf(total)
        yield case, "ingarch exp_moment_l1", report.verdicts["exp_moment_l1"], \
            exact_l1_sum(ingarch.lambda_matrices + ingarch.count_matrices)

        signed = [signs * s for s in shares]
        report = check_loglinear(LogLinearSpec(p, q, [0.0] * p, tuple(signed[0::2]), tuple(signed[1::2])))
        total = report.computed["rho_sum_abs"].matrix
        yield case, "loglinear stationarity", report.verdicts["stationarity"], exact_radius(total)
        yield case, "loglinear exp_moments", report.verdicts["exp_moments"], exact_linf(total)

        means = tuple(m * s for s in GINAR_SHARES[q])
        report = check_ginar(GinarSpec(p, q, means, "poisson", ImmigrationSpec("poisson", [1.0] * p)))
        total = report.computed["rho_sum_means"].matrix
        yield case, "ginar stationarity", report.verdicts["stationarity"], exact_radius(total)


def _contradicts(verdict: Verdict, exact: str) -> bool:
    return (verdict.status == HOLDS and exact != BELOW
            or verdict.status == FAILS and not verdict.boundary and exact != ABOVE
            or exact == ONE and verdict != Verdict(FAILS, boundary=True))


def test_verdicts_never_contradict_the_exact_decision():
    pairs = list(_pairs())
    wrong = [f"{name}: {verdict} but exactly {exact}; {case}"
             for case, name, verdict, exact in pairs if _contradicts(verdict, exact)]
    assert not wrong, "\n".join(wrong[:10])
    # The cases reach every side of 1 for each kind of quantity.
    for kind in ("stationarity", "exp_moment_linf", "exp_moment_l1"):
        seen = {exact for _, name, _, exact in pairs if name.endswith(kind)}
        assert seen == {BELOW, ONE, ABOVE}, kind
    assert sum(exact == ONE for *_, exact in pairs) >= 100


def _exact_solve(a, columns):
    """Solutions of ``a x = b`` for each column ``b``, in Fractions, eliminating
    without pivoting: every leading principal minor of ``a`` is positive."""
    n = len(a)
    rows = [list(a[i]) + [b[i] for b in columns] for i in range(n)]
    for k in range(n):
        for i in range(k + 1, n):
            factor = rows[i][k] / rows[k][k]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[k])]
    x = [[Fraction(0)] * n for _ in columns]
    for c, solution in enumerate(x):
        for i in reversed(range(n)):
            tail = sum(rows[i][j] * solution[j] for j in range(i + 1, n))
            solution[i] = (rows[i][n + c] - tail) / rows[i][i]
    return x


def test_stationary_mean_matches_the_exact_solve():
    # LAPACK solves (I - E) m = d by Gaussian elimination with partial
    # pivoting.  The computed m solves a system whose matrix is perturbed by
    # at most beta = 3 n eps in the infinity norm: gamma_3n = 3 n eps / 2
    # (Higham, Accuracy and Stability of Numerical Algorithms, Thm 9.4),
    # times a growth factor of at most 2, as for a diagonally dominant
    # matrix; forming I - E rounds within that.  The relative forward error
    # is then at most kappa beta / (1 - kappa beta), kappa = kappa_inf(I - E).
    # (I - E)^-1 is nonnegative, so its infinity norm is the largest entry
    # of (I - E)^-1 1, computed here exactly.
    rng = np.random.default_rng(5)
    informative = 0
    for _, m, _ in _cases():
        if not linalg.certified_radius(m).below_one:
            continue
        n = m.shape[0]
        d = rng.uniform(0.0, 2.0, size=n)
        a = [[Fraction(i == j) - Fraction(x) for j, x in enumerate(row)] for i, row in enumerate(m.tolist())]
        exact, row_sums = _exact_solve(a, [[Fraction(x) for x in d], [Fraction(1)] * n])
        kappa = max(sum(abs(x) for x in row) for row in a) * max(row_sums)
        beta = 3 * n * EPS
        if kappa * beta >= 0.5:  # the bound says nothing this close to rho = 1
            continue
        got = linalg.stationary_mean(d, m)
        error = max(abs(Fraction(g) - x) for g, x in zip(got.tolist(), exact))
        scale = max(abs(x) for x in exact)
        assert error <= kappa * beta / (1 - kappa * beta) * scale, (m.tolist(), d.tolist())
        informative += 1
    assert informative >= 50

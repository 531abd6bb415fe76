import math

import numpy as np
import pytest

from countsim import linalg
from countsim.errors import StationarityError


def test_l1_norm_is_max_column_sum():
    assert linalg.matrix_norm([[0.5, 0.4], [0.0, 0.5]], "l1") == pytest.approx(0.9)
    assert linalg.matrix_norm(np.eye(3), "l1") == pytest.approx(1.0)


def test_linf_norm_is_max_row_sum():
    assert linalg.matrix_norm([[0.5, 0.4], [0.0, 0.5]], "linf") == pytest.approx(0.9)
    assert linalg.matrix_norm([[1.0, -2.0], [0.5, 0.25]], "linf") == pytest.approx(3.0)


def test_l2_norm_matches_singular_value_oracle():
    m = np.array([[0.5, 0.4], [0.0, 0.5]])
    oracle = float(np.linalg.svd(m, compute_uv=False)[0])
    got = linalg.matrix_norm(m, "l2")
    assert got == pytest.approx(oracle, abs=1e-8)
    assert got >= math.sqrt(0.25 + 0.16) - 1e-12  # at least sqrt(alpha^2 + beta^2)


def test_l2_norm_random_matrices_match_svd():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = int(rng.integers(1, 6))
        m = rng.normal(size=(p, p))
        oracle = float(np.linalg.svd(m, compute_uv=False)[0])
        assert linalg.matrix_norm(m, "l2") == pytest.approx(oracle, rel=1e-7, abs=1e-9)


def test_norm_rejects_nonsquare_and_bad_kind():
    with pytest.raises(ValueError):
        linalg.matrix_norm([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], "l1")
    with pytest.raises(ValueError):
        linalg.matrix_norm(np.eye(2), "spectral")


def test_spectral_radius_triangular():
    # Upper triangular, eigenvalues on the diagonal.
    assert linalg.spectral_radius([[0.5, 0.4], [0.0, 0.5]]) == pytest.approx(0.5, abs=1e-8)


def test_spectral_radius_identity():
    for p in (1, 2, 5):
        assert linalg.spectral_radius(np.eye(p)) == pytest.approx(1.0, abs=1e-8)


def test_spectral_radius_quadratic_oracle():
    # Roots of x^2 - 0.95 x + 0.21 via the quadratic formula: 0.6 and 0.35.
    root = (0.95 + math.sqrt(0.95**2 - 4 * 0.21)) / 2
    assert root == pytest.approx(0.6)
    assert linalg.spectral_radius([[0.5, 0.15], [0.1, 0.45]]) == pytest.approx(root, abs=1e-8)


def test_spectral_radius_matches_eigvals_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        p = int(rng.integers(1, 7))
        m = rng.normal(size=(p, p))
        oracle = float(np.max(np.abs(np.linalg.eigvals(m))))
        assert linalg.spectral_radius(m) == pytest.approx(oracle, abs=max(1e-8, 1e-7 * oracle))


def test_spectral_radius_homogeneity():
    rng = np.random.default_rng(13)
    for _ in range(40):
        p = int(rng.integers(1, 6))
        m = rng.normal(size=(p, p))
        c = float(rng.uniform(0.1, 5.0))
        assert linalg.spectral_radius(c * m) == pytest.approx(
            c * linalg.spectral_radius(m), abs=1e-6)


def test_spectral_radius_bounded_by_norms():
    rng = np.random.default_rng(17)
    for _ in range(40):
        p = int(rng.integers(1, 6))
        m = rng.normal(size=(p, p))
        rho = linalg.spectral_radius(m)
        for kind in linalg.NORM_KINDS:
            assert rho <= linalg.matrix_norm(m, kind) + 1e-8


def test_spectral_radius_nilpotent_is_zero():
    assert linalg.spectral_radius([[0.0, 1.0], [0.0, 0.0]]) == 0.0
    assert linalg.spectral_radius(np.zeros((3, 3))) == 0.0


def test_spectral_radius_rejects_bad_input():
    with pytest.raises(ValueError):
        linalg.spectral_radius([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    with pytest.raises(ValueError):
        linalg.spectral_radius([[np.nan, 0.0], [0.0, 1.0]])


def test_l1_norm_equals_linf_of_transpose():
    rng = np.random.default_rng(19)
    for _ in range(30):
        p = int(rng.integers(1, 7))
        m = rng.normal(size=(p, p))
        assert linalg.matrix_norm(m, "l1") == pytest.approx(
            linalg.matrix_norm(m.T, "linf"))


def test_companion_single_block_is_identity_map():
    e1 = np.array([[0.2, 0.1], [0.0, 0.3]])
    assert np.array_equal(linalg.companion([e1]), e1)


def test_companion_scalar_layout():
    f = linalg.companion([[[0.3]], [[0.2]]])
    assert np.array_equal(f, [[0.3, 0.2], [1.0, 0.0]])


def test_companion_block_layout():
    e1 = np.array([[0.1, 0.0], [0.0, 0.2]])
    e2 = np.array([[0.3, 0.1], [0.0, 0.1]])
    f = linalg.companion([e1, e2])
    assert f.shape == (4, 4)
    assert np.array_equal(f[:2, :2], e1)
    assert np.array_equal(f[:2, 2:], e2)
    assert np.array_equal(f[2:, :2], np.eye(2))
    assert np.array_equal(f[2:, 2:], np.zeros((2, 2)))


def test_companion_scalar_spectral_radius_oracle():
    # Largest root of x^2 - 0.3 x - 0.2, by the quadratic formula.
    root = (0.3 + math.sqrt(0.09 + 0.8)) / 2
    f = linalg.companion([[[0.3]], [[0.2]]])
    assert linalg.spectral_radius(f) == pytest.approx(root, abs=1e-8)
    assert linalg.spectral_radius([[0.5]]) == pytest.approx(0.5, abs=1e-10)
    assert root < 1.0


def test_companion_stability_transfers_from_block_sum():
    rng = np.random.default_rng(23)
    for _ in range(50):
        q = int(rng.integers(1, 4))
        e = int(rng.integers(1, 4))
        blocks = [rng.uniform(size=(e, e)) for _ in range(q)]
        total = sum(blocks[1:], blocks[0].copy())
        rho = linalg.spectral_radius(total)
        target = rng.uniform(0.05, 0.95)
        blocks = [b * (target / rho) for b in blocks]
        assert linalg.spectral_radius(linalg.companion(blocks)) < 1.0


def test_companion_rejects_bad_blocks():
    with pytest.raises(ValueError):
        linalg.companion([])
    with pytest.raises(ValueError):
        linalg.companion([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        linalg.companion([[[-0.1]]])


def test_stationary_mean_two_dimensional_oracle():
    # Cramer's rule on (I - E) m = d, worked by hand.
    e = np.array([[0.5, 0.15], [0.1, 0.45]])
    d = np.array([1.0, 0.5])
    a = np.eye(2) - e
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    m0 = (d[0] * a[1, 1] - a[0, 1] * d[1]) / det
    m1 = (a[0, 0] * d[1] - d[0] * a[1, 0]) / det
    got = linalg.stationary_mean(d, e)
    assert got == pytest.approx([m0, m1], abs=1e-12)
    assert got == pytest.approx([2.403846, 1.346154], abs=1e-6)


def test_stationary_mean_zero_offset():
    assert np.array_equal(linalg.stationary_mean([0.0, 0.0],
                                                 [[0.3, 0.1], [0.05, 0.2]]),
                          [0.0, 0.0])


def test_stationary_mean_scalar_geometric_series():
    assert linalg.stationary_mean([1.0], [[0.5]]) == pytest.approx([2.0])


def test_stationary_mean_fixed_point_residual():
    rng = np.random.default_rng(29)
    for _ in range(40):
        p = int(rng.integers(1, 8))
        e = rng.uniform(size=(p, p))
        e *= rng.uniform(0.05, 0.9) / linalg.spectral_radius(e)
        d = rng.uniform(size=p)
        m = linalg.stationary_mean(d, e)
        assert np.max(np.abs(m - (d + e @ m))) < 1e-9
        assert np.all(m >= 0)


def test_stationary_mean_rejects_unstable_system():
    with pytest.raises(StationarityError):
        linalg.stationary_mean([1.0], [[1.0]])
    with pytest.raises(StationarityError):
        linalg.stationary_mean([1.0, 1.0], [[0.9, 0.5], [0.5, 0.9]])


def test_stationary_mean_rejects_negative_inputs():
    with pytest.raises(ValueError):
        linalg.stationary_mean([-1.0], [[0.5]])
    with pytest.raises(ValueError):
        linalg.stationary_mean([1.0], [[-0.5]])


# --- defective, reducible and knife-edge matrices ----------------------------

DEFECTIVE = [[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]]
JORDAN = [[1.0, 1.0], [0.0, 1.0]]


def test_spectral_radius_of_defective_matrices():
    assert linalg.spectral_radius(DEFECTIVE) == pytest.approx(0.5, abs=1e-12)
    assert linalg.spectral_radius(JORDAN) == pytest.approx(1.0, abs=1e-12)
    m = linalg.stationary_mean([1.0, 1.0, 1.0], DEFECTIVE)
    assert np.allclose(m - np.asarray(DEFECTIVE) @ m, 1.0)


def test_radius_bracket_is_exact_on_triangular_matrices():
    assert linalg.certified_radius(DEFECTIVE) == (0.5, 0.5, 0.5)
    assert linalg.certified_radius(JORDAN) == (1.0, 1.0, 1.0)
    assert linalg.certified_radius([[0.0, 0.9], [0.0, 0.0]]) == (0.0, 0.0, 0.0)


def test_radius_bracket_contains_one_on_the_knife_edge():
    radius = linalg.certified_radius([[0.5, 0.5], [0.5, 0.5]])
    assert radius.lo <= radius.value <= radius.hi
    assert radius.lo <= 1.0 <= radius.hi and radius.boundary and not radius.below_one
    assert radius.hi - radius.lo < 1e-14


def test_radius_bracket_takes_the_largest_strong_component():
    # {0, 1} is irreducible with radius 0.5; {2} is reached from it but does
    # not reach back, so it is its own block with radius 0.6.
    m = [[0.3, 0.2, 0.0], [0.2, 0.3, 0.0], [5.0, 5.0, 0.6]]
    assert linalg.strong_components(np.asarray(m)) == [[0, 1], [2]]
    _, lo, hi = linalg.certified_radius(m)
    assert lo <= 0.6 <= hi and hi - lo < 1e-14
    m[2][2] = 0.1
    _, lo, hi = linalg.certified_radius(m)
    assert lo <= 0.5 <= hi and hi - lo < 1e-14


def test_radius_bracket_encloses_eigenvalue_radius_of_random_matrices():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = int(rng.integers(1, 6))
        m = rng.uniform(size=(p, p)) * (rng.uniform(size=(p, p)) < 0.5)
        estimate, lo, hi = linalg.certified_radius(m)
        rho = linalg.spectral_radius(m)
        assert lo - 1e-9 <= rho <= hi + 1e-9
        assert lo <= estimate <= hi
        assert hi - lo <= 1e-12 * max(1.0, hi)


def test_radius_bracket_rejects_negative_entries():
    with pytest.raises(ValueError):
        linalg.certified_radius([[0.5, -0.1], [0.0, 0.5]])


@pytest.mark.parametrize("period", [3, 4, 5])
def test_radius_bracket_is_tight_on_periodic_blocks(period):
    # Every peripheral eigenvalue of 0.9 times a cycle has modulus 0.9; the
    # bracket must come from the real Perron root, not whichever one is
    # rounded largest.
    m = 0.9 * np.roll(np.eye(period), 1, axis=1)
    _, lo, hi = linalg.certified_radius(m)
    assert lo <= 0.9 <= hi and hi - lo < 1e-14
    weighted = m * np.arange(1.0, period + 1.0)[:, None]  # radius = 0.9 * (period!) ** (1 / period)
    _, lo, hi = linalg.certified_radius(weighted)
    rho = 0.9 * math.factorial(period) ** (1.0 / period)
    assert lo <= rho * (1 + 1e-14) and rho * (1 - 1e-14) <= hi and hi - lo < 1e-13 * rho

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from countsim import randomness
from countsim.errors import ConfigurationError, DivergenceError
from countsim.randomness import (
    CountNoise,
    CountingCache,
    Dependence,
    PoissonProcessPath,
    block_rng,
    make_stream,
    poisson_inverse_cdf,
    poisson_quantile,
    shared_counts,
    shared_poisson,
    shared_thinning,
    thinning,
)


# --- streams ---------------------------------------------------------------

def test_same_lineage_identical_draws():
    a = make_stream(42, 0, 0).rng.random(100)
    b = make_stream(42, 0, 0).rng.random(100)
    assert np.array_equal(a, b)


def test_distinct_replicates_differ():
    a = make_stream(42, 0, 0).rng.random(100)
    b = make_stream(42, 1, 0).rng.random(100)
    assert not np.array_equal(a, b)


def test_stream_is_stateless_in_construction_order():
    # Build unrelated streams in between; (42, 0, 5) is unaffected.
    first = make_stream(42, 0, 5).rng.random(20)
    for t in range(10):
        make_stream(42, 0, t).rng.random(3)
    second = make_stream(42, 0, 5).rng.random(20)
    assert np.array_equal(first, second)


# --- poisson inverse cdf ---------------------------------------------------

def test_inverse_cdf_matches_scipy():
    rng = np.random.default_rng(5)
    for lam in (0.3, 1.0, 4.5, 20.0):
        for u in rng.random(50):
            assert poisson_inverse_cdf(float(u), lam) == int(scipy.stats.poisson.ppf(u, lam))


def test_inverse_cdf_zero_intensity():
    assert poisson_inverse_cdf(0.999, 0.0) == 0


def test_inverse_cdf_guards():
    with pytest.raises(ValueError):
        poisson_inverse_cdf(1.0, 2.0)
    with pytest.raises(ValueError):
        poisson_inverse_cdf(0.5, -1.0)
    with pytest.raises(OverflowError):
        poisson_inverse_cdf(0.5, 1e6)  # leading term underflows


# --- poisson process paths -------------------------------------------------

def test_path_zero_intensity_counts_nothing():
    path = PoissonProcessPath()
    assert path.count(0.0, make_stream(1, 0, 0)) == 0
    assert path.arrivals == []


def test_path_monotone_in_intensity():
    stream = make_stream(3, 0, 0)
    path = PoissonProcessPath()
    c1 = path.count(1.0, stream)
    c2 = path.count(2.5, stream)
    assert c1 <= c2


def test_path_extension_preserves_arrivals():
    stream = make_stream(4, 0, 0)
    path = PoissonProcessPath()
    path.count(2.0, stream)
    before = list(path.arrivals)
    path.count(50.0, stream)
    assert path.arrivals[: len(before)] == before
    assert all(b > a for a, b in zip(path.arrivals, path.arrivals[1:]))


def test_path_identical_lineage_identical_arrivals():
    p1 = PoissonProcessPath()
    p1.count(10.0, make_stream(5, 1, 2))
    p2 = PoissonProcessPath()
    p2.count(10.0, make_stream(5, 1, 2))
    assert p1.arrivals == p2.arrivals


def test_path_mean_count_matches_intensity():
    # Fresh paths at intensity 3; sample mean within a 3 sigma band.
    lam, n = 3.0, 100000
    counts = np.empty(n)
    for i in range(n):
        counts[i] = PoissonProcessPath().count(lam, make_stream(77, 0, i))
    se = counts.std(ddof=1) / math.sqrt(n)
    assert abs(counts.mean() - lam) < 3 * se


def test_path_large_intensity_marks_are_consistent():
    stream = make_stream(8, 0, 0)
    path = PoissonProcessPath()
    n_small = path.count(100.0, stream)
    n_mid = path.count(1e9, stream)
    n_big = path.count(5e9, stream)
    n_between = path.count(3e9, stream)
    assert n_small <= n_mid <= n_between <= n_big
    # Re-query returns the recorded values exactly.
    assert path.count(1e9, stream) == n_mid
    assert path.count(3e9, stream) == n_between
    # Relative errors at these magnitudes are tiny for a unit-rate process.
    assert abs(n_big - 5e9) < 5 * math.sqrt(5e9)


def test_path_large_then_small_queries_stay_monotone():
    stream = make_stream(9, 0, 0)
    path = PoissonProcessPath()
    big = path.count(1e7, stream)
    small = path.count(10.0, stream)
    assert 0 <= small <= big


# --- dependence schemes ----------------------------------------------------

def test_gaussian_scheme_validation():
    with pytest.raises(ConfigurationError):
        Dependence("gaussian")
    with pytest.raises(ConfigurationError):
        Dependence("gaussian", [[1.0, 0.5], [0.4, 1.0]])  # not symmetric
    with pytest.raises(ConfigurationError):
        Dependence("gaussian", [[2.0, 0.0], [0.0, 1.0]])  # diagonal not 1
    with pytest.raises(ConfigurationError):
        Dependence("gaussian", [[1.0, 2.0], [2.0, 1.0]])  # not PSD
    with pytest.raises(ConfigurationError):
        Dependence("elliptical")
    dep = Dependence("gaussian", [[1.0, 0.5], [0.5, 1.0]])
    assert dep.cholesky is not None


def test_zero_intensities_give_zero_counts():
    out = CountNoise(3, make_stream(1, 0, 0)).at(np.zeros(3))
    assert np.array_equal(out, np.zeros(3, dtype=np.int64))
    for dep in (Dependence(), Dependence("comonotone"),
                Dependence("gaussian", np.eye(3))):
        for chains in (1, 2):
            out = shared_counts(block_rng(1, 0), dep, np.zeros((chains, 4, 3)))
            assert np.array_equal(out, np.zeros((chains, 4, 3), dtype=np.int64))


def test_independent_marginal_means():
    lam = np.array([2.0, 5.0])
    n = 100000
    draws = np.empty((n, 2))
    for t in range(n):
        draws[t] = CountNoise(len(lam), make_stream(3, 0, t)).at(lam)
    se = draws.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - lam) < 3 * se)


def _chi_square_poisson(samples: np.ndarray, lam: float) -> float:
    """P-value of a chi-square GOF test against Poisson(lam)."""
    return _chi_square(samples, scipy.stats.poisson(lam))


def _chi_square(samples: np.ndarray, law) -> float:
    """P-value of a chi-square GOF test against a frozen discrete scipy law."""
    n = len(samples)
    kmax = int(law.ppf(1 - 1e-6))
    expected = law.pmf(np.arange(kmax + 1)) * n
    observed = np.bincount(np.clip(samples, 0, kmax + 1).astype(int), minlength=kmax + 2)[: kmax + 1]
    observed = observed.astype(float)
    # Lump the tail into the last cell and merge cells with tiny expectation.
    expected[-1] += n - expected.sum()
    observed[-1] += n - observed.sum()
    keep = expected >= 5
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    if exp[-1] == 0:
        obs, exp = obs[:-1], exp[:-1]
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return float(scipy.stats.chi2.sf(stat, len(exp) - 1))


def test_independent_noise_marginals_are_poisson():
    # The copulas' marginals are checked on the code that draws them, in
    # test_shared_counts_marginals_and_monotone_coupling.
    lam = np.array([2.0, 5.0])
    n = 100000
    draws = np.empty((n, 2), dtype=np.int64)
    for t in range(n):
        draws[t] = CountNoise(len(lam), make_stream(11, 0, t)).at(lam)
    for j in range(2):
        assert _chi_square_poisson(draws[:, j], lam[j]) > 0.001


def test_intensity_limit_raises_divergence():
    noise = CountNoise(1, make_stream(1, 0, 0))
    with pytest.raises(DivergenceError):
        noise.at(np.array([2e18]))


# --- counting cache and thinning --------------------------------------------

def test_cache_prefix_stability():
    cache = CountingCache()
    stream = make_stream(6, 0, 0)
    first = cache.draws((0, 1, 0, 0), 5, "poisson", 1.5, stream)
    again = cache.draws((0, 1, 0, 0), 3, "poisson", 1.5, stream)
    assert again == first[:3]
    extended = cache.draws((0, 1, 0, 0), 9, "poisson", 1.5, stream)
    assert extended[:5] == first


def test_thinning_zero_input_no_growth():
    cache = CountingCache()
    out = thinning(cache, (0, 1), np.array([[0.5, 0.2], [0.1, 0.3]]),
                   "bernoulli", np.zeros(2, dtype=int), make_stream(7, 0, 0))
    assert np.array_equal(out, np.zeros(2, dtype=np.int64))
    assert len(cache) == 0


def test_thinning_identity_bernoulli_is_identity():
    cache = CountingCache()
    x = np.array([4, 2])
    out = thinning(cache, (0, 1), np.eye(2), "bernoulli", x, make_stream(8, 0, 0))
    assert np.array_equal(out, x)


def test_thinning_mean_matches_matrix_action():
    a = np.array([[0.4, 0.3], [0.2, 0.1]])
    x = np.array([3, 2])
    target = a @ x
    n = 100000
    totals = np.zeros((n, 2))
    for t in range(n):
        cache = CountingCache()
        totals[t] = thinning(cache, (t, 1), a, "bernoulli", x, make_stream(9, 0, t))
    se = totals.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(totals.mean(axis=0) - target) < 3 * se)


@pytest.mark.parametrize("family,mean", [("bernoulli", 0.7), ("poisson", 1.3), ("geometric", 2.0)])
def test_counting_families_have_requested_mean(family, mean):
    rng = make_stream(10, 0, 0).rng
    draws = randomness._draw_counting(family, mean, 200000, rng)
    assert np.all(draws >= 0)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - mean) < 3.5 * se


def test_bernoulli_mean_above_one_rejected():
    cache = CountingCache()
    with pytest.raises(ConfigurationError):
        thinning(cache, (0, 1), np.array([[1.5]]), "bernoulli",
                 np.array([2]), make_stream(11, 0, 0))


def test_thinning_deterministic_under_lineage():
    a = np.array([[0.4, 0.3], [0.2, 0.1]])
    x = np.array([5, 4])
    one = thinning(CountingCache(), (3, 1), a, "poisson", x, make_stream(12, 0, 3))
    two = thinning(CountingCache(), (3, 1), a, "poisson", x, make_stream(12, 0, 3))
    assert np.array_equal(one, two)


# --- lockstep block primitives ------------------------------------------------

def test_block_rng_is_addressed_by_seed_and_block():
    a = block_rng(42, 0).random(20)
    assert np.array_equal(a, block_rng(42, 0).random(20))
    assert not np.array_equal(a, block_rng(42, 1).random(20))
    assert not np.array_equal(a, block_rng(43, 0).random(20))


def _uncorrelated(a: np.ndarray, b: np.ndarray) -> bool:
    """Sample correlation within four standard errors of zero."""
    r = np.corrcoef(a.astype(float), b.astype(float))[0, 1]
    return abs(r) < 4.0 / math.sqrt(len(a))


def test_shared_poisson_counts_one_process_at_both_intensities():
    # Chain 0 has the lower intensity in coordinate 0 and the higher in 1.
    n = 100000
    lam = np.empty((2, n, 2))
    lam[0], lam[1] = [2.0, 5.0], [5.0, 2.0]
    counts = shared_poisson(block_rng(21, 0), lam)
    low = np.concatenate([counts[0, :, 0], counts[1, :, 1]])
    high = np.concatenate([counts[1, :, 0], counts[0, :, 1]])
    increment = high - low
    assert np.all(increment >= 0)
    assert _chi_square_poisson(low, 2.0) > 0.001
    assert _chi_square_poisson(high, 5.0) > 0.001
    # N(hi) - N(lo) ~ Poisson(hi - lo), independent of N(lo).
    assert _chi_square_poisson(increment, 3.0) > 0.001
    assert _uncorrelated(low, increment)
    # The scalar reference: a materialized unit-rate path counted at 2 and 5.
    ref = np.empty((20000, 2))
    for i in range(len(ref)):
        path, stream = PoissonProcessPath(), make_stream(22, 0, i)
        ref[i] = path.count(2.0, stream), path.count(5.0, stream)
    cross, ref_cross = low * high, ref[:, 0] * ref[:, 1]
    se = math.sqrt(cross.var() / len(cross) + ref_cross.var() / len(ref_cross))
    assert abs(cross.mean() - ref_cross.mean()) < 4 * se
    assert abs(cross.mean() - (2.0 * 5.0 + 2.0)) < 4 * cross.std() / math.sqrt(len(cross))


@pytest.mark.parametrize("shape", [(1, 8, 3), (2, 64, 2), (2, 1, 3), (2, 3, 1)], ids=lambda s: "x".join(map(str, s)))
def test_shared_poisson_splits_two_chains_as_shared_thinning_does(shape):
    # One split for both coupled draws: Poisson counts at integer intensities
    # n are Poisson thinning sums of n terms through the identity, bit for bit.
    # Chain 1 holds chain 0's entries reversed, so the chains cross.
    first = np.arange(math.prod(shape[1:])) * 7 % 23
    n = np.stack((first, first[::-1]))[:shape[0]].reshape(shape)
    assert shape[0] == 1 or ((n[0] > n[1]).any() and (n[0] < n[1]).any())
    for seed in (0, 26):
        counts = shared_poisson(block_rng(seed, 0), n.astype(float))
        sums = shared_thinning(block_rng(seed, 0), "poisson", np.eye(shape[2])[None], n[:, :, None, :])
        assert counts.dtype == sums.dtype == np.int64 and np.array_equal(counts, sums)


@pytest.mark.parametrize("family,mean,law", [
    ("bernoulli", 0.3, lambda n: scipy.stats.binom(n, 0.3)),
    ("poisson", 1.3, lambda n: scipy.stats.poisson(1.3 * n)),
    ("geometric", 2.0, lambda n: scipy.stats.nbinom(n, 1.0 / 3.0)),
], ids=["bernoulli", "poisson", "geometric"])
def test_shared_thinning_reads_one_sequence_in_both_chains(family, mean, law):
    # Chains read 5 and 9 terms of the same counting sequence.
    n = 100000
    counts = np.empty((2, n, 1, 1), dtype=np.int64)
    counts[0], counts[1] = 5, 9
    short, long = shared_thinning(block_rng(23, 0), family, np.array([[[mean]]]), counts)[:, :, 0]
    extra = long - short
    assert np.all(extra >= 0)
    assert _chi_square(short, law(5)) > 0.001
    assert _chi_square(long, law(9)) > 0.001
    # The difference is a sum over the 4 extra terms, independent of the prefix.
    assert _chi_square(extra, law(4)) > 0.001
    assert _uncorrelated(short, extra)
    # The scalar reference: the first 9 terms of a cached counting sequence.
    ref = np.array([sum(CountingCache().draws((0, 1, 0, 0), 9, family, mean, make_stream(24, 0, i)))
                    for i in range(5000)], dtype=float)
    se = math.sqrt(long.var() / n + ref.var() / len(ref))
    assert abs(long.mean() - ref.mean()) < 4 * se


@pytest.mark.parametrize("family", ["bernoulli", "poisson", "geometric"])
def test_shared_thinning_mean_is_the_matrix_action(family):
    means = np.array([[[0.4, 0.3], [0.2, 0.1]], [[0.1, 0.0], [0.3, 0.2]]])  # q = 2
    x = np.array([[[3, 2], [1, 4]], [[0, 6], [5, 1]]])  # chains x lags x coordinates
    n = 50000
    counts = np.repeat(x[:, None], n, axis=1)
    sums = shared_thinning(block_rng(25, 0), family, means, counts)
    for c in range(2):
        target = means[0] @ x[c, 0] + means[1] @ x[c, 1]
        se = sums[c].std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(sums[c].mean(axis=0) - target) < 4 * se)
    zero = shared_thinning(block_rng(25, 1), family, means, np.zeros((2, 3, 2, 2), dtype=np.int64))
    assert np.array_equal(zero, np.zeros((2, 3, 2), dtype=np.int64))


def _survival(k: int, lam: float) -> float:
    """P(X > k) for X ~ Poisson(lam), summed term by term in log space."""
    top = int(lam + 60.0 * math.sqrt(lam) + 400.0)
    return math.fsum(math.exp(-lam + i * math.log(lam) - math.lgamma(i + 1.0)) for i in range(k + 1, top))


def test_poisson_quantile_lower_half_matches_scalar_inverse_cdf():
    rng = np.random.default_rng(5)
    for lam in (0.3, 1.0, 4.5, 20.0):
        z = -np.abs(rng.standard_normal(50)) * 2.0
        got = poisson_quantile(z, lam)
        for score, k in zip(z, got):
            assert k == poisson_inverse_cdf(0.5 * math.erfc(-score / math.sqrt(2.0)), lam)


def test_poisson_quantile_upper_half_is_the_survival_quantile():
    rng = np.random.default_rng(6)
    for lam in (0.3, 1.0, 4.5, 20.0):
        z = np.abs(rng.standard_normal(50)) * 2.0
        got = poisson_quantile(z, lam)
        for score, k in zip(z, got):
            tail = 0.5 * math.erfc(score / math.sqrt(2.0))
            assert _survival(int(k), lam) <= tail < (1.0 if k == 0 else _survival(int(k) - 1, lam))


def test_poisson_quantile_tail_scores_do_not_round_to_one():
    # Phi(9) rounds to exactly 1.0, where the scalar inverse CDF must refuse.
    with pytest.raises(ValueError):
        poisson_inverse_cdf(1.0, 2.0)
    high, low = poisson_quantile([9.0, -9.0], 2.0)
    assert low == 0
    tail = 0.5 * math.erfc(9.0 / math.sqrt(2.0))
    assert _survival(int(high), 2.0) <= tail < _survival(int(high) - 1, 2.0)
    assert high < 2.0 + 40.0 * math.sqrt(2.0) + 50.0


def test_poisson_quantile_zero_intensity_and_guards():
    assert np.array_equal(poisson_quantile([3.0, -3.0], 0.0), [0, 0])
    with pytest.raises(ValueError):
        poisson_quantile([0.5], -1.0)
    with pytest.raises(ValueError):
        poisson_quantile([np.nan], 1.0)
    with pytest.raises(OverflowError):
        poisson_quantile([0.5], 1e6)  # leading term underflows


@pytest.mark.parametrize("score, lam", [(math.inf, 1.0), (-math.inf, 1.0), (math.inf, 0.0), (math.nan, 1.0)])
def test_poisson_quantile_refuses_non_finite_scores(score, lam):
    with pytest.raises(ValueError, match="scores must be finite"):
        poisson_quantile([0.5, score], lam)


def test_poisson_quantile_empty_input():
    out = poisson_quantile([], [])
    assert out.shape == (0,) and out.dtype == np.int64
    assert poisson_quantile(np.zeros((4, 0)), np.ones((2, 4, 0))).shape == (2, 4, 0)


@pytest.mark.parametrize("score, lam, expected", [
    (9.058824, 0.001924, 6), (8.147910, 0.265037, 12), (7.629850, 0.273566, 11), (9.0, 0.01, 7)])
def test_poisson_quantile_widens_a_short_window_to_the_exact_answer(score, lam, expected):
    # Alone, each entry's answer lies past its first window, so the window
    # grows.  The mass beyond a window starts at pmf_W * lam / (W + 1); a
    # bound with ratio lam / (W + 2) falls short and stops the first three one short.
    k = int(poisson_quantile([score], [lam])[0])
    assert k > int(lam + (score + 3.0) * math.sqrt(lam)) + 5
    tail = 0.5 * math.erfc(score / math.sqrt(2.0))
    assert _survival(k, lam) <= tail < _survival(k - 1, lam)
    assert k == expected


def test_poisson_quantile_law_across_engine_shapes():
    # The block engine's shapes: one or two chains of up to 64 replicates and
    # p <= 3, scores per coordinate or one comonotone score per replicate.
    # Every entry must be its own quantile, whatever the batch it is in.
    rng = np.random.default_rng(11)
    for _ in range(100):
        chains, R, p = int(rng.integers(1, 3)), int(rng.integers(1, 65)), int(rng.integers(1, 4))
        scores = rng.uniform(-9.0, 9.0, (R, 1 if rng.random() < 0.3 else p))
        lam = np.exp(rng.uniform(math.log(1e-3), math.log(500.0), (chains, R, p)))
        lam[rng.random(lam.shape) < 0.1] = 0.0
        got = poisson_quantile(scores, lam)
        assert got.shape == lam.shape
        z = np.broadcast_to(scores, lam.shape)
        for score, mean, k in zip(z.ravel().tolist(), lam.ravel().tolist(), got.ravel().tolist()):
            assert poisson_quantile([score], [mean])[0] == k
            tail = 0.5 * math.erfc(abs(score) * math.sqrt(0.5))
            if score <= 0.0:
                assert k == poisson_inverse_cdf(tail, mean)
            else:  # pdtrc(k, lam) is P(X > k)
                assert scipy.special.pdtrc(k, mean) <= tail < (1.0 if k == 0 else scipy.special.pdtrc(k - 1, mean))


@pytest.mark.parametrize("scheme", ["independent", "comonotone", "gaussian"])
def test_shared_counts_marginals_and_monotone_coupling(scheme):
    dep = Dependence("gaussian", [[1.0, 0.6], [0.6, 1.0]]) if scheme == "gaussian" else Dependence(scheme)
    n = 100000
    lam = np.empty((2, n, 2))
    lam[0], lam[1] = [2.0, 5.0], [3.5, 6.0]
    counts = shared_counts(block_rng(26, 0), dep, lam)
    for c in range(2):
        for j in range(2):
            assert _chi_square_poisson(counts[c, :, j], lam[c, 0, j]) > 0.001
    # Both chains read the same noise, so the higher intensity never counts less.
    assert np.all(counts[1] >= counts[0])
    if scheme == "comonotone":
        equal = shared_counts(block_rng(27, 0), dep, np.full((1, 2000, 2), 3.0))
        assert np.array_equal(equal[0, :, 0], equal[0, :, 1])


def test_shared_counts_intensity_guards():
    # The intensity limit itself is the linear step's check (see
    # test_each_family_fails_at_its_range_check); the copula's inverse CDF
    # still refuses 2e18, and the draws refuse NaN.
    with pytest.raises(DivergenceError):
        shared_counts(block_rng(1, 0), Dependence("comonotone"), np.full((1, 1, 1), 2e18))
    for dep in (Dependence(), Dependence("comonotone")):
        with pytest.raises(ValueError):
            shared_counts(block_rng(1, 0), dep, np.full((1, 1, 1), np.nan))
    with pytest.raises(DivergenceError):  # the copula's inverse CDF cannot reach this far
        shared_counts(block_rng(1, 0), Dependence("comonotone"), np.full((1, 1, 1), 1e6))


# --- draws through the generator's scalar call --------------------------------

_LIMIT = randomness.SCALAR_DRAW_LIMIT


def _draw_cases(k: int) -> list:
    """``(method, params, size)`` for every kind of draw the block step makes, at ``k`` entries.

    With a ``size``, ``_draw`` gets the parameters filled to it, as
    ``ImmigrationSpec.sample`` passes them, and the array call gets ``size``.
    """
    lam = np.linspace(0.0, 6.0, k)
    n = np.arange(k) % 5
    return [
        ("poisson", (lam.reshape(1, k, 1),), None),  # shared_poisson, Poisson thinning sums
        ("binomial", (n, lam / 6.0), None),
        ("negative_binomial", (n + 1, 1.0 / (1.0 + lam)), None),
        ("poisson", (np.array([1.5]),), (k, 1)),  # ImmigrationSpec.sample: values drawn size times
        ("geometric", (np.array([0.4]),), (k, 1)),
    ]


# (chains, replicates, q, p) of GINAR's thinning draw: (chains, R, q, 1, p) counts against
# (q, p, p) means, giving 1, 4, 8, 9 and 192 entries.
_THINNING_SHAPES = [(1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2), (1, 1, 1, 3), (3, 64, 1, 1)]


def _thinning_cases(shape: tuple) -> list:
    chains, replicates, q, p = shape
    n = (np.arange(chains * replicates * q * p) % 4).reshape(chains, replicates, q, 1, p)
    means = np.linspace(0.05, 0.9, q * p * p).reshape(q, p, p)
    counts, prob = np.broadcast_arrays(n, 1.0 / (1.0 + means))
    return [("binomial", (n, means), None),
            ("negative_binomial", (counts[counts > 0], prob[counts > 0]), None)]  # geometric: positive counts


def _assert_draws_match(cases: list, seed: int) -> None:
    scalar, array = block_rng(seed, 0), block_rng(seed, 0)
    for method, params, size in cases:
        got = randomness._draw(getattr(scalar, method),
                               *(params if size is None else [randomness._filled(a, size) for a in params]))
        want = getattr(array, method)(*params, size=size)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape and np.array_equal(got, want), method
        # Equal states after every draw: a reordered or extra draw fails here.
        assert scalar.bit_generator.state == array.bit_generator.state, method


@pytest.mark.parametrize("k", [1, _LIMIT, _LIMIT + 1, 64 * 3])
def test_draw_matches_the_array_call(k):
    _assert_draws_match(_draw_cases(k), 31 + k)


@pytest.mark.parametrize("shape", _THINNING_SHAPES, ids=str)
def test_draw_matches_the_array_call_on_thinning_broadcasts(shape):
    _assert_draws_match(_thinning_cases(shape), 41)


@pytest.mark.parametrize("k", [1, _LIMIT + 1])
@pytest.mark.parametrize("method,good,bad", [
    ("poisson", (), [np.nan, -1.0, 1e19]),
    ("binomial", (3,), [np.nan, -0.1, 1.1]),
    ("negative_binomial", (3,), [np.nan, 0.0, 1.1]),
    ("geometric", (), [np.nan, 0.0, 1.1]),
])
def test_draw_refuses_what_the_array_call_refuses(k, method, good, bad):
    # The two calls word the NaN message differently; only the type is pinned.
    for value in bad:
        params = tuple(np.full(k, g) for g in good) + (np.full(k, 0.5),)
        params[-1][-1] = value
        with pytest.raises(ValueError):
            getattr(block_rng(1, 0), method)(*params)
        with pytest.raises(ValueError):
            randomness._draw(getattr(block_rng(1, 0), method), *params)
    huge = (np.full(k, 2**60), np.full(k, 1e-12))  # negative_binomial's n (1 - p) / p past its maximum
    with pytest.raises(ValueError):
        block_rng(1, 0).negative_binomial(*huge)
    with pytest.raises(ValueError):
        randomness._draw(block_rng(1, 0).negative_binomial, *huge)

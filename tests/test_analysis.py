import json
import math

import numpy as np
import pytest

from countsim import analysis, cli, linalg
from countsim.analysis import (
    FAILS,
    HOLDS,
    NOT_APPLICABLE,
    check_ginar,
    check_ingarch,
    check_loglinear,
    check_model,
    poisson_mgf,
    poisson_raw_moment,
    stirling2,
)
from countsim.config import parse_config_file, plain
from countsim.errors import StationarityError
from countsim.models import GinarSpec, ImmigrationSpec, IngarchSpec, LogLinearSpec


def ginar(mats, family="bernoulli"):
    p = np.asarray(mats[0]).shape[0]
    return GinarSpec(p, len(mats), tuple(mats), family, ImmigrationSpec("poisson", [1.0] * p))


def ingarch(a_list, b_list, d=None):
    p = np.asarray(a_list[0]).shape[0]
    if d is None:
        d = [1.0] * p
    return IngarchSpec(p, len(a_list), d, tuple(a_list), tuple(b_list))


def loglinear(a_list, b_list):
    p = np.asarray(a_list[0]).shape[0]
    return LogLinearSpec(p, len(a_list), [0.1] * p, tuple(a_list), tuple(b_list))


# --- ginar checker -----------------------------------------------------------

def test_ginar_triangular_radius_holds():
    report = check_ginar(ginar([[[0.4, 0.0], [0.1, 0.2]]]))
    assert report.computed["rho_sum_means"].value == pytest.approx(0.4, abs=1e-8)
    assert report.verdicts["stationarity"].status == HOLDS
    assert report.verdicts["higher_order_moments"].status == HOLDS
    assert any("bernoulli" in n for n in report.notes)


def test_ginar_identity_fails_on_the_boundary():
    report = check_ginar(ginar([np.eye(2)], family="poisson"))
    assert report.verdicts["stationarity"].status == FAILS
    assert report.verdicts["stationarity"].boundary


def test_ginar_second_order_scalar_sum():
    report = check_ginar(ginar([[[0.3]], [[0.2]]]))
    assert report.computed["rho_sum_means"].value == pytest.approx(0.5, abs=1e-8)
    assert report.verdicts["stationarity"].status == HOLDS


# --- ingarch checker ---------------------------------------------------------

def test_ingarch_norm_gap_example():
    spec = ingarch([[[0.0, 0.0], [0.0, 0.0]]], [[[0.5, 0.4], [0.0, 0.5]]])
    report = check_ingarch(spec)
    assert report.computed["rho_sum_AB"].value == pytest.approx(0.5, abs=1e-8)
    assert report.computed["l1_sum_norms"].value == pytest.approx(0.9)
    assert report.computed["linf_sum"].value == pytest.approx(0.9)
    for name in ("stationarity", "polynomial_moments", "exp_moment_l1", "exp_moment_linf"):
        assert report.verdicts[name].status == HOLDS


def test_ingarch_norms_fail_while_radius_holds():
    spec = ingarch([[[0.0, 0.0], [0.0, 0.0]]], [[[0.5, 0.6], [0.0, 0.5]]])
    report = check_ingarch(spec)
    assert report.verdicts["stationarity"].status == HOLDS
    assert report.computed["l1_sum_norms"].value == pytest.approx(1.1)
    assert report.computed["linf_sum"].value == pytest.approx(1.1)
    assert report.verdicts["exp_moment_l1"].status == FAILS
    assert report.verdicts["exp_moment_linf"].status == FAILS
    assert any("open question" in n for n in report.notes)


def test_ingarch_zero_offset_makes_necessity_inapplicable():
    spec = ingarch([[[0.1]]], [[[0.2]]], d=[0.0])
    report = check_ingarch(spec)
    assert report.verdicts["necessity_applicable"].status == NOT_APPLICABLE
    spec = ingarch([[[0.1]]], [[[0.2]]], d=[0.5])
    assert check_ingarch(spec).verdicts["necessity_applicable"].status == HOLDS


def test_ingarch_l2_diagnostic_has_no_verdict():
    spec = ingarch([[[0.2]]], [[[0.3]]])
    report = check_ingarch(spec)
    assert "l2_sum_norms" in report.computed
    assert "l2_sum_norms" not in report.verdicts
    assert report.computed["l2_sum_norms"].value == pytest.approx(0.5, abs=1e-8)


def test_ingarch_scaling_down_never_flips_holds_to_fails():
    rng = np.random.default_rng(31)
    for _ in range(60):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 3))
        a = [rng.uniform(0, 0.8, size=(p, p)) for _ in range(q)]
        b = [rng.uniform(0, 0.8, size=(p, p)) for _ in range(q)]
        spec = ingarch(a, b)
        before = check_ingarch(spec)
        c = float(rng.uniform(0.05, 0.999))
        scaled = ingarch([c * m for m in a], [c * m for m in b])
        after = check_ingarch(scaled)
        for name, verdict in before.verdicts.items():
            if verdict.status == HOLDS:
                assert after.verdicts[name].status == HOLDS, name


def test_exp_l1_criterion_implies_stationarity():
    rng = np.random.default_rng(37)
    found = 0
    for _ in range(200):
        p = int(rng.integers(1, 4))
        a = [rng.uniform(0, 0.5, size=(p, p))]
        b = [rng.uniform(0, 0.5, size=(p, p))]
        report = check_ingarch(ingarch(a, b))
        if report.verdicts["exp_moment_l1"].status == HOLDS:
            found += 1
            assert report.verdicts["stationarity"].status == HOLDS
    assert found > 0


# --- loglinear checker -------------------------------------------------------

def test_loglinear_absolute_value_radius():
    spec = loglinear([[[-0.3, 0.0], [0.2, -0.1]]], [[[0.2, 0.1], [0.0, 0.3]]])
    report = check_loglinear(spec)
    # |A| + |B| = [[0.5, 0.1], [0.2, 0.4]]; quadratic formula gives rho = 0.6.
    expected = (0.9 + math.sqrt(0.01 + 0.08)) / 2
    assert expected == pytest.approx(0.6)
    assert report.computed["rho_sum_abs"].value == pytest.approx(expected, abs=1e-8)
    assert report.verdicts["stationarity"].status == HOLDS


def test_loglinear_zero_matrices_hold():
    report = check_loglinear(loglinear([np.zeros((2, 2))], [np.zeros((2, 2))]))
    assert report.computed["rho_sum_abs"].value == 0.0
    assert report.verdicts["stationarity"].status == HOLDS
    assert report.verdicts["exp_moments"].status == HOLDS


def test_loglinear_scalar_fails_both():
    report = check_loglinear(loglinear([[[0.6]]], [[[0.5]]]))
    assert report.computed["rho_sum_abs"].value == pytest.approx(1.1)
    assert report.verdicts["stationarity"].status == FAILS
    assert report.verdicts["exp_moments"].status == FAILS


def test_check_model_dispatch():
    assert check_model(ginar([[[0.4]]])).model_kind == "ginar"
    assert check_model(ingarch([[[0.1]]], [[[0.2]]])).model_kind == "ingarch"
    assert check_model(loglinear([[[0.1]]], [[[0.2]]])).model_kind == "loglinear"


def test_report_serializes_to_plain_types():
    report = check_ingarch(ingarch([[[0.1]]], [[[0.2]]]))
    text = json.dumps(plain(report), allow_nan=False)
    assert "rho_sum_AB" in text
    assert json.loads(text)["computed"]["l1_sum_norms"]["matrix"] is None  # a required field, written null


# --- stirling numbers and poisson oracles -------------------------------------

def test_stirling_base_cases():
    assert stirling2(2, 1) == 1
    assert stirling2(2, 2) == 1
    assert stirling2(3, 2) == 3
    assert stirling2(1, 1) == 1
    assert stirling2(4, 2) == 7
    for n in range(1, 11):
        assert stirling2(n, n) == 1
        assert stirling2(n, 0) == 0


def test_stirling_row_sums_are_bell_numbers():
    # Independent oracle: the Bell triangle.
    bell = [1]
    row = [1]
    for _ in range(10):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        row = new
        bell.append(row[0])
    for n in range(1, 11):
        assert sum(stirling2(n, k) for k in range(n + 1)) == bell[n]


def test_stirling_domain_errors():
    with pytest.raises(ValueError):
        stirling2(0, 0)
    with pytest.raises(ValueError):
        stirling2(31, 2)
    with pytest.raises(ValueError):
        stirling2(5, 6)
    with pytest.raises(ValueError):
        stirling2(5, -1)
    for n, k in ((3.0, 1), (3, 1.0), (True, True)):  # orders are integers, and booleans are not
        with pytest.raises(ValueError):
            stirling2(n, k)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: poisson_raw_moment(1.0, 2.0), id="raw-float-order"),
    pytest.param(lambda: poisson_raw_moment(1.0, True), id="raw-boolean-order"),
    pytest.param(lambda: poisson_raw_moment(math.inf, 2), id="raw-infinite-intensity"),
    pytest.param(lambda: poisson_mgf(math.nan, 0.1), id="mgf-nan-intensity"),
    pytest.param(lambda: poisson_mgf(True, 0.1), id="mgf-boolean-intensity"),
    pytest.param(lambda: poisson_mgf("1", 0.1), id="mgf-string-intensity"),
    pytest.param(lambda: poisson_mgf(1.0, True), id="mgf-boolean-delta"),
])
def test_poisson_oracle_domain_errors(call):
    with pytest.raises(ValueError):
        call()


def test_poisson_raw_moment_closed_forms():
    assert poisson_raw_moment(3.0, 1) == pytest.approx(3.0)
    assert poisson_raw_moment(3.0, 2) == pytest.approx(12.0)  # lam + lam^2
    assert poisson_raw_moment(2.0, 3) == pytest.approx(22.0)  # 2 + 3*4 + 8


def test_poisson_raw_moment_matches_monte_carlo():
    rng = np.random.default_rng(41)
    n = 200000
    for lam in (1.0, 3.0):
        draws = rng.poisson(lam, n).astype(float)
        for r in (2, 3):
            sample = draws**r
            se = sample.std(ddof=1) / math.sqrt(n)
            assert abs(sample.mean() - poisson_raw_moment(lam, r)) < 4 * se


def test_poisson_mgf_values():
    assert poisson_mgf(5.0, 0.0) == 0.0
    assert poisson_mgf(2.0, 0.1) == pytest.approx(2 * (math.exp(0.1) - 1), abs=1e-12)
    assert poisson_mgf(2.0, 0.1) == pytest.approx(0.210342, abs=1e-6)
    assert poisson_mgf(0.0, 3.0) == 0.0


@pytest.mark.parametrize("call, value", [
    pytest.param(lambda: poisson_mgf(0.0, 1000.0), 0.0, id="mgf-zero-intensity-huge-delta"),
    pytest.param(lambda: poisson_mgf(1.0, 800.0), math.inf, id="mgf-past-the-double-range"),
    pytest.param(lambda: poisson_raw_moment(1e300, 30), math.inf, id="raw-past-the-double-range"),
])
def test_poisson_oracles_answer_past_the_double_range(call, value):
    assert call() == value


def test_poisson_mgf_matches_log_mean_exp():
    rng = np.random.default_rng(43)
    n = 200000
    for lam in (1.0, 3.0):
        draws = rng.poisson(lam, n).astype(float)
        for delta in (0.05, 0.1):
            w = np.exp(delta * draws)
            log_est = math.log(w.mean())
            se_log = w.std(ddof=1) / (w.mean() * math.sqrt(n))
            assert abs(log_est - poisson_mgf(lam, delta)) < 4 * se_log


# Every "< 1" verdict of a scalar model whose lag sum is 0.5 + b: by one rule,
# it holds below 1 and fails above, without boundary, and is boundary at 1.
@pytest.mark.parametrize("b,expected", [
    pytest.param(0.5 - 5e-14, analysis.Verdict(HOLDS, boundary=False), id="below"),
    pytest.param(0.5, analysis.Verdict(FAILS, boundary=True), id="at"),
    pytest.param(0.5 + 5e-14, analysis.Verdict(FAILS, boundary=False), id="above"),
])
def test_knife_edge_verdicts_share_one_rule(b, expected):
    report = check_ingarch(ingarch([[[0.5]]], [[[b]]]))
    for name in ("stationarity", "polynomial_moments", "exp_moment_l1", "exp_moment_linf"):
        assert report.verdicts[name] == expected, name
    report = check_loglinear(loglinear([[[-0.5]]], [[[b]]]))
    for name in ("stationarity", "exp_moments"):
        assert report.verdicts[name] == expected, name


# --- lag sums past the double range --------------------------------------------

_HUGE = 1.7e308  # two of these add up past the double range


# (A, B): their sum rounds to [[0, inf], [0, 0]], nilpotent (rho = 0, exactly),
# to [[inf]] and to an irreducible block holding inf (rho = inf), or is an
# irreducible block whose radius passes the double range.
@pytest.mark.parametrize("a, b, rho", [
    pytest.param([[0.0, _HUGE], [0.0, 0.0]], [[0.0, _HUGE], [0.0, 0.0]], 0.0, id="between-blocks"),
    pytest.param([[_HUGE]], [[_HUGE]], math.inf, id="diagonal"),
    pytest.param([[0.1, _HUGE], [0.1, 0.1]], [[0.1, _HUGE], [0.1, 0.1]], math.inf, id="inside-a-block"),
    # No entry overflows, but the Perron root, 2e308, does.
    pytest.param([[1e308, 1e308], [1e308, 1e308]], [[0.0, 0.0], [0.0, 0.0]], math.inf, id="root-past-the-range"),
])
def test_overflowing_lag_sums_get_exact_verdicts(a, b, rho):
    holds = analysis.Verdict(HOLDS if rho < 1 else FAILS)
    report = check_ingarch(ingarch([a], [b]))
    assert report.computed["rho_sum_AB"].value == rho
    assert report.verdicts["stationarity"] == report.verdicts["polynomial_moments"] == holds
    assert report.computed["linf_sum"].value == report.computed["l1_sum_norms"].value == math.inf
    assert report.verdicts["exp_moment_l1"] == report.verdicts["exp_moment_linf"] == analysis.Verdict(FAILS)
    report = check_loglinear(loglinear([a], [(-np.asarray(b)).tolist()]))  # |A| + |B|
    assert report.computed["rho_sum_abs"].value == rho and report.verdicts["stationarity"] == holds
    assert report.verdicts["exp_moments"] == analysis.Verdict(FAILS)
    report = check_ginar(ginar([a, b], family="poisson"))  # two lags: A + B
    assert report.computed["rho_sum_means"].value == rho and report.verdicts["stationarity"] == holds
    json.dumps(plain(report), allow_nan=False)


# --- certified radius verdicts -----------------------------------------------

def test_ingarch_defective_count_matrix_holds():
    zero = [[0.0] * 3 for _ in range(3)]
    report = check_ingarch(ingarch([zero], [[[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]]]))
    assert report.computed["rho_sum_AB"].value == pytest.approx(0.5, abs=1e-12)
    assert report.verdicts["stationarity"] == analysis.Verdict(HOLDS, boundary=False)
    assert report.verdicts["polynomial_moments"].status == HOLDS


def test_jordan_block_is_flagged_boundary():
    report = check_ginar(ginar([[[1.0, 1.0], [0.0, 1.0]]], family="poisson"))
    assert report.verdicts["stationarity"] == analysis.Verdict(FAILS, boundary=True)


def test_irreducible_knife_edge_is_flagged_boundary():
    report = check_ingarch(ingarch([[[0.0, 0.0], [0.0, 0.0]]], [[[0.5, 0.5], [0.5, 0.5]]]))
    assert report.verdicts["stationarity"] == analysis.Verdict(FAILS, boundary=True)
    report = check_loglinear(loglinear([[[0.25, -0.25], [0.0, 0.0]]], [[[0.25, 0.25], [-0.5, -0.5]]]))
    assert report.verdicts["stationarity"] == analysis.Verdict(FAILS, boundary=True)
    near = check_ingarch(ingarch([[[0.0, 0.0], [0.0, 0.0]]], [[[0.5, 0.4999], [0.5, 0.5]]]))
    assert near.verdicts["stationarity"] == analysis.Verdict(HOLDS, boundary=False)


@pytest.mark.parametrize("period", [3, 4, 5])
def test_periodic_count_matrix_holds_without_boundary(period):
    cycle = (0.9 * np.roll(np.eye(period), 1, axis=1)).tolist()
    report = check_ingarch(ingarch([np.zeros((period, period)).tolist()], [cycle]))
    assert report.computed["rho_sum_AB"].value == pytest.approx(0.9, abs=1e-12)
    assert report.verdicts["stationarity"] == analysis.Verdict(HOLDS, boundary=False)


# Each matrix has spectral radius exactly 1, which eigenvalues round to
# either side of 1 and the certified bracket contains.
@pytest.mark.parametrize("kind,matrix", [
    pytest.param("ingarch", [[0.7, 0.3], [0.3, 0.7]], id="ingarch-symmetric"),
    pytest.param("ingarch", [[0.3, 0.7], [0.6, 0.4]], id="ingarch-row-stochastic"),
    pytest.param("ingarch", [[0.5, 0.5], [0.5, 0.5]], id="ingarch-rank-one"),
    pytest.param("ginar", [[0.7, 0.3], [0.3, 0.7]], id="ginar-poisson"),
])
def test_knife_edge_fails_in_checker_mean_and_strict_mode(kind, matrix, tmp_path):
    if kind == "ingarch":
        model = {"kind": "ingarch", "p": 2, "q": 1, "intensity_offset": [1.0, 1.0],
                 "lambda_matrices": [[[0.0, 0.0], [0.0, 0.0]]], "count_matrices": [matrix]}
    else:
        model = {"kind": "ginar", "p": 2, "q": 1, "mean_matrices": [matrix], "counting_family": "poisson",
                 "immigration": {"family": "poisson", "values": [1.0, 1.0]}}
    config = tmp_path / "knife_edge.json"
    config.write_text(json.dumps({"seed": 1, "model": model, "experiment": {"kind": "check"}}))
    report = check_model(parse_config_file(str(config)).model)
    assert report.verdicts["stationarity"] == analysis.Verdict(FAILS, boundary=True)
    assert not any(i["conclusion"].startswith("a unique stationary") for i in report.implications)
    with pytest.raises(StationarityError, match=r"bracket \[[0-9.e+-]+, [0-9.e+-]+\] is not below 1"):
        linalg.stationary_mean([1.0, 1.0], matrix)
    assert cli.main(["check", "--config", str(config), "--strict", "--out", str(tmp_path / "out")]) == 2

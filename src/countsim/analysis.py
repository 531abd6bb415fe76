"""Machine-checked stability conditions and closed-form Poisson oracles.

Each checker evaluates the named scalar diagnostics of a model (spectral
radii and operator norms of summed coefficient matrices), decides each
condition's verdict and lists the conclusions the holding conditions
license.  One rule decides every ``< 1`` condition, on a spectral radius or
a norm: it holds only when the value's certified :class:`linalg.Bracket`
lies below 1, and a bracket that contains 1 fails and is flagged
``boundary``, as :func:`linalg.stationary_mean` and ``--strict`` also decide.
A norm's bracket covers the rounding of its float sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import Problems, checked_array, checked_int
from .models import GinarSpec, IngarchSpec, LogLinearSpec, ModelSpec

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not_applicable"

_STIRLING_MAX = 30


@dataclass(frozen=True)
class Verdict:
    """A condition's status: a ``< 1`` condition holds only when its certified
    bracket lies below 1, and ``boundary`` means the bracket contains 1."""

    status: str
    boundary: bool = False

    @classmethod
    def below_one(cls, bracket: linalg.Bracket) -> Verdict:
        return cls(HOLDS if bracket.below_one else FAILS, bracket.boundary)


@dataclass(frozen=True)
class Diagnostic:
    """A named scalar together with the matrix it was computed from, or None."""

    value: float
    matrix: list | None


@dataclass
class ConditionReport:
    """Evaluated diagnostics plus a verdict for every checked condition."""

    model_kind: str
    computed: dict[str, Diagnostic]
    verdicts: dict[str, Verdict]
    implications: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def holds(self, name: str) -> bool:
        return self.verdicts[name].status == HOLDS

    def format_table(self) -> str:
        lines = [f"condition report ({self.model_kind})"]
        lines.append("  diagnostics:")
        for name, diag in self.computed.items():
            lines.append(f"    {name:<24} {diag.value:.10g}")
        lines.append("  verdicts:")
        for name, verdict in self.verdicts.items():
            suffix = "  [boundary]" if verdict.boundary else ""
            lines.append(f"    {name:<24} {verdict.status}{suffix}")
        if self.implications:
            lines.append("  implications:")
            for imp in self.implications:
                lines.append(f"    {imp['conclusion']}  (from {imp['condition']})")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _lag_sum(*families) -> np.ndarray:
    """``sum_i (F_i + G_i + ...)`` over the lags, added as ``((F_1 + G_1) + F_2) + G_2``."""
    terms = [m for lag in zip(*families) for m in lag]
    return sum(terms[1:], terms[0])


def _norm_sum(spec: IngarchSpec, kind: str) -> float:
    """Sum of the ``kind`` norms of all ``A_i``, then of all ``B_i``."""
    return sum(linalg.matrix_norm(a, kind) for a in spec.lambda_matrices) \
        + sum(linalg.matrix_norm(b, kind) for b in spec.count_matrices)


_SOLUTION = "a unique stationary, non-anticipative, integrable solution exists"
_EXP_MOMENTS = "some delta > 0 gives finite E exp(delta |Y_0|_1) and E exp(delta |lambda_0|_1)"

# (model kind, verdict, conclusion, condition): a holding verdict licenses the
# conclusion, listed in this order.
_LICENSES = (
    ("ginar", "stationarity", _SOLUTION, "rho(sum of thinning mean matrices) < 1"),
    ("ginar", "stationarity", "E |X_0|_1^r is finite for every r > 1",
     "stationarity plus finite moments of the counting and immigration families"),
    ("ingarch", "stationarity", _SOLUTION, "rho(sum(A_i + B_i)) < 1"),
    ("ingarch", "stationarity", "E |Y_t|_1^r is finite for every r > 1", "rho(sum(A_i + B_i)) < 1"),
    ("ingarch", "exp_moment_l1", _EXP_MOMENTS, "sum of l1 norms of all A_i, B_i < 1"),
    ("ingarch", "exp_moment_linf", _EXP_MOMENTS, "linf norm of sum(A_i + B_i) < 1"),
    ("ingarch", "necessity_applicable",
     "conversely, existence of a stationary integrable solution forces rho(sum(A_i + B_i)) < 1",
     "all components of the intensity offset are positive"),
    ("loglinear", "stationarity", _SOLUTION, "rho(sum(|A_i| + |B_i|)) < 1, entrywise absolute values"),
    ("loglinear", "exp_moments", _EXP_MOMENTS, "linf norm of sum(|A_i| + |B_i|) < 1"),
)


def _report(kind: str, computed: dict, verdicts: dict, notes: list[str]) -> ConditionReport:
    implications = [{"conclusion": conclusion, "condition": condition}
                    for family, name, conclusion, condition in _LICENSES
                    if family == kind and verdicts[name].status == HOLDS]
    return ConditionReport(kind, computed, verdicts, implications, notes)


def check_model(spec: ModelSpec) -> ConditionReport:
    """Dispatch to the family-specific checker."""
    if isinstance(spec, GinarSpec):
        return check_ginar(spec)
    if isinstance(spec, IngarchSpec):
        return check_ingarch(spec)
    return check_loglinear(spec)


def check_ginar(spec: GinarSpec) -> ConditionReport:
    """Stationarity and moment conditions of the thinning model."""
    total = _lag_sum(spec.mean_matrices)
    rho = linalg.certified_radius(total)
    computed = {"rho_sum_means": Diagnostic(rho.value, total.tolist())}
    verdicts = {
        "stationarity": Verdict.below_one(rho),
        # Built-in counting and immigration families all have finite moments
        # of every order, so the moment hypothesis holds by construction.
        "higher_order_moments": Verdict(HOLDS),
    }
    notes = [
        f"counting family '{spec.counting_family}' and immigration family "
        f"'{spec.immigration.family}' have finite moments of every order",
    ]
    return _report("ginar", computed, verdicts, notes)


def check_ingarch(spec: IngarchSpec) -> ConditionReport:
    """Stationarity, polynomial-moment and exponential-moment conditions."""
    total = _lag_sum(spec.lambda_matrices, spec.count_matrices)
    rho = linalg.certified_radius(total)
    # Float sums: linf adds p terms per row; l1_sum p per column, then 2q norms.
    linf = linalg.sum_bracket(linalg.matrix_norm(total, "linf"), spec.p)
    l1_sum = linalg.sum_bracket(_norm_sum(spec, "l1"), spec.p + 2 * spec.q)
    min_d = float(spec.intensity_offset.min())

    computed = {
        "rho_sum_AB": Diagnostic(rho.value, total.tolist()),
        "l1_sum_norms": Diagnostic(l1_sum.value, None),
        "linf_sum": Diagnostic(linf.value, total.tolist()),
        # Informational only: no verdict attaches to the l2 diagnostic.
        "l2_sum_norms": Diagnostic(_norm_sum(spec, "l2"), None),
        "min_offset": Diagnostic(min_d, spec.intensity_offset.tolist()),
    }
    verdicts = {
        "stationarity": Verdict.below_one(rho),
        "polynomial_moments": Verdict.below_one(rho),
        "exp_moment_l1": Verdict.below_one(l1_sum),
        "exp_moment_linf": Verdict.below_one(linf),
        "necessity_applicable": Verdict(HOLDS if min_d > 0 else NOT_APPLICABLE),
    }
    notes = []
    if verdicts["stationarity"].status == HOLDS \
            and verdicts["exp_moment_l1"].status == FAILS \
            and verdicts["exp_moment_linf"].status == FAILS and spec.p > 1:
        notes.append(
            "stationarity holds but neither norm criterion for exponential moments does; "
            "in dimension > 1 it is an open question whether the spectral-radius condition "
            "alone gives finite exponential moments"
        )
    return _report("ingarch", computed, verdicts, notes)


def check_loglinear(spec: LogLinearSpec) -> ConditionReport:
    """Conditions on the entrywise absolute values of the coefficients."""
    total = _lag_sum(np.abs(spec.mu_matrices), np.abs(spec.logcount_matrices))
    rho = linalg.certified_radius(total)
    linf = linalg.sum_bracket(linalg.matrix_norm(total, "linf"), spec.p)
    computed = {
        "rho_sum_abs": Diagnostic(rho.value, total.tolist()),
        "linf_sum_abs": Diagnostic(linf.value, total.tolist()),
    }
    verdicts = {
        "stationarity": Verdict.below_one(rho),
        "exp_moments": Verdict.below_one(linf),
    }
    return _report("loglinear", computed, verdicts, [])


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k), exactly.

    Computed by the recurrence ``S(n, k) = k S(n-1, k) + S(n-1, k-1)``;
    restricted to integers ``1 <= n <= 30`` to stay in the exact integer range.
    """
    problems = Problems()
    checked_int(n, "n", problems)
    checked_int(k, "k", problems)
    problems.raise_if_any()
    if not 1 <= n <= _STIRLING_MAX:
        raise ValueError(f"n must lie in [1, {_STIRLING_MAX}], got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}], got {k}")
    row = [0, 1]  # S(1, 0), S(1, 1)
    for m in range(2, n + 1):
        new = [0] * (m + 1)
        for i in range(1, m + 1):
            new[i] = i * row[i] + row[i - 1] if i < len(row) else row[i - 1]
        row = new
    return row[k]


def poisson_raw_moment(lam: float, r: int) -> float:
    """r-th raw moment of Poisson(lam): sum over i of lam^i S(r, i).

    A moment past the double range is ``inf``, as an overflowing estimate of
    :func:`engine.monte_carlo_moments` is.
    """
    problems = Problems()
    lam = checked_array(lam, (), "lam", problems, "nonnegative")
    checked_int(r, "r", problems)
    problems.raise_if_any()
    if not 1 <= r <= _STIRLING_MAX:
        raise ValueError(f"moment order must lie in [1, {_STIRLING_MAX}], got {r}")
    try:
        return float(sum(float(lam)**i * stirling2(r, i) for i in range(1, r + 1)))
    except OverflowError:  # lam^i past the double range; every term is nonnegative
        return math.inf


def poisson_mgf(lam: float, delta: float) -> float:
    """log E exp(delta X) for X ~ Poisson(lam), i.e. lam (e^delta - 1).

    Exactly 0.0 at ``lam = 0`` for every ``delta``; ``inf`` past the double range.
    """
    problems = Problems()
    lam = checked_array(lam, (), "lam", problems, "nonnegative")
    delta = checked_array(delta, (), "delta", problems, "real")
    problems.raise_if_any()
    if lam == 0.0:
        return 0.0
    try:
        return float(lam) * (math.exp(delta) - 1.0)
    except OverflowError:  # e^delta past the double range, and lam > 0
        return math.inf

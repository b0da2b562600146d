"""Evaluation statistics: binomial logistic regression with fixed effects,
adjusted-mean linear regression, the chi-square independence test, and the
precision-table assembly.

Logistic models are fit by IRLS (Newton) with a step-halving guard that keeps
the log-likelihood non-decreasing; inference is Wald throughout (standard
errors from the inverse observed information). Reference categories are fixed
to the first city and high risk; odds ratios are invariant to that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, NumericalError, ReferentialError
from .logdata import InspectionRecord, Outcome, RestaurantRecord, RiskLevel, Trigger

MAX_IRLS_ITERATIONS = 25
IRLS_TOL = 1e-8
BETA_BOUND = 15.0
Z_95 = 1.96

GROUP_COLUMN = "group"


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    data: np.ndarray  # (n, p), first column is the intercept
    columns: tuple[str, ...]

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[1] != len(self.columns):
            raise DataError("design matrix shape does not match column names")
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def column(self, name: str) -> int:
        return self.columns.index(name)


@dataclass(frozen=True)
class RegressionFit:
    columns: tuple[str, ...]
    coefficients: tuple[float, ...]
    standard_errors: tuple[float, ...]
    odds_ratio: float
    ci95: tuple[float, float]
    p_value: float
    converged: bool
    iterations: int
    ll_trace: tuple[float, ...] = ()


@dataclass(frozen=True)
class LinearFit:
    columns: tuple[str, ...]
    coefficients: tuple[float, ...]
    group_se: float
    group_p_value: float
    adjusted_means: tuple[float, float]  # group 0, group 1
    n: int

    @property
    def adjusted_gap(self) -> float:
        return self.adjusted_means[1] - self.adjusted_means[0]


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    p_value: float


def _collinear_columns(data: np.ndarray, columns: Sequence[str]) -> list[str]:
    """Columns that add no rank when appended left to right."""
    offenders = []
    rank = 0
    for j in range(data.shape[1]):
        new_rank = np.linalg.matrix_rank(data[:, : j + 1])
        if new_rank == rank:
            offenders.append(columns[j])
        rank = new_rank
    return offenders


def _check_full_rank(X: DesignMatrix) -> None:
    if np.linalg.matrix_rank(X.data) < len(X.columns):
        offenders = _collinear_columns(X.data, X.columns)
        raise NumericalError(f"design matrix is rank deficient: collinear columns {offenders}")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _log_likelihood(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    z = X @ beta
    return float(np.sum(y * z - np.logaddexp(0.0, z)))


def wald_p_value(z: float) -> float:
    """Two-sided p for a standard normal Wald statistic."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def fit_binomial_logit(
    X: DesignMatrix,
    y: Sequence[int],
    group: str = GROUP_COLUMN,
) -> RegressionFit:
    """Newton / IRLS fit of a binomial logistic regression.

    Convergence is max |step| < 1e-8 within 25 iterations; a parameter
    escaping |beta| > 15 aborts with a quasi-separation error rather than
    returning a silently unstable fit.
    """
    y = np.asarray(y, dtype=float)
    if set(np.unique(y)) - {0.0, 1.0}:
        raise DataError("outcomes must be binary 0/1")
    if y.min() == y.max():
        raise DataError("outcomes contain a single class")
    if len(y) != X.n:
        raise DataError("outcome length does not match design matrix")
    _check_full_rank(X)

    data = X.data
    beta = np.zeros(len(X.columns))
    ll = _log_likelihood(data, y, beta)
    ll_trace = [ll]
    converged = False
    iterations = 0
    for _ in range(MAX_IRLS_ITERATIONS):
        iterations += 1
        mu = _sigmoid(data @ beta)
        w = mu * (1.0 - mu)
        info = data.T @ (data * w[:, None])
        score = data.T @ (y - mu)
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"information matrix is singular: {exc}") from exc
        # halve the Newton step until the log-likelihood does not decrease
        for _ in range(40):
            candidate = beta + step
            new_ll = _log_likelihood(data, y, candidate)
            if new_ll >= ll - 1e-12:
                break
            step = step / 2.0
        beta = beta + step
        ll = _log_likelihood(data, y, beta)
        ll_trace.append(ll)
        if np.max(np.abs(beta)) > BETA_BOUND:
            raise NumericalError("quasi-separation")
        if np.max(np.abs(step)) < IRLS_TOL:
            converged = True
            break

    mu = _sigmoid(data @ beta)
    w = mu * (1.0 - mu)
    info = data.T @ (data * w[:, None])
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"information matrix is singular: {exc}") from exc
    se = np.sqrt(np.diag(cov))

    g = X.column(group)
    beta_g, se_g = float(beta[g]), float(se[g])
    return RegressionFit(
        columns=X.columns,
        coefficients=tuple(float(b) for b in beta),
        standard_errors=tuple(float(s) for s in se),
        odds_ratio=math.exp(beta_g),
        ci95=(math.exp(beta_g - Z_95 * se_g), math.exp(beta_g + Z_95 * se_g)),
        p_value=wald_p_value(beta_g / se_g),
        converged=converged,
        iterations=iterations,
        ll_trace=tuple(ll_trace),
    )


def adjusted_means_linear(
    X: DesignMatrix,
    y: Sequence[float],
    group: str = GROUP_COLUMN,
) -> LinearFit:
    """Ordinary least squares with marginally standardized group means.

    The adjusted mean for group g is the average model prediction over the
    pooled sample with every row's group indicator set to g.
    """
    y = np.asarray(y, dtype=float)
    if len(y) != X.n:
        raise DataError("outcome length does not match design matrix")
    _check_full_rank(X)
    data = X.data
    beta, _, _, _ = np.linalg.lstsq(data, y, rcond=None)

    g = X.column(group)
    means = []
    for value in (0.0, 1.0):
        forced = data.copy()
        forced[:, g] = value
        means.append(float(np.mean(forced @ beta)))

    resid = y - data @ beta
    dof = X.n - len(X.columns)
    if dof > 0:
        sigma2 = float(resid @ resid) / dof
        cov = sigma2 * np.linalg.inv(data.T @ data)
        se_g = math.sqrt(cov[g, g])
        p = wald_p_value(beta[g] / se_g) if se_g > 0 else float("nan")
    else:
        se_g, p = float("nan"), float("nan")
    return LinearFit(
        columns=X.columns,
        coefficients=tuple(float(b) for b in beta),
        group_se=se_g,
        group_p_value=p,
        adjusted_means=(means[0], means[1]),
        n=X.n,
    )


def _regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) by series / continued
    fraction, accurate to near machine precision for the dof used here."""
    if a <= 0:
        raise ValueError("a must be positive")
    if x < 0:
        raise ValueError("x must be non-negative")
    if x == 0.0:
        return 1.0
    log_prefactor = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1.0:
        # lower series: P(a, x) = x^a e^-x / Gamma(a) * sum x^n / (a)_{n+1}
        term = 1.0 / a
        total = term
        denom = a
        for _ in range(1000):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * 1e-17:
                break
        return 1.0 - total * math.exp(log_prefactor)
    # Lentz continued fraction for Q(a, x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return h * math.exp(log_prefactor)


def chi_square_upper_tail(statistic: float, dof: int) -> float:
    if dof < 1:
        raise ValueError("dof must be >= 1")
    return _regularized_gamma_q(dof / 2.0, statistic / 2.0)


def chi_square_independence(table: Sequence[Sequence[float]]) -> ChiSquareResult:
    """Pearson chi-square test of independence on an r x c count table."""
    counts = np.asarray(table, dtype=float)
    if counts.ndim != 2 or counts.shape[0] < 2 or counts.shape[1] < 2:
        raise DataError("need an r x c table with r, c >= 2")
    if (counts < 0).any():
        raise DataError("counts must be non-negative")
    total = counts.sum()
    expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / total
    if (expected <= 0).any():
        raise DataError("expected cell counts must all be positive")
    statistic = float(((counts - expected) ** 2 / expected).sum())
    dof = (counts.shape[0] - 1) * (counts.shape[1] - 1)
    return ChiSquareResult(
        statistic=statistic, dof=dof, p_value=chi_square_upper_tail(statistic, dof)
    )


# --- precision table ---------------------------------------------------------

COMPARISONS = (
    ("FINDER_vs_BASELINE", lambda t: t != Trigger.FINDER),
    ("FINDER_vs_COMPLAINT", lambda t: t == Trigger.COMPLAINT),
    ("FINDER_vs_ROUTINE", lambda t: t == Trigger.ROUTINE),
)

STRATA = ("overall", RiskLevel.HIGH.value, RiskLevel.MEDIUM.value, RiskLevel.LOW.value)


@dataclass(frozen=True)
class PrecisionRow:
    comparison: str
    stratum: str
    n_finder: int
    unsafe_finder: int
    n_other: int
    unsafe_other: int
    fit: RegressionFit | None
    fit_note: str = ""

    @property
    def pct_finder(self) -> float:
        return self.unsafe_finder / self.n_finder if self.n_finder else 0.0

    @property
    def pct_other(self) -> float:
        return self.unsafe_other / self.n_other if self.n_other else 0.0


@dataclass(frozen=True)
class PrecisionTable:
    rows: tuple[PrecisionRow, ...]
    group_sizes: dict[str, int]


def build_design_matrix(
    group_flags: Sequence[int],
    cities: Sequence[str],
    risks: Sequence[RiskLevel] | None,
) -> DesignMatrix:
    """Intercept, group indicator, city dummies (first observed city is the
    reference), and risk dummies (high risk is the reference). Dummy columns
    exist only for levels observed in the data."""
    n = len(group_flags)
    columns = ["intercept", GROUP_COLUMN]
    blocks = [np.ones(n), np.asarray(group_flags, dtype=float)]
    for city in sorted(set(cities))[1:]:
        columns.append(f"city_{city}")
        blocks.append(np.array([1.0 if c == city else 0.0 for c in cities]))
    if risks is not None:
        present = {r for r in risks}
        for level in (RiskLevel.MEDIUM, RiskLevel.LOW):
            if level in present:
                columns.append(f"risk_{level.value}")
                blocks.append(np.array([1.0 if r == level else 0.0 for r in risks]))
    return DesignMatrix(data=np.column_stack(blocks), columns=tuple(columns))


def precision_table(
    inspections: Sequence[InspectionRecord],
    registry: Mapping[str, RestaurantRecord],
) -> PrecisionTable:
    """Unsafe rates and adjusted odds ratios per trigger comparison and risk
    stratum. Comparisons that cannot be fit (empty stratum, single outcome
    class, separation) carry a note instead of an odds ratio."""
    missing = sorted({i.restaurant_id for i in inspections} - set(registry))
    if missing:
        raise ReferentialError(f"inspections reference unknown restaurants: {', '.join(missing)}")

    def risk_of(rec: InspectionRecord) -> RiskLevel:
        return registry[rec.restaurant_id].risk_level

    def city_of(rec: InspectionRecord) -> str:
        return registry[rec.restaurant_id].city

    group_sizes = {
        "FINDER": sum(1 for i in inspections if i.trigger == Trigger.FINDER),
        "BASELINE": sum(1 for i in inspections if i.trigger != Trigger.FINDER),
        "COMPLAINT": sum(1 for i in inspections if i.trigger == Trigger.COMPLAINT),
        "ROUTINE": sum(1 for i in inspections if i.trigger == Trigger.ROUTINE),
    }

    rows: list[PrecisionRow] = []
    for name, other_pred in COMPARISONS:
        for stratum in STRATA:
            def in_stratum(rec: InspectionRecord) -> bool:
                return stratum == "overall" or risk_of(rec).value == stratum

            finder = [i for i in inspections if i.trigger == Trigger.FINDER and in_stratum(i)]
            other = [i for i in inspections if other_pred(i.trigger) and in_stratum(i)]
            unsafe_f = sum(1 for i in finder if i.outcome == Outcome.UNSAFE)
            unsafe_o = sum(1 for i in other if i.outcome == Outcome.UNSAFE)

            fit = None
            note = ""
            if not finder or not other:
                note = "empty group"
            else:
                pooled = finder + other
                X = build_design_matrix(
                    group_flags=[1] * len(finder) + [0] * len(other),
                    cities=[city_of(i) for i in pooled],
                    risks=[risk_of(i) for i in pooled] if stratum == "overall" else None,
                )
                y = [1 if i.outcome == Outcome.UNSAFE else 0 for i in pooled]
                try:
                    fit = fit_binomial_logit(X, y)
                except (DataError, NumericalError) as exc:
                    note = str(exc)
            rows.append(
                PrecisionRow(
                    comparison=name,
                    stratum=stratum,
                    n_finder=len(finder),
                    unsafe_finder=unsafe_f,
                    n_other=len(other),
                    unsafe_other=unsafe_o,
                    fit=fit,
                    fit_note=note,
                )
            )
    return PrecisionTable(rows=tuple(rows), group_sizes=group_sizes)

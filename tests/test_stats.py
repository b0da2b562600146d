import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foodwatch.errors import DataError, NumericalError, ReferentialError
from foodwatch.logdata import (
    InspectionRecord,
    Outcome,
    RestaurantRecord,
    RiskLevel,
    Trigger,
)
from foodwatch.report import PRECISION_HEADER
from foodwatch.seeding import make_rng
from oracles import chi2_sf_quadrature, crossproduct_oracle

from foodwatch.stats import (
    DesignMatrix,
    adjusted_means_linear,
    build_design_matrix,
    chi_square_independence,
    chi_square_upper_tail,
    fit_binomial_logit,
    precision_table,
    wald_p_value,
)

ROOT = Path(__file__).resolve().parents[1]


def design_2x2(a, b, c, d):
    """Group rows (a unsafe, b safe) vs comparison rows (c unsafe, d safe)."""
    g = [1] * (a + b) + [0] * (c + d)
    y = [1] * a + [0] * b + [1] * c + [0] * d
    X = DesignMatrix(np.column_stack([np.ones(len(g)), g]), ("intercept", "group"))
    return X, y


# --- binomial logit ----------------------------------------------------------


def test_identical_groups_give_null_odds_ratio():
    X, y = design_2x2(30, 70, 30, 70)
    fit = fit_binomial_logit(X, y)
    assert abs(fit.odds_ratio - 1.0) < 1e-9
    assert fit.p_value > 0.999


def test_overall_2x2_matches_closed_form():
    X, y = design_2x2(69, 63, 2662, 8124)
    fit = fit_binomial_logit(X, y)
    or_ref, ci_ref = crossproduct_oracle(69, 63, 2662, 8124)
    assert abs(fit.odds_ratio - or_ref) < 1e-6
    assert abs(fit.ci95[0] - ci_ref[0]) < 1e-6
    assert abs(fit.ci95[1] - ci_ref[1]) < 1e-6
    assert abs(fit.odds_ratio - 3.342) < 5e-3
    assert fit.converged and fit.p_value < 0.001


def test_complaint_2x2_matches_closed_form():
    X, y = design_2x2(37, 34, 508, 783)
    fit = fit_binomial_logit(X, y)
    or_ref, _ = crossproduct_oracle(37, 34, 508, 783)
    assert abs(fit.odds_ratio - or_ref) < 1e-6
    assert abs(fit.odds_ratio - 1.677) < 5e-3


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[st.integers(5, 400)] * 4))
def test_random_2x2_matches_closed_form(cells):
    a, b, c, d = cells
    X, y = design_2x2(a, b, c, d)
    fit = fit_binomial_logit(X, y)
    or_ref, ci_ref = crossproduct_oracle(a, b, c, d)
    assert abs(fit.odds_ratio - or_ref) < 1e-6 * max(1.0, or_ref)
    assert abs(fit.ci95[0] - ci_ref[0]) < 1e-6 * max(1.0, ci_ref[0])
    assert abs(fit.ci95[1] - ci_ref[1]) < 1e-6 * max(1.0, ci_ref[1])


def test_log_likelihood_non_decreasing():
    rng = make_rng(3, "ll")
    n = 400
    x1 = rng.random(n)
    g = (rng.random(n) < 0.4).astype(float)
    z = -0.5 + 1.2 * g + 0.8 * x1
    y = (rng.random(n) < 1 / (1 + np.exp(-z))).astype(int)
    X = DesignMatrix(np.column_stack([np.ones(n), g, x1]), ("intercept", "group", "x1"))
    fit = fit_binomial_logit(X, y)
    trace = fit.ll_trace
    assert all(trace[i + 1] >= trace[i] - 1e-9 for i in range(len(trace) - 1))


def test_rank_deficiency_names_offending_column():
    n = 40
    g = np.array([1.0] * 20 + [0.0] * 20)
    X = DesignMatrix(
        np.column_stack([np.ones(n), g, g.copy()]), ("intercept", "group", "group_copy")
    )
    y = [1, 0] * 20
    with pytest.raises(NumericalError, match="group_copy"):
        fit_binomial_logit(X, y)


def test_quasi_separation_detected():
    X, y = design_2x2(40, 0, 0, 40)  # perfectly separated
    with pytest.raises(NumericalError, match="quasi-separation"):
        fit_binomial_logit(X, y)


def test_single_class_outcomes_rejected():
    X = DesignMatrix(np.column_stack([np.ones(10), [1] * 5 + [0] * 5]), ("intercept", "group"))
    with pytest.raises(DataError, match="single class"):
        fit_binomial_logit(X, [1] * 10)


@pytest.mark.parametrize("bad", [2, -1, 0.5, float("nan")])
def test_non_binary_outcomes_rejected(bad):
    X, y = design_2x2(10, 10, 10, 10)
    y = list(y)
    y[3] = bad
    with pytest.raises(DataError, match="binary"):
        fit_binomial_logit(X, y)


def test_logit_fit_imports_no_masked_arrays():
    # np.unique without return_* options imports numpy.ma, 1.25 MB of RSS
    # that the evaluate stage would carry for its binary check
    code = (
        "import sys\n"
        "from foodwatch.stats import DesignMatrix, fit_binomial_logit\n"
        "import numpy as np\n"
        "g = np.array([1.0] * 20 + [0.0] * 20)\n"
        "X = DesignMatrix(np.column_stack([np.ones(40), g]), ('intercept', 'group'))\n"
        "assert fit_binomial_logit(X, [1, 0, 0, 1] * 10).converged\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_wald_p_value_reference():
    assert wald_p_value(1.959963984540054) == pytest.approx(0.05, abs=1e-9)
    assert wald_p_value(0.0) == 1.0


# --- adjusted means ----------------------------------------------------------


def test_adjusted_means_equal_raw_means_without_covariates():
    y = [2.0, 3.0, 4.0, 10.0, 12.0]
    g = [0, 0, 0, 1, 1]
    X = DesignMatrix(np.column_stack([np.ones(5), g]), ("intercept", "group"))
    fit = adjusted_means_linear(X, y)
    assert fit.adjusted_means[0] == pytest.approx(3.0, abs=1e-10)
    assert fit.adjusted_means[1] == pytest.approx(11.0, abs=1e-10)


def test_ols_matches_normal_equations():
    rng = make_rng(7, "ols")
    X_data = np.column_stack([np.ones(5), rng.random(5), rng.random(5)])
    y = rng.random(5)
    X = DesignMatrix(X_data, ("intercept", "group", "x"))
    fit = adjusted_means_linear(X, y)
    beta_ref = np.linalg.solve(X_data.T @ X_data, X_data.T @ y)
    assert np.allclose(fit.coefficients, beta_ref, atol=1e-10)


def test_planted_adjusted_gap_recovered_despite_confounding():
    rng = make_rng(11, "planted")
    runs = 200
    gaps, raw_gaps = [], []
    risk_effect = {0: 1.0, 1: 0.5, 2: 0.2}
    for _ in range(runs):
        n = 600
        g = (rng.random(n) < 0.3).astype(int)
        # group 1 skews to risk level 0, which also has higher counts
        risk = np.where(
            rng.random(n) < np.where(g == 1, 0.7, 0.3), 0, rng.integers(1, 3, size=n)
        )
        mean = np.vectorize(risk_effect.get)(risk) + 0.2 * g
        y = rng.poisson(mean)
        cols = [np.ones(n), g, (risk == 1).astype(float), (risk == 2).astype(float)]
        X = DesignMatrix(np.column_stack(cols), ("intercept", "group", "risk_1", "risk_2"))
        fit = adjusted_means_linear(X, y)
        gaps.append(fit.adjusted_means[1] - fit.adjusted_means[0])
        raw_gaps.append(y[g == 1].mean() - y[g == 0].mean())
    assert abs(np.mean(gaps) - 0.2) < 0.05
    assert abs(np.mean(raw_gaps) - 0.2) > 0.1  # the unadjusted gap is biased


# --- chi-square --------------------------------------------------------------


def test_identical_rows_give_zero_statistic():
    result = chi_square_independence([[10, 20, 30], [10, 20, 30]])
    assert result.statistic == pytest.approx(0.0, abs=1e-12)
    assert result.p_value == pytest.approx(1.0)


def test_risk_distribution_counts_are_significant():
    result = chi_square_independence([[84, 39, 9], [5702, 2325, 2759]])
    assert result.dof == 2
    assert result.p_value < 0.001


def test_upper_tail_matches_quadrature_oracle():
    for dof in range(1, 6):
        for x in (0.3, 1.0, 2.5, 7.7, 15.0):
            mine = chi_square_upper_tail(x, dof)
            ref = chi2_sf_quadrature(x, dof)
            assert abs(mine - ref) < 1e-8, (dof, x, mine, ref)


def test_chi_square_invariant_under_permutations():
    table = [[12, 7, 31], [5, 22, 9]]
    base = chi_square_independence(table).statistic
    swapped_rows = chi_square_independence(table[::-1]).statistic
    swapped_cols = chi_square_independence([r[::-1] for r in table]).statistic
    assert base == pytest.approx(swapped_rows, abs=1e-12)
    assert base == pytest.approx(swapped_cols, abs=1e-12)


def test_zero_expected_count_rejected():
    with pytest.raises(DataError, match="expected"):
        chi_square_independence([[0, 10], [0, 20]])


# --- precision table ---------------------------------------------------------


def registry_for(n, city="A", risk=RiskLevel.HIGH):
    return {
        f"r{i}": RestaurantRecord(f"r{i}", city, risk) for i in range(n)
    }


def inspection(rid, trigger, unsafe, when=date(2016, 6, 1)):
    return InspectionRecord(
        rid, when, trigger, Outcome.UNSAFE if unsafe else Outcome.SAFE, 0, 0
    )


def precision_rows(inspections, registry):
    """``precision_table`` rows as dicts keyed by ``PRECISION_HEADER`` name."""
    return [dict(zip(PRECISION_HEADER, row, strict=True)) for row in precision_table(inspections, registry)]


def test_paper_counts_reproduce_fractions_exactly():
    registry = registry_for(1)
    rows = []
    rows += [inspection("r0", Trigger.FINDER, True) for _ in range(69)]
    rows += [inspection("r0", Trigger.FINDER, False) for _ in range(63)]
    rows += [inspection("r0", Trigger.ROUTINE, True) for _ in range(2662)]
    rows += [inspection("r0", Trigger.ROUTINE, False) for _ in range(8124)]
    table = precision_rows(rows, registry)
    overall = next(
        r for r in table if r["comparison"] == "FINDER_vs_BASELINE" and r["stratum"] == "overall"
    )
    assert overall["n_finder"] == 132 and overall["unsafe_finder"] == 69
    assert overall["n_other"] == 10786 and overall["unsafe_other"] == 2662
    assert round(overall["pct_finder"], 1) == 52.3
    assert round(overall["pct_other"], 1) == 24.7
    assert overall["odds_ratio"] is not None
    assert abs(overall["odds_ratio"] - 3.342) < 5e-3


def test_group_counts_match_bruteforce_groupby():
    rng = make_rng(13, "pt")
    registry = {}
    cities = ("A", "B")
    risks = (RiskLevel.HIGH, RiskLevel.MEDIUM, RiskLevel.LOW)
    for i in range(50):
        registry[f"r{i}"] = RestaurantRecord(
            f"r{i}", cities[int(rng.integers(2))], risks[int(rng.integers(3))]
        )
    triggers = (Trigger.FINDER, Trigger.ROUTINE, Trigger.COMPLAINT)
    rows = [
        inspection(
            f"r{int(rng.integers(50))}",
            triggers[int(rng.integers(3))],
            bool(rng.random() < 0.3),
        )
        for _ in range(1000)
    ]
    table = precision_rows(rows, registry)
    overall = next(r for r in table if (r["comparison"], r["stratum"]) == ("FINDER_vs_BASELINE", "overall"))
    assert overall["n_finder"] + overall["n_other"] == 1000
    for row in table:
        in_stratum = lambda r: (
            row["stratum"] == "overall"
            or registry[r.restaurant_id].risk_level.value == row["stratum"]
        )
        finder = [r for r in rows if r.trigger == Trigger.FINDER and in_stratum(r)]
        assert row["n_finder"] == len(finder)
        assert row["unsafe_finder"] == sum(r.outcome is Outcome.UNSAFE for r in finder)
        if row["comparison"] == "FINDER_vs_COMPLAINT":
            other = [r for r in rows if r.trigger == Trigger.COMPLAINT and in_stratum(r)]
            assert row["n_other"] == len(other)


def test_all_safe_outcomes_leave_fit_absent():
    registry = registry_for(2)
    rows = [inspection("r0", Trigger.FINDER, False)] * 5 + [
        inspection("r1", Trigger.ROUTINE, False)
    ] * 5
    table = precision_rows(rows, registry)
    for row in table:
        assert row["odds_ratio"] is None
        if row["n_finder"] and row["n_other"]:
            assert "single class" in row["note"]


def test_empty_stratum_rows_emitted_with_zero_counts():
    registry = registry_for(2)  # all high risk
    rows = [inspection("r0", Trigger.FINDER, True), inspection("r1", Trigger.ROUTINE, False)]
    table = precision_rows(rows, registry)
    low = next(
        r for r in table if r["comparison"] == "FINDER_vs_BASELINE" and r["stratum"] == "low"
    )
    assert low["n_finder"] == 0 and low["n_other"] == 0 and low["odds_ratio"] is None


def test_unknown_inspection_restaurant_rejected():
    with pytest.raises(ReferentialError, match="rX"):
        precision_table([inspection("rX", Trigger.FINDER, True)], registry_for(1))


def test_design_matrix_reference_levels():
    X = build_design_matrix(
        [1, 0, 0, 1],
        ["A", "B", "A", "B"],
        [RiskLevel.HIGH, RiskLevel.MEDIUM, RiskLevel.LOW, RiskLevel.HIGH],
    )
    assert X.columns == ("intercept", "group", "city_B", "risk_medium", "risk_low")
    assert X.data.shape == (4, 5)

"""Acceptance suite.

One test per acceptance criterion, each printing a pass line on success.
Exact oracles run at tight tolerances; simulator-backed criteria use the
shipped default configuration and the stated desk-scale bands.
"""

import itertools
import math
import re
import time

import numpy as np

from foodwatch.citysim import SimConfig, planted_exposures, simulate_raters
from foodwatch.config import RunConfig
from foodwatch.features import DIM, FeatureRows, featurize
from foodwatch.locmodel import Period, aggregate_restaurants, attribute_sources, link_exposures
from foodwatch.logdata import Outcome
from foodwatch.pipeline import (
    compute_daily_lists,
    compute_exposures,
    compute_finder_inspections,
    compute_model,
    compute_simulation,
    run_pipeline,
)
from foodwatch.privacy import PrivacyPolicy, cap_contributions, release
from foodwatch.raters import JudgmentMatrix, krippendorff_alpha, majority_labels
from foodwatch.seeding import make_rng
from foodwatch.stats import (
    DesignMatrix,
    chi_square_independence,
    chi_square_upper_tail,
    fit_binomial_logit,
)
from foodwatch.wsm import loss_and_gradient, roc_auc

from conftest import query
from oracles import (
    alpha_pairwise_oracle,
    auc_pairwise_oracle,
    chi2_sf_quadrature,
    crossproduct_oracle,
    vote_majority_oracle,
)

def _passed(n, name):
    print(f"[acceptance {n}] {name}: PASS")


def _fit_2x2(a, b, c, d):
    g = [1] * (a + b) + [0] * (c + d)
    y = [1] * a + [0] * b + [1] * c + [0] * d
    X = DesignMatrix(np.column_stack([np.ones(len(g)), g]), ("intercept", "group"))
    return fit_binomial_logit(X, y)


def test_criterion_1_regression_oracle():
    start = time.perf_counter()
    fit_a = _fit_2x2(69, 63, 2662, 8124)
    fit_b = _fit_2x2(37, 34, 508, 783)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0

    or_a, ci_a = crossproduct_oracle(69, 63, 2662, 8124)
    assert abs(fit_a.odds_ratio - or_a) < 1e-6
    assert abs(fit_a.ci95[0] - ci_a[0]) < 1e-6 and abs(fit_a.ci95[1] - ci_a[1]) < 1e-6
    assert abs(fit_a.odds_ratio - 3.342) < 5e-3
    or_b, ci_b = crossproduct_oracle(37, 34, 508, 783)
    assert abs(fit_b.odds_ratio - or_b) < 1e-6
    assert abs(fit_b.odds_ratio - 1.677) < 5e-3

    rng = make_rng(1, "c1")
    for _ in range(20):
        a, b, c, d = (int(rng.integers(5, 500)) for _ in range(4))
        fit = _fit_2x2(a, b, c, d)
        or_ref, ci_ref = crossproduct_oracle(a, b, c, d)
        assert abs(fit.odds_ratio - or_ref) < 1e-6 * max(1.0, or_ref)
        assert abs(fit.ci95[0] - ci_ref[0]) < 1e-6 * max(1.0, ci_ref[0])
        assert abs(fit.ci95[1] - ci_ref[1]) < 1e-6 * max(1.0, ci_ref[1])
    _passed(1, "IRLS matches closed-form 2x2 odds ratios")


def test_criterion_2_planted_effect_coverage():
    start = time.perf_counter()
    rng = make_rng(2, "c2")
    true_beta = math.log(3.0)
    runs = 200
    covered = 0
    for _ in range(runs):
        n = 1600
        group = (rng.random(n) < 0.15).astype(float)
        # risk level confounds group membership and the outcome
        high = rng.random(n) < np.where(group == 1, 0.65, 0.45)
        medium = (~high) & (rng.random(n) < 0.5)
        risk_m = medium.astype(float)
        risk_l = (~high & ~medium).astype(float)
        city = (rng.random(n) < 0.5).astype(float)
        z = -1.3 + true_beta * group - 0.5 * risk_m - 1.1 * risk_l + 0.3 * city
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(int)
        X = DesignMatrix(
            np.column_stack([np.ones(n), group, city, risk_m, risk_l]),
            ("intercept", "group", "city_B", "risk_medium", "risk_low"),
        )
        fit = fit_binomial_logit(X, y)
        lo, hi = fit.ci95
        covered += lo <= 3.0 <= hi
    assert covered >= 0.90 * runs, f"coverage {covered}/{runs}"
    assert time.perf_counter() - start < 120.0
    _passed(2, f"planted OR=3.0 covered by 95% CI in {covered}/200 runs")


def test_criterion_3_chi_square():
    result = chi_square_independence([[84, 39, 9], [5702, 2325, 2759]])
    assert result.p_value < 0.001
    for dof in range(1, 6):
        for x in (0.4, 1.3, 4.2, 9.9, 18.0):
            assert abs(chi_square_upper_tail(x, dof) - chi2_sf_quadrature(x, dof)) < 1e-8
    _passed(3, "risk-mix counts significant; tail matches quadrature to 1e-8")


def test_criterion_4_wsm_numerics(default_run):
    # analytic gradient vs central differences
    rng = make_rng(4, "c4")
    events = [query(f"u{i}", i, f"token{i} shared word{i % 7}") for i in range(30)]
    labels = np.array([i % 2 for i in range(30)], dtype=float)
    vectors = [np.array(featurize(e), dtype=np.intp) for e in events]
    rows = FeatureRows.of(vectors)
    weights = rng.normal(0, 0.4, DIM)
    intercept = -0.2
    _, grad_w, grad_b = loss_and_gradient(weights, intercept, rows, labels, 1e-4)
    h = 1e-5
    active = sorted({i for v in vectors for i in v.tolist()})
    for j in (active[k] for k in rng.choice(len(active), size=5, replace=False)):
        wp, wm = weights.copy(), weights.copy()
        wp[j] += h
        wm[j] -= h
        lp, _, _ = loss_and_gradient(wp, intercept, rows, labels, 1e-4)
        lm, _, _ = loss_and_gradient(wm, intercept, rows, labels, 1e-4)
        fd = (lp - lm) / (2 * h)
        assert abs(grad_w[j] - fd) / max(abs(fd), 1e-12) < 1e-5

    # rank AUC vs O(n^2) pair counting
    scores = np.round(rng.random(1000), 2)
    auc_labels = (rng.random(1000) < 0.35).astype(int)
    assert abs(roc_auc(scores, auc_labels) - auc_pairwise_oracle(scores, auc_labels)) < 1e-9

    # default simulated rater-labeled eval set
    out, _ = default_run
    from foodwatch.report import METRICS_CSV, read_csv

    _, rows = read_csv(out / METRICS_CSV)
    metrics = {r[0]: float(r[1]) for r in rows}
    assert metrics["roc_auc"] >= 0.80, metrics
    assert metrics["f1"] >= 0.65, metrics
    _passed(
        4,
        f"gradient & AUC oracles hold; default eval AUC={metrics['roc_auc']:.3f} "
        f"F1={metrics['f1']:.3f}",
    )


def test_criterion_5_rater_protocol():
    patterns = list(itertools.product((0, 1), repeat=6))
    matrix = JudgmentMatrix([p[:3] for p in patterns], [p[3:] for p in patterns])
    expected = [vote_majority_oracle(list(p[:3]), list(p[3:])) for p in patterns]
    assert majority_labels(matrix).tolist() == expected

    rng = make_rng(5, "c5")
    checked = 0
    while checked < 20:
        n_units = int(rng.integers(4, 12))
        n_raters = int(rng.integers(2, 6))
        data = (rng.random((n_units, n_raters)) < 0.5).astype(float)
        for i in range(n_units):
            k = int(rng.integers(0, max(1, n_raters - 1)))
            for j in rng.choice(n_raters, size=k, replace=False):
                data[i, j] = np.nan
        if sum(np.sum(~np.isnan(row)) >= 2 for row in data) < 2:
            continue
        assert abs(krippendorff_alpha(data) - alpha_pairwise_oracle(data)) < 1e-6
        checked += 1

    truth = (make_rng(5, "truth").random(15_000) < 0.5).astype(int)
    judgments = simulate_raters([None] * len(truth), truth, SimConfig(), seed=55)
    alpha = krippendorff_alpha(judgments)
    assert 0.75 <= alpha <= 0.85, alpha
    _passed(5, f"vote aggregation exact; alpha oracle matches; 15k-unit alpha={alpha:.3f}")


def test_criterion_6_attribution_recovery():
    planted = (0.62, 0.194, 0.115, 0.072)
    visits, scored, counts = planted_exposures(10_000, planted, seed=6)
    links = link_exposures(visits, scored)
    aggregates = aggregate_restaurants(visits, links, Period(0, 2_000_000_000))
    _, histogram = attribute_sources(links, aggregates)
    assert histogram.n_users == 10_000
    planted_fracs = np.array(counts) / sum(counts)
    for got, want in zip(histogram.fractions, planted_fracs):
        assert abs(got - want) <= 0.03, (histogram.fractions, planted_fracs)
    # and the recovered histogram sits within the band around the quoted mix
    for got, want in zip(histogram.fractions, planted):
        assert abs(got - want) <= 0.03
    _passed(6, f"planted recency mix recovered: {tuple(round(f, 3) for f in histogram.fractions)}")


def test_criterion_7_privacy(default_run):
    # Laplace moments
    n = 20_000
    policy = PrivacyPolicy(epsilon=1.0, suppress_below=0)
    from foodwatch.locmodel import RestaurantAggregate

    aggs = {f"r{i:05d}": RestaurantAggregate(f"r{i:05d}", 100, 0) for i in range(n)}
    rel = release(aggs, policy, rng_seed=77)
    noise = np.array([r.visitors - 100 for r in rel.values()])
    sigma = math.sqrt(2.0)  # Laplace sd at scale 1
    assert abs(noise.mean()) < 3 * sigma / math.sqrt(n)
    assert abs(noise.var() - 2.0) / 2.0 < 0.05

    # no raw user id byte pattern in any emitted artifact
    out, manifest = default_run
    raw_id = re.compile(rb"\bu\d{6}\b")
    for rel_path in manifest["files"]:
        blob = (out / rel_path).read_bytes()
        assert not raw_id.search(blob), f"raw user id leaked into {rel_path}"

    # capping leaves every (user, restaurant) pair with at most one link
    rng = make_rng(7, "cap")
    from foodwatch.locmodel import ExposureLink

    links = [
        ExposureLink(f"u{int(rng.integers(40))}", f"r{int(rng.integers(15))}", int(t), int(t) + 50, 1)
        for t in rng.integers(0, 100_000, size=800)
    ]
    capped = cap_contributions(links)
    pairs = [(l.user_id, l.restaurant_id) for l in capped]
    assert len(pairs) == len(set(pairs))
    _passed(7, "Laplace moments in bounds; artifacts free of raw ids; sensitivity 1")


def test_criterion_8_end_to_end_directionality():
    tallies = {g: [0, 0] for g in ("FINDER", "ROUTINE", "COMPLAINT")}
    for seed in range(20):
        config = RunConfig(seed=seed)
        world, dataset, _ = compute_simulation(config)
        _, model = compute_model(config, dataset)
        _, links = compute_exposures(config, dataset, model)
        daily = compute_daily_lists(config, dataset.visits, dataset.registry(), links)
        finder = compute_finder_inspections(config, world, daily.daily_rows)
        for rec in tuple(dataset.inspections) + finder:
            name = rec.trigger.value
            if name in tallies:
                tallies[name][0] += 1
                tallies[name][1] += rec.outcome is Outcome.UNSAFE
    rates = {g: u / n for g, (n, u) in tallies.items()}
    assert rates["FINDER"] >= 2.0 * rates["ROUTINE"], rates
    assert rates["FINDER"] > rates["COMPLAINT"], rates
    _passed(
        8,
        "unsafe rates FINDER={FINDER:.3f} ROUTINE={ROUTINE:.3f} COMPLAINT={COMPLAINT:.3f}".format(**rates),
    )


def test_criterion_9_determinism(tmp_path):
    from foodwatch.config import apply_overrides

    config = apply_overrides(
        RunConfig(seed=12),
        ["days=8", "sim.n_users=700", "sim.cities=A:60,B:60", "wsm.eval_size=60",
         "wsm.epochs=30", "cli.warmup_days=4"],
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    manifest_a = run_pipeline(config, out_a)
    manifest_b = run_pipeline(config, out_b)
    assert manifest_a["files"] == manifest_b["files"]
    for rel_path in manifest_a["files"]:
        assert (out_a / rel_path).read_bytes() == (out_b / rel_path).read_bytes(), rel_path
    trimmed_a = {k: v for k, v in manifest_a.items() if k != "created_at"}
    trimmed_b = {k: v for k, v in manifest_b.items() if k != "created_at"}
    assert trimmed_a == trimmed_b
    _passed(9, "byte-identical artifacts across reruns (timestamps excluded)")

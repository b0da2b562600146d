import json
from dataclasses import replace

import numpy as np
import pytest

from foodwatch.citysim import (
    POSITIVE_TEMPLATES,
    SimConfig,
    day_to_date,
    generate_world,
    load_ground_truth,
    save_ground_truth,
    simulate,
    simulate_inspection,
    simulate_raters,
)
from foodwatch.errors import DataError, UsageError
from foodwatch.logdata import (
    DatasetPaths,
    Outcome,
    RiskLevel,
    Trigger,
    load_dataset,
    write_dataset,
)
from foodwatch.raters import krippendorff_alpha, majority_labels
from foodwatch.seeding import make_rng

TINY = SimConfig(cities={"A": 10, "B": 10}, n_users=40)


def raw_ids(world):
    """The id map under which every event carries its raw user id."""
    return {uid: uid for uid in world.users}


def test_empty_world():
    world = generate_world(SimConfig(cities={}, n_users=0), seed=1)
    assert world.restaurants == () and world.users == ()
    ds, truth = simulate(world, days=2, seed=1, user_ids=raw_ids(world))
    assert ds.queries == () and ds.visits == () and ds.inspections == ()
    assert truth.infections == ()


def test_risk_mix_calibration_on_large_world():
    cfg = SimConfig(cities={"A": 10_000}, n_users=0)
    world = generate_world(cfg, seed=3)
    shares = {
        level: sum(r.risk_level is level for r in world.restaurants) / 10_000
        for level in RiskLevel
    }
    assert abs(shares[RiskLevel.HIGH] - 0.53) < 0.02
    assert abs(shares[RiskLevel.MEDIUM] - 0.22) < 0.02
    assert abs(shares[RiskLevel.LOW] - 0.25) < 0.02


def test_world_generation_deterministic():
    assert generate_world(TINY, seed=7) == generate_world(TINY, seed=7)


def test_invalid_probabilities_rejected():
    # a SimConfig is checked when it is built, so no world is ever made from a bad one
    with pytest.raises(UsageError, match="sim.p_infect_unsafe"):
        replace(TINY, p_infect_unsafe=1.5)
    with pytest.raises(UsageError, match="sim.risk_mix"):
        replace(TINY, risk_mix=(0.9, 0.2, 0.2))


def test_zero_infection_rates_mean_no_positive_template_queries():
    cfg = replace(TINY, p_infect_unsafe=0.0, p_infect_safe=0.0)
    world = generate_world(cfg, seed=5)
    ds, truth = simulate(world, days=4, seed=5, user_ids=raw_ids(world))
    assert truth.infections == ()
    assert not any(
        q.text.startswith(t) for q in ds.queries for t in POSITIVE_TEMPLATES
    )


def test_incubation_at_truncation_bound_is_exact():
    cfg = replace(
        TINY,
        incubation_median_h=72.0,
        incubation_sigma=0.0,
        p_search_given_ill=1.0,
        p_infect_unsafe=1.0,
        p_infect_safe=1.0,
    )
    world = generate_world(cfg, seed=9)
    _, truth = simulate(world, days=2, seed=9, user_ids=raw_ids(world))
    assert len(truth.infections) > 0
    for rec in truth.infections:
        assert rec.searched and rec.query_ts == rec.meal_exit_ts + 72 * 3600
        assert rec.symptom_ts == rec.meal_exit_ts + 72 * 3600


def test_infection_counts_match_binomial_moments():
    # all restaurants latently unsafe so every meal infects with one rate
    cfg = replace(
        TINY,
        cities={"A": 5},
        n_users=20,
        unsafe_prob=(1.0, 1.0, 1.0),
        p_infect_unsafe=0.3,
    )
    total_meals = 0
    total_infections = 0
    for run in range(200):
        world = generate_world(cfg, seed=run)
        ds, truth = simulate(world, days=2, seed=run, user_ids=raw_ids(world))
        total_meals += len(ds.visits)
        total_infections += len(truth.infections)
    p = 0.3
    expected = total_meals * p
    sigma = (total_meals * p * (1 - p)) ** 0.5
    assert abs(total_infections - expected) < 3 * sigma


def test_simulation_deterministic():
    world = generate_world(TINY, seed=21)
    a = simulate(world, days=3, seed=21, user_ids=raw_ids(world))
    b = simulate(world, days=3, seed=21, user_ids=raw_ids(world))
    assert a[0] == b[0] and a[1] == b[1]


def test_background_queries_have_no_dwell_when_unclicked():
    world = generate_world(TINY, seed=2)
    ds, _ = simulate(world, days=3, seed=2, user_ids=raw_ids(world))
    for q in ds.queries:
        for page in q.results:
            if not page.clicked:
                assert page.dwell_s == 0.0


# --- inspections -------------------------------------------------------------


def test_perfect_inspector_reveals_latent_state():
    cfg = replace(TINY, inspector_sensitivity=1.0, inspector_false_positive=0.0)
    world = generate_world(cfg, seed=11)
    for rec in world.restaurants[:10]:
        result = simulate_inspection(world, rec.restaurant_id, day_to_date(1), seed=0)
        assert (result.outcome is Outcome.UNSAFE) == world.latent_unsafe[rec.restaurant_id]


def test_unknown_restaurant_rejected():
    world = generate_world(TINY, seed=11)
    with pytest.raises(DataError, match="r9999"):
        simulate_inspection(world, "r9999", day_to_date(0), seed=0)


def test_inspection_sensitivity_moment():
    world = generate_world(TINY, seed=13)
    unsafe_rid = next(r for r, u in sorted(world.latent_unsafe.items()) if u)
    hits = 0
    n = 10_000
    for i in range(n):
        rec = simulate_inspection(world, unsafe_rid, day_to_date(i), seed=1)
        hits += rec.outcome is Outcome.UNSAFE
    assert abs(hits / n - 0.9) < 0.01


def test_violation_count_means_recovered():
    world = generate_world(TINY, seed=13)
    unsafe_rid = next(r for r, u in sorted(world.latent_unsafe.items()) if u)
    n = 100_000
    crit = major = 0
    for i in range(n):
        rec = simulate_inspection(world, unsafe_rid, day_to_date(i), seed=2)
        crit += rec.critical_count
        major += rec.major_count
    assert abs(crit / n - TINY.unsafe_critical_mean) / TINY.unsafe_critical_mean < 0.02
    assert abs(major / n - TINY.unsafe_major_mean) / TINY.unsafe_major_mean < 0.02


def test_routine_unsafe_rate_converges_to_mixture():
    cfg = SimConfig(cities={"A": 400}, n_users=0, routine_inspections_per_day=50)
    world = generate_world(cfg, seed=17)
    ds, _ = simulate(world, days=40, seed=17, user_ids=raw_ids(world))
    routine = [r for r in ds.inspections if r.trigger is Trigger.ROUTINE]
    rate = sum(r.outcome is Outcome.UNSAFE for r in routine) / len(routine)
    mix, unsafe = cfg.risk_mix, cfg.unsafe_prob
    expected = sum(
        m * (u * cfg.inspector_sensitivity + (1 - u) * cfg.inspector_false_positive)
        for m, u in zip(mix, unsafe)
    )
    sigma = (expected * (1 - expected) / len(routine)) ** 0.5
    assert abs(rate - expected) < 3 * sigma + 0.02  # world-level mix noise on 400 draws


# --- raters ------------------------------------------------------------------


def test_zero_flip_raters_reproduce_truth():
    cfg = replace(TINY, rater_flip_md=0.0, rater_flip_other=0.0)
    truth = (np.arange(50) % 2).astype(int)
    jm = simulate_raters(truth, cfg, seed=3)
    assert np.array_equal(majority_labels(jm), truth)
    assert krippendorff_alpha(jm) == 1.0


def test_majority_vote_beats_individual_raters():
    cfg = replace(TINY, rater_flip_md=0.05, rater_flip_other=0.12)
    rng = make_rng(5, "truth")
    truth = (rng.random(15_000) < 0.5).astype(int)
    jm = simulate_raters(truth, cfg, seed=5)
    majority_error = float(np.mean(majority_labels(jm) != truth))
    assert majority_error < 0.05 and majority_error < 0.12


def test_default_raters_recover_truth_on_97_percent():
    rng = make_rng(6, "truth")
    truth = (rng.random(15_000) < 0.5).astype(int)
    jm = simulate_raters(truth, TINY, seed=6)
    agreement = float(np.mean(majority_labels(jm) == truth))
    assert agreement >= 0.97


# --- serialization and leakage -----------------------------------------------


def test_ground_truth_round_trip(tmp_path):
    world = generate_world(TINY, seed=23)
    _, truth = simulate(world, days=2, seed=23, user_ids=raw_ids(world))
    save_ground_truth(truth, tmp_path / "gt.json")
    assert load_ground_truth(tmp_path / "gt.json") == truth


def test_dataset_files_leak_no_latent_state(tmp_path):
    world = generate_world(TINY, seed=29)
    ds, _ = simulate(world, days=3, seed=29, user_ids=raw_ids(world))
    paths = DatasetPaths.in_dir(tmp_path)
    write_dataset(ds, paths)
    # schema audit: exactly the documented fields, nothing else
    for line in paths.queries.read_text().splitlines():
        obj = json.loads(line)
        assert set(obj) == {"user_id", "ts", "text", "results"}
        for r in obj["results"]:
            assert set(r) == {"url", "title", "snippet", "concept_tags", "clicked", "dwell_s"}
    assert paths.visits.read_text().splitlines()[0] == "user_id,restaurant_id,entry_ts,exit_ts"
    assert paths.restaurants.read_text().splitlines()[0] == "restaurant_id,city,risk_level"
    assert (
        paths.inspections.read_text().splitlines()[0]
        == "restaurant_id,date,trigger,outcome,critical_count,major_count"
    )
    blob = "".join(p.read_text() for p in (paths.queries, paths.visits, paths.restaurants, paths.inspections))
    assert "latent" not in blob and "infection" not in blob
    assert load_dataset(paths) == ds  # round trip intact

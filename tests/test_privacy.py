import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foodwatch.errors import UsageError
from foodwatch.locmodel import ExposureLink, RestaurantAggregate
from foodwatch.logdata import Dataset
from foodwatch.privacy import (
    PrivacySettings,
    anonymize_ids,
    cap_contributions,
    pseudonymize,
    release,
)
from foodwatch.seeding import make_rng

from conftest import query, visit
from oracles import wilson_oracle

KEY = 0xDEADBEEF_CAFEBABE_0123456789ABCDEF


def link(user, restaurant, exit_ts=1000, q_ts=2000, rank=1):
    return ExposureLink(
        user_id=user,
        restaurant_id=restaurant,
        visit_exit_ts=exit_ts,
        first_positive_query_ts=q_ts,
        recency_rank=rank,
    )


# --- anonymization -----------------------------------------------------------


def test_pseudonyms_consistent_across_streams():
    ds = Dataset(
        queries=(query("alice", 10, "x"), query("bob", 20, "y")),
        visits=(visit("alice", "r1", 0, 5),),
    )
    anon = anonymize_ids(ds, KEY)
    assert anon.queries[0].user_id == anon.visits[0].user_id
    assert anon.queries[0].user_id != "alice"
    assert re.fullmatch(r"[0-9a-f]{32}", anon.queries[0].user_id)


def test_zero_key_rejected():
    with pytest.raises(ValueError):
        anonymize_ids(Dataset(), 0)
    with pytest.raises(ValueError):
        pseudonymize(0, "alice")


def test_million_users_no_collision():
    seen = set()
    for i in range(1_000_000):
        seen.add(pseudonymize(KEY, f"user{i}"))
    assert len(seen) == 1_000_000


def test_distinct_keys_give_disjoint_pseudonym_sets():
    users = [f"user{i}" for i in range(10_000)]
    a = {pseudonymize(KEY, u) for u in users}
    b = {pseudonymize(KEY + 1, u) for u in users}
    assert not (a & b)


def test_pseudonymization_deterministic():
    assert pseudonymize(KEY, "alice") == pseudonymize(KEY, "alice")


# --- contribution capping ----------------------------------------------------


def test_repeat_visits_collapse_to_one_link():
    links = [link("u", "r", exit_ts=t) for t in (3000, 1000, 2000)]
    capped = cap_contributions(links)
    assert len(capped) == 1 and capped[0].visit_exit_ts == 1000


def test_capping_idempotent():
    links = [link("u", "r", exit_ts=1000), link("u", "s", exit_ts=1500)]
    once = cap_contributions(links)
    assert cap_contributions(once) == once


def test_capping_matches_bruteforce_dedup():
    rng = make_rng(31, "cap")
    links = [
        link(f"u{int(rng.integers(20))}", f"r{int(rng.integers(10))}", exit_ts=int(t))
        for t in rng.integers(0, 100_000, size=500)
    ]
    capped = cap_contributions(links)
    expected = {}
    for l in links:
        k = (l.user_id, l.restaurant_id)
        if k not in expected or l.visit_exit_ts < expected[k].visit_exit_ts:
            expected[k] = l
    assert set(capped) == set(expected.values())


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 5), st.integers(0, 10_000)),
        max_size=60,
    )
)
def test_capping_guarantees_unit_sensitivity(raw):
    links = [link(f"u{u}", f"r{r}", exit_ts=t) for u, r, t in raw]
    capped = cap_contributions(links)
    pairs = [(l.user_id, l.restaurant_id) for l in capped]
    assert len(pairs) == len(set(pairs))  # each user moves each count by <= 1


# --- release -----------------------------------------------------------------


def agg(rid="r1", visitors=100, affected=10):
    return {rid: RestaurantAggregate(rid, visitors, affected)}


def test_huge_epsilon_recovers_counts():
    policy = PrivacySettings(epsilon=1e6, suppress_below=0)
    rel = release(agg(), policy, rng_seed=4)["r1"]
    assert abs(rel.visitors - 100) < 1e-3
    assert abs(rel.affected - 10) < 1e-3
    assert abs(rel.proportion - 0.1) < 1e-4


def test_laplace_moments_match_oracle():
    policy = PrivacySettings(epsilon=1.0, suppress_below=0)
    n = 20_000
    aggs = {f"r{i:05d}": RestaurantAggregate(f"r{i:05d}", 100, 0) for i in range(n)}
    rel = release(aggs, policy, rng_seed=17)
    noise = np.array([r.visitors - 100 for r in rel.values()])
    assert abs(noise.mean()) < 3 * math.sqrt(2.0) / math.sqrt(n)  # mean-zero bound
    assert abs(noise.mean()) < 0.1
    variance = noise.var()
    assert abs(variance - 2.0) / 2.0 < 0.05  # Var = 2 (sensitivity/epsilon)^2


def test_suppression_exposes_no_counts():
    policy = PrivacySettings(epsilon=1.0, suppress_below=30)
    rel = release(agg(visitors=5, affected=2), policy, rng_seed=1)["r1"]
    assert rel.suppressed
    assert rel.visitors is None and rel.affected is None
    assert rel.proportion is None and rel.signal is None


def test_release_proportion_clamped():
    policy = PrivacySettings(epsilon=0.2, suppress_below=0)
    aggs = {f"r{i}": RestaurantAggregate(f"r{i}", 3, 3) for i in range(200)}
    for rel in release(aggs, policy, rng_seed=3).values():
        if not rel.suppressed:
            assert 0.0 <= rel.proportion <= 1.0


def test_release_deterministic_and_order_independent():
    policy = PrivacySettings(epsilon=1.0, suppress_below=0)
    aggs = {
        "rA": RestaurantAggregate("rA", 50, 5),
        "rB": RestaurantAggregate("rB", 60, 6),
    }
    flipped = {"rB": aggs["rB"], "rA": aggs["rA"]}
    a = release(aggs, policy, rng_seed=9)
    b = release(flipped, policy, rng_seed=9)
    assert a == b
    assert a == release(aggs, policy, rng_seed=9)


def test_release_with_privacy_off_is_exact():
    policy = PrivacySettings(enabled=False, epsilon=0.01, suppress_below=1000)
    aggs = {
        "rA": RestaurantAggregate("rA", 50, 5),
        "rB": RestaurantAggregate("rB", 3, 0),  # far below suppress_below
        "rC": RestaurantAggregate("rC", 0, 0),
    }
    for seed in (0, 1):
        rel = release(aggs, policy, rng_seed=seed)
        assert sorted(rel) == sorted(aggs)
        for rid, cell in rel.items():
            exact = aggs[rid]
            assert not cell.suppressed
            assert type(cell.visitors) is int and cell.visitors == exact.visitors
            assert type(cell.affected) is int and cell.affected == exact.affected
            assert cell.proportion == (exact.affected / exact.visitors if exact.visitors else 0.0)
            assert cell.signal == pytest.approx(wilson_oracle(exact.affected, exact.visitors), abs=1e-12)


def test_policy_validation():
    for epsilon in (0.0, float("nan")):
        with pytest.raises(UsageError, match="privacy.epsilon"):
            PrivacySettings(epsilon=epsilon)
    with pytest.raises(UsageError, match="privacy.suppress_below"):
        PrivacySettings(epsilon=1.0, suppress_below=-1)
    with pytest.raises(UsageError, match="privacy.hash_key"):
        PrivacySettings(hash_key="0")

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foodwatch.citysim import DAY_S
from foodwatch.errors import DataError, UsageError
from foodwatch.locmodel import (
    INCUBATION_WINDOW_S,
    ExposureLink,
    LocSettings,
    Period,
    RestaurantAggregate,
    ScoredQuery,
    aggregate_restaurants,
    attribute_sources,
    link_exposures,
    rank_restaurants,
    sliding_aggregates,
    wilson_lower_bound,
)
from foodwatch.seeding import make_rng
from oracles import wilson_oracle

from conftest import visit

H72 = INCUBATION_WINDOW_S


def positive(user, ts, score=0.9):
    return ScoredQuery(user_id=user, ts=ts, score=score)


# --- linking -----------------------------------------------------------------


def test_window_inclusive_at_72h():
    links = link_exposures([visit("u", "r", 0, 1000)], [positive("u", 1000 + H72)])
    assert len(links) == 1 and links[0].recency_rank == 1


def test_window_excludes_past_72h():
    assert link_exposures([visit("u", "r", 0, 1000)], [positive("u", 1001 + H72)]) == ()


def test_query_must_be_strictly_after_exit():
    assert link_exposures([visit("u", "r", 0, 1000)], [positive("u", 1000)]) == ()


def test_two_visits_ranked_by_recency():
    visits = [visit("u", "A", 0, 1000), visit("u", "B", 5000, 6000)]
    links = link_exposures(visits, [positive("u", 6000 + 2 * 86400)])
    ranks = {l.restaurant_id: l.recency_rank for l in links}
    assert ranks == {"B": 1, "A": 2}


def test_first_positive_query_is_the_anchor():
    visits = [visit("u", "A", 0, 1000)]
    queries = [
        positive("u", 2000, score=0.71),
        positive("u", 2000 + H72 + 500, score=0.99),  # later positive, ignored
    ]
    links = link_exposures(visits, queries)
    assert len(links) == 1 and links[0].first_positive_query_ts == 2000


def test_below_threshold_scores_do_not_anchor():
    links = link_exposures([visit("u", "A", 0, 1000)], [positive("u", 2000, score=0.69)])
    assert links == ()


def test_repeat_visits_collapse_to_earliest():
    visits = [
        visit("u", "A", 0, 1000),
        visit("u", "A", 5000, 6000),
        visit("u", "A", 9000, 9500),
        visit("u", "B", 7000, 8000),
    ]
    links = link_exposures(visits, [positive("u", 20000)])
    by_restaurant = {l.restaurant_id: l for l in links}
    assert set(by_restaurant) == {"A", "B"}
    assert by_restaurant["A"].visit_exit_ts == 1000  # earliest kept
    # ranks assigned over all qualifying visits before the dedup
    assert by_restaurant["A"].recency_rank == 4
    assert by_restaurant["B"].recency_rank == 2


def test_every_link_satisfies_window_invariant():
    rng = make_rng(5, "links")
    visits = [
        visit(f"u{i % 20}", f"r{rng.integers(10)}", int(t), int(t) + 1800)
        for i, t in enumerate(rng.integers(0, 20 * 86400, size=400))
    ]
    queries = [positive(f"u{i}", int(rng.integers(0, 25 * 86400))) for i in range(20)]
    for link in link_exposures(visits, queries):
        gap = link.first_positive_query_ts - link.visit_exit_ts
        assert 0 < gap <= H72


# --- aggregation -------------------------------------------------------------


def test_zero_affected():
    visits = [visit(f"u{i}", "r", 0, 100) for i in range(100)]
    aggs = aggregate_restaurants(visits, [], Period(0, 1000))
    agg = aggs["r"]
    assert agg.visitors == 100 and agg.affected == 0
    assert agg.proportion == 0.0 and agg.signal == 0.0


def test_wilson_signal_matches_closed_form_oracle():
    visits = [visit(f"u{i}", "r", 0, 100) for i in range(50)]
    links = link_exposures(
        visits, [positive(f"u{i}", 200) for i in range(5)]
    )
    agg = aggregate_restaurants(visits, links, Period(0, 1000))["r"]
    assert agg.visitors == 50 and agg.affected == 5
    assert agg.proportion == pytest.approx(0.1)
    assert agg.signal == pytest.approx(wilson_oracle(5, 50), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 400), st.integers(1, 400))
def test_wilson_bound_never_exceeds_proportion(k, n):
    k = min(k, n)
    assert wilson_lower_bound(k, n) <= k / n + 1e-12
    assert wilson_lower_bound(k, n) == pytest.approx(wilson_oracle(k, n), abs=1e-12)


def test_counts_match_bruteforce_set_arithmetic():
    rng = make_rng(11, "agg")
    users = [f"u{i}" for i in range(1000)]
    visits = []
    for i in range(4000):
        u = users[int(rng.integers(len(users)))]
        t = int(rng.integers(0, 10 * 86400))
        visits.append(visit(u, f"r{int(rng.integers(30))}", t, t + 1800))
    queries = [
        positive(users[int(rng.integers(len(users)))], int(rng.integers(0, 12 * 86400)))
        for _ in range(300)
    ]
    period = Period(2 * 86400, 9 * 86400)
    links = link_exposures(visits, queries)
    aggs = aggregate_restaurants(visits, links, period)

    # oracle: raw set arithmetic straight off the streams
    visitors = {}
    for v in visits:
        if period.contains(v.exit_ts):
            visitors.setdefault(v.restaurant_id, set()).add(v.user_id)
    affected = {}
    for l in links:
        if period.contains(l.visit_exit_ts):
            affected.setdefault(l.restaurant_id, set()).add(l.user_id)
    assert set(aggs) == set(visitors)
    for rid, agg in aggs.items():
        assert agg.visitors == len(visitors[rid])
        assert agg.affected == len(affected.get(rid, set()) & visitors[rid])
        assert 0 <= agg.affected <= agg.visitors


def test_aggregation_merges_across_user_shards():
    rng = make_rng(13, "shards")
    visits = [
        visit(f"u{int(rng.integers(40))}", f"r{int(rng.integers(5))}", int(t), int(t) + 100)
        for t in rng.integers(0, 86400, size=300)
    ]
    queries = [positive(f"u{i}", 90000) for i in range(0, 40, 3)]
    period = Period(0, 200000)
    links = link_exposures(visits, queries)
    whole = aggregate_restaurants(visits, links, period)

    shard_a_users = {f"u{i}" for i in range(20)}
    va = [v for v in visits if v.user_id in shard_a_users]
    vb = [v for v in visits if v.user_id not in shard_a_users]
    la = [l for l in links if l.user_id in shard_a_users]
    lb = [l for l in links if l.user_id not in shard_a_users]
    a = aggregate_restaurants(va, la, period)
    b = aggregate_restaurants(vb, lb, period)
    for rid, agg in whole.items():
        merged_visitors = (a[rid].visitors if rid in a else 0) + (b[rid].visitors if rid in b else 0)
        merged_affected = (a[rid].affected if rid in a else 0) + (b[rid].affected if rid in b else 0)
        assert agg.visitors == merged_visitors  # distinct users never straddle shards
        assert agg.affected == merged_affected


def test_removing_a_user_never_increases_counts():
    rng = make_rng(17, "mono")
    visits = [
        visit(f"u{int(rng.integers(30))}", f"r{int(rng.integers(6))}", int(t), int(t) + 50)
        for t in rng.integers(0, 86400, size=200)
    ]
    queries = [positive(f"u{i}", 90000) for i in range(30)]
    period = Period(0, 200000)
    full = aggregate_restaurants(visits, link_exposures(visits, queries), period)
    dropped = "u7"
    v2 = [v for v in visits if v.user_id != dropped]
    q2 = [q for q in queries if q.user_id != dropped]
    reduced = aggregate_restaurants(v2, link_exposures(v2, q2), period)
    for rid, agg in reduced.items():
        assert agg.visitors <= full[rid].visitors
        assert agg.affected <= full[rid].affected


def daily_windows(days, window_days):
    return [
        Period(max(0, (day + 1 - window_days) * DAY_S), (day + 1) * DAY_S) for day in range(days)
    ]


def assert_sliding_matches_oracle(visits, links, periods):
    slid = [list(aggs.items()) for aggs in sliding_aggregates(visits, links, periods)]
    oracle = [list(aggregate_restaurants(visits, links, p).items()) for p in periods]
    assert slid == oracle  # same restaurants in the same (sorted) order, same counts


# exits at a day boundary, one second before one, or anywhere in eight days
exit_times = st.one_of(
    st.integers(0, 8).map(lambda k: k * DAY_S),
    st.integers(1, 8).map(lambda k: k * DAY_S - 1),
    st.integers(0, 8 * DAY_S - 1),
)
ids = st.tuples(st.sampled_from(["u0", "u1", "u2", "u3"]), st.sampled_from(["r0", "r1", "r2"]))


@given(
    visits=st.lists(st.tuples(ids, exit_times), max_size=40),
    links=st.lists(st.tuples(ids, exit_times), max_size=20),
    days=st.integers(1, 7),
    window_days=st.integers(1, 9),
)
@settings(max_examples=300, deadline=None)
def test_sliding_window_matches_per_day_oracle(visits, links, days, window_days):
    # Repeat visits, links with no visit in their window and duplicate links
    # all occur; hypothesis gives both streams in arbitrary order.
    visit_events = [visit(u, r, ts, ts) for (u, r), ts in visits]
    link_events = [ExposureLink(u, r, ts, ts + 3600, 1) for (u, r), ts in links]
    assert_sliding_matches_oracle(visit_events, link_events, daily_windows(days, window_days))


@pytest.mark.parametrize("window_days", [1, 3, 14, 30])
def test_sliding_window_matches_oracle_on_random_worlds(window_days):
    rng = make_rng(19, "sliding", window_days)
    days = 12
    visits = []
    for _ in range(3000):
        t = int(rng.integers(0, days * DAY_S))
        visits.append(visit(f"u{int(rng.integers(300))}", f"r{int(rng.integers(25))}", t - 1800, t))
    visits.sort(key=lambda v: v.exit_ts)
    queries = sorted(
        (positive(f"u{int(rng.integers(300))}", int(rng.integers(0, days * DAY_S))) for _ in range(120)),
        key=lambda q: q.ts,
    )
    links = list(link_exposures(visits, queries))
    rng.shuffle(links)
    assert_sliding_matches_oracle(visits, links, daily_windows(days, window_days))


def test_sliding_window_rejects_periods_that_move_backwards():
    with pytest.raises(ValueError):
        list(sliding_aggregates([], [], [Period(DAY_S, 2 * DAY_S), Period(0, 3 * DAY_S)]))


# --- ranking -----------------------------------------------------------------


def test_all_below_cutoff_is_empty():
    aggs = [RestaurantAggregate("r1", visitors=100, affected=1)]
    assert rank_restaurants(aggs, LocSettings(min_visitors=20, cutoff=0.9)) == []


def test_tie_order_is_deterministic():
    a = RestaurantAggregate("rB", visitors=50, affected=10)
    b = RestaurantAggregate("rA", visitors=50, affected=10)
    c = RestaurantAggregate("rC", visitors=80, affected=16)
    ranked = rank_restaurants([a, b, c], LocSettings(min_visitors=20, cutoff=0.0))
    # equal signal: more visitors first, then id ascending
    assert [r.restaurant_id for r in ranked][-2:] == ["rA", "rB"]


def test_ranking_matches_bruteforce_oracle():
    rng = make_rng(19, "rank")
    aggs = [
        RestaurantAggregate(
            f"r{i:03d}", visitors=int(rng.integers(1, 200)), affected=0
        )
        for i in range(500)
    ]
    aggs = [
        RestaurantAggregate(a.restaurant_id, a.visitors, int(rng.integers(0, a.visitors + 1)))
        for a in aggs
    ]
    got = rank_restaurants(aggs, LocSettings(min_visitors=20, cutoff=0.05))
    expected = sorted(
        (a for a in aggs if a.visitors >= 20 and a.signal >= 0.05),
        key=lambda a: (-a.signal, -a.visitors, a.restaurant_id),
    )
    assert [a.restaurant_id for a in got] == [a.restaurant_id for a in expected]


def test_cutoff_validation():
    with pytest.raises(UsageError, match="locmodel.cutoff"):
        LocSettings(cutoff=1.5)


# --- attribution -------------------------------------------------------------


def build_linked_case():
    visits = [
        visit("u", "A", 0, 1000),
        visit("u", "B", 5000, 6000),
    ]
    links = link_exposures(visits, [positive("u", 10000)])
    return links


def test_single_restaurant_user_trivial_histogram():
    visits = [visit(f"u{i}", "R", 0, 1000) for i in range(5)]
    links = link_exposures(visits, [positive(f"u{i}", 2000) for i in range(5)])
    aggs = aggregate_restaurants(visits, links, Period(0, 10_000))
    assignments, hist = attribute_sources(links, aggs)
    assert all(v == ("R", 1) for v in assignments.values())
    assert hist.fractions == (1.0, 0.0, 0.0, 0.0)
    assert hist.n_users == 5


def test_argmax_on_signal_overrides_recency():
    links = build_linked_case()
    aggs = {
        "A": SimpleNamespace(signal=0.30),  # rank 2
        "B": SimpleNamespace(signal=0.05),  # rank 1
    }
    assignments, hist = attribute_sources(links, aggs)
    assert assignments["u"] == ("A", 2)
    assert hist.fractions == (0.0, 1.0, 0.0, 0.0)


def test_signal_tie_prefers_most_recent():
    links = build_linked_case()
    aggs = {"A": SimpleNamespace(signal=0.2), "B": SimpleNamespace(signal=0.2)}
    assignments, _ = attribute_sources(links, aggs)
    assert assignments["u"] == ("B", 1)


def test_attribution_invariant_under_monotone_signal_rescale():
    rng = make_rng(23, "attr")
    visits, queries = [], []
    for i in range(60):
        u = f"u{i}"
        for j in range(4):
            t = j * 10_000
            visits.append(visit(u, f"r{int(rng.integers(12))}", t, t + 500))
        queries.append(positive(u, 4 * 10_000 + 600))
    links = link_exposures(visits, queries)
    signals = {f"r{k}": float(rng.random()) for k in range(12)}
    base = {rid: SimpleNamespace(signal=s) for rid, s in signals.items()}
    rescaled = {rid: SimpleNamespace(signal=math.exp(4 * s) + 2) for rid, s in signals.items()}
    a1, h1 = attribute_sources(links, base)
    a2, h2 = attribute_sources(links, rescaled)
    assert a1 == a2 and h1 == h2


def test_histogram_fractions_sum_to_one():
    links = build_linked_case()
    aggs = {"A": SimpleNamespace(signal=0.1), "B": SimpleNamespace(signal=0.2)}
    _, hist = attribute_sources(links, aggs)
    assert sum(hist.fractions) == pytest.approx(1.0, abs=1e-9)


def test_missing_aggregate_rejected():
    links = build_linked_case()
    with pytest.raises(DataError, match="no aggregate"):
        attribute_sources(links, {"A": SimpleNamespace(signal=0.1)})

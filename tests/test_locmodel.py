import math
from dataclasses import replace
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foodwatch.citysim import DAY_S
from foodwatch.config import INCUBATION_WINDOW_S
from foodwatch.errors import DataError, UsageError
from foodwatch import locmodel
from foodwatch.locmodel import (
    ExposureLink,
    LocSettings,
    Period,
    aggregate_restaurants,
    attribute_sources,
    rank_restaurants,
    sliding_aggregates,
    wilson_lower_bounds,
)
from foodwatch.logdata import VisitLog
from foodwatch.seeding import make_rng
from oracles import link_exposures_oracle, planted_exposures, scored_queries, wilson_lower_bound, wilson_oracle

from conftest import cells, visit

H72 = INCUBATION_WINDOW_S


class Scored(NamedTuple):
    """A scored query, as a row of scored_queries.csv."""

    user_id: str
    ts: int
    score: float


def positive(user, ts, score=0.9):
    return Scored(user, ts, score)


def exposures(visits, queries, settings=LocSettings()):
    """``locmodel.link_exposures`` over lists of visit events and scored rows."""
    return locmodel.link_exposures(VisitLog.of(visits), scored_queries(queries), settings)


# --- linking -----------------------------------------------------------------


def test_window_inclusive_at_72h():
    links = exposures([visit("u", "r", 0, 1000)], [positive("u", 1000 + H72)])
    assert len(links) == 1 and links[0].recency_rank == 1


def test_window_excludes_past_72h():
    assert exposures([visit("u", "r", 0, 1000)], [positive("u", 1001 + H72)]) == ()


def test_query_must_be_strictly_after_exit():
    assert exposures([visit("u", "r", 0, 1000)], [positive("u", 1000)]) == ()


def test_two_visits_ranked_by_recency():
    visits = [visit("u", "A", 0, 1000), visit("u", "B", 5000, 6000)]
    links = exposures(visits, [positive("u", 6000 + 2 * 86400)])
    ranks = {l.restaurant_id: l.recency_rank for l in links}
    assert ranks == {"B": 1, "A": 2}


def test_first_positive_query_is_the_anchor():
    visits = [visit("u", "A", 0, 1000)]
    queries = [
        positive("u", 2000, score=0.71),
        positive("u", 2000 + H72 + 500, score=0.99),  # later positive, ignored
    ]
    links = exposures(visits, queries)
    assert len(links) == 1 and links[0].first_positive_query_ts == 2000


def test_below_threshold_scores_do_not_anchor():
    links = exposures([visit("u", "A", 0, 1000)], [positive("u", 2000, score=0.69)])
    assert links == ()


def test_repeat_visits_collapse_to_earliest():
    visits = [
        visit("u", "A", 0, 1000),
        visit("u", "A", 5000, 6000),
        visit("u", "A", 9000, 9500),
        visit("u", "B", 7000, 8000),
    ]
    links = exposures(visits, [positive("u", 20000)])
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
    for link in exposures(visits, queries):
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
    links = exposures(
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
    bound = wilson_lower_bounds(np.array([k]), np.array([n])).item()
    assert bound <= k / n + 1e-12
    assert bound == pytest.approx(wilson_oracle(k, n), abs=1e-12)


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
    links = exposures(visits, queries)
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
    links = exposures(visits, queries)
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
    full = aggregate_restaurants(visits, exposures(visits, queries), period)
    dropped = "u7"
    v2 = [v for v in visits if v.user_id != dropped]
    q2 = [q for q in queries if q.user_id != dropped]
    reduced = aggregate_restaurants(v2, exposures(v2, q2), period)
    for rid, agg in reduced.items():
        assert agg.visitors <= full[rid].visitors
        assert agg.affected <= full[rid].affected


def daily_windows(days, window_days):
    return [
        Period(max(0, (day + 1 - window_days) * DAY_S), (day + 1) * DAY_S) for day in range(days)
    ]


def assert_sliding_matches_oracle(visits, links, periods):
    def values(cell):  # repr tells the sign of a zero
        return cell.restaurant_id, cell.visitors, cell.affected, repr(cell.proportion), repr(cell.signal)

    log = VisitLog.of(visits)
    for cells, period in zip(sliding_aggregates(log, links, periods), periods, strict=True):
        oracle = aggregate_restaurants(visits, links, period)
        assert not cells.suppressed.any()
        # same restaurants in the same (sorted) order, same counts and shares
        assert [values(cell) for cell in cells.values()] == [values(agg) for agg in oracle.values()]
        ids = (*log.restaurants, "", "~")  # absent ones too
        assert [rid in cells for rid in ids] == [rid in oracle for rid in ids]
        assert [cells[rid] for rid in oracle] == list(cells.values())


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
    links = list(exposures(visits, queries))
    rng.shuffle(links)
    assert_sliding_matches_oracle(visits, links, daily_windows(days, window_days))


def linked_rank(visit_events, link, window_s):
    """The rank ``link_exposures`` gives the link's visit, found by linking
    the link's user to its anchor once the link's pair has no visit that
    ends before it, so that the visit is its pair's earliest; 0 when the
    link names no qualifying visit."""
    pair = (link.user_id, link.restaurant_id)
    kept = [v for v in visit_events if (v.user_id, v.restaurant_id) != pair or v.exit_ts >= link.visit_exit_ts]
    linked = exposures(kept, [positive(link.user_id, link.first_positive_query_ts)], LocSettings(window_s=window_s))
    ranks = [l.recency_rank for l in linked if (l.restaurant_id, l.visit_exit_ts) == (pair[1], link.visit_exit_ts)]
    return ranks[0] if ranks else 0


# links name users and restaurants the log has or lacks
link_ids = st.tuples(st.sampled_from(["u0", "u1", "u9"]), st.sampled_from(["r0", "r1", "r9"]))
# a visit's link, or one with its restaurant or exit moved, and its wait to the anchor
visit_links = st.tuples(
    st.integers(0, 39), st.sampled_from([None, None, "r0", "r2", "r9"]), st.sampled_from([0, 0, -1, 1]), st.integers(1, 2 * DAY_S)
)


@given(
    visits=st.lists(st.tuples(ids, exit_times), min_size=1, max_size=40),
    picks=st.lists(visit_links, max_size=12),
    strays=st.lists(st.tuples(link_ids, exit_times, st.integers(1, 2 * DAY_S)), max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_recency_ranks_are_zero_exactly_off_a_qualifying_visit(visits, picks, strays):
    # a link's visit may be missing (another exit or restaurant, an unknown
    # id) or end outside its one-day window; repeat visits and ties occur
    visit_events = [visit(u, r, ts, ts) for (u, r), ts in visits]
    links = []
    for at, restaurant, shift, wait in picks:
        v = visit_events[at % len(visit_events)]
        exit_ts = v.exit_ts + shift
        links.append(ExposureLink(v.user_id, restaurant or v.restaurant_id, exit_ts, exit_ts + wait, 1))
    links += [ExposureLink(u, r, ts, ts + wait, 1) for (u, r), ts, wait in strays]
    expected = [linked_rank(visit_events, link, DAY_S) for link in links]
    assert locmodel.recency_ranks(VisitLog.of(visit_events), links, DAY_S).tolist() == expected


@given(
    visits=st.lists(st.tuples(ids, exit_times, st.integers(0, 3600)), max_size=40),
    anchors=st.lists(st.tuples(ids, exit_times), max_size=8),
    window_days=st.integers(1, 3),
)
@settings(max_examples=300, deadline=None)
def test_recency_ranks_match_link_exposures(visits, anchors, window_days):
    # ties on exit, on (exit, restaurant) and whole duplicate visits all occur
    visit_events = [visit(u, r, ts - gap, ts) for (u, r), ts, gap in visits]
    loc = LocSettings(window_s=window_days * DAY_S)
    links = exposures(visit_events, [positive(u, ts + 1) for (u, _), ts in anchors], loc)
    first_anchors = {}
    for (u, _), ts in anchors:
        first_anchors.setdefault(u, ts + 1)
    assert links == link_exposures_oracle(visit_events, first_anchors, loc.window_s)
    log = VisitLog.of(visit_events)
    assert locmodel.recency_ranks(log, links, loc.window_s).tolist() == [l.recency_rank for l in links]
    # a link whose visit ends before its window has no rank, nor one of an
    # unknown user or restaurant
    moved = [replace(l, first_positive_query_ts=l.visit_exit_ts + loc.window_s + 1) for l in links]
    moved.append(ExposureLink("nobody", "r0", 0, 1, 1))
    moved += [ExposureLink(v.user_id, "nowhere", v.exit_ts, v.exit_ts + 1, 1) for v in visit_events[:1]]
    assert locmodel.recency_ranks(log, moved, loc.window_s).tolist() == [0] * len(moved)


# a period between two exit times, empty where they are equal
periods = st.tuples(exit_times, exit_times).map(lambda ts: Period(min(ts), max(ts)))


@given(
    visits=st.lists(st.tuples(ids, exit_times), max_size=40),
    links=st.lists(st.tuples(ids, exit_times), max_size=20),
    periods=st.lists(periods, min_size=1, max_size=6).flatmap(lambda ps: st.permutations(ps + ps[:2])),
)
@settings(max_examples=300, deadline=None)
def test_sliding_window_takes_periods_in_any_order(visits, links, periods):
    # shuffled, overlapping and repeated periods each give their own cells
    visit_events = [visit(u, r, ts, ts) for (u, r), ts in visits]
    link_events = [ExposureLink(u, r, ts, ts + 3600, 1) for (u, r), ts in links]
    assert_sliding_matches_oracle(visit_events, link_events, periods)


# --- ranking -----------------------------------------------------------------


def ranked_ids(counts, settings):
    """rank_restaurants over the exact cells of ``(visitors, affected)``
    pairs by id, as ids."""
    exact = cells(counts)
    return [exact.restaurants[at] for at in rank_restaurants(exact.visitors, exact.signal, settings).tolist()]


def test_all_below_cutoff_is_empty():
    assert ranked_ids({"r1": (100, 1)}, LocSettings(min_visitors=20, cutoff=0.9)) == []


def test_tie_order_is_deterministic():
    counts = {"rB": (50, 10), "rA": (50, 10), "rC": (80, 16)}
    ranked = ranked_ids(counts, LocSettings(min_visitors=20, cutoff=0.0))
    # equal signal: more visitors first, then id ascending
    assert ranked[-2:] == ["rA", "rB"]


def test_ranking_matches_bruteforce_oracle():
    rng = make_rng(19, "rank")
    visitors = [int(rng.integers(1, 200)) for _ in range(500)]
    counts = {f"r{i:03d}": (v, int(rng.integers(0, v + 1))) for i, v in enumerate(visitors)}
    got = ranked_ids(counts, LocSettings(min_visitors=20, cutoff=0.05))
    signal = {rid: wilson_lower_bound(a, v) for rid, (v, a) in counts.items()}
    expected = sorted(
        (rid for rid, (v, _) in counts.items() if v >= 20 and signal[rid] >= 0.05),
        key=lambda rid: (-signal[rid], -counts[rid][0], rid),
    )
    assert got == expected


def test_cutoff_validation():
    with pytest.raises(UsageError, match="locmodel.cutoff"):
        LocSettings(cutoff=1.5)


# --- attribution -------------------------------------------------------------


def test_planted_exposures_window_geometry():
    visits, queries, counts = planted_exposures(50, (0.62, 0.194, 0.115, 0.072), seed=1)
    assert sum(counts) == 50
    by_user = {}
    for v in visits:
        by_user.setdefault(v.user_id, []).append(v)
    for user_id, ts, _ in queries:
        for v in by_user[user_id]:
            assert 0 < ts - v.exit_ts <= 259_200


def build_linked_case():
    visits = [
        visit("u", "A", 0, 1000),
        visit("u", "B", 5000, 6000),
    ]
    links = exposures(visits, [positive("u", 10000)])
    return links


def test_single_restaurant_user_trivial_histogram():
    visits = [visit(f"u{i}", "R", 0, 1000) for i in range(5)]
    links = exposures(visits, [positive(f"u{i}", 2000) for i in range(5)])
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
    links = exposures(visits, queries)
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

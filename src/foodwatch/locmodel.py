"""Join positive queries to prior restaurant visits and rank restaurants.

A user is affected when at least one of their queries scores at or above the
positive threshold; the anchor is their first such query. Every visit whose
exit falls strictly before the anchor and within the incubation window links
the user to the visited restaurant. Per-restaurant evidence is the one-sided
95% Wilson lower bound on the affected-visitor proportion, which penalizes
small samples and is monotone in evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DataError, UsageError
from .logdata import VisitEvent

INCUBATION_WINDOW_S = 259_200  # 72 hours after leaving the restaurant
ONE_SIDED_95_Z = 1.6448536269514722  # standard normal 95th percentile


@dataclass(frozen=True)
class LocSettings:
    """The ``locmodel.*`` settings: linking, aggregation and ranking."""

    window_s: int = INCUBATION_WINDOW_S
    p_star: float = 0.7
    min_visitors: int = 20
    cutoff: float = 0.03
    agg_window_days: int = 14

    def __post_init__(self) -> None:
        if self.agg_window_days < 1:
            raise UsageError(f"locmodel.agg_window_days must be >= 1, got {self.agg_window_days}")
        for name in ("window_s", "min_visitors"):
            if getattr(self, name) < 0:
                raise UsageError(f"locmodel.{name} must be >= 0, got {getattr(self, name)}")
        for name in ("p_star", "cutoff"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise UsageError(f"locmodel.{name} must be in [0, 1], got {getattr(self, name)}")


@dataclass(frozen=True, slots=True)
class ScoredQuery:
    user_id: str
    ts: int
    score: float


@dataclass(frozen=True, slots=True)
class ExposureLink:
    user_id: str
    restaurant_id: str
    visit_exit_ts: int
    first_positive_query_ts: int
    recency_rank: int  # 1 = most recent qualifying visit before the query


@dataclass(frozen=True)
class RestaurantAggregate:
    restaurant_id: str
    visitors: int
    affected: int

    @property
    def proportion(self) -> float:
        return self.affected / self.visitors if self.visitors else 0.0

    @property
    def signal(self) -> float:
        return wilson_lower_bound(self.affected, self.visitors)


@dataclass(frozen=True)
class AttributionHistogram:
    """Fractions of affected users whose source sits at recency rank 1, 2, 3, >=4."""

    fractions: tuple[float, float, float, float]
    n_users: int

    BIN_LABELS = ("1", "2", "3", "4+")


@dataclass(frozen=True)
class Period:
    """Half-open interval [start_ts, end_ts) over visit exit timestamps."""

    start_ts: int
    end_ts: int

    def contains(self, ts: int) -> bool:
        return self.start_ts <= ts < self.end_ts


def wilson_lower_bound(successes: float, trials: float, z: float = ONE_SIDED_95_Z) -> float:
    """One-sided Wilson score lower bound; 0 when there are no trials."""
    if trials <= 0:
        return 0.0
    p = successes / trials
    z2 = z * z
    center = p + z2 / (2 * trials)
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    return max(0.0, (center - half) / (1 + z2 / trials))


def first_positive_queries(
    scored_queries: Iterable[ScoredQuery], p_star: float
) -> dict[str, int]:
    """Per affected user, the timestamp of their first query scoring >= p_star.

    Input is expected in ascending ts order (the loader's contract); the first
    qualifying occurrence wins, so later positives never move the anchor.
    """
    anchors: dict[str, int] = {}
    for q in scored_queries:
        if q.score >= p_star and q.user_id not in anchors:
            anchors[q.user_id] = q.ts
    return anchors


def link_exposures(
    visits: Sequence[VisitEvent],
    scored_queries: Sequence[ScoredQuery],
    settings: LocSettings = LocSettings(),
) -> tuple[ExposureLink, ...]:
    """One link per (affected user, restaurant) with a qualifying visit.

    Qualifying means 0 < anchor_ts - exit_ts <= window_s (strictly after
    leaving, inclusive at the window edge). Recency ranks are assigned over
    all qualifying visits by descending exit; duplicates of a (user,
    restaurant) pair are then collapsed keeping the earliest qualifying visit.
    """
    anchors = first_positive_queries(scored_queries, settings.p_star)
    visits_by_user: dict[str, list[VisitEvent]] = {}
    for v in visits:
        if v.user_id in anchors:
            visits_by_user.setdefault(v.user_id, []).append(v)

    links: list[ExposureLink] = []
    for user_id in sorted(anchors):
        t_q = anchors[user_id]
        qualifying = [
            v
            for v in visits_by_user.get(user_id, [])
            if 0 < t_q - v.exit_ts <= settings.window_s
        ]
        if not qualifying:
            continue
        qualifying.sort(key=lambda v: (-v.exit_ts, v.restaurant_id, v.entry_ts))
        kept: dict[str, ExposureLink] = {}
        for rank, v in enumerate(qualifying, start=1):
            link = ExposureLink(
                user_id=user_id,
                restaurant_id=v.restaurant_id,
                visit_exit_ts=v.exit_ts,
                first_positive_query_ts=t_q,
                recency_rank=rank,
            )
            prev = kept.get(v.restaurant_id)
            if prev is None or link.visit_exit_ts < prev.visit_exit_ts:
                kept[v.restaurant_id] = link
        links.extend(sorted(kept.values(), key=lambda l: l.recency_rank))
    return tuple(links)


def aggregate_restaurants(
    visits: Sequence[VisitEvent],
    links: Sequence[ExposureLink],
    period: Period,
) -> dict[str, RestaurantAggregate]:
    """Distinct visitor and affected-visitor counts per restaurant.

    Both counts are restricted to visits whose exit falls in the period, so
    affected <= visitors holds by construction.
    """
    visitor_sets: dict[str, set[str]] = {}
    for v in visits:
        if period.contains(v.exit_ts):
            visitor_sets.setdefault(v.restaurant_id, set()).add(v.user_id)
    affected_sets: dict[str, set[str]] = {}
    for link in links:
        if period.contains(link.visit_exit_ts):
            affected_sets.setdefault(link.restaurant_id, set()).add(link.user_id)

    aggregates: dict[str, RestaurantAggregate] = {}
    for rid in sorted(visitor_sets):
        visitors = visitor_sets[rid]
        affected = affected_sets.get(rid, set()) & visitors
        aggregates[rid] = RestaurantAggregate(
            restaurant_id=rid, visitors=len(visitors), affected=len(affected)
        )
    return aggregates


def sliding_aggregates(
    visits: Sequence[VisitEvent],
    links: Sequence[ExposureLink],
    periods: Iterable[Period],
) -> Iterator[dict[str, RestaurantAggregate]]:
    """``aggregate_restaurants(visits, links, period)`` for each period in
    turn, computed in one pass.

    Periods must start and end in non-decreasing order. Every visit and link
    enters the window once and leaves it once, so the cost is O(visits +
    links + periods x restaurants) instead of a full scan per period.
    """
    visits = sorted(visits, key=lambda v: v.exit_ts)
    links = sorted(links, key=lambda l: l.visit_exit_ts)
    visitors: dict[str, dict[str, int]] = {}  # rid -> user -> visits in the window
    linked: dict[str, dict[str, int]] = {}  # rid -> user -> links in the window
    affected: dict[str, int] = {}  # rid -> users both visiting and linked

    def enter(counts, other, rid: str, uid: str) -> None:
        users = counts.setdefault(rid, {})
        n = users.get(uid, 0)
        users[uid] = n + 1
        if n == 0 and uid in other.get(rid, ()):
            affected[rid] = affected.get(rid, 0) + 1

    def leave(counts, other, rid: str, uid: str) -> None:
        users = counts[rid]
        n = users[uid] - 1
        if n:
            users[uid] = n
            return
        del users[uid]
        if not users:
            del counts[rid]
        if uid in other.get(rid, ()):
            affected[rid] -= 1

    v_in = v_out = l_in = l_out = 0  # the window holds visits[v_out:v_in], links[l_out:l_in]
    last: Period | None = None
    for period in periods:
        if last and (period.start_ts < last.start_ts or period.end_ts < last.end_ts):
            raise ValueError(f"periods must not move backwards: {period} after {last}")
        last = period
        while v_in < len(visits) and visits[v_in].exit_ts < period.end_ts:
            enter(visitors, linked, visits[v_in].restaurant_id, visits[v_in].user_id)
            v_in += 1
        while l_in < len(links) and links[l_in].visit_exit_ts < period.end_ts:
            enter(linked, visitors, links[l_in].restaurant_id, links[l_in].user_id)
            l_in += 1
        while v_out < v_in and visits[v_out].exit_ts < period.start_ts:
            leave(visitors, linked, visits[v_out].restaurant_id, visits[v_out].user_id)
            v_out += 1
        while l_out < l_in and links[l_out].visit_exit_ts < period.start_ts:
            leave(linked, visitors, links[l_out].restaurant_id, links[l_out].user_id)
            l_out += 1
        yield {
            rid: RestaurantAggregate(rid, len(visitors[rid]), affected.get(rid, 0))
            for rid in sorted(visitors)
        }


def rank_restaurants(
    aggregates: Iterable[RestaurantAggregate],
    settings: LocSettings = LocSettings(),
) -> list[RestaurantAggregate]:
    """Inspection shortlist: at least ``min_visitors`` visitors, signal at or
    above ``cutoff``, strongest signal first (ties: more visitors, then id)."""
    eligible = [a for a in aggregates if a.visitors >= settings.min_visitors and a.signal >= settings.cutoff]
    eligible.sort(key=lambda a: (-a.signal, -a.visitors, a.restaurant_id))
    return eligible


def attribute_sources(
    links: Sequence[ExposureLink],
    aggregates: Mapping[str, RestaurantAggregate],
) -> tuple[dict[str, tuple[str, int]], AttributionHistogram]:
    """Per affected user, the linked restaurant with the strongest signal
    (ties: most recent visit, then id), plus the histogram of chosen source
    recency ranks binned 1 / 2 / 3 / 4-and-earlier.
    """
    by_user: dict[str, list[ExposureLink]] = {}
    for link in links:
        if link.restaurant_id not in aggregates:
            raise DataError(f"no aggregate for linked restaurant {link.restaurant_id}")
        by_user.setdefault(link.user_id, []).append(link)

    assignments: dict[str, tuple[str, int]] = {}
    bins = [0, 0, 0, 0]
    for user_id in sorted(by_user):
        best = min(
            by_user[user_id],
            key=lambda l: (-aggregates[l.restaurant_id].signal, l.recency_rank, l.restaurant_id),
        )
        assignments[user_id] = (best.restaurant_id, best.recency_rank)
        bins[min(best.recency_rank, 4) - 1] += 1

    total = sum(bins)
    fractions = tuple(b / total for b in bins) if total else (0.0, 0.0, 0.0, 0.0)
    return assignments, AttributionHistogram(fractions=fractions, n_users=total)

"""Join positive queries to prior restaurant visits and rank restaurants.

A user is affected when at least one of their queries scores at or above the
positive threshold; the anchor is their first such query. Every visit whose
exit falls strictly before the anchor and within the incubation window links
the user to the visited restaurant. Per-restaurant evidence is the one-sided
95% Wilson lower bound on the affected-visitor proportion, which penalizes
small samples and is monotone in evidence. Each day's window is counted
directly, from masks over the log's (restaurant, user) pairs, with no state
carried from the day before. A day's counts have one shape,
``RestaurantCells``: the window count yields them exact and
``privacy.release`` noises them, and both take their shares from ``shares``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .config import LocSettings
from .errors import DataError
from .logdata import Columns, VisitEvent, VisitLog, first_occurrences, sorted_by

ONE_SIDED_95_Z = 1.6448536269514722  # standard normal 95th percentile


@dataclass(frozen=True, eq=False)
class ScoredQueries(Columns):
    """Scored query events in stream order, as columns: each event's user (a
    code into ``users``), time and score. Its items are ``(user_id, ts,
    score)`` rows, those of ``scored_queries.csv``."""

    users: Sequence[str]
    user: np.ndarray
    ts: np.ndarray
    score: np.ndarray

    def __len__(self) -> int:
        return len(self.ts)

    def _views(self, start: int, stop: int) -> Iterator[tuple[str, int, float]]:
        return zip(
            map(self.users.__getitem__, self.user[start:stop].tolist()),
            self.ts[start:stop].tolist(),
            self.score[start:stop].tolist(),
        )


@dataclass(frozen=True, slots=True)
class ExposureLink:
    user_id: str
    restaurant_id: str
    visit_exit_ts: int
    first_positive_query_ts: int
    recency_rank: int  # 1 = most recent qualifying visit before the query


@dataclass(frozen=True)
class ReleasedAggregate:
    """One restaurant's cell, in the shape of a daily-list row: integer counts
    when exact, real-valued when noised, and no values when suppressed."""

    restaurant_id: str
    suppressed: bool
    visitors: float | None
    affected: float | None
    proportion: float | None
    signal: float | None  # Wilson lower bound from the cell's counts


@dataclass(frozen=True, eq=False)
class RestaurantCells(Mapping):
    """One day's per-restaurant cells as columns, in restaurant-id order:
    ``restaurant`` holds ascending codes into ``restaurants``, a sorted table
    of ids. The window yields exact cells and the release noised ones, in
    this one shape. It maps each id to its ``ReleasedAggregate`` view."""

    restaurants: Sequence[str]
    restaurant: np.ndarray
    suppressed: np.ndarray
    visitors: np.ndarray
    affected: np.ndarray
    proportion: np.ndarray
    signal: np.ndarray

    @classmethod
    def exact(cls, restaurants: Sequence[str], restaurant: np.ndarray, visitors, affected) -> RestaurantCells:
        """Unsuppressed cells of the given counts, with their shares."""
        suppressed = np.zeros(len(restaurant), dtype=bool)
        return cls(restaurants, restaurant, suppressed, visitors, affected, *shares(visitors, affected))

    def cell(self, at: int) -> ReleasedAggregate:
        """The view of the cell at position ``at``."""
        rid = self.restaurants[int(self.restaurant[at])]
        if self.suppressed[at]:
            return ReleasedAggregate(rid, True, None, None, None, None)
        values = (column[at].item() for column in (self.visitors, self.affected, self.proportion, self.signal))
        return ReleasedAggregate(rid, False, *values)

    def __len__(self) -> int:
        return len(self.restaurant)

    def __iter__(self) -> Iterator[str]:
        return map(self.restaurants.__getitem__, self.restaurant.tolist())

    def __getitem__(self, restaurant_id: str) -> ReleasedAggregate:
        code = bisect_left(self.restaurants, restaurant_id)
        at = int(np.searchsorted(self.restaurant, code))  # len(self) if code is past every id
        if at == len(self) or self.restaurant[at] != code or self.restaurants[code] != restaurant_id:
            raise KeyError(restaurant_id)
        return self.cell(at)

    def values(self) -> Iterator[ReleasedAggregate]:
        return map(self.cell, range(len(self)))

    def items(self) -> Iterator[tuple[str, ReleasedAggregate]]:
        return zip(self, self.values())


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


def wilson_lower_bounds(successes: np.ndarray, trials: np.ndarray, z: float = ONE_SIDED_95_Z) -> np.ndarray:
    """The one-sided Wilson score lower bound of each pair, 0 where there are
    no trials. The operations and their order are those of the scalar
    formula, so each bound equals the scalar one bit for bit."""
    with np.errstate(divide="ignore", invalid="ignore"):  # trials <= 0 give 0.0 below
        p = successes / trials
        z2 = z * z
        center = p + z2 / (2 * trials)
        half = z * np.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
        bound = (center - half) / (1 + z2 / trials)
    return np.where(trials <= 0, 0.0, np.where(bound > 0.0, bound, 0.0))


def _max(x: np.ndarray, y: np.ndarray | float) -> np.ndarray:
    """The builtin ``max(x, y)`` per element, signed zeros included."""
    return np.where(y > x, y, x)


def _min(x: np.ndarray, y: np.ndarray | float) -> np.ndarray:
    """The builtin ``min(x, y)`` per element, signed zeros included."""
    return np.where(y < x, y, x)


def shares(visitors: np.ndarray, affected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's proportion, clamped to [0, 1], and its Wilson lower bound,
    with the counts clamped to a valid (successes, trials) pair, so noised
    counts get valid shares. On exact counts they are affected / visitors and
    the Wilson bound of (affected, visitors), 0.0 at 0 visitors."""
    trials = _max(visitors, 1.0)
    proportion = _min(_max(affected / trials, 0.0), 1.0)
    return proportion, wilson_lower_bounds(_min(_max(affected, 0.0), trials), trials)


def first_positive_queries(scored: ScoredQueries, p_star: float) -> dict[str, int]:
    """Per affected user, the timestamp of their first query scoring >= p_star.

    Input is expected in ascending ts order (the loader's contract); the first
    qualifying occurrence wins, so later positives never move the anchor.
    """
    hits = np.flatnonzero(scored.score >= p_star)
    anchors = hits[first_occurrences(scored.user[hits])]
    return dict(zip(map(scored.users.__getitem__, scored.user[anchors].tolist()), scored.ts[anchors].tolist()))


def link_exposures(
    visits: VisitLog,
    scored_queries: ScoredQueries,
    settings: LocSettings = LocSettings(),
) -> tuple[ExposureLink, ...]:
    """One link per (affected user, restaurant) with a qualifying visit.

    Qualifying means 0 < anchor_ts - exit_ts <= window_s (strictly after
    leaving, inclusive at the window edge). Each (user, restaurant) pair
    keeps its earliest qualifying visit, ranked by ``_recency_ranks`` over
    all the user's qualifying visits. Links are ordered by user id, then
    rank.
    """
    visits = sorted_by(visits, visits.exit_ts)
    anchors = first_positive_queries(scored_queries, settings.p_star)
    affected = np.array([user_id in anchors for user_id in visits.users], dtype=bool)
    anchor = np.array([anchors.get(user_id, 0) for user_id in visits.users], dtype=np.int64)[visits.user]
    in_window = (anchor - settings.window_s <= visits.exit_ts) & (visits.exit_ts < anchor)
    qualifying = np.flatnonzero(affected[visits.user] & in_window)
    # each (user, restaurant) pair's first qualifying visit in the exit-sorted log is its earliest
    kept = qualifying[first_occurrences(_pair_codes(visits)[qualifying])]
    user, restaurant, exit_ts, anchor = visits.user[kept], visits.restaurant[kept], visits.exit_ts[kept], anchor[kept]
    ranks = _recency_ranks(visits, user, restaurant, exit_ts, anchor)
    links = np.lexsort((ranks, user))  # user codes ascend with the ids
    return tuple(
        ExposureLink(visits.users[u], visits.restaurants[r], x, t, rank)
        for u, r, x, t, rank in zip(*(column[links].tolist() for column in (user, restaurant, exit_ts, anchor, ranks)))
    )


def _pair_codes(visits: VisitLog) -> np.ndarray:
    """Each visit's (restaurant, user) pair as one code."""
    return visits.restaurant.astype(np.int64) * max(len(visits.users), 1) + visits.user


def _link_codes(visits: VisitLog, links: Sequence[ExposureLink]) -> tuple[np.ndarray, ...]:
    """Each link's user and restaurant as codes of ``visits``, -1 for an id
    the log lacks, and its visit exit and anchor."""
    users = {user_id: code for code, user_id in enumerate(visits.users)}
    restaurants = {rid: code for code, rid in enumerate(visits.restaurants)}
    return (
        np.array([users.get(l.user_id, -1) for l in links], dtype=np.int64),
        np.array([restaurants.get(l.restaurant_id, -1) for l in links], dtype=np.int64),
        np.array([l.visit_exit_ts for l in links], dtype=np.int64),
        np.array([l.first_positive_query_ts for l in links], dtype=np.int64),
    )


def _visits_ending_at(visits: VisitLog, exits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (i, visit) pair of the exit-sorted log where the visit ends at
    ``exits[i]``, as two arrays. The visits are found by binary search, so
    no array as long as the log is built."""
    first = np.searchsorted(visits.exit_ts, exits)
    counts = np.searchsorted(visits.exit_ts, exits, "right") - first
    i = np.repeat(np.arange(len(exits)), counts)
    return i, first[i] + np.arange(len(i)) - (np.cumsum(counts) - counts)[i]


def _recency_ranks(visits: VisitLog, user, restaurant, exit_ts, anchor) -> np.ndarray:
    """Per row of the code columns, the recency rank of a visit by ``user``
    to ``restaurant`` that ends at ``exit_ts``, before ``anchor``: 1, plus
    the user's visits that end in (exit_ts, anchor), plus those that end at
    exit_ts at a restaurant with a smaller id; 0 for a row that names no
    visit of the log. ``visits`` is sorted by exit.

    The user's visits that end before a time are counted by binary search
    over one sorted array of (user, log position) codes; the visits ending
    at exit_ts tell both whether the row's visit is there and which visits
    tie with it."""
    n = len(visits)
    user = user.astype(np.int64)
    keys = visits.user.astype(np.int64)  # (user, log position) codes, sorted: by user, then exit
    keys *= n
    keys += np.arange(n)
    keys.sort()

    def ending_before(ts: np.ndarray) -> np.ndarray:
        """Per row, how many of its user's visits end before ``ts``."""
        return np.searchsorted(keys, user * n + np.searchsorted(visits.exit_ts, ts)) - np.searchsorted(keys, user * n)

    row, at = _visits_ending_at(visits, exit_ts)
    own = visits.user[at] == user[row]
    tied = np.bincount(row[own & (visits.restaurant[at] < restaurant[row])], minlength=len(user))
    visited = np.bincount(row[own & (visits.restaurant[at] == restaurant[row])], minlength=len(user)) > 0
    return np.where(visited, 1 + ending_before(anchor) - ending_before(exit_ts + 1) + tied, 0)


def recency_ranks(visits: VisitLog, links: Sequence[ExposureLink], window_s: int) -> np.ndarray:
    """The recency rank ``link_exposures`` gives each link's visit, by
    ``_recency_ranks``; 0 for a link that names no qualifying visit: its
    (user, restaurant, visit exit) is no visit of the log, an unknown id
    included, or its visit ends outside [anchor - window_s, anchor)."""
    visits = sorted_by(visits, visits.exit_ts)
    user, restaurant, exit_ts, anchor = _link_codes(visits, links)
    ranks = _recency_ranks(visits, user, restaurant, exit_ts, anchor)  # an unknown id's -1 meets no visit
    return np.where((anchor - window_s <= exit_ts) & (exit_ts < anchor), ranks, 0)


def aggregate_restaurants(
    visits: Iterable[VisitEvent],
    links: Sequence[ExposureLink],
    period: Period,
) -> RestaurantCells:
    """Distinct visitor and affected-visitor counts per restaurant, as exact
    cells in restaurant-id order.

    Both counts are restricted to visits whose exit falls in the period, so
    affected <= visitors holds by construction. The counts are sizes of
    per-restaurant user sets, built from the visit events one at a time: the
    brute-force reference for ``sliding_aggregates``, which every stage uses.
    """
    visitor_sets: dict[str, set[str]] = {}
    for v in visits:
        if period.contains(v.exit_ts):
            visitor_sets.setdefault(v.restaurant_id, set()).add(v.user_id)
    affected_sets: dict[str, set[str]] = {}
    for link in links:
        if period.contains(link.visit_exit_ts):
            affected_sets.setdefault(link.restaurant_id, set()).add(link.user_id)

    ids = sorted(visitor_sets)
    visitors = np.array([len(visitor_sets[rid]) for rid in ids], dtype=np.int64)
    affected = np.array([len(affected_sets.get(rid, set()) & visitor_sets[rid]) for rid in ids], dtype=np.int64)
    return RestaurantCells.exact(tuple(ids), np.arange(len(ids)), visitors, affected)


def sliding_aggregates(
    visits: VisitLog,
    links: Sequence[ExposureLink],
    periods: Iterable[Period],
) -> Iterator[RestaurantCells]:
    """``aggregate_restaurants(visits, links, period)`` for each period in
    turn, as exact cells; periods may come in any order.

    Each period counts its window directly, over the distinct (restaurant,
    user) code pairs of the visits and links: one mask marks the pairs with
    a visit in the period's slice of the exit-sorted log, another those with
    a link whose exit falls in the period. A restaurant's visitors are its
    marked pairs, and its affected visitors those marked in both masks.
    """
    visits = sorted_by(visits, visits.exit_ts)
    user, restaurant, link_exit, _ = _link_codes(visits, links)
    known = (user >= 0) & (restaurant >= 0)  # a link of an unknown id meets no visit
    width = max(len(visits.users), 1)  # as in _pair_codes
    link_pair = restaurant[known] * width + user[known]
    pairs, pair = np.unique(np.concatenate((_pair_codes(visits), link_pair)), return_inverse=True)
    visit_pair, link_pair, link_exit = pair[: len(visits)], pair[len(visits) :], link_exit[known]
    pair_restaurant = pairs // width
    n = len(visits.restaurants)
    for period in periods:
        start, end = np.searchsorted(visits.exit_ts, (period.start_ts, period.end_ts)).tolist()
        visited = np.zeros(len(pairs), dtype=bool)
        visited[visit_pair[start:end]] = True
        linked = np.zeros(len(pairs), dtype=bool)
        linked[link_pair[(period.start_ts <= link_exit) & (link_exit < period.end_ts)]] = True
        visitors = np.bincount(pair_restaurant[visited], minlength=n)
        affected = np.bincount(pair_restaurant[visited & linked], minlength=n)
        present = np.flatnonzero(visitors)
        yield RestaurantCells.exact(visits.restaurants, present, visitors[present], affected[present])


def rank_restaurants(visitors: np.ndarray, signal: np.ndarray, settings: LocSettings = LocSettings()) -> np.ndarray:
    """Inspection shortlist of cells in restaurant-id order, as positions into
    their columns: at least ``min_visitors`` visitors, signal at or above
    ``cutoff``, strongest signal first (ties: more visitors, then id)."""
    eligible = np.flatnonzero((visitors >= settings.min_visitors) & (signal >= settings.cutoff))
    return eligible[np.lexsort((eligible, -visitors[eligible], -signal[eligible]))]


def attribute_sources(
    links: Sequence[ExposureLink],
    aggregates: Mapping[str, ReleasedAggregate],
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

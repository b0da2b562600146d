"""Independent reference implementations used as test oracles.

These deliberately take different computational routes from the library code
they check: closed-form 2x2 odds ratios, Simpson quadrature for the
chi-square tail, pairwise-disagreement Krippendorff alpha, brute-force
majority voting, O(n^2) pairwise AUC, a per-example logistic loss and
gradient, the scalar Wilson bound, exposure links ranked one anchor at a
time, a planted-recency scenario built one user at a time, a query log written
with one ``json.dumps`` per event, the query and visit logs loaded as one
object per event and page, and the city simulated with one scalar generator
per user-day.
"""

import json
import math
import sys
from typing import Iterable, Mapping, Sequence

import numpy as np

from foodwatch.citysim import (
    AMBIGUOUS_FOODBORNE_TEMPLATES,
    AMBIGUOUS_OTHER_TEMPLATES,
    BACKGROUND_SUFFIXES,
    BACKGROUND_TEMPLATES,
    DAY_S,
    LOCALITIES,
    POSITIVE_MODIFIERS,
    POSITIVE_TEMPLATES,
    RESULT_PAGES,
    GroundTruth,
    InfectionRecord,
    SimConfig,
    World,
    day_to_date,
    simulate_inspection,
)
from foodwatch.errors import DataError, DataFormatError
from foodwatch.locmodel import ONE_SIDED_95_Z, ExposureLink, ScoredQueries
from foodwatch.logdata import (
    MAX_RESULTS_PER_QUERY,
    MAX_TS,
    Dataset,
    InspectionRecord,
    QueryEvent,
    QueryLog,
    ResultPage,
    Trigger,
    VisitEvent,
    VisitLog,
    sorted_by,
)
from foodwatch.report import read_csv
from foodwatch.seeding import make_rng


def crossproduct_oracle(a, b, c, d):
    """Odds ratio and Wald CI for a 2x2 table from the textbook formulas."""
    or_hat = (a / b) / (c / d)
    se = math.sqrt(1 / a + 1 / b + 1 / c + 1 / d)
    lo = math.exp(math.log(or_hat) - 1.96 * se)
    hi = math.exp(math.log(or_hat) + 1.96 * se)
    return or_hat, (lo, hi)


def chi2_sf_quadrature(x, dof, steps=200_000):
    """Chi-square upper tail by Simpson quadrature on t = sqrt(u), which
    removes the dof=1 integrable singularity at the origin."""
    k = dof / 2.0
    log_norm = -k * math.log(2.0) - math.lgamma(k)

    def g(t):
        if t == 0.0:
            return 0.0 if dof != 1 else 2.0 * math.exp(log_norm)
        u = t * t
        return 2.0 * t * math.exp(log_norm + (k - 1.0) * math.log(u) - u / 2.0)

    hi = math.sqrt(x)
    h = hi / steps
    total = g(0.0) + g(hi)
    for i in range(1, steps):
        total += g(i * h) * (4 if i % 2 else 2)
    return 1.0 - total * h / 3.0


def alpha_pairwise_oracle(data):
    """Krippendorff's alpha via within-unit pairwise disagreements."""
    units = []
    for row in np.asarray(data, dtype=float):
        present = [v for v in row if not np.isnan(v)]
        if len(present) >= 2:
            units.append(present)
    n = sum(len(u) for u in units)
    d_o = 0.0
    for u in units:
        d_u = sum(a != b for a in u for b in u)
        d_o += d_u / (len(u) - 1)
    d_o /= n
    values = [v for u in units for v in u]
    d_e = sum(a != b for a in values for b in values) / (n * (n - 1))
    return 1.0 if d_e == 0 else 1.0 - d_o / d_e


def vote_majority_oracle(md, other):
    """Six-vote majority with 3-3 ties settled by the MD bloc."""
    total = sum(md) + sum(other)
    if total != 3:
        return 1 if total > 3 else 0
    return 1 if sum(md) >= 2 else 0


def auc_pairwise_oracle(scores, labels):
    """AUC by explicit positive-negative pair counting, ties worth one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for s in pos:
        wins += np.sum(s > neg) + 0.5 * np.sum(s == neg)
    return wins / (len(pos) * len(neg))


def wilson_oracle(k, n, z=1.6448536269514722):
    if n == 0:
        return 0.0
    phat = k / n
    denominator = 1.0 + z**2 / n
    centre = phat + z**2 / (2.0 * n)
    margin = z * math.sqrt((phat * (1.0 - phat) + z**2 / (4.0 * n)) / n)
    return max(0.0, (centre - margin) / denominator)


def wilson_lower_bound(successes: float, trials: float, z: float = ONE_SIDED_95_Z) -> float:
    """One-sided Wilson score lower bound of one pair; 0 when there are no
    trials. ``locmodel.wilson_lower_bounds`` runs these operations in this
    order on arrays, so it must equal this bit for bit."""
    if trials <= 0:
        return 0.0
    p = successes / trials
    z2 = z * z
    center = p + z2 / (2 * trials)
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    return max(0.0, (center - half) / (1 + z2 / trials))


def logistic_oracle(weights, intercept, vectors, labels, l2, sigmoid):
    """Mean logistic loss plus (l2/2)*||w||^2 and its gradient, one example
    at a time: each margin summed left to right in Python, the loss from a
    scalar softplus, the gradient scattered by one ``np.add.at`` per example.
    ``sigmoid`` is the library's link, so the gradient isolates the
    accumulation."""
    n = len(vectors)
    z = np.empty(n)
    for i, idx in enumerate(vectors):
        total = 0.0
        for j in idx:
            total += float(weights[j])
        z[i] = intercept + total
    nll = 0.0
    for zi, yi in zip(z.tolist(), labels.tolist()):
        nll += max(zi, 0.0) + math.log1p(math.exp(-abs(zi))) - yi * zi
    loss = nll / n + 0.5 * l2 * math.fsum(w * w for w in weights.tolist())
    err = (sigmoid(z) - labels) / n
    grad_w = l2 * weights
    for idx, e in zip(vectors, err):
        np.add.at(grad_w, idx, e)
    return loss, grad_w, float(err.sum())


def link_exposures_oracle(visits, anchors, window_s):
    """The links of visit events to each user's anchor in ``anchors``, one
    anchor at a time: the user's visits that end in [anchor - window_s,
    anchor), sorted by descending exit, then restaurant id, are ranked 1, 2,
    ...; each restaurant keeps its earliest such visit with that visit's
    rank. Ordered by user id, then rank."""
    links = []
    for user_id in sorted(anchors):
        anchor = anchors[user_id]
        qualifying = sorted(
            (-v.exit_ts, v.restaurant_id)
            for v in visits
            if v.user_id == user_id and anchor - window_s <= v.exit_ts < anchor
        )
        kept = {}
        for rank, (neg_exit, restaurant_id) in enumerate(qualifying, start=1):
            if restaurant_id not in kept or -neg_exit < kept[restaurant_id].visit_exit_ts:
                kept[restaurant_id] = ExposureLink(user_id, restaurant_id, -neg_exit, anchor, rank)
        links += sorted(kept.values(), key=lambda l: l.recency_rank)
    return tuple(links)


def scored_queries(rows: Iterable[tuple[str, int, float]]) -> ScoredQueries:
    """The ``ScoredQueries`` columns of ``(user_id, ts, score)`` rows, in the
    given order."""
    rows = list(rows)
    codes: dict[str, int] = {}
    user = [codes.setdefault(user_id, len(codes)) for user_id, _, _ in rows]
    return ScoredQueries(
        tuple(codes),
        np.array(user, dtype=np.int32),
        np.array([ts for _, ts, _ in rows], dtype=np.int64),
        np.array([score for _, _, score in rows], dtype=float),
    )


def planted_exposures(
    n_users: int,
    rank_probs: Sequence[float],
    seed: int,
    visits_per_user: int = 5,
    n_source: int = 200,
    n_decoy: int = 400,
    padding_per_decoy: int = 100,
):
    """Validation scenario with known source recency ranks.

    Every planted user visits ``visits_per_user`` restaurants and then issues
    one positive query; the true source sits at a recency rank drawn from
    ``rank_probs`` (over ranks 1, 2, 3, >=4) and is a dedicated high-signal
    restaurant, while decoy restaurants are diluted by unaffected padding
    visitors so their signal stays low. Returns (visits, scored_queries,
    planted_rank_counts), the first two as a visit log and scored queries.
    """
    if len(rank_probs) != 4 or abs(sum(rank_probs) - 1.0) > 0.01:
        raise ValueError("rank_probs must be four probabilities summing to ~1")
    if visits_per_user < 4:
        raise ValueError("need at least 4 visits per user to cover the 4+ bin")
    rank_probs = np.asarray(rank_probs, dtype=float)
    rank_probs = rank_probs / rank_probs.sum()  # absorb rounding in quoted fractions
    rng = make_rng(seed, "planted-exposures")
    source_ids = [f"s{i:04d}" for i in range(n_source)]
    decoy_ids = [f"d{i:04d}" for i in range(n_decoy)]

    visits: list[VisitEvent] = []
    queries: list = []
    planted_counts = [0, 0, 0, 0]
    gap = 12 * 3600

    for i in range(n_users):
        uid = f"p{i:06d}"
        bin_idx = int(rng.choice(4, p=rank_probs))
        planted_counts[bin_idx] += 1
        rank = bin_idx + 1
        if rank == 4 and visits_per_user > 4:
            rank = 4 + int(rng.integers(visits_per_user - 3))  # anywhere in the 4+ bin
        source = source_ids[int(rng.integers(n_source))]
        decoys = [decoy_ids[j] for j in rng.choice(n_decoy, size=visits_per_user - 1, replace=False)]

        base = i * 10  # stagger users; window arithmetic only needs offsets
        query_ts = base + visits_per_user * gap + 3600
        for pos in range(visits_per_user):  # pos 0 = most recent visit
            exit_ts = query_ts - 3600 - pos * gap
            rid = source if pos == rank - 1 else decoys.pop()
            visits.append(VisitEvent(uid, rid, exit_ts - 1800, exit_ts))
        queries.append((uid, query_ts, 0.99))

    for i in range(n_decoy * padding_per_decoy):
        uid = f"pad{i:06d}"
        rid = decoy_ids[i % n_decoy]
        exit_ts = 1_000_000_000 + i  # far from every query window
        visits.append(VisitEvent(uid, rid, exit_ts - 1800, exit_ts))

    log = VisitLog.of(visits)
    queries.sort(key=lambda q: q[1])
    return sorted_by(log, log.exit_ts), scored_queries(queries), tuple(planted_counts)



def write_queries_per_event(events, path):
    """The query log as one ``json.dumps`` of the whole event per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            results = [
                {
                    "url": page.url,
                    "title": page.title,
                    "snippet": page.snippet,
                    "concept_tags": sorted(page.concept_tags),
                    "clicked": page.clicked,
                    "dwell_s": page.dwell_s,
                }
                for page in event.results
            ]
            record = {"user_id": event.user_id, "ts": event.ts, "text": event.text, "results": results}
            fh.write(json.dumps(record, ensure_ascii=False))
            fh.write("\n")


def _fields(obj, expected, what):
    if set(obj) != set(expected):
        raise ValueError(
            f"{what} fields: missing {sorted(set(expected) - set(obj))}, unknown {sorted(set(obj) - set(expected))}"
        )


def _string(obj, name):
    if type(obj[name]) is not str:
        raise ValueError(f"{name} must be a string, got {type(obj[name]).__name__}")
    return obj[name]


def _result_object(obj):
    if not isinstance(obj, dict):
        raise ValueError("result entry is not an object")
    _fields(obj, ("url", "title", "snippet", "concept_tags", "clicked", "dwell_s"), "result")
    clicked, dwell, tags = obj["clicked"], obj["dwell_s"], obj["concept_tags"]
    if not isinstance(clicked, bool):
        raise ValueError("clicked must be a boolean")
    if isinstance(dwell, bool) or not isinstance(dwell, (int, float)) or not 0 <= dwell <= sys.float_info.max:
        raise ValueError("dwell_s must be a finite non-negative number")
    if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
        raise ValueError("concept_tags must be a list of strings")
    url, title, snippet = (_string(obj, name) for name in ("url", "title", "snippet"))
    return ResultPage(url, title, snippet, frozenset(tags), clicked, float(dwell))


def _query_object(line):
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    _fields(obj, ("user_id", "ts", "text", "results"), "query")
    ts, results = obj["ts"], obj["results"]
    if not isinstance(ts, int) or isinstance(ts, bool) or ts < 0:
        raise ValueError("ts must be a non-negative integer")
    if ts > MAX_TS:
        raise ValueError(f"ts must be <= {MAX_TS}")
    if not isinstance(results, list):
        raise ValueError("results must be a list")
    if len(results) > MAX_RESULTS_PER_QUERY:
        raise ValueError(f"more than {MAX_RESULTS_PER_QUERY} results")
    user_id, text = _string(obj, "user_id"), _string(obj, "text")
    return QueryEvent(user_id, ts, text, tuple(_result_object(r) for r in results))


def load_query_objects(path):
    """The query log as one QueryEvent per line and one ResultPage per
    result, sorted stably by ts: the object loader that the columnar query
    log replaced, with the same checks and messages."""
    events = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                events.append(_query_object(line))
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    return sorted(events, key=lambda e: e.ts)


def _timestamp(raw, name):
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    if value > MAX_TS:
        raise ValueError(f"{name} must be <= {MAX_TS}, got {value}")
    return value


def _visit_object(row):
    user_id, restaurant_id, entry_s, exit_s = row
    entry_ts, exit_ts = _timestamp(entry_s, "entry_ts"), _timestamp(exit_s, "exit_ts")
    if entry_ts > exit_ts:
        raise ValueError(f"entry_ts {entry_ts} > exit_ts {exit_ts}")
    return VisitEvent(user_id, restaurant_id, entry_ts, exit_ts)


def load_visit_objects(path):
    """The visit log as one VisitEvent per row, sorted stably by exit_ts."""
    _, visits = read_csv(path, ["user_id", "restaurant_id", "entry_ts", "exit_ts"], _visit_object)
    return sorted(visits, key=lambda v: v.exit_ts)


_FOODBORNE_PAGES = tuple(page[:3] for page in RESULT_PAGES[:2])
_GENERAL_HEALTH_PAGE = RESULT_PAGES[2][:3]
_GENERIC_PAGES = tuple(page[:3] for page in RESULT_PAGES[3:])
_FOODBORNE_TAGS, _HEALTH_TAGS, _LOCAL_TAGS = RESULT_PAGES[0][3], RESULT_PAGES[2][3], RESULT_PAGES[3][3]

# A result page's fields: url, title, snippet, concept tags, clicked, dwell_s.
Page = tuple[str, str, str, frozenset[str], bool, float]


def _draw_incubation_s(rng: np.random.Generator, cfg: SimConfig) -> int:
    """Lognormal symptom delay truncated to (6 h, 72 h], in whole seconds."""
    lo, hi = 6 * 3600.0, 72 * 3600.0
    mu = math.log(cfg.incubation_median_h * 3600.0)
    if cfg.incubation_sigma == 0:
        return int(round(cfg.incubation_median_h * 3600.0))
    for _ in range(10_000):
        delay = math.exp(mu + cfg.incubation_sigma * rng.standard_normal())
        if lo < delay <= hi:
            return int(round(delay))
    return int(hi)


def _pick(rng: np.random.Generator, pool: tuple[str, ...]) -> str:
    return pool[int(rng.integers(len(pool)))]


def _positive_text(rng: np.random.Generator) -> str:
    text = _pick(rng, POSITIVE_TEMPLATES)
    if rng.random() < 0.65:
        text = f"{text} {_pick(rng, POSITIVE_MODIFIERS)}"
    return text


def _background_text(rng: np.random.Generator) -> str:
    # head-heavy mix: bare templates repeat a lot, long combinations are rare
    text = _pick(rng, BACKGROUND_TEMPLATES)
    r = rng.random()
    if r < 0.35:
        return text
    if r < 0.75:
        return f"{text} {_pick(rng, BACKGROUND_SUFFIXES)}"
    if r < 0.90:
        return f"{text} {_pick(rng, LOCALITIES)}"
    return f"{text} {_pick(rng, BACKGROUND_SUFFIXES)} {_pick(rng, LOCALITIES)}"


def _positive_query(rng: np.random.Generator, cfg: SimConfig) -> tuple[str, Page]:
    """An infected searcher's query text and its one result page."""
    text = _positive_text(rng)
    url, title, snippet = _FOODBORNE_PAGES[int(rng.integers(len(_FOODBORNE_PAGES)))]
    clicked = bool(rng.random() < cfg.p_positive_click)
    dwell = 0.0
    if clicked:  # lognormal around the median, to a tenth of a second
        log_dwell = math.log(cfg.positive_dwell_median_s) + cfg.positive_dwell_sigma * rng.standard_normal()
        dwell = float(round(math.exp(log_dwell), 1))
    return text, (url, title, snippet, _FOODBORNE_TAGS, clicked, dwell)


def _ambiguify(rng: np.random.Generator, template: str) -> str:
    r = rng.random()
    if r < 0.45:
        return f"{template} {_pick(rng, BACKGROUND_SUFFIXES)}"
    if r < 0.80:
        return f"{template} {_pick(rng, LOCALITIES)}"
    return template


def _background_query(rng: np.random.Generator, cfg: SimConfig) -> tuple[str, Page, int]:
    """One non-illness-driven query: its text, its one result page and its
    ground-truth topical label.

    Most are plain background noise; a small fraction are ambiguous health
    research that clicks a foodborne-topic page briefly, split between
    queries raters would call foodborne (label 1) and ones they would not.
    """
    label = 0
    if rng.random() < cfg.p_background_foodclick:
        # dwell tracks topical relevance: genuinely foodborne research holds
        # the reader, off-topic curiosity bounces quickly
        if rng.random() < 0.6:
            text = _ambiguify(rng, _pick(rng, AMBIGUOUS_FOODBORNE_TEMPLATES))
            label = 1
            url, title, snippet = _FOODBORNE_PAGES[int(rng.integers(len(_FOODBORNE_PAGES)))]
            tags = _FOODBORNE_TAGS
            dwell_mean = 20.0
        else:
            text = _ambiguify(rng, _pick(rng, AMBIGUOUS_OTHER_TEMPLATES))
            dwell_mean = 8.0
            if rng.random() < 0.5:
                url, title, snippet = _FOODBORNE_PAGES[int(rng.integers(len(_FOODBORNE_PAGES)))]
                tags = _FOODBORNE_TAGS
            else:
                url, title, snippet = _GENERAL_HEALTH_PAGE
                tags = _HEALTH_TAGS
        page = (url, title, snippet, tags, True, float(round(rng.exponential(dwell_mean), 1)))
    else:
        text = _background_text(rng)
        url, title, snippet = _GENERIC_PAGES[int(rng.integers(len(_GENERIC_PAGES)))]
        if rng.random() < 0.5:
            page = (url, title, snippet, _LOCAL_TAGS, True, float(round(rng.exponential(40.0), 1)))
        else:
            page = (url, title, snippet, _LOCAL_TAGS, False, 0.0)
    return text, page, label


def simulate_oracle(
    world: World, days: int, seed: int, user_ids: Mapping[str, str]
) -> tuple[Dataset, GroundTruth]:
    """``citysim.simulate`` as one scalar ``Generator`` per user-day, drawn
    user by user and event by event: the simulator the lane-stepped one
    replaced, kept as its reference.

    Emits visits, queries (positive-template queries from infected searchers
    plus everyone's background queries), complaint-triggered and routine
    inspections, and the ground truth (true source meal per infection, plus
    a positive/background label per query). Deterministic under (world, seed).

    ``user_ids`` maps each raw user id to the id that every visit, query,
    infection record and complaint carries: the pipeline passes keyed
    pseudonyms, so raw ids never leave the simulator. The draws are keyed by
    the raw id, so the map changes ids and nothing else.
    """
    if days < 1:
        raise DataError("days >= 1")
    cfg = world.cfg

    visits: list[VisitEvent] = []
    queries: list[QueryEvent] = []
    labels: list[int] = []  # per query, as drawn
    infections: list[InfectionRecord] = []
    # illness complaints: (user_id, symptom_ts, blame_last, true_source);
    # frivolous complaints: (user_id, complaint_ts, pick in [0,1))
    ill_complaints: list[tuple[str, int, bool, str]] = []
    frivolous_complaints: list[tuple[str, int, float]] = []

    by_city = {c: tuple(r.restaurant_id for r in world.restaurants if r.city == c) for c in sorted(cfg.cities)}
    for day in range(days):
        day_start = day * DAY_S
        user_rngs = (make_rng(seed, "user", uid, day) for uid in world.users)
        for uid, rng in zip(world.users, user_rngs):
            pool = by_city[world.home_city[uid]]
            pid = user_ids[uid]

            n_meals = int(rng.poisson(world.propensity[uid]))
            for _ in range(n_meals):
                rid = pool[int(rng.integers(len(pool)))]
                entry = day_start + int(rng.integers(6 * 3600, 21 * 3600))
                exit_ts = entry + int(rng.integers(1800, 5400))
                visits.append(VisitEvent(pid, rid, entry, exit_ts))
                p_infect = (
                    cfg.p_infect_unsafe
                    if world.latent_unsafe[rid]
                    else cfg.p_infect_safe
                )
                if rng.random() < p_infect:
                    symptom_ts = exit_ts + _draw_incubation_s(rng, cfg)
                    searched = bool(rng.random() < cfg.p_search_given_ill)
                    query_ts = symptom_ts if searched else None
                    if searched:
                        text, page = _positive_query(rng, cfg)
                        queries.append(QueryEvent(pid, symptom_ts, text, (ResultPage(*page),)))
                        labels.append(1)
                    infections.append(
                        InfectionRecord(pid, rid, exit_ts, symptom_ts, searched, query_ts)
                    )
                    if rng.random() < cfg.p_complaint_given_ill:
                        blame_last = bool(rng.random() < cfg.p_blame_last)
                        ill_complaints.append((pid, symptom_ts, blame_last, rid))

            n_bg = int(rng.poisson(cfg.background_queries_per_day))
            for _ in range(n_bg):
                ts = day_start + int(rng.integers(0, DAY_S))
                text, page, label = _background_query(rng, cfg)
                queries.append(QueryEvent(pid, ts, text, (ResultPage(*page),)))
                labels.append(label)

            if rng.random() < cfg.p_frivolous_complaint:
                ts = day_start + int(rng.integers(0, DAY_S))
                frivolous_complaints.append((pid, ts, float(rng.random())))

    # the order loading gives: by time, stably
    visits = VisitLog.of(visits)
    visits = visits.take(np.argsort(visits.exit_ts, kind="stable"))
    log = QueryLog.of(queries)
    order = np.argsort(log.ts, kind="stable")

    # a user's visits, in exit order, are a span of the exit-sorted log taken stably by user code
    by_user = np.argsort(visits.user, kind="stable")
    user, user_exits = visits.user[by_user], visits.exit_ts[by_user]
    code_of = {user_id: code for code, user_id in enumerate(visits.users)}

    def visited(uid: str, first_ts: int, last_ts: int) -> np.ndarray:
        """The restaurant codes of the user's visits ending in [first_ts, last_ts], in exit order."""
        code = code_of.get(uid, -1)  # below every code: a user without visits has an empty span
        lo, hi = np.searchsorted(user, [code, code + 1])
        first, last = lo + np.searchsorted(user_exits[lo:hi], [first_ts, last_ts + 1])
        return visits.restaurant[by_user[first:last]]

    inspections: list[InspectionRecord] = []
    # illness complaints blame the last restaurant visited before symptoms
    # (or, with probability 1 - p_blame_last, the true source); frivolous
    # complaints blame a random visit from the past three days
    for uid, symptom_ts, blame_last, true_source in ill_complaints:
        before = visited(uid, 0, symptom_ts)
        blamed = visits.restaurants[before[-1]] if blame_last and len(before) else true_source
        when = day_to_date(symptom_ts // DAY_S + 1)
        inspections.append(
            simulate_inspection(world, blamed, when, seed, trigger=Trigger.COMPLAINT)
        )
    for uid, ts, pick in frivolous_complaints:
        recent = visited(uid, ts - 3 * DAY_S, ts)
        if not len(recent):
            continue
        blamed = visits.restaurants[recent[int(pick * len(recent))]]
        inspections.append(
            simulate_inspection(
                world, blamed, day_to_date(ts // DAY_S + 1), seed, trigger=Trigger.COMPLAINT
            )
        )

    # routine cadence: a fixed shuffled rotation, k restaurants per day
    rotation = [r.restaurant_id for r in world.restaurants]
    make_rng(seed, "routine-order").shuffle(rotation)
    k = cfg.routine_inspections_per_day if rotation else 0
    for day in range(days):
        for i in range(k):
            rid = rotation[(day * k + i) % len(rotation)]
            inspections.append(
                simulate_inspection(world, rid, day_to_date(day), seed, trigger=Trigger.ROUTINE)
            )
    inspections.sort(key=lambda r: r.date)

    dataset = Dataset(
        queries=log.take(order),
        visits=visits,
        restaurants=world.restaurants,
        inspections=tuple(inspections),
    )
    truth = GroundTruth(
        infections=tuple(infections),
        query_labels=tuple(np.asarray(labels)[order].tolist()),
    )
    return dataset, truth

"""Deterministic synthetic city: visits, queries, complaints, latent safety
states, simulated inspections, and simulated rater pools.

Latent restaurant states are the ground truth the pipeline is evaluated
against and are visible only here and to the evaluator; serialized datasets
carry none of it. All randomness is keyed by (seed, entity, day) so any
parallel generation schedule reproduces the serial output bit for bit.

Each (user, day) has its own random stream, ``make_rng(seed, "user", uid,
day)``, and draws its day from it in a fixed order: the meal count, each
meal's restaurant, times and infection, the background-query count, each
background query, a frivolous complaint. ``simulate`` does not build those
generators. It steps a block of days' user-days together, as the lanes of
one ``seeding.PCG64Lanes`` (lane = day in block x users + user, at most
``LANE_BLOCK`` lanes), which draws uniforms, bounded integers, small Poisson
counts and exponential dwell times exactly as numpy's ``Generator`` does. The
rare other draws (the rest of an infected meal, ambiguous health research,
and the few dwell times numpy's ziggurat does not accept at once) run as
escapes: on a ``Generator`` put in the lane's state, which the lane then
takes back. A block's events are then put back in the order one user-day
after another would draw them, day by day and user by user, so every
artifact is the one the scalar loop gives. A query's text stays a code
until the log tables it.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from datetime import date as Date, timedelta
from pathlib import Path
from collections.abc import Iterator, Mapping, Sequence

import numpy as np

from .config import SimConfig
from .errors import DataError
from .logdata import (
    Dataset,
    InspectionRecord,
    Outcome,
    QueryColumns,
    RestaurantRecord,
    RiskLevel,
    Trigger,
    VisitColumns,
    sorted_by,
)
from .raters import JudgmentMatrix
from .report import json_int, write_json
from .seeding import PCG64Lanes, derive_seeds, make_rng
from .wsm import FOODBORNE_TAG

DAY_S = 86_400
SIM_EPOCH_DATE = Date(2016, 5, 1)  # day 0 of every simulation

POSITIVE_TEMPLATES = (
    "food poisoning",
    "food poisoning symptoms",
    "fod poisoning",
    "signs of food poisoning",
    "how long does food poisoning last",
    "diarrhea after eating",
    "diarrea and vomiting",
    "vomiting and diarrhea all night",
    "stomach cramps after eating out",
    "throwing up after restaurant",
    "nausea after eating",
    "salmonella symptoms",
    "food poisoning what to do",
    "stomach flu or food poisoning",
    "can restaurant food make you sick",
    "upset stomach after dinner out",
)

POSITIVE_MODIFIERS = (
    "last night",
    "this morning",
    "after sushi",
    "after chicken",
    "after buffet",
    "after seafood",
    "for kids",
    "while pregnant",
    "what to do",
    "how long",
    "home remedies",
    "when to see a doctor",
    "with fever",
    "and chills",
    "after leftovers",
    "won t go away",
)

BACKGROUND_TEMPLATES = (
    "weather",
    "news",
    "pizza",
    "football scores",
    "cheap flights",
    "movie times",
    "how to tie a tie",
    "best pizza toppings",
    "restaurant reservations",
    "coffee shops",
    "bus schedule",
    "lottery numbers",
    "bank opening hours",
    "how to boil eggs",
    "dog training",
    "concert tickets",
    "traffic report",
    "birthday gift ideas",
    "phone battery draining fast",
    "yoga classes",
    "recipe chicken soup",
    "tv guide",
    "currency exchange rate",
    "local election results",
)

# Ambiguous research queries that surface foodborne-topic pages. The first
# pool is genuinely about foodborne illness (raters say yes), the second is
# adjacent but not (raters say no); both click topical pages occasionally.
AMBIGUOUS_FOODBORNE_TEMPLATES = (
    "hangover or food poisoning",
    "food poisoning or stomach flu",
    "bad sushi symptoms",
    "undercooked chicken sick",
    "how long after eating bad food do you get sick",
    "can reheated rice make you sick",
    "norovirus outbreak restaurant news",
    "salmonella in eggs",
    "is mayonnaise safe in the sun",
    "sick after potluck",
)

AMBIGUOUS_OTHER_TEMPLATES = (
    "hangover cure",
    "flu symptoms",
    "morning sickness remedies",
    "ibs flare up",
    "lactose intolerance",
    "motion sickness on boats",
    "anxiety nausea",
    "heartburn after spicy dinner",
    "gluten intolerance test",
    "seasonal allergies fatigue",
    "period cramps relief",
    "migraine and vomiting",
)

BACKGROUND_SUFFIXES = (
    "near me",
    "open now",
    "today",
    "tomorrow",
    "this week",
    "2016",
    "downtown",
    "reviews",
    "prices",
    "cheap",
    "best",
    "hours",
    "for beginners",
    "in summer",
    "coupon",
    "deals",
    "phone number",
    "menu",
    "calories",
    "youtube",
    "reddit",
    "map",
    "directions",
    "tips",
)

LOCALITIES = (
    "maple street",
    "riverside",
    "old town",
    "north end",
    "harbor district",
    "sunset park",
    "elm avenue",
    "midtown",
    "westgate",
    "lakeview",
    "southside",
    "hillcrest",
    "east market",
    "union square",
    "cedar grove",
    "brookfield",
    "fairview",
    "kingsport",
    "newbridge",
    "stonewall",
)

_FOODBORNE_TAGS = frozenset({FOODBORNE_TAG, "health"})

# The result pages a simulated query shows, as url, title, snippet and concept
# tags: two pages about foodborne illness, a general health page and two
# generic pages. Every query has one, and a query's page is its index here.
RESULT_PAGES = (
    (
        "https://en.wikipedia.org/wiki/Foodborne_illness",
        "Foodborne illness - Wikipedia",
        "Foodborne illness is any illness resulting from contaminated food, "
        "caused by bacteria, viruses or parasites.",
        _FOODBORNE_TAGS,
    ),
    (
        "https://www.healthinfo.example.org/food-poisoning",
        "Food poisoning: symptoms, causes and treatment",
        "Common symptoms of food poisoning include nausea, vomiting, "
        "stomach cramps and diarrhea within hours to days of eating.",
        _FOODBORNE_TAGS,
    ),
    (
        "https://www.healthinfo.example.org/digestive-complaints",
        "Common digestive complaints and when to see a doctor",
        "An overview of nausea, heartburn and stomach discomfort and their "
        "everyday causes.",
        frozenset({"health"}),
    ),
    (
        "https://www.citysearch.example.com/listings",
        "Local listings and reviews",
        "Find places, opening hours and reviews in your city.",
        frozenset({"local"}),
    ),
    (
        "https://www.dailynews.example.com/front",
        "Daily news front page",
        "Top stories, sports and weather for the metro area.",
        frozenset({"local"}),
    ),
)
_HEALTH_PAGE, _GENERIC_PAGE = 2, 3  # the foodborne pages are 0 and 1, the generic ones 3 and 4


@dataclass(frozen=True)
class World:
    restaurants: tuple[RestaurantRecord, ...]
    latent_unsafe: dict[str, bool]  # hidden from pipeline modules
    users: tuple[str, ...]
    home_city: dict[str, str]
    propensity: dict[str, float]  # expected meals per day
    cfg: SimConfig
    seed: int


@dataclass(frozen=True)
class InfectionRecord:
    user_id: str
    source_restaurant_id: str
    meal_exit_ts: int
    symptom_ts: int
    searched: bool
    query_ts: int | None


@dataclass(frozen=True)
class GroundTruth:
    infections: tuple[InfectionRecord, ...]
    query_labels: tuple[int, ...]  # one per query event, in the log's order (by ts, stably)


def day_to_date(day: int) -> Date:
    return SIM_EPOCH_DATE + timedelta(days=day)


def _cdf(p: np.ndarray) -> list[float]:
    """The cumulative distribution that ``Generator.choice(len(p), p=p)``
    searches: the running sums of p, each divided by the last."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf.tolist()


def generate_world(cfg: SimConfig, seed: int) -> World:
    """Restaurants with risk levels and latent safety states, plus the user
    population with per-user visit propensities. Deterministic under seed.

    Each weighted pick draws one double and finds it in the cdf, as
    ``rng.choice(n, p=p)`` does, without that call's checks of p."""
    rng = make_rng(seed, "world")
    levels = (RiskLevel.HIGH, RiskLevel.MEDIUM, RiskLevel.LOW)

    restaurants: list[RestaurantRecord] = []
    latent: dict[str, bool] = {}
    counter = 0
    risk_cdf = _cdf(np.asarray(cfg.risk_mix, dtype=float))
    for city in sorted(cfg.cities):
        for _ in range(cfg.cities[city]):
            rid = f"r{counter:05d}"
            counter += 1
            level = bisect_right(risk_cdf, rng.random())
            restaurants.append(RestaurantRecord(rid, city, levels[level]))
            latent[rid] = bool(rng.random() < cfg.unsafe_prob[level])

    cities = sorted(cfg.cities)
    weights = np.array([cfg.cities[c] for c in cities], dtype=float)
    weights /= weights.sum() if weights.sum() else 1.0
    home_cdf = _cdf(weights) if cities else []
    users: list[str] = []
    home: dict[str, str] = {}
    propensity: dict[str, float] = {}
    for i in range(cfg.n_users):
        uid = f"u{i:06d}"
        users.append(uid)
        home[uid] = cities[bisect_right(home_cdf, rng.random())]
        # gamma-distributed appetite around the configured mean
        propensity[uid] = float(rng.gamma(4.0, cfg.meals_per_day / 4.0))
    return World(
        restaurants=tuple(restaurants),
        latent_unsafe=latent,
        users=tuple(users),
        home_city=home,
        propensity=propensity,
        cfg=cfg,
        seed=seed,
    )


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


# A query's text, result page (an index of RESULT_PAGES), click and dwell time.
_Query = tuple[str, int, bool, float]


def _positive_query(rng: np.random.Generator, cfg: SimConfig) -> _Query:
    """An infected searcher's query and its one result page, a foodborne one."""
    text = _positive_text(rng)
    page = int(rng.integers(2))
    clicked = bool(rng.random() < cfg.p_positive_click)
    dwell = 0.0
    if clicked:  # lognormal around the median, to a tenth of a second
        log_dwell = math.log(cfg.positive_dwell_median_s) + cfg.positive_dwell_sigma * rng.standard_normal()
        dwell = float(round(math.exp(log_dwell), 1))
    return text, page, clicked, dwell


def _illness(rng: np.random.Generator, cfg: SimConfig) -> tuple[int, _Query | None, bool | None]:
    """The rest of an infected meal's draws: the symptom delay, the query if
    the user searches, and if the user complains, whether the complaint blames
    the last restaurant visited rather than the true source."""
    delay = _draw_incubation_s(rng, cfg)
    query = _positive_query(rng, cfg) if rng.random() < cfg.p_search_given_ill else None
    blame_last = bool(rng.random() < cfg.p_blame_last) if rng.random() < cfg.p_complaint_given_ill else None
    return delay, query, blame_last


def _ambiguify(rng: np.random.Generator, template: str) -> str:
    r = rng.random()
    if r < 0.45:
        return f"{template} {_pick(rng, BACKGROUND_SUFFIXES)}"
    if r < 0.80:
        return f"{template} {_pick(rng, LOCALITIES)}"
    return template


def _health_research(rng: np.random.Generator) -> tuple[str, int, bool, float, int]:
    """An ambiguous background query that clicks a health page, followed by
    its ground-truth topical label: raters call the first pool foodborne and the
    second not. Dwell tracks topical relevance: genuinely foodborne research
    holds the reader, off-topic curiosity bounces quickly."""
    if rng.random() < 0.6:
        text = _ambiguify(rng, _pick(rng, AMBIGUOUS_FOODBORNE_TEMPLATES))
        page, dwell_mean, label = int(rng.integers(2)), 20.0, 1
    else:
        text = _ambiguify(rng, _pick(rng, AMBIGUOUS_OTHER_TEMPLATES))
        page = int(rng.integers(2)) if rng.random() < 0.5 else _HEALTH_PAGE
        dwell_mean, label = 8.0, 0
    return text, page, True, float(round(rng.exponential(dwell_mean), 1)), label


_SUFFIXES = ("", *(f" {s}" for s in BACKGROUND_SUFFIXES))  # by suffix draw + 1; "" for none
_LOCALITY_SUFFIXES = ("", *(f" {s}" for s in LOCALITIES))
# A background text is coded by its template, suffix and locality draws;
# every other text, after all of those, by the order it was drawn in.
_BACKGROUND_TEXTS = len(BACKGROUND_TEMPLATES) * len(_SUFFIXES) * len(_LOCALITY_SUFFIXES)


class _Texts(Sequence):
    """A simulation's query texts by code: each combination of the
    background mix, built the first time it is asked for, then every other
    text in the order it was drawn."""

    def __init__(self):
        self.background: dict[int, str] = {}
        self.others: list[str] = []

    def __len__(self) -> int:
        return _BACKGROUND_TEXTS + len(self.others)

    def __getitem__(self, code: int) -> str:
        if code >= _BACKGROUND_TEXTS:
            return self.others[code - _BACKGROUND_TEXTS]
        text = self.background.get(code)
        if text is None:
            template, rest = divmod(code, len(_SUFFIXES) * len(_LOCALITY_SUFFIXES))
            suffix, locality = divmod(rest, len(_LOCALITY_SUFFIXES))
            text = self.background[code] = BACKGROUND_TEMPLATES[template] + _SUFFIXES[suffix] + _LOCALITY_SUFFIXES[locality]
        return text

    def code(self, rows: list[tuple]) -> list[tuple]:
        """Query rows, each text replaced by the code it takes as a new text."""
        start = _BACKGROUND_TEXTS + len(self.others)
        self.others += [row[2] for row in rows]
        return [(*row[:2], start + i, *row[3:]) for i, row in enumerate(rows)]


# the columns of a block's queries: user (a lane), ts, text (a code of
# _Texts), page (an index of RESULT_PAGES), clicked, dwell and label
_QUERY_DTYPES = (np.int64, np.int64, np.int64, np.int64, bool, np.float64, np.int64)


def _query_columns(rows: list[tuple]) -> list[np.ndarray]:
    """Query rows, texts coded, as the columns of a block's queries."""
    columns = list(zip(*rows)) or [()] * len(_QUERY_DTYPES)
    return [np.array(column, dtype=dtype) for column, dtype in zip(columns, _QUERY_DTYPES)]


def _round_tenths(values: np.ndarray) -> np.ndarray:
    """``round(v, 1)`` of each value as Python rounds it, to the double
    nearest the exact value rounded half to even. ``rint(10 v) / 10`` gives
    the same unless 10 v is within its own rounding error of a half, which
    is far below 1e-6 for 10 v below 2**31; those values, and any larger,
    are rounded one at a time."""
    tenths = values * 10.0
    out = np.rint(tenths) / 10.0
    clear = (np.abs(tenths - np.floor(tenths) - 0.5) >= 1e-6) & (np.abs(tenths) < 2.0**31)  # nan is not
    near = ~clear
    out[near] = [round(v, 1) for v in values[near].tolist()]
    return out


def _by_lane(chunks: list[list[np.ndarray]]) -> list[np.ndarray]:
    """Chunks of columns, the lane first, stacked and sorted stably by lane:
    within a lane, chunk order and then row order, which is draw order."""
    columns = [np.concatenate(column) for column in zip(*chunks)]
    order = np.argsort(columns[0], kind="stable")
    return [column[order] for column in columns]


# User-days drawn together, as the lanes of one ``PCG64Lanes``: a block of
# whole days has at most this many lanes, and at least one day. A block's
# lanes, draws and events, as numbers, are freed before the next block
# starts, so a long horizon holds no more of them at once than a short one.
LANE_BLOCK = 1 << 13
# a block's visits, queries, infections and frivolous complaints (see _Days.block)
_Block = tuple[list[np.ndarray], list[np.ndarray], list[tuple], list[np.ndarray]]


class _Days:
    """The city's user-days, drawn a block of days at a time: each (user,
    day) of a block is a lane of one ``PCG64Lanes``, lane = day in block x
    users + user, seeded as ``make_rng(seed, "user", uid, day)`` would be,
    and the lanes step through the user-day's draws round by round (see the
    module docstring)."""

    def __init__(self, world: World, days: int, seed: int):
        cfg = world.cfg
        self.cfg = cfg
        # each user's home pool is a span of ``pool``, which lists the
        # restaurants city by city
        pool: list[int] = []
        start, size = {}, {}
        for city in sorted(cfg.cities):
            members = [i for i, r in enumerate(world.restaurants) if r.city == city]
            start[city], size[city] = len(pool), len(members)
            pool += members
        self.pool = np.array(pool, dtype=np.int64)
        homes = [world.home_city[uid] for uid in world.users]
        self.home_start = np.array([start[city] for city in homes], dtype=np.int64)
        self.home_size = np.array([size[city] for city in homes], dtype=np.int64)
        self.propensity = np.array([world.propensity[uid] for uid in world.users], dtype=np.float64)
        unsafe = np.array([world.latent_unsafe[r.restaurant_id] for r in world.restaurants], dtype=bool)
        self.p_infect = np.where(unsafe, cfg.p_infect_unsafe, cfg.p_infect_safe)
        self.texts = _Texts()
        self.seeds = np.zeros((days, len(world.users)), dtype=np.uint64)  # by day, then user
        for user, uid in enumerate(world.users):
            self.seeds[:, user] = derive_seeds(seed, ("user", uid), range(days))

    def blocks(self) -> Iterator[_Block]:
        """``block`` of every block of days, in order."""
        days, n_users = self.seeds.shape
        per_block = max(1, LANE_BLOCK // max(n_users, 1))
        for first in range(0, days, per_block):
            yield self.block(first, min(first + per_block, days))

    def block(self, first: int, stop: int) -> _Block:
        """The visits and queries of days ``first`` to ``stop - 1`` as columns,
        the user an index of ``World.users`` and a query's text a code of
        ``texts``; their infections as (user, restaurant, exit, symptom delay,
        query or None, blame_last or None) rows; and their frivolous
        complaints as (user, ts, pick) columns: each in the order one
        user-day after another draws them, day by day, user by user and then
        in draw order."""
        cfg, n_users = self.cfg, self.seeds.shape[1]
        lanes = PCG64Lanes(self.seeds[first:stop].reshape(-1))
        everyone = np.arange((stop - first) * n_users)
        day, user = np.divmod(everyone, max(n_users, 1))
        day_start = (first + day) * DAY_S
        home_start, home_size = self.home_start[user], self.home_size[user]
        visits = [[np.zeros(0, dtype=np.int64)] * 4]  # lane, restaurant (an index), entry, exit
        infections = []

        n_meals = lanes.poisson(everyone, self.propensity[user])
        for j in range(n_meals.max(initial=0)):
            eating = np.flatnonzero(n_meals > j)
            restaurant = self.pool[home_start[eating] + lanes.integers(eating, home_size[eating])]
            entry = day_start[eating] + 6 * 3600 + lanes.integers(eating, 15 * 3600)
            exit_ts = entry + 1800 + lanes.integers(eating, 3600)
            visits.append([eating, restaurant, entry, exit_ts])
            ill = np.flatnonzero(lanes.next_doubles(eating) < self.p_infect[restaurant])
            illnesses = lanes.escape(eating[ill], lambda rng: _illness(rng, cfg))
            infections += zip(eating[ill].tolist(), restaurant[ill].tolist(), exit_ts[ill].tolist(), *zip(*illnesses))
        infections.sort(key=lambda row: row[0])
        searches = [(lane, exit_ts + delay, *query, 1) for lane, _, exit_ts, delay, query, _ in infections if query is not None]
        queries = [_query_columns(self.texts.code(searches))]

        n_background = lanes.poisson(everyone, cfg.background_queries_per_day)
        for j in range(n_background.max(initial=0)):
            asking = np.flatnonzero(n_background > j)
            ts = day_start[asking] + lanes.integers(asking, DAY_S)
            research = lanes.next_doubles(asking) < cfg.p_background_foodclick
            rows = zip(asking[research].tolist(), ts[research].tolist(), lanes.escape(asking[research], _health_research))
            queries.append(_query_columns(self.texts.code([(lane, t, *query) for lane, t, query in rows])))
            # the rest search the head-heavy background mix: bare templates
            # repeat a lot, long combinations are rare. r below 0.35 keeps the
            # bare template, below 0.75 adds a suffix, below 0.90 a locality,
            # and above both, the suffix drawn first
            asking, ts = asking[~research], ts[~research]
            text = lanes.integers(asking, len(BACKGROUND_TEMPLATES)) * len(_SUFFIXES)
            r = lanes.next_doubles(asking)
            with_suffix = (r >= 0.35) & ((r < 0.75) | (r >= 0.90))
            text[with_suffix] += 1 + lanes.integers(asking[with_suffix], len(BACKGROUND_SUFFIXES))
            text *= len(_LOCALITY_SUFFIXES)
            with_locality = r >= 0.75
            text[with_locality] += 1 + lanes.integers(asking[with_locality], len(LOCALITIES))
            page = _GENERIC_PAGE + lanes.integers(asking, 2)
            clicked = lanes.next_doubles(asking) < 0.5
            dwell = np.zeros(len(asking))
            dwell[clicked] = _round_tenths(lanes.exponential(asking[clicked], 40.0))
            queries.append([asking, ts, text, page, clicked, dwell, np.zeros(len(asking), dtype=np.int64)])

        complaining = np.flatnonzero(lanes.next_doubles(everyone) < cfg.p_frivolous_complaint)
        ts = day_start[complaining] + lanes.integers(complaining, DAY_S)
        frivolous = [user[complaining], ts, lanes.next_doubles(complaining)]
        visits, queries = _by_lane(visits), _by_lane(queries)
        visits[0], queries[0] = user[visits[0]], user[queries[0]]
        infections = [(int(user[lane]), *rest) for lane, *rest in infections]
        return visits, queries, infections, frivolous


def simulate(
    world: World, days: int, seed: int, user_ids: Mapping[str, str]
) -> tuple[Dataset, GroundTruth]:
    """Run the city for ``days`` days.

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
    pids = [user_ids[uid] for uid in world.users]
    rids = [r.restaurant_id for r in world.restaurants]

    visits, queries = VisitColumns(), QueryColumns()
    labels = []  # per query, as drawn
    infections: list[InfectionRecord] = []
    # illness complaints: (user_id, symptom_ts, blame_last, true_source);
    # frivolous complaints: (user_id, complaint_ts, pick in [0,1))
    ill_complaints: list[tuple[str, int, bool, str]] = []
    frivolous_complaints: list[tuple[str, int, float]] = []
    user_days = _Days(world, days, seed)
    for block_visits, block_queries, block_infections, frivolous in user_days.blocks():
        user, restaurant, entry_ts, exit_ts = block_visits
        visits.extend(pids, user, rids, restaurant, entry_ts, exit_ts)
        user, ts, text, page, clicked, dwell, label = block_queries
        queries.extend(pids, user, ts, user_days.texts, text, RESULT_PAGES, page, clicked, dwell)
        labels.append(label)
        for user, restaurant, exit_ts, delay, query, blame_last in block_infections:
            symptom_ts, searched = exit_ts + delay, query is not None
            infections.append(
                InfectionRecord(pids[user], rids[restaurant], exit_ts, symptom_ts, searched, symptom_ts if searched else None)
            )
            if blame_last is not None:
                ill_complaints.append((pids[user], symptom_ts, blame_last, rids[restaurant]))
        frivolous_complaints += [(pids[user], ts, pick) for user, ts, pick in zip(*(c.tolist() for c in frivolous))]

    # the order loading gives: by time, stably
    visits = visits.log()
    visits = sorted_by(visits, visits.exit_ts)
    log = queries.log()
    labels = sorted_by(np.concatenate(labels), log.ts)
    log = sorted_by(log, log.ts)

    # a user's visits, in exit order, are a span of the exit-sorted log taken stably by user code
    by_user = np.argsort(visits.user, kind="stable")
    user, user_exits = visits.user[by_user], visits.exit_ts[by_user]
    code_of = {user_id: code for code, user_id in enumerate(visits.users)}

    def visited(uid: str, first_ts: int, last_ts: int) -> np.ndarray:
        """The restaurant codes of the user's visits ending in [first_ts, last_ts], in exit order."""
        code = code_of.get(uid, -1)  # below every code: a user without visits has an empty span
        lo, hi = np.searchsorted(user, np.array([code, code + 1], dtype=user.dtype))  # a list would cast the column
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
        queries=log,
        visits=visits,
        restaurants=world.restaurants,
        inspections=tuple(inspections),
    )
    truth = GroundTruth(
        infections=tuple(infections),
        query_labels=tuple(labels.tolist()),
    )
    return dataset, truth


def simulate_inspection(
    world: World,
    restaurant_id: str,
    date: Date,
    seed: int,
    trigger: Trigger = Trigger.FINDER,
) -> InspectionRecord:
    """One inspection outcome drawn from the latent state.

    Unsafe with probability inspector_sensitivity when the restaurant is
    latently unsafe, inspector_false_positive otherwise; violation counts are
    Poisson with state-dependent means.
    """
    if restaurant_id not in world.latent_unsafe:
        raise DataError(f"unknown restaurant {restaurant_id!r}")
    cfg = world.cfg
    rng = make_rng(seed, "inspection", restaurant_id, date.isoformat(), trigger.value)
    unsafe = world.latent_unsafe[restaurant_id]
    p_unsafe = cfg.inspector_sensitivity if unsafe else cfg.inspector_false_positive
    outcome = Outcome.UNSAFE if rng.random() < p_unsafe else Outcome.SAFE
    crit_mean = cfg.unsafe_critical_mean if unsafe else cfg.safe_critical_mean
    major_mean = cfg.unsafe_major_mean if unsafe else cfg.safe_major_mean
    return InspectionRecord(
        restaurant_id=restaurant_id,
        date=date,
        trigger=trigger,
        outcome=outcome,
        critical_count=int(rng.poisson(crit_mean)),
        major_count=int(rng.poisson(major_mean)),
    )


def simulate_raters(truth_labels: Sequence[int], cfg: SimConfig, seed: int) -> JudgmentMatrix:
    """Six independent votes per query: its truth label flipped with the
    rater-class flip rate (three MD votes, three non-MD votes)."""
    truth = np.asarray(truth_labels, dtype=int).reshape(-1, 1)
    rng = make_rng(seed, "raters")
    md_flips = rng.random((len(truth), 3)) < cfg.rater_flip_md
    other_flips = rng.random((len(truth), 3)) < cfg.rater_flip_other
    return JudgmentMatrix(
        md_votes=np.where(md_flips, 1 - truth, truth),
        other_votes=np.where(other_flips, 1 - truth, truth),
    )


def save_ground_truth(truth: GroundTruth, path: Path) -> None:
    payload = {
        "infections": [
            {
                "user_id": r.user_id,
                "source_restaurant_id": r.source_restaurant_id,
                "meal_exit_ts": r.meal_exit_ts,
                "symptom_ts": r.symptom_ts,
                "searched": r.searched,
                "query_ts": r.query_ts,
            }
            for r in truth.infections
        ],
        "query_labels": list(truth.query_labels),
    }
    write_json(path, payload)


def load_ground_truth(path: Path) -> GroundTruth:
    """The ground truth :func:`save_ground_truth` wrote; a field of another
    JSON type, or a query label other than 0 or 1, is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("ground truth must be a JSON object")
    infections = []
    for r in payload["infections"]:
        if type(r["searched"]) is not bool:
            raise ValueError(f"searched must be true or false, got {r['searched']!r}")
        for name in ("user_id", "source_restaurant_id"):
            if type(r[name]) is not str:
                raise ValueError(f"{name} must be a string, got {r[name]!r}")
        infections.append(
            InfectionRecord(
                user_id=r["user_id"],
                source_restaurant_id=r["source_restaurant_id"],
                meal_exit_ts=json_int(r["meal_exit_ts"], "meal_exit_ts"),
                symptom_ts=json_int(r["symptom_ts"], "symptom_ts"),
                searched=r["searched"],
                query_ts=None if r["query_ts"] is None else json_int(r["query_ts"], "query_ts"),
            )
        )
    labels = payload["query_labels"]
    if not all(type(x) is int and x in (0, 1) for x in labels):
        raise ValueError("query_labels must each be 0 or 1")
    return GroundTruth(infections=tuple(infections), query_labels=tuple(labels))

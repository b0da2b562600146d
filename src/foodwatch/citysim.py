"""Deterministic synthetic city: visits, queries, complaints, latent safety
states, simulated inspections, and simulated rater pools.

Latent restaurant states are the ground truth the pipeline is evaluated
against and are visible only here and to the evaluator; serialized datasets
carry none of it. All randomness is keyed by (seed, entity, day) so any
parallel generation schedule reproduces the serial output bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import date as Date, timedelta
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, UsageError
from .logdata import (
    Dataset,
    InspectionRecord,
    Outcome,
    QueryEvent,
    RestaurantRecord,
    ResultPage,
    RiskLevel,
    Trigger,
    VisitEvent,
)
from .raters import JudgmentMatrix
from .seeding import make_rng, make_rngs
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

_FOODBORNE_PAGES = (
    (
        "https://en.wikipedia.org/wiki/Foodborne_illness",
        "Foodborne illness - Wikipedia",
        "Foodborne illness is any illness resulting from contaminated food, "
        "caused by bacteria, viruses or parasites.",
    ),
    (
        "https://www.healthinfo.example.org/food-poisoning",
        "Food poisoning: symptoms, causes and treatment",
        "Common symptoms of food poisoning include nausea, vomiting, "
        "stomach cramps and diarrhea within hours to days of eating.",
    ),
)

_GENERAL_HEALTH_PAGE = (
    "https://www.healthinfo.example.org/digestive-complaints",
    "Common digestive complaints and when to see a doctor",
    "An overview of nausea, heartburn and stomach discomfort and their "
    "everyday causes.",
)

_GENERIC_PAGES = (
    (
        "https://www.citysearch.example.com/listings",
        "Local listings and reviews",
        "Find places, opening hours and reviews in your city.",
    ),
    (
        "https://www.dailynews.example.com/front",
        "Daily news front page",
        "Top stories, sports and weather for the metro area.",
    ),
)

# Built once and shared by every event that shows them: pages are immutable.
_FOODBORNE_TAGS = frozenset({FOODBORNE_TAG, "health"})
_HEALTH_TAGS = frozenset({"health"})
_LOCAL_TAGS = frozenset({"local"})
_UNCLICKED_GENERIC_PAGES = tuple(
    ResultPage(url, title, snippet, _LOCAL_TAGS, clicked=False, dwell_s=0.0)
    for url, title, snippet in _GENERIC_PAGES
)


@dataclass(frozen=True)
class SimConfig:
    cities: dict[str, int] = field(default_factory=lambda: {"A": 100, "B": 100})
    n_users: int = 1500
    risk_mix: tuple[float, float, float] = (0.53, 0.22, 0.25)  # high, medium, low
    unsafe_prob: tuple[float, float, float] = (0.335, 0.231, 0.079)  # by risk level
    p_infect_unsafe: float = 0.12
    p_infect_safe: float = 0.002
    incubation_median_h: float = 24.0
    incubation_sigma: float = 0.6
    p_search_given_ill: float = 0.7
    p_complaint_given_ill: float = 0.08
    p_blame_last: float = 0.75
    p_frivolous_complaint: float = 0.004  # per user-day, no infection behind it
    inspector_sensitivity: float = 0.9
    inspector_false_positive: float = 0.05
    unsafe_critical_mean: float = 1.2
    unsafe_major_mean: float = 1.8
    safe_critical_mean: float = 0.15
    safe_major_mean: float = 0.5
    rater_flip_md: float = 0.03
    rater_flip_other: float = 0.07
    meals_per_day: float = 0.8
    background_queries_per_day: float = 1.5
    p_background_foodclick: float = 0.02
    p_positive_click: float = 0.85
    positive_dwell_median_s: float = 60.0
    positive_dwell_sigma: float = 0.5
    routine_inspections_per_day: int = 8
    positive_templates: tuple[str, ...] = POSITIVE_TEMPLATES
    positive_modifiers: tuple[str, ...] = POSITIVE_MODIFIERS
    background_templates: tuple[str, ...] = BACKGROUND_TEMPLATES
    ambiguous_foodborne_templates: tuple[str, ...] = AMBIGUOUS_FOODBORNE_TEMPLATES
    ambiguous_other_templates: tuple[str, ...] = AMBIGUOUS_OTHER_TEMPLATES
    background_suffixes: tuple[str, ...] = BACKGROUND_SUFFIXES
    localities: tuple[str, ...] = LOCALITIES

    def __post_init__(self) -> None:
        probs = (
            "p_infect_unsafe", "p_infect_safe", "p_search_given_ill", "p_complaint_given_ill",
            "p_blame_last", "inspector_sensitivity", "inspector_false_positive",
            "p_background_foodclick", "p_positive_click", "p_frivolous_complaint",
            "rater_flip_md", "rater_flip_other",
        )
        for name in probs:
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise UsageError(f"sim.{name} must be in [0, 1], got {getattr(self, name)}")
        for name in ("risk_mix", "unsafe_prob"):
            triple = getattr(self, name)
            if len(triple) != 3 or any(not 0.0 <= p <= 1.0 for p in triple):
                raise UsageError(f"sim.{name} must be three probabilities")
        if abs(sum(self.risk_mix) - 1.0) > 1e-9:
            raise UsageError(f"sim.risk_mix must sum to 1, got {sum(self.risk_mix)}")
        if self.incubation_sigma < 0:
            raise UsageError("sim.incubation_sigma must be >= 0")
        if self.incubation_sigma == 0 and not 6.0 < self.incubation_median_h <= 72.0:
            raise UsageError("with zero sim.incubation_sigma, sim.incubation_median_h must lie in (6, 72]")
        if any(n <= 0 for n in self.cities.values()):
            raise UsageError("sim.cities: every listed city needs at least one restaurant")
        if self.cities == {} and self.n_users > 0:
            raise UsageError("sim.cities: users need at least one city to live in")
        if self.n_users < 0:
            raise UsageError("sim.n_users must be >= 0")
        for name in ("meals_per_day", "background_queries_per_day"):
            if getattr(self, name) < 0:
                raise UsageError(f"sim.{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class World:
    restaurants: tuple[RestaurantRecord, ...]
    latent_unsafe: dict[str, bool]  # hidden from pipeline modules
    users: tuple[str, ...]
    home_city: dict[str, str]
    propensity: dict[str, float]  # expected meals per day
    cfg: SimConfig
    seed: int

    def restaurants_in(self, city: str) -> tuple[str, ...]:
        return tuple(r.restaurant_id for r in self.restaurants if r.city == city)


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
    query_labels: tuple[int, ...]  # aligned with Dataset.queries order


def day_to_date(day: int) -> Date:
    return SIM_EPOCH_DATE + timedelta(days=day)


def generate_world(cfg: SimConfig, seed: int) -> World:
    """Restaurants with risk levels and latent safety states, plus the user
    population with per-user visit propensities. Deterministic under seed."""
    rng = make_rng(seed, "world")
    levels = (RiskLevel.HIGH, RiskLevel.MEDIUM, RiskLevel.LOW)

    restaurants: list[RestaurantRecord] = []
    latent: dict[str, bool] = {}
    counter = 0
    for city in sorted(cfg.cities):
        for _ in range(cfg.cities[city]):
            rid = f"r{counter:05d}"
            counter += 1
            level = levels[int(rng.choice(3, p=cfg.risk_mix))]
            restaurants.append(RestaurantRecord(rid, city, level))
            latent[rid] = bool(rng.random() < cfg.unsafe_prob[levels.index(level)])

    cities = sorted(cfg.cities)
    weights = np.array([cfg.cities[c] for c in cities], dtype=float)
    weights /= weights.sum() if weights.sum() else 1.0
    users: list[str] = []
    home: dict[str, str] = {}
    propensity: dict[str, float] = {}
    for i in range(cfg.n_users):
        uid = f"u{i:06d}"
        users.append(uid)
        home[uid] = cities[int(rng.choice(len(cities), p=weights))]
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


def _positive_text(rng: np.random.Generator, cfg: SimConfig) -> str:
    text = _pick(rng, cfg.positive_templates)
    if rng.random() < 0.65:
        text = f"{text} {_pick(rng, cfg.positive_modifiers)}"
    return text


def _background_text(rng: np.random.Generator, cfg: SimConfig) -> str:
    # head-heavy mix: bare templates repeat a lot, long combinations are rare
    text = _pick(rng, cfg.background_templates)
    r = rng.random()
    if r < 0.35:
        return text
    if r < 0.75:
        return f"{text} {_pick(rng, cfg.background_suffixes)}"
    if r < 0.90:
        return f"{text} {_pick(rng, cfg.localities)}"
    return f"{text} {_pick(rng, cfg.background_suffixes)} {_pick(rng, cfg.localities)}"


def _positive_query(
    rng: np.random.Generator, cfg: SimConfig, user_id: str, ts: int
) -> QueryEvent:
    text = _positive_text(rng, cfg)
    url, title, snippet = _FOODBORNE_PAGES[int(rng.integers(len(_FOODBORNE_PAGES)))]
    clicked = bool(rng.random() < cfg.p_positive_click)
    dwell = 0.0
    if clicked:
        dwell = float(
            round(
                math.exp(
                    math.log(cfg.positive_dwell_median_s)
                    + cfg.positive_dwell_sigma * rng.standard_normal()
                ),
                1,
            )
        )
    page = ResultPage(url, title, snippet, _FOODBORNE_TAGS, clicked, dwell)
    return QueryEvent(user_id=user_id, ts=ts, text=text, results=(page,))


def _ambiguify(rng: np.random.Generator, cfg: SimConfig, template: str) -> str:
    r = rng.random()
    if r < 0.45:
        return f"{template} {_pick(rng, cfg.background_suffixes)}"
    if r < 0.80:
        return f"{template} {_pick(rng, cfg.localities)}"
    return template


def _background_query(
    rng: np.random.Generator, cfg: SimConfig, user_id: str, ts: int
) -> tuple[QueryEvent, int]:
    """One non-illness-driven query plus its ground-truth topical label.

    Most are plain background noise; a small fraction are ambiguous health
    research that clicks a foodborne-topic page briefly, split between
    queries raters would call foodborne (label 1) and ones they would not.
    """
    label = 0
    if rng.random() < cfg.p_background_foodclick:
        # dwell tracks topical relevance: genuinely foodborne research holds
        # the reader, off-topic curiosity bounces quickly
        if rng.random() < 0.6:
            text = _ambiguify(rng, cfg, _pick(rng, cfg.ambiguous_foodborne_templates))
            label = 1
            url, title, snippet = _FOODBORNE_PAGES[int(rng.integers(len(_FOODBORNE_PAGES)))]
            tags = _FOODBORNE_TAGS
            dwell_mean = 20.0
        else:
            text = _ambiguify(rng, cfg, _pick(rng, cfg.ambiguous_other_templates))
            dwell_mean = 8.0
            if rng.random() < 0.5:
                url, title, snippet = _FOODBORNE_PAGES[int(rng.integers(len(_FOODBORNE_PAGES)))]
                tags = _FOODBORNE_TAGS
            else:
                url, title, snippet = _GENERAL_HEALTH_PAGE
                tags = _HEALTH_TAGS
        dwell = float(round(rng.exponential(dwell_mean), 1))
        page = ResultPage(url, title, snippet, tags, True, dwell)
    else:
        text = _background_text(rng, cfg)
        i = int(rng.integers(len(_GENERIC_PAGES)))
        if rng.random() < 0.5:
            url, title, snippet = _GENERIC_PAGES[i]
            page = ResultPage(url, title, snippet, _LOCAL_TAGS, True, float(round(rng.exponential(40.0), 1)))
        else:
            page = _UNCLICKED_GENERIC_PAGES[i]
    return QueryEvent(user_id=user_id, ts=ts, text=text, results=(page,)), label


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

    visits: list[VisitEvent] = []
    labeled_queries: list[tuple[QueryEvent, int]] = []
    infections: list[InfectionRecord] = []
    # illness complaints: (user_id, symptom_ts, blame_last, true_source);
    # frivolous complaints: (user_id, complaint_ts, pick in [0,1))
    ill_complaints: list[tuple[str, int, bool, str]] = []
    frivolous_complaints: list[tuple[str, int, float]] = []

    by_city = {c: world.restaurants_in(c) for c in sorted(cfg.cities)}
    for day in range(days):
        day_start = day * DAY_S
        user_rngs = make_rngs(seed, [("user", uid, day) for uid in world.users])
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
                        labeled_queries.append(
                            (_positive_query(rng, cfg, pid, symptom_ts), 1)
                        )
                    infections.append(
                        InfectionRecord(pid, rid, exit_ts, symptom_ts, searched, query_ts)
                    )
                    if rng.random() < cfg.p_complaint_given_ill:
                        blame_last = bool(rng.random() < cfg.p_blame_last)
                        ill_complaints.append((pid, symptom_ts, blame_last, rid))

            n_bg = int(rng.poisson(cfg.background_queries_per_day))
            for _ in range(n_bg):
                ts = day_start + int(rng.integers(0, DAY_S))
                labeled_queries.append(_background_query(rng, cfg, pid, ts))

            if rng.random() < cfg.p_frivolous_complaint:
                ts = day_start + int(rng.integers(0, DAY_S))
                frivolous_complaints.append((pid, ts, float(rng.random())))

    visits.sort(key=lambda v: v.exit_ts)
    labeled_queries.sort(key=lambda pair: pair[0].ts)

    inspections: list[InspectionRecord] = []
    # illness complaints blame the last restaurant visited before symptoms
    # (or, with probability 1 - p_blame_last, the true source); frivolous
    # complaints blame a random visit from the past three days
    visits_by_user: dict[str, list[VisitEvent]] = {}
    for v in visits:
        visits_by_user.setdefault(v.user_id, []).append(v)
    for uid, symptom_ts, blame_last, true_source in ill_complaints:
        blamed = true_source
        if blame_last:
            before = [v for v in visits_by_user[uid] if v.exit_ts <= symptom_ts]
            if before:
                blamed = before[-1].restaurant_id
        when = day_to_date(symptom_ts // DAY_S + 1)
        inspections.append(
            simulate_inspection(world, blamed, when, seed, trigger=Trigger.COMPLAINT)
        )
    for uid, ts, pick in frivolous_complaints:
        recent = [
            v
            for v in visits_by_user.get(uid, [])
            if ts - 3 * DAY_S <= v.exit_ts <= ts
        ]
        if not recent:
            continue
        blamed = recent[int(pick * len(recent))].restaurant_id
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
        queries=tuple(q for q, _ in labeled_queries),
        visits=tuple(visits),
        restaurants=world.restaurants,
        inspections=tuple(inspections),
    )
    truth = GroundTruth(
        infections=tuple(infections),
        query_labels=tuple(label for _, label in labeled_queries),
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


def simulate_raters(
    queries: Sequence[QueryEvent],
    truth_labels: Sequence[int],
    cfg: SimConfig,
    seed: int,
) -> JudgmentMatrix:
    """Six independent votes per query: the truth flipped with the rater-class
    flip rate (three MD votes, three non-MD votes)."""
    if len(queries) != len(truth_labels):
        raise DataError("need one truth label per query")
    truth = np.asarray(truth_labels, dtype=int).reshape(-1, 1)
    rng = make_rng(seed, "raters")
    md_flips = rng.random((len(truth), 3)) < cfg.rater_flip_md
    other_flips = rng.random((len(truth), 3)) < cfg.rater_flip_other
    return JudgmentMatrix(
        md_votes=np.where(md_flips, 1 - truth, truth),
        other_votes=np.where(other_flips, 1 - truth, truth),
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
    planted_rank_counts).
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
    from .locmodel import ScoredQuery  # local import to avoid a cycle

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
        queries.append(ScoredQuery(user_id=uid, ts=query_ts, score=0.99))

    for i in range(n_decoy * padding_per_decoy):
        uid = f"pad{i:06d}"
        rid = decoy_ids[i % n_decoy]
        exit_ts = 1_000_000_000 + i  # far from every query window
        visits.append(VisitEvent(uid, rid, exit_ts - 1800, exit_ts))

    visits.sort(key=lambda v: v.exit_ts)
    queries.sort(key=lambda q: q.ts)
    return tuple(visits), tuple(queries), tuple(planted_counts)


def cfg_to_json(cfg: SimConfig) -> dict:
    payload = {}
    for name in cfg.__dataclass_fields__:
        value = getattr(cfg, name)
        payload[name] = list(value) if isinstance(value, tuple) else value
    return payload


def cfg_from_json(payload: dict) -> SimConfig:
    kwargs = dict(payload)
    for name, value in kwargs.items():
        if isinstance(value, list):
            kwargs[name] = tuple(value)
    return SimConfig(**kwargs)


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_ground_truth(path: Path) -> GroundTruth:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return GroundTruth(
        infections=tuple(
            InfectionRecord(
                user_id=r["user_id"],
                source_restaurant_id=r["source_restaurant_id"],
                meal_exit_ts=int(r["meal_exit_ts"]),
                symptom_ts=int(r["symptom_ts"]),
                searched=bool(r["searched"]),
                query_ts=None if r["query_ts"] is None else int(r["query_ts"]),
            )
            for r in payload["infections"]
        ),
        query_labels=tuple(int(x) for x in payload["query_labels"]),
    )


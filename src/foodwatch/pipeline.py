"""End-to-end orchestration: simulate, label, train, score, link, aggregate,
release, rank, inspect, evaluate, report.

Each stage has a pure compute function plus a file-backed wrapper.
``config.STAGES`` names the wrappers in order; ``run`` calls each of them, as
the stage-by-stage CLI does, so both execute the same stage code. Stages
share their inputs through a :class:`Run`. A run directory is
self-describing: every emitted file is listed in ``manifest.json`` with its
checksum, alongside the seed and config hash.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import asdict, dataclass
from datetime import date as Date, datetime, timezone
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import report as report_mod
from .citysim import (
    DAY_S,
    GroundTruth,
    World,
    day_to_date,
    generate_world,
    load_ground_truth,
    save_ground_truth,
    simulate,
    simulate_inspection,
    simulate_raters,
)
from .config import STAGES, RunConfig, apply_overrides, config_hash, config_lines
from .errors import DataError, DataFormatError, UsageError
from .locmodel import (
    ExposureLink,
    Period,
    ScoredQueries,
    aggregate_restaurants,  # unused here; the benchmark tracer wraps it
    attribute_sources,
    link_exposures,
    rank_restaurants,
    recency_ranks,
    sliding_aggregates,
)
from .logdata import (
    Columns,
    Dataset,
    DatasetPaths,
    InspectionRecord,
    QueryLog,
    RestaurantRecord,
    RiskLevel,
    Trigger,
    VisitLog,
    first_occurrences,
    int_field,
    load_dataset,  # unused here; the benchmark tracer wraps it
    load_inspections,
    load_queries,
    load_visit_log,
    validate_dataset,
    write_dataset,
    write_inspections,
)
from .privacy import (
    anonymize_ground_truth,  # unused here; the benchmark tracer wraps it
    anonymize_ids,  # unused here; the benchmark tracer wraps it
    cap_contributions,
    pseudonyms,
    release,
)
from .raters import krippendorff_alpha, majority_labels
from .seeding import derive_seed
from .stats import (
    adjusted_means_linear,
    build_design_matrix,
    chi_square_independence,
    precision_table,
)
from .wsm import (
    LabeledSet,
    build_eval_sample,
    evaluate_wsm,
    load_model,
    save_model,
    score_queries,
    score_query,  # unused here; the benchmark tracer wraps pipeline.score_query
    train_wsm,
    weak_label,
)

MANIFEST = "manifest.json"
MODEL_FILE = "model.json"
WORLD_FILE = "world.json"
GROUND_TRUTH_FILE = "ground_truth.json"
VALIDATION_FILE = "validation.json"
SCORED_CSV = "scored_queries.csv"
SCORED_HEADER = ["user_id", "ts", "score"]
LINKS_CSV = "links.csv"
LINKS_HEADER = ["user_id", "restaurant_id", "visit_exit_ts", "first_positive_query_ts", "recency_rank"]
_link_row = attrgetter(*LINKS_HEADER)  # an ExposureLink's fields as a tuple, in header order
FINDER_INSPECTIONS_CSV = "finder_inspections.csv"
ALL_INSPECTIONS_CSV = "inspections_all.csv"
REPORT_TXT = "report.txt"


def dataset_dir(out: Path) -> Path:
    return Path(out) / "dataset"


def private_dir(out: Path) -> Path:
    return Path(out) / "private"


# --- world persistence (recipe only: no user ids, no latent dump) -----------


def save_world_recipe(world: World, path: Path) -> None:
    """The seed and the ``sim.*`` config lines regenerate the world
    deterministically, so the artifact carries no user identifiers or
    latent-state dump."""
    sim = [line for line in config_lines(RunConfig(sim=world.cfg)) if line.startswith("sim.")]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": world.seed, "sim": sim}, fh)


def load_world_recipe(path: Path) -> World:
    """The world a recipe describes; its ``sim.*`` lines are parsed and
    checked as ``--set`` overrides are."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("world recipe must be a JSON object")
    seed = report_mod.json_int(payload["seed"], "seed")
    return generate_world(apply_overrides(RunConfig(), payload["sim"]).sim, seed)


# --- the run: one artifact directory and the inputs its stages share ---------


def _read_artifact(path: Path, read: Callable[[Path], object]):
    """``read(path)``, with any malformed content, out-of-range settings
    included, reported as a data error that names the file."""
    try:
        return read(path)
    except (ValueError, KeyError, IndexError, TypeError, UsageError) as exc:
        raise DataFormatError(f"{path}: malformed artifact ({type(exc).__name__}: {exc})") from exc


def _parse_link(row: list[str]) -> ExposureLink:
    user_id, restaurant_id, exit_ts, anchor, rank = row
    link = ExposureLink(
        user_id,
        restaurant_id,
        int_field(exit_ts, "visit_exit_ts"),
        int_field(anchor, "first_positive_query_ts"),
        int_field(rank, "recency_rank", least=1),
    )
    if link.visit_exit_ts >= link.first_positive_query_ts:
        raise ValueError(f"visit_exit_ts {link.visit_exit_ts} is not before its anchor {link.first_positive_query_ts}")
    return link


def _parse_daily_row(row: list[str]) -> tuple:
    Date.fromisoformat(row[0])  # rejects a malformed date here, with its line
    return tuple(row)


# Each stage input by name: its path in a run directory and its reader. The
# readers look their loaders up in this module when they run, so a wrapper
# set on a loader's ``pipeline`` name sees every read.
INPUTS: dict[str, tuple[Callable[[Path], Path], Callable[[Path], object]]] = {
    "queries": (lambda out: DatasetPaths.in_dir(dataset_dir(out)).queries, lambda p: load_queries(p)),
    "visit_log": (dataset_dir, lambda d: load_visit_log(DatasetPaths.in_dir(d))),  # visits, registry by id
    "background_inspections": (
        lambda out: DatasetPaths.in_dir(dataset_dir(out)).inspections,
        lambda p: load_inspections(p),
    ),
    "truth": (lambda out: private_dir(out) / GROUND_TRUTH_FILE, lambda p: load_ground_truth(p)),
    "model": (lambda out: out / MODEL_FILE, lambda p: load_model(p)),
    "world": (lambda out: private_dir(out) / WORLD_FILE, lambda p: load_world_recipe(p)),
    "links": (lambda out: out / LINKS_CSV, lambda p: tuple(report_mod.read_csv(p, LINKS_HEADER, _parse_link)[1])),
    "daily_rows": (
        lambda out: out / report_mod.DAILY_LISTS_CSV,
        lambda p: tuple(report_mod.read_csv(p, report_mod.DAILY_LIST_HEADER, _parse_daily_row)[1]),
    ),
    "all_inspections": (lambda out: out / ALL_INSPECTIONS_CSV, lambda p: load_inspections(p)),
}


class Run:
    """An artifact directory and the inputs its stages share.

    Each input is read from disk (or, like the weak labels, computed) on
    first use and then kept; a stage that produces one keeps it here
    instead, so later stages of the same run do not read or compute it
    again. ``run_pipeline`` passes one run to all its stages, so ``run``
    reads back nothing it wrote; a single stage command gets a fresh run.
    """

    def __init__(self, out: Path):
        self.out = Path(out)
        self._inputs: dict[str, object] = {}

    @classmethod
    def of(cls, out: Path | Run) -> Run:
        """``out`` itself if it is a run, else a fresh run on the directory."""
        return out if isinstance(out, Run) else cls(out)

    def keep(self, **inputs) -> None:
        self._inputs.update(inputs)

    def release(self, *names: str) -> None:
        """Forget the kept inputs ``names``, which no later stage uses, so
        the run does not hold them to the end."""
        for name in names:
            self._inputs.pop(name, None)

    def path(self, name: str) -> Path:
        """Where the input ``name`` lives in this run's directory."""
        return INPUTS[name][0](self.out)

    def get(self, name: str, make: Callable[[], object] | None = None):
        """The kept input ``name``; if it is missing, ``make()`` or else its
        ``INPUTS`` read, kept first."""
        if name not in self._inputs:
            self._inputs[name] = make() if make else _read_artifact(self.path(name), INPUTS[name][1])
        return self._inputs[name]


# --- pure compute steps ------------------------------------------------------


def compute_simulation(config: RunConfig) -> tuple[World, Dataset, GroundTruth]:
    sim_seed = derive_seed(config.seed, "citysim")
    world = generate_world(config.sim, sim_seed)
    user_ids = pseudonyms(world.users, config.privacy.hash_key_int())
    dataset, truth = simulate(world, config.days, sim_seed, user_ids)
    return world, dataset, truth


def compute_model(config: RunConfig, queries: QueryLog) -> tuple[LabeledSet, object]:
    labeled = compute_weak_labels(config, queries)
    model = train_wsm(labeled, config.wsm, seed=derive_seed(config.seed, "wsm-train"))
    return labeled, model


def truth_label_by_text(queries: QueryLog, truth: GroundTruth) -> np.ndarray:
    """Ground-truth topical label per text code (consistent by construction),
    read at each text code's first event. ``truth`` holds one label per query
    event; ``stage_eval_wsm`` refuses a file that does not."""
    first = first_occurrences(queries.text)
    labels = np.zeros(len(queries.texts), dtype=int)
    labels[queries.text[first]] = np.asarray(truth.query_labels)[first]
    return labels


def compute_wsm_evaluation(
    config: RunConfig,
    queries: QueryLog,
    truth: GroundTruth,
    model,
    train_texts: set[str],
) -> dict[str, float]:
    sample = build_eval_sample(
        queries,
        config.wsm.eval_size,
        seed=derive_seed(config.seed, "wsm-eval"),
        exclude_texts=train_texts,
    )
    truth_labels = truth_label_by_text(queries, truth)[sample.text]
    judgments = simulate_raters(truth_labels, config.sim, seed=derive_seed(config.seed, "raters"))
    eval_set = LabeledSet(sample, majority_labels(judgments))
    metrics = evaluate_wsm(model, eval_set, threshold=config.wsm.threshold)
    return {
        "roc_auc": metrics.roc_auc,
        "f1": metrics.f1,
        "precision": metrics.precision,
        "recall": metrics.recall,
        "threshold": metrics.threshold,
        "krippendorff_alpha": krippendorff_alpha(judgments),
        "n_eval": len(sample),
        "final_train_loss": model.final_loss,
    }


def compute_exposures(
    config: RunConfig, queries: QueryLog, visits: VisitLog, model
) -> tuple[ScoredQueries, tuple[ExposureLink, ...]]:
    scored = ScoredQueries(queries.users, queries.user, queries.ts, score_queries(model, queries))
    links = link_exposures(visits, scored, config.locmodel)
    return scored, cap_contributions(links)


@dataclass(frozen=True, eq=False)
class ReleasedRows(Columns):
    """released_aggregates.csv rows as columns: per released cell its day,
    restaurant code, suppressed flag and values, beside the list date of
    each day and, per restaurant code, its id, city and risk level. A
    suppressed cell's values are written empty."""

    dates: Sequence[str]
    records: tuple[Sequence[str], Sequence[str], Sequence[str]]
    day: np.ndarray
    restaurant: np.ndarray
    suppressed: np.ndarray
    visitors: np.ndarray
    affected: np.ndarray
    proportion: np.ndarray
    signal: np.ndarray

    def __len__(self) -> int:
        return len(self.day)

    def _views(self, start: int, stop: int) -> Iterator[tuple]:
        codes = self.restaurant[start:stop].tolist()
        hidden = self.suppressed[start:stop]
        values = []
        for column in (self.visitors, self.affected, self.proportion, self.signal):
            part = column[start:stop].astype(object)  # Python ints or floats
            part[hidden] = None
            values.append(part)
        return zip(
            map(self.dates.__getitem__, self.day[start:stop].tolist()),
            *(map(table.__getitem__, codes) for table in self.records),
            *values,
            hidden.tolist(),
        )


@dataclass(frozen=True)
class DailyOutputs:
    released_rows: ReleasedRows  # released_aggregates.csv rows
    daily_rows: tuple[tuple, ...]  # daily_lists.csv rows: listed cells' released rows, less the suppressed flag


def compute_daily_lists(
    config: RunConfig,
    visits: VisitLog,
    registry: dict[str, RestaurantRecord],
    links: tuple[ExposureLink, ...],
) -> DailyOutputs:
    """Per-day aggregation over a trailing window and privacy release into
    one table of released rows; then, from that table alone, per-city
    shortlists with a listing cooldown. Each list row is its cell's released
    row without the suppressed flag, so the lists are post-processing of the
    release."""
    windows = [
        Period(max(0, (day + 1 - config.locmodel.agg_window_days) * DAY_S), (day + 1) * DAY_S)
        for day in range(config.days)
    ]
    released = [
        release(aggregates, config.privacy, derive_seed(config.seed, "privacy", day))
        for day, aggregates in enumerate(sliding_aggregates(visits, links, windows))
    ]

    def stacked(column: str) -> np.ndarray:
        return np.concatenate([getattr(cells, column) for cells in released] or [np.zeros(0, dtype=np.int64)])

    rows = ReleasedRows(
        [day_to_date(day + 1).isoformat() for day in range(len(released))],  # delivered next morning
        (
            visits.restaurants,
            tuple(registry[rid].city for rid in visits.restaurants),
            tuple(registry[rid].risk_level.value for rid in visits.restaurants),
        ),
        np.repeat(np.arange(len(released)), [len(cells) for cells in released]),
        *map(stacked, ("restaurant", "suppressed", "visitors", "affected", "proportion", "signal")),
    )
    _, cities, _ = rows.records
    spans = np.searchsorted(rows.day, np.arange(len(rows.dates) + 1))  # each day's rows
    listed: list[int] = []
    last_listed: dict[int, int] = {}  # restaurant code -> the day it was last listed
    for day in range(config.cli.warmup_days, len(rows.dates)):  # no lists before: too little data
        listable = spans[day] + np.flatnonzero(~rows.suppressed[spans[day] : spans[day + 1]])
        ranked = listable[rank_restaurants(rows.visitors[listable], rows.signal[listable], config.locmodel)]
        per_city: dict[str, int] = {}
        for at, code in zip(ranked.tolist(), rows.restaurant[ranked].tolist()):
            city = cities[code]
            if code in last_listed and day - last_listed[code] < config.cli.cooldown_days:
                continue
            if per_city.get(city, 0) >= config.cli.max_daily_inspections:
                continue
            per_city[city] = per_city.get(city, 0) + 1
            last_listed[code] = day
            listed.append(at)
    return DailyOutputs(released_rows=rows, daily_rows=tuple(rows[at][:-1] for at in listed))


def compute_finder_inspections(
    config: RunConfig, world: World, daily_rows
) -> tuple[InspectionRecord, ...]:
    seed = derive_seed(config.seed, "inspect")
    records = []
    for row in daily_rows:
        when = Date.fromisoformat(row[0])
        records.append(
            simulate_inspection(world, row[1], when, seed, trigger=Trigger.FINDER)
        )
    return tuple(sorted(records, key=lambda r: r.date))


def compute_evaluation_tables(
    config: RunConfig,
    visits: VisitLog,
    registry: dict[str, RestaurantRecord],
    all_inspections,
    links: tuple[ExposureLink, ...],
) -> list[tuple[str, list[str], list]]:
    """The evaluation tables as (file name, header, rows), each row in its
    header's column order."""
    precision_rows = precision_table(all_inspections, registry)  # refuses unknown restaurants
    finder = [i for i in all_inspections if i.trigger == Trigger.FINDER]
    baseline = [i for i in all_inspections if i.trigger != Trigger.FINDER]
    levels = (RiskLevel.HIGH, RiskLevel.MEDIUM, RiskLevel.LOW)

    def per_level(group: list[InspectionRecord]) -> list[int]:
        counts = Counter(registry[i.restaurant_id].risk_level for i in group)
        return [counts[level] for level in levels]

    finder_n, baseline_n = per_level(finder), per_level(baseline)
    try:
        chi_p = chi_square_independence([finder_n, baseline_n]).p_value
    except DataError:
        chi_p = None
    risk_rows = [
        [
            level.value,
            nf,
            100 * nf / len(finder) if finder else 0.0,
            nb,
            100 * nb / len(baseline) if baseline else 0.0,
            chi_p if k == 0 else None,
        ]
        for k, (level, nf, nb) in enumerate(zip(levels, finder_n, baseline_n))
    ]

    violation_rows = []
    if finder and baseline:
        pooled = finder + baseline
        X = build_design_matrix(
            group_flags=[1] * len(finder) + [0] * len(baseline),
            cities=[registry[i.restaurant_id].city for i in pooled],
            risks=[registry[i.restaurant_id].risk_level for i in pooled],
        )
        for severity, values in (
            ("critical", [i.critical_count for i in pooled]),
            ("major", [i.major_count for i in pooled]),
        ):
            fit = adjusted_means_linear(X, values)
            violation_rows.append(
                [severity, fit.adjusted_means[1], fit.adjusted_means[0], fit.group_p_value]
            )
    else:
        violation_rows = [["critical", None, None, None], ["major", None, None, None]]

    full_window = Period(0, (config.days + 4) * DAY_S)
    aggregates = dict(next(sliding_aggregates(visits, links, [full_window])).items())
    _, histogram = attribute_sources(links, aggregates)
    attribution_rows = list(zip(histogram.BIN_LABELS, histogram.fractions))
    return [
        (report_mod.PRECISION_CSV, report_mod.PRECISION_HEADER, precision_rows),
        (report_mod.RISK_DISTRIBUTION_CSV, report_mod.RISK_DISTRIBUTION_HEADER, risk_rows),
        (report_mod.VIOLATIONS_CSV, report_mod.VIOLATIONS_HEADER, violation_rows),
        (report_mod.ATTRIBUTION_CSV, report_mod.ATTRIBUTION_HEADER, attribution_rows),
    ]


# --- file-backed stages -------------------------------------------------------
#
# Every stage takes (config, out), where out is an artifact directory or a
# Run on one, and gets its shared inputs from ``Run.of(out)``.


def stage_simulate(config: RunConfig, out: Path | Run) -> None:
    run = Run.of(out)
    dataset_dir(run.out).mkdir(parents=True, exist_ok=True)
    private_dir(run.out).mkdir(parents=True, exist_ok=True)
    world, dataset, truth = compute_simulation(config)
    write_dataset(dataset, DatasetPaths.in_dir(dataset_dir(run.out)))
    save_world_recipe(world, private_dir(run.out) / WORLD_FILE)
    save_ground_truth(truth, private_dir(run.out) / GROUND_TRUTH_FILE)
    # The simulator emits every stream in the order loading would give it,
    # so later stages see the same streams, in the loaders' forms, as after
    # a read-back.
    run.keep(
        world=world,
        queries=dataset.queries,
        visit_log=(dataset.visits, dataset.registry()),
        background_inspections=dataset.inspections,
        truth=truth,
    )

    report = validate_dataset(dataset)
    with open(run.out / VALIDATION_FILE, "w", encoding="utf-8") as fh:
        json.dump(asdict(report), fh)
    if not report.ok:
        raise DataError(f"dataset has {len(report.violations)} invariant violations")


def stage_train(config: RunConfig, out: Path | Run) -> None:
    run = Run.of(out)
    labeled, model = compute_model(config, run.get("queries"))
    save_model(model, run.out / MODEL_FILE)
    run.keep(model=model, labeled=labeled)


def stage_eval_wsm(config: RunConfig, out: Path | Run) -> None:
    run = Run.of(out)
    queries, model, truth = run.get("queries"), run.get("model"), run.get("truth")
    if len(truth.query_labels) != len(queries):
        raise DataFormatError(f"{run.path('truth')}: {len(truth.query_labels)} query labels for {len(queries)} queries")
    labeled = run.get("labeled", lambda: compute_weak_labels(config, queries))
    metrics = compute_wsm_evaluation(config, queries, truth, model, labeled.texts())
    run.release("truth", "labeled")
    report_mod.write_csv(
        run.out / report_mod.METRICS_CSV,
        report_mod.METRICS_HEADER,
        [[k, v] for k, v in metrics.items()],
    )


def compute_weak_labels(config: RunConfig, queries: QueryLog) -> LabeledSet:
    return weak_label(queries, config.wsm, seed=derive_seed(config.seed, "wsm-weak"))


def stage_rank(config: RunConfig, out: Path | Run) -> None:
    run = Run.of(out)
    visits, registry = run.get("visit_log")
    scored, links = compute_exposures(config, run.get("queries"), visits, run.get("model"))
    # Neither the rest of this stage nor a later one reads the query log or
    # the model, and the daily lists, where this stage peaks, reuse the
    # memory they free.
    run.release("queries", "model")
    report_mod.write_csv(run.out / SCORED_CSV, SCORED_HEADER, scored)
    del scored  # the daily lists, where this stage peaks, do not need the scores
    report_mod.write_csv(run.out / LINKS_CSV, LINKS_HEADER, list(map(_link_row, links)))
    daily = compute_daily_lists(config, visits, registry, links)
    report_mod.write_csv(run.out / report_mod.RELEASED_CSV, report_mod.RELEASED_HEADER, daily.released_rows)
    report_mod.write_csv(run.out / report_mod.DAILY_LISTS_CSV, report_mod.DAILY_LIST_HEADER, daily.daily_rows)
    run.keep(links=links, daily_rows=daily.daily_rows)


def stage_inspect(config: RunConfig, out: Path | Run) -> None:
    run = Run.of(out)
    finder = compute_finder_inspections(config, run.get("world"), run.get("daily_rows"))
    write_inspections(finder, run.out / FINDER_INSPECTIONS_CSV)
    combined = tuple(sorted(run.get("background_inspections") + finder, key=lambda r: r.date))
    write_inspections(combined, run.out / ALL_INSPECTIONS_CSV)
    run.keep(all_inspections=combined)


def stage_evaluate(config: RunConfig, out: Path | Run) -> None:
    run = Run.of(out)
    visits, registry = run.get("visit_log")
    links = run.get("links")
    ranks = recency_ranks(visits, links, config.locmodel.window_s)
    wrong = np.flatnonzero(ranks != np.array([link.recency_rank for link in links], dtype=np.int64))
    if len(wrong):
        link, rank = links[wrong[0]], ranks[wrong[0]]
        raise DataFormatError(
            f"{run.path('links')}: link {link.user_id},{link.restaurant_id},{link.visit_exit_ts} has recency rank "
            f"{link.recency_rank}, but the visit log ranks it {rank}"
            + ("" if rank else ": it names no qualifying visit")
        )
    for name, header, rows in compute_evaluation_tables(config, visits, registry, run.get("all_inspections"), links):
        report_mod.write_csv(run.out / name, header, rows)


def stage_report(config: RunConfig, out: Path | Run) -> str:
    """Write the text report and return it (the CLI prints it)."""
    run = Run.of(out)
    text = report_mod.render_report(run.out)
    with open(run.out / REPORT_TXT, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def _hash_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(config: RunConfig, out: Path) -> dict:
    out = Path(out)
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != MANIFEST:
            files[str(path.relative_to(out))] = _hash_file(path)
    manifest = {
        "seed": config.seed,
        "config_hash": config_hash(config),
        "created_at": datetime.now(timezone.utc).isoformat(),
        "files": files,
    }
    with open(out / MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


def run_pipeline(config: RunConfig, out: Path) -> dict:
    """Every stage in order against one artifact directory, sharing one
    run's inputs; returns the manifest."""
    run = Run(out)
    run.out.mkdir(parents=True, exist_ok=True)
    for stage in STAGES:
        stage(config, run)
    return write_manifest(config, run.out)

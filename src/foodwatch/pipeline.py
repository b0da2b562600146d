"""End-to-end orchestration: simulate, label, train, score, link, aggregate,
release, rank, inspect, evaluate, report.

Each stage has a pure compute function plus a file-backed wrapper. ``STAGES``
lists the wrappers in order; ``run`` calls each of them, as the stage-by-stage
CLI does, so both execute the same stage code. Stages share their inputs
through a :class:`Run`. A run directory is self-describing: every emitted
file is listed in ``manifest.json`` with its checksum, alongside the seed and
config hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from datetime import date as Date, datetime, timezone
from pathlib import Path
from typing import Callable

from . import report as report_mod
from .citysim import (
    DAY_S,
    GroundTruth,
    World,
    cfg_from_json,
    cfg_to_json,
    day_to_date,
    generate_world,
    load_ground_truth,
    save_ground_truth,
    simulate,
    simulate_inspection,
    simulate_raters,
)
from .config import RunConfig, config_hash
from .errors import DataError, DataFormatError, FoodwatchError, UsageError
from .locmodel import (
    ExposureLink,
    Period,
    ScoredQuery,
    aggregate_restaurants,
    attribute_sources,
    link_exposures,
    rank_restaurants,
    sliding_aggregates,
)
from .logdata import (
    Dataset,
    DatasetPaths,
    InspectionRecord,
    RestaurantRecord,
    RiskLevel,
    Trigger,
    VisitEvent,
    load_dataset,
    load_inspections,
    load_visit_log,
    validate_dataset,
    write_dataset,
    write_inspections,
)
from .privacy import (
    ReleasedAggregate,
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
    Provenance,
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
FINDER_INSPECTIONS_CSV = "finder_inspections.csv"
ALL_INSPECTIONS_CSV = "inspections_all.csv"
REPORT_TXT = "report.txt"


def dataset_dir(out: Path) -> Path:
    return Path(out) / "dataset"


def private_dir(out: Path) -> Path:
    return Path(out) / "private"


# --- world persistence (recipe only: no user ids, no latent dump) -----------


def save_world_recipe(world: World, path: Path) -> None:
    """The (cfg, seed) recipe regenerates the world deterministically, so the
    artifact carries no user identifiers or latent-state dump."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": world.seed, "cfg": cfg_to_json(world.cfg)}, fh)


def load_world_recipe(path: Path) -> World:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return generate_world(cfg_from_json(payload["cfg"]), int(payload["seed"]))


# --- the run: one artifact directory and the inputs its stages share ---------


def _read_artifact(path: Path, read: Callable[[Path], object]):
    """``read(path)``, with any malformed content, out-of-range settings
    included, reported as a data error that names the file."""
    try:
        return read(path)
    except (ValueError, KeyError, IndexError, TypeError, UsageError) as exc:
        raise DataFormatError(f"{path}: malformed artifact ({type(exc).__name__}: {exc})") from exc


def _parse_link(row: list[str]) -> ExposureLink:
    return ExposureLink(row[0], row[1], int(row[2]), int(row[3]), int(row[4]))


def _parse_daily_row(row: list[str]) -> tuple:
    Date.fromisoformat(row[0])  # rejects a malformed date here, with its line
    return tuple(row)


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

    def get(self, name: str, make: Callable[[], object]):
        """The kept input ``name``, made and kept first if it is missing."""
        if name not in self._inputs:
            self._inputs[name] = make()
        return self._inputs[name]

    def _input(self, name: str, path: Path, read: Callable[[Path], object]):
        return self.get(name, lambda: _read_artifact(path, read))

    @property
    def dataset(self) -> Dataset:
        return self._input(
            "dataset", dataset_dir(self.out), lambda d: load_dataset(DatasetPaths.in_dir(d))
        )

    @property
    def visit_log(self) -> tuple[tuple[VisitEvent, ...], dict[str, RestaurantRecord]]:
        """The visits and the registry: taken from the dataset while it is
        kept, else read from their own two files of it."""
        dataset = self._inputs.get("dataset")
        if dataset is not None:
            return self.get("visit_log", lambda: (dataset.visits, dataset.registry()))
        return self._input("visit_log", dataset_dir(self.out), lambda d: load_visit_log(DatasetPaths.in_dir(d)))

    @property
    def background_inspections(self) -> tuple[InspectionRecord, ...]:
        return self._input(
            "background_inspections", DatasetPaths.in_dir(dataset_dir(self.out)).inspections, load_inspections
        )

    @property
    def truth(self) -> GroundTruth:
        return self._input("truth", private_dir(self.out) / GROUND_TRUTH_FILE, load_ground_truth)

    @property
    def model(self):
        return self._input("model", self.out / MODEL_FILE, load_model)

    @property
    def world(self) -> World:
        return self._input("world", private_dir(self.out) / WORLD_FILE, load_world_recipe)

    @property
    def links(self) -> tuple[ExposureLink, ...]:
        return self._input(
            "links",
            self.out / LINKS_CSV,
            lambda p: tuple(report_mod.read_csv(p, LINKS_HEADER, _parse_link)[1]),
        )

    @property
    def daily_rows(self) -> tuple[tuple, ...]:
        return self._input(
            "daily_rows",
            self.out / report_mod.DAILY_LISTS_CSV,
            lambda p: tuple(report_mod.read_csv(p, report_mod.DAILY_LIST_HEADER, _parse_daily_row)[1]),
        )

    @property
    def all_inspections(self) -> tuple[InspectionRecord, ...]:
        return self._input("all_inspections", self.out / ALL_INSPECTIONS_CSV, load_inspections)


# --- pure compute steps ------------------------------------------------------


def compute_simulation(config: RunConfig) -> tuple[World, Dataset, GroundTruth]:
    sim_seed = derive_seed(config.seed, "citysim")
    world = generate_world(config.sim, sim_seed)
    user_ids = pseudonyms(world.users, config.privacy.hash_key_int())
    dataset, truth = simulate(world, config.days, sim_seed, user_ids)
    return world, dataset, truth


def compute_model(config: RunConfig, dataset: Dataset) -> tuple[LabeledSet, object]:
    labeled = compute_weak_labels(config, dataset)
    model = train_wsm(labeled, config.wsm, seed=derive_seed(config.seed, "wsm-train"))
    return labeled, model


def truth_label_by_text(dataset: Dataset, truth: GroundTruth) -> dict[str, int]:
    """Ground-truth topical label per query text (consistent by construction)."""
    labels: dict[str, int] = {}
    for event, label in zip(dataset.queries, truth.query_labels):
        labels.setdefault(event.text, int(label))
    return labels


def compute_wsm_evaluation(
    config: RunConfig,
    dataset: Dataset,
    truth: GroundTruth,
    model,
    train_texts: set[str],
) -> dict[str, float]:
    eval_events = build_eval_sample(
        dataset.queries,
        config.wsm.eval_size,
        seed=derive_seed(config.seed, "wsm-eval"),
        exclude_texts=train_texts,
    )
    by_text = truth_label_by_text(dataset, truth)
    truth_labels = [by_text[e.text] for e in eval_events]
    judgments = simulate_raters(
        eval_events, truth_labels, config.sim, seed=derive_seed(config.seed, "raters")
    )
    labels = majority_labels(judgments)
    eval_set = LabeledSet(
        examples=tuple((e, int(l)) for e, l in zip(eval_events, labels)),
        provenance=Provenance.RATER,
    )
    metrics = evaluate_wsm(model, eval_set, threshold=config.wsm.threshold)
    return {
        "roc_auc": metrics.roc_auc,
        "f1": metrics.f1,
        "precision": metrics.precision,
        "recall": metrics.recall,
        "threshold": metrics.threshold,
        "krippendorff_alpha": krippendorff_alpha(judgments),
        "n_eval": len(eval_events),
        "final_train_loss": model.final_loss,
    }


def compute_exposures(
    config: RunConfig, dataset: Dataset, model
) -> tuple[list[ScoredQuery], tuple[ExposureLink, ...]]:
    scores = score_queries(model, dataset.queries).tolist()
    scored = [ScoredQuery(q.user_id, q.ts, s) for q, s in zip(dataset.queries, scores)]
    links = link_exposures(dataset.visits, scored, config.locmodel)
    return scored, cap_contributions(links)


@dataclass(frozen=True)
class DailyOutputs:
    released_rows: tuple[tuple, ...]  # released_aggregates.csv rows
    daily_rows: tuple[tuple, ...]  # daily_lists.csv rows (the shortlists)


def _list_row(list_date: str, rec: RestaurantRecord, cell: ReleasedAggregate) -> tuple:
    """A daily_lists.csv row; released_aggregates.csv adds the suppressed flag."""
    return (
        list_date,
        rec.restaurant_id,
        rec.city,
        rec.risk_level.value,
        cell.visitors,
        cell.affected,
        cell.proportion,
        cell.signal,
    )


def compute_daily_lists(
    config: RunConfig,
    visits: tuple[VisitEvent, ...],
    registry: dict[str, RestaurantRecord],
    links: tuple[ExposureLink, ...],
) -> DailyOutputs:
    """Per-day aggregation over a trailing window, privacy release, ranking,
    and per-city shortlist selection with a listing cooldown."""
    released_rows: list[tuple] = []
    daily_rows: list[tuple] = []
    last_listed: dict[str, int] = {}
    windows = [
        Period(max(0, (day + 1 - config.locmodel.agg_window_days) * DAY_S), (day + 1) * DAY_S)
        for day in range(config.days)
    ]
    for day, aggregates in enumerate(sliding_aggregates(visits, links, windows)):
        list_date = day_to_date(day + 1).isoformat()  # delivered next morning
        cells = release(aggregates, config.privacy, derive_seed(config.seed, "privacy", day))
        for rid in sorted(cells):
            cell = cells[rid]
            released_rows.append(_list_row(list_date, registry[rid], cell) + (cell.suppressed,))

        if day < config.cli.warmup_days:  # too little data for confident lists
            continue
        ranked = rank_restaurants([cell for cell in cells.values() if not cell.suppressed], config.locmodel)
        per_city: dict[str, int] = {}
        for cell in ranked:
            rid = cell.restaurant_id
            rec = registry[rid]
            if rid in last_listed and day - last_listed[rid] < config.cli.cooldown_days:
                continue
            if per_city.get(rec.city, 0) >= config.cli.max_daily_inspections:
                continue
            per_city[rec.city] = per_city.get(rec.city, 0) + 1
            last_listed[rid] = day
            daily_rows.append(_list_row(list_date, rec, cell))
    return DailyOutputs(released_rows=tuple(released_rows), daily_rows=tuple(daily_rows))


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
    visits: tuple[VisitEvent, ...],
    registry: dict[str, RestaurantRecord],
    all_inspections,
    links: tuple[ExposureLink, ...],
) -> dict[str, list]:
    table = precision_table(all_inspections, registry)
    precision_rows = []
    for row in table.rows:
        fit = row.fit
        precision_rows.append(
            [
                row.comparison,
                row.stratum,
                row.n_finder,
                row.unsafe_finder,
                row.pct_finder * 100,
                row.n_other,
                row.unsafe_other,
                row.pct_other * 100,
                fit.odds_ratio if fit else None,
                fit.ci95[0] if fit else None,
                fit.ci95[1] if fit else None,
                fit.p_value if fit else None,
                fit.converged if fit else None,
                row.fit_note,
            ]
        )

    finder = [i for i in all_inspections if i.trigger == Trigger.FINDER]
    baseline = [i for i in all_inspections if i.trigger != Trigger.FINDER]
    risk_rows = []
    counts = {"finder": [], "baseline": []}
    for level in (RiskLevel.HIGH, RiskLevel.MEDIUM, RiskLevel.LOW):
        nf = sum(1 for i in finder if registry[i.restaurant_id].risk_level == level)
        nb = sum(1 for i in baseline if registry[i.restaurant_id].risk_level == level)
        counts["finder"].append(nf)
        counts["baseline"].append(nb)
    chi_p = None
    try:
        chi_p = chi_square_independence([counts["finder"], counts["baseline"]]).p_value
    except DataError:
        pass
    for i, level in enumerate((RiskLevel.HIGH, RiskLevel.MEDIUM, RiskLevel.LOW)):
        nf, nb = counts["finder"][i], counts["baseline"][i]
        risk_rows.append(
            [
                level.value,
                nf,
                100 * nf / len(finder) if finder else 0.0,
                nb,
                100 * nb / len(baseline) if baseline else 0.0,
                chi_p if i == 0 else None,
            ]
        )

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
    aggregates = aggregate_restaurants(visits, links, full_window)
    _, histogram = attribute_sources(links, aggregates)
    attribution_rows = [
        [label, frac]
        for label, frac in zip(histogram.BIN_LABELS, histogram.fractions)
    ]
    return {
        "precision": precision_rows,
        "risk_distribution": risk_rows,
        "violations": violation_rows,
        "attribution": attribution_rows,
    }


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
    # so later stages see the same dataset as after a read-back.
    run.keep(world=world, dataset=dataset, background_inspections=dataset.inspections, truth=truth)

    report = validate_dataset(dataset)
    with open(run.out / VALIDATION_FILE, "w", encoding="utf-8") as fh:
        json.dump(asdict(report), fh)
    if not report.ok:
        raise DataError(f"dataset has {len(report.violations)} invariant violations")


def stage_train(config: RunConfig, out: Path | Run) -> None:
    run = Run.of(out)
    labeled, model = compute_model(config, run.dataset)
    save_model(model, run.out / MODEL_FILE)
    run.keep(model=model, labeled=labeled)


def stage_eval_wsm(config: RunConfig, out: Path | Run) -> None:
    run = Run.of(out)
    dataset, model, truth = run.dataset, run.model, run.truth
    labeled = run.get("labeled", lambda: compute_weak_labels(config, dataset))
    metrics = compute_wsm_evaluation(config, dataset, truth, model, labeled.texts())
    run.release("truth", "labeled")
    report_mod.write_csv(
        run.out / report_mod.METRICS_CSV,
        report_mod.METRICS_HEADER,
        [[k, v] for k, v in metrics.items()],
    )


def compute_weak_labels(config: RunConfig, dataset: Dataset) -> LabeledSet:
    return weak_label(dataset.queries, config.wsm, seed=derive_seed(config.seed, "wsm-weak"))


def stage_rank(config: RunConfig, out: Path | Run) -> None:
    run = Run.of(out)
    scored, links = compute_exposures(config, run.dataset, run.model)
    visits, registry = run.visit_log
    # Neither the rest of this stage nor a later one reads the query log or
    # the model, and the daily lists, where this stage peaks, reuse the
    # memory they free.
    run.release("dataset", "model")
    report_mod.write_csv(
        run.out / SCORED_CSV,
        SCORED_HEADER,
        [[s.user_id, s.ts, s.score] for s in scored],
    )
    del scored  # the daily lists, where this stage peaks, do not need the scores
    report_mod.write_csv(
        run.out / LINKS_CSV,
        LINKS_HEADER,
        [
            [l.user_id, l.restaurant_id, l.visit_exit_ts, l.first_positive_query_ts, l.recency_rank]
            for l in links
        ],
    )
    daily = compute_daily_lists(config, visits, registry, links)
    report_mod.write_csv(run.out / report_mod.RELEASED_CSV, report_mod.RELEASED_HEADER, daily.released_rows)
    report_mod.write_csv(run.out / report_mod.DAILY_LISTS_CSV, report_mod.DAILY_LIST_HEADER, daily.daily_rows)
    run.keep(links=links, daily_rows=daily.daily_rows)


def stage_inspect(config: RunConfig, out: Path | Run) -> None:
    run = Run.of(out)
    finder = compute_finder_inspections(config, run.world, run.daily_rows)
    write_inspections(finder, run.out / FINDER_INSPECTIONS_CSV)
    combined = tuple(sorted(run.background_inspections + finder, key=lambda r: r.date))
    write_inspections(combined, run.out / ALL_INSPECTIONS_CSV)
    run.keep(all_inspections=combined)


def stage_evaluate(config: RunConfig, out: Path | Run) -> None:
    run = Run.of(out)
    visits, registry = run.visit_log
    tables = compute_evaluation_tables(config, visits, registry, run.all_inspections, run.links)
    report_mod.write_csv(
        run.out / report_mod.PRECISION_CSV, report_mod.PRECISION_HEADER, tables["precision"]
    )
    report_mod.write_csv(
        run.out / report_mod.RISK_DISTRIBUTION_CSV,
        report_mod.RISK_DISTRIBUTION_HEADER,
        tables["risk_distribution"],
    )
    report_mod.write_csv(
        run.out / report_mod.VIOLATIONS_CSV, report_mod.VIOLATIONS_HEADER, tables["violations"]
    )
    report_mod.write_csv(
        run.out / report_mod.ATTRIBUTION_CSV, report_mod.ATTRIBUTION_HEADER, tables["attribution"]
    )


def stage_report(config: RunConfig, out: Path | Run) -> str:
    """Write the text report and return it (the CLI prints it)."""
    run = Run.of(out)
    text = report_mod.render_report(run.out)
    with open(run.out / REPORT_TXT, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


@dataclass(frozen=True)
class Stage:
    """A pipeline stage: its CLI command, the function that runs it and its
    help text. Calling it runs the function and names the stage in errors."""

    command: str
    function: str  # module attribute, looked up per call so it can be replaced
    help: str

    def __call__(self, config: RunConfig, out: Path | Run):
        try:
            return globals()[self.function](config, out)
        except FoodwatchError as exc:
            raise type(exc)(f"stage {self.command}: {exc}") from exc


# The stages in run order: the CLI's stage commands and ``run``.
STAGES = (
    Stage("simulate", "stage_simulate", "generate the synthetic city dataset"),
    Stage("train-wsm", "stage_train", "weak-label the query stream and train the classifier"),
    Stage("eval-wsm", "stage_eval_wsm", "rater-based evaluation of the trained classifier"),
    Stage("rank", "stage_rank", "score, link, aggregate, release, and emit daily lists"),
    Stage("inspect", "stage_inspect", "simulate inspections for the daily lists"),
    Stage("evaluate", "stage_evaluate", "produce the statistical evaluation tables"),
    Stage("report", "stage_report", "render the text report from the evaluation tables"),
)


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

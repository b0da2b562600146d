"""Canonical data model and file ingestion for the four input streams.

Streams and formats:
  * query log   -- JSONL, one event per line with fields
                   user_id, ts, text, results[{url,title,snippet,concept_tags,clicked,dwell_s}]
  * visit log   -- CSV, header user_id,restaurant_id,entry_ts,exit_ts
  * registry    -- CSV, header restaurant_id,city,risk_level
  * inspections -- CSV, header restaurant_id,date,trigger,outcome,critical_count,major_count

All timestamps are integer UTC seconds. Loading sorts each stream ascending
by its timestamp (queries by ts, visits by exit_ts, inspections by date) with
a stable sort, so downstream joins can assume order. Datasets are immutable
after loading and safe to share across threads.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from datetime import date as Date
from enum import Enum
from pathlib import Path
from typing import Iterable

from .errors import DataFormatError, ReferentialError

MAX_RESULTS_PER_QUERY = 10

QUERY_FIELDS = ("user_id", "ts", "text", "results")
RESULT_FIELDS = ("url", "title", "snippet", "concept_tags", "clicked", "dwell_s")
VISIT_HEADER = ["user_id", "restaurant_id", "entry_ts", "exit_ts"]
REGISTRY_HEADER = ["restaurant_id", "city", "risk_level"]
INSPECTION_HEADER = [
    "restaurant_id",
    "date",
    "trigger",
    "outcome",
    "critical_count",
    "major_count",
]


class RiskLevel(str, Enum):
    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"


class Trigger(str, Enum):
    FINDER = "FINDER"
    ROUTINE = "ROUTINE"
    COMPLAINT = "COMPLAINT"


class Outcome(str, Enum):
    SAFE = "Safe"
    UNSAFE = "Unsafe"


@dataclass(frozen=True, slots=True)
class ResultPage:
    url: str
    title: str
    snippet: str
    concept_tags: frozenset[str]
    clicked: bool
    dwell_s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "concept_tags", frozenset(self.concept_tags))


@dataclass(frozen=True, slots=True)
class QueryEvent:
    user_id: str
    ts: int
    text: str
    results: tuple[ResultPage, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "results", tuple(self.results))


@dataclass(frozen=True, slots=True)
class VisitEvent:
    user_id: str
    restaurant_id: str
    entry_ts: int
    exit_ts: int


@dataclass(frozen=True)
class RestaurantRecord:
    restaurant_id: str
    city: str
    risk_level: RiskLevel


@dataclass(frozen=True)
class InspectionRecord:
    restaurant_id: str
    date: Date
    trigger: Trigger
    outcome: Outcome
    critical_count: int
    major_count: int


@dataclass(frozen=True)
class Dataset:
    queries: tuple[QueryEvent, ...] = ()
    visits: tuple[VisitEvent, ...] = ()
    restaurants: tuple[RestaurantRecord, ...] = ()
    inspections: tuple[InspectionRecord, ...] = ()

    def registry(self) -> dict[str, RestaurantRecord]:
        return {r.restaurant_id: r for r in self.restaurants}


@dataclass(frozen=True)
class DatasetPaths:
    queries: Path
    visits: Path
    restaurants: Path
    inspections: Path

    @classmethod
    def in_dir(cls, directory: Path | str) -> "DatasetPaths":
        d = Path(directory)
        return cls(
            queries=d / "queries.jsonl",
            visits=d / "visits.csv",
            restaurants=d / "restaurants.csv",
            inspections=d / "inspections.csv",
        )


@dataclass(frozen=True)
class ValidationReport:
    query_count: int
    visit_count: int
    restaurant_count: int
    inspection_count: int
    ts_min: int | None
    ts_max: int | None
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def _fail(path: Path, lineno: int, msg: str) -> DataFormatError:
    return DataFormatError(f"{path}:{lineno}: {msg}")


def _parse_result(obj: object, path: Path, lineno: int) -> ResultPage:
    if not isinstance(obj, dict):
        raise _fail(path, lineno, "result entry is not an object")
    extra = set(obj) - set(RESULT_FIELDS)
    missing = set(RESULT_FIELDS) - set(obj)
    if extra or missing:
        raise _fail(path, lineno, f"result fields: missing {sorted(missing)}, unknown {sorted(extra)}")
    clicked = obj["clicked"]
    dwell = obj["dwell_s"]
    if not isinstance(clicked, bool):
        raise _fail(path, lineno, "clicked must be a boolean")
    if not isinstance(dwell, (int, float)) or isinstance(dwell, bool) or dwell < 0:
        raise _fail(path, lineno, "dwell_s must be a non-negative number")
    tags = obj["concept_tags"]
    if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
        raise _fail(path, lineno, "concept_tags must be a list of strings")
    return ResultPage(
        url=str(obj["url"]),
        title=str(obj["title"]),
        snippet=str(obj["snippet"]),
        concept_tags=frozenset(tags),
        clicked=clicked,
        dwell_s=float(dwell),
    )


def load_queries(path: Path) -> tuple[QueryEvent, ...]:
    events: list[QueryEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise _fail(path, lineno, f"invalid JSON: {exc.msg}") from exc
            if not isinstance(obj, dict):
                raise _fail(path, lineno, "line is not a JSON object")
            extra = set(obj) - set(QUERY_FIELDS)
            missing = set(QUERY_FIELDS) - set(obj)
            if extra or missing:
                raise _fail(path, lineno, f"query fields: missing {sorted(missing)}, unknown {sorted(extra)}")
            ts = obj["ts"]
            if not isinstance(ts, int) or isinstance(ts, bool) or ts < 0:
                raise _fail(path, lineno, "ts must be a non-negative integer")
            results = obj["results"]
            if not isinstance(results, list):
                raise _fail(path, lineno, "results must be a list")
            if len(results) > MAX_RESULTS_PER_QUERY:
                raise _fail(path, lineno, f"more than {MAX_RESULTS_PER_QUERY} results")
            events.append(
                QueryEvent(
                    user_id=str(obj["user_id"]),
                    ts=ts,
                    text=str(obj["text"]),
                    results=tuple(_parse_result(r, path, lineno) for r in results),
                )
            )
    events.sort(key=lambda e: e.ts)  # list.sort is stable: input order breaks ties
    return tuple(events)


def _open_csv(path: Path, expected_header: list[str]):
    fh = open(path, "r", encoding="utf-8", newline="")
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:  # empty file counts as an empty stream
        return fh, reader
    if header != expected_header:
        fh.close()
        raise _fail(path, 1, f"expected header {','.join(expected_header)}, got {','.join(header)}")
    return fh, reader


def _int_field(row_val: str, name: str, path: Path, lineno: int, minimum: int | None = None) -> int:
    try:
        value = int(row_val)
    except ValueError:
        raise _fail(path, lineno, f"{name} must be an integer, got {row_val!r}") from None
    if minimum is not None and value < minimum:
        raise _fail(path, lineno, f"{name} must be >= {minimum}, got {value}")
    return value


def load_visits(path: Path) -> tuple[VisitEvent, ...]:
    fh, reader = _open_csv(path, VISIT_HEADER)
    visits: list[VisitEvent] = []
    with fh:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise _fail(path, lineno, f"expected 4 fields, got {len(row)}")
            entry_ts = _int_field(row[2], "entry_ts", path, lineno, minimum=0)
            exit_ts = _int_field(row[3], "exit_ts", path, lineno, minimum=0)
            visits.append(VisitEvent(row[0], row[1], entry_ts, exit_ts))
    visits.sort(key=lambda v: v.exit_ts)
    return tuple(visits)


def load_restaurants(path: Path) -> tuple[RestaurantRecord, ...]:
    fh, reader = _open_csv(path, REGISTRY_HEADER)
    records: list[RestaurantRecord] = []
    seen: set[str] = set()
    with fh:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise _fail(path, lineno, f"expected 3 fields, got {len(row)}")
            rid, city, risk = row
            if rid in seen:
                raise _fail(path, lineno, f"duplicate restaurant_id {rid!r}")
            seen.add(rid)
            try:
                level = RiskLevel(risk.lower())
            except ValueError:
                raise _fail(path, lineno, f"risk_level must be high/medium/low, got {risk!r}") from None
            records.append(RestaurantRecord(rid, city, level))
    records.sort(key=lambda r: r.restaurant_id)
    return tuple(records)


def load_inspections(path: Path) -> tuple[InspectionRecord, ...]:
    fh, reader = _open_csv(path, INSPECTION_HEADER)
    records: list[InspectionRecord] = []
    with fh:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise _fail(path, lineno, f"expected 6 fields, got {len(row)}")
            rid, date_s, trigger_s, outcome_s, crit_s, major_s = row
            try:
                when = Date.fromisoformat(date_s)
            except ValueError:
                raise _fail(path, lineno, f"date must be YYYY-MM-DD, got {date_s!r}") from None
            try:
                trigger = Trigger(trigger_s.upper())
            except ValueError:
                raise _fail(path, lineno, f"unknown trigger {trigger_s!r}") from None
            try:
                outcome = Outcome(outcome_s.capitalize())
            except ValueError:
                raise _fail(path, lineno, f"outcome must be Safe or Unsafe, got {outcome_s!r}") from None
            crit = _int_field(crit_s, "critical_count", path, lineno, minimum=0)
            major = _int_field(major_s, "major_count", path, lineno, minimum=0)
            records.append(InspectionRecord(rid, when, trigger, outcome, crit, major))
    records.sort(key=lambda r: r.date)
    return tuple(records)


def load_dataset(paths: DatasetPaths) -> Dataset:
    """Load and cross-check the four streams.

    Every visit must reference a registered restaurant; offenders are listed
    in the raised error. Loading is deterministic: identical bytes in,
    identical Dataset out.
    """
    dataset = Dataset(
        queries=load_queries(paths.queries),
        visits=load_visits(paths.visits),
        restaurants=load_restaurants(paths.restaurants),
        inspections=load_inspections(paths.inspections),
    )
    known = {r.restaurant_id for r in dataset.restaurants}
    dangling = sorted({v.restaurant_id for v in dataset.visits} - known)
    if dangling:
        raise ReferentialError(
            f"visits reference unknown restaurants: {', '.join(dangling)}"
        )
    return dataset


def validate_dataset(dataset: Dataset) -> ValidationReport:
    """Enumerate every invariant violation without raising.

    The pipeline refuses to proceed when the report lists any violation.
    """
    violations: list[str] = []
    for i, visit in enumerate(dataset.visits):
        if visit.entry_ts > visit.exit_ts:
            violations.append(
                f"visit[{i}] user={visit.user_id} restaurant={visit.restaurant_id}: "
                f"entry_ts {visit.entry_ts} > exit_ts {visit.exit_ts}"
            )
    for i, event in enumerate(dataset.queries):
        for j, page in enumerate(event.results):
            if not page.clicked and page.dwell_s != 0:
                violations.append(
                    f"query[{i}] result[{j}] user={event.user_id}: "
                    f"dwell_s {page.dwell_s} on unclicked result"
                )
    for i, rec in enumerate(dataset.inspections):
        if rec.critical_count < 0:
            violations.append(f"inspection[{i}] restaurant={rec.restaurant_id}: negative critical_count")
        if rec.major_count < 0:
            violations.append(f"inspection[{i}] restaurant={rec.restaurant_id}: negative major_count")

    stamps = [q.ts for q in dataset.queries] + [v.exit_ts for v in dataset.visits]
    return ValidationReport(
        query_count=len(dataset.queries),
        visit_count=len(dataset.visits),
        restaurant_count=len(dataset.restaurants),
        inspection_count=len(dataset.inspections),
        ts_min=min(stamps) if stamps else None,
        ts_max=max(stamps) if stamps else None,
        violations=tuple(violations),
    )


def _result_to_json(page: ResultPage) -> dict:
    return {
        "url": page.url,
        "title": page.title,
        "snippet": page.snippet,
        "concept_tags": sorted(page.concept_tags),
        "clicked": page.clicked,
        "dwell_s": page.dwell_s,
    }


def write_queries(events: Iterable[QueryEvent], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(
                json.dumps(
                    {
                        "user_id": event.user_id,
                        "ts": event.ts,
                        "text": event.text,
                        "results": [_result_to_json(r) for r in event.results],
                    },
                    ensure_ascii=False,
                )
            )
            fh.write("\n")


def write_visits(visits: Iterable[VisitEvent], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(VISIT_HEADER)
        for v in visits:
            writer.writerow([v.user_id, v.restaurant_id, v.entry_ts, v.exit_ts])


def write_restaurants(records: Iterable[RestaurantRecord], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REGISTRY_HEADER)
        for r in records:
            writer.writerow([r.restaurant_id, r.city, r.risk_level.value])


def write_inspections(records: Iterable[InspectionRecord], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(INSPECTION_HEADER)
        for r in records:
            writer.writerow(
                [
                    r.restaurant_id,
                    r.date.isoformat(),
                    r.trigger.value,
                    r.outcome.value,
                    r.critical_count,
                    r.major_count,
                ]
            )


def write_dataset(dataset: Dataset, paths: DatasetPaths) -> None:
    """Serialize a Dataset back into the four on-disk formats."""
    paths.queries.parent.mkdir(parents=True, exist_ok=True)
    write_queries(dataset.queries, paths.queries)
    write_visits(dataset.visits, paths.visits)
    write_restaurants(dataset.restaurants, paths.restaurants)
    write_inspections(dataset.inspections, paths.inspections)

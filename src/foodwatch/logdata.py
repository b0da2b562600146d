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

The CSV streams go through ``report.read_csv``, the pipeline's one CSV
reader. Each must start with its header line: a file without one, even a
zero-byte file, is a data error, not an empty stream. A malformed record is
a data error that names the file and line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import date as Date
from enum import Enum
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterable, TypeVar

from .errors import DataFormatError, ReferentialError
# Bound at import, so a wrapper later put on ``report.read_csv`` or
# ``report.write_csv`` (the benchmark tracer's) sees pipeline tables only.
from .report import read_csv, write_csv

T = TypeVar("T")

MAX_RESULTS_PER_QUERY = 10

QUERY_FIELDS = ("user_id", "ts", "text", "results")
RESULT_FIELDS = ("url", "title", "snippet", "concept_tags", "clicked", "dwell_s")
_QUERY_KEYS = frozenset(QUERY_FIELDS)
_RESULT_KEYS = frozenset(RESULT_FIELDS)
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


@dataclass(frozen=True, slots=True)
class QueryEvent:
    user_id: str
    ts: int
    text: str
    results: tuple[ResultPage, ...] = ()


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


def _field_mismatch(what: str, obj: dict, expected: frozenset[str]) -> ValueError:
    return ValueError(
        f"{what} fields: missing {sorted(expected - obj.keys())}, unknown {sorted(obj.keys() - expected)}"
    )


def _parse_result(obj: object) -> ResultPage:
    if not isinstance(obj, dict):
        raise ValueError("result entry is not an object")
    if obj.keys() != _RESULT_KEYS:
        raise _field_mismatch("result", obj, _RESULT_KEYS)
    clicked = obj["clicked"]
    dwell = obj["dwell_s"]
    if not isinstance(clicked, bool):
        raise ValueError("clicked must be a boolean")
    if not isinstance(dwell, (int, float)) or isinstance(dwell, bool) or dwell < 0:
        raise ValueError("dwell_s must be a non-negative number")
    tags = obj["concept_tags"]
    if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
        raise ValueError("concept_tags must be a list of strings")
    return ResultPage(
        url=str(obj["url"]),
        title=str(obj["title"]),
        snippet=str(obj["snippet"]),
        concept_tags=frozenset(tags),
        clicked=clicked,
        dwell_s=float(dwell),
    )


def _parse_query(line: str) -> QueryEvent:
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    if obj.keys() != _QUERY_KEYS:
        raise _field_mismatch("query", obj, _QUERY_KEYS)
    ts = obj["ts"]
    if not isinstance(ts, int) or isinstance(ts, bool) or ts < 0:
        raise ValueError("ts must be a non-negative integer")
    results = obj["results"]
    if not isinstance(results, list):
        raise ValueError("results must be a list")
    if len(results) > MAX_RESULTS_PER_QUERY:
        raise ValueError(f"more than {MAX_RESULTS_PER_QUERY} results")
    return QueryEvent(
        user_id=str(obj["user_id"]),
        ts=ts,
        text=str(obj["text"]),
        results=tuple(_parse_result(r) for r in results),
    )


def load_queries(path: Path) -> tuple[QueryEvent, ...]:
    events: list[QueryEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                events.append(_parse_query(line))
            except ValueError as exc:  # json.JSONDecodeError included
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    events.sort(key=lambda e: e.ts)  # list.sort is stable: input order breaks ties
    return tuple(events)


def _field(parse: Callable[[str], T], raw: str, what: str) -> T:
    """``parse(raw)``, or a ValueError that says what ``raw`` should be."""
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(f"{what}, got {raw!r}") from None


def _int_field(raw: str, name: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _parse_visit(row: list[str]) -> VisitEvent:
    user_id, restaurant_id, entry_s, exit_s = row
    return VisitEvent(user_id, restaurant_id, _int_field(entry_s, "entry_ts"), _int_field(exit_s, "exit_ts"))


def load_visits(path: Path) -> tuple[VisitEvent, ...]:
    _, visits = read_csv(path, VISIT_HEADER, _parse_visit)
    visits.sort(key=lambda v: v.exit_ts)
    return tuple(visits)


def load_restaurants(path: Path) -> tuple[RestaurantRecord, ...]:
    seen: set[str] = set()

    def parse(row: list[str]) -> RestaurantRecord:
        rid, city, risk = row
        if rid in seen:
            raise ValueError(f"duplicate restaurant_id {rid!r}")
        seen.add(rid)
        level = _field(lambda r: RiskLevel(r.lower()), risk, "risk_level must be high/medium/low")
        return RestaurantRecord(rid, city, level)

    _, records = read_csv(path, REGISTRY_HEADER, parse)
    records.sort(key=lambda r: r.restaurant_id)
    return tuple(records)


def _parse_inspection(row: list[str]) -> InspectionRecord:
    rid, date_s, trigger_s, outcome_s, crit_s, major_s = row
    return InspectionRecord(
        rid,
        _field(Date.fromisoformat, date_s, "date must be YYYY-MM-DD"),
        _field(lambda t: Trigger(t.upper()), trigger_s, "unknown trigger"),
        _field(lambda o: Outcome(o.capitalize()), outcome_s, "outcome must be Safe or Unsafe"),
        _int_field(crit_s, "critical_count"),
        _int_field(major_s, "major_count"),
    )


def load_inspections(path: Path) -> tuple[InspectionRecord, ...]:
    _, records = read_csv(path, INSPECTION_HEADER, _parse_inspection)
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
    _check_references(dataset.visits, dataset.restaurants)
    return dataset


def load_visit_log(paths: DatasetPaths) -> tuple[tuple[VisitEvent, ...], dict[str, RestaurantRecord]]:
    """The visits and the registry by restaurant id, cross-checked as
    :func:`load_dataset` does; neither the query log nor the inspections
    are read."""
    visits = load_visits(paths.visits)
    restaurants = load_restaurants(paths.restaurants)
    _check_references(visits, restaurants)
    return visits, {r.restaurant_id: r for r in restaurants}


def _check_references(visits: tuple[VisitEvent, ...], restaurants: tuple[RestaurantRecord, ...]) -> None:
    known = {r.restaurant_id for r in restaurants}
    dangling = sorted({v.restaurant_id for v in visits} - known)
    if dangling:
        raise ReferentialError(
            f"visits reference unknown restaurants: {', '.join(dangling)}"
        )


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


def _json_scalar(value) -> str:
    """``json.dumps(value, ensure_ascii=False)``, with the types that a query
    line holds spelled out instead of passed through the encoder."""
    kind = type(value)
    if kind is str:
        return encode_basestring(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int or (kind is float and math.isfinite(value)):
        return repr(value)
    return json.dumps(value, ensure_ascii=False)


def _page_content_json(page: ResultPage) -> str:
    """A result's JSON up to its click fields: the object without its ``}``."""
    content = {
        "url": page.url,
        "title": page.title,
        "snippet": page.snippet,
        "concept_tags": sorted(page.concept_tags),
    }
    return json.dumps(content, ensure_ascii=False)[:-1]


def write_queries(events: Iterable[QueryEvent], path: Path) -> None:
    """One JSON object per event and line, byte for byte what ``json.dumps(
    ..., ensure_ascii=False)`` gives. Result pages repeat a few contents, so
    each distinct (url, title, snippet, concept_tags) is encoded once; each
    line encodes only its user, time, text, clicks and dwell times."""
    contents: dict[tuple, str] = {}
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            pages = []
            for page in event.results:
                key = (page.url, page.title, page.snippet, page.concept_tags)
                content = contents.get(key)
                if content is None:
                    content = contents[key] = _page_content_json(page)
                pages.append(
                    f'{content}, "clicked": {_json_scalar(page.clicked)}, '
                    f'"dwell_s": {_json_scalar(page.dwell_s)}}}'
                )
            fh.write(
                f'{{"user_id": {_json_scalar(event.user_id)}, "ts": {_json_scalar(event.ts)}, '
                f'"text": {_json_scalar(event.text)}, "results": [{", ".join(pages)}]}}\n'
            )


def write_visits(visits: Iterable[VisitEvent], path: Path) -> None:
    write_csv(path, VISIT_HEADER, ((v.user_id, v.restaurant_id, v.entry_ts, v.exit_ts) for v in visits))


def write_restaurants(records: Iterable[RestaurantRecord], path: Path) -> None:
    write_csv(path, REGISTRY_HEADER, ((r.restaurant_id, r.city, r.risk_level.value) for r in records))


def write_inspections(records: Iterable[InspectionRecord], path: Path) -> None:
    write_csv(
        path,
        INSPECTION_HEADER,
        (
            (r.restaurant_id, r.date.isoformat(), r.trigger.value, r.outcome.value, r.critical_count, r.major_count)
            for r in records
        ),
    )


def write_dataset(dataset: Dataset, paths: DatasetPaths) -> None:
    """Serialize a Dataset back into the four on-disk formats."""
    paths.queries.parent.mkdir(parents=True, exist_ok=True)
    write_queries(dataset.queries, paths.queries)
    write_visits(dataset.visits, paths.visits)
    write_restaurants(dataset.restaurants, paths.restaurants)
    write_inspections(dataset.inspections, paths.inspections)

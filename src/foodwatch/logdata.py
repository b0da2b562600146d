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

The query and visit logs are held as columns: a :class:`QueryLog` or
:class:`VisitLog` keeps one read-only numpy array per field, with an entry
per event (and, for the fields of a result page, an entry per page), beside
tables that hold each distinct user id, text, url, title, snippet, tag set
and restaurant id once. A column of codes indexes its table. Logs repeat a
few values across many events, so the tables are short and the columns hold
numbers only. A page's click and dwell time are plain columns: ``-0.0 ==
0.0``, and a dwell keeps its sign.

A log is built a batch of events at a time by :class:`QueryColumns` or
:class:`VisitColumns`, from columns of values or of codes: the loaders fill
them from the files, and the simulator a block of days at a time. The
pipeline's steps, the writers and ``validate_dataset`` read the columns.
Indexing or iterating a log yields :class:`QueryEvent` and
:class:`VisitEvent` objects, built on demand, as a view for code that reads
events one at a time (tests, scripts, the benchmark harness); no stage asks
for it. ``QueryLog.of`` and ``VisitLog.of`` turn events into a log in one
batch (a test's, or the row reader's visits); a log equals the
list of events it yields, and a slice of it is a tuple of them. Codes carry
no order of their own in a query log; whatever depends on first occurrence
finds it from positions in the stream. A visit log tables its user and
restaurant ids sorted, so its codes ascend with the ids.

The query and visit loaders take a bulk path for the lines of a file that
are in the writers' own layout, which every line the simulator writes is,
and parse any other line on its own; only that per-line parse reports
errors. The CSV streams go through ``report.read_csv`` and
``report.write_csv``, the pipeline's one CSV codec, except a visit log
wholly in the writer's layout, read in bulk, and one whose ids need no
quoting, written in bulk to the bytes ``write_csv`` gives. Each must
start with its header line: a file without one, even a zero-byte file, is a
data error, not an empty stream. A malformed record, or a byte that is not
UTF-8, is a data error that names the file and line.
"""

from __future__ import annotations

import csv
import json
import re
import sys
from array import array
from collections.abc import Sequence
from contextlib import closing
from dataclasses import dataclass, field
from datetime import date as Date
from enum import Enum
from itertools import islice
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from .errors import DataFormatError, ReferentialError
# Bound at import, so a wrapper later put on ``report.read_csv`` or
# ``report.write_csv`` (the benchmark tracer's) sees pipeline tables only.
from .report import read_csv, utf8_lines, write_csv

T = TypeVar("T")

MAX_RESULTS_PER_QUERY = 10
MAX_TS = 2**63 - 1  # timestamps are held as int64

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


def first_occurrences(codes: np.ndarray) -> np.ndarray:
    """The position of the first occurrence of each distinct code, in
    ascending order."""
    _, first = np.unique(codes, return_index=True)
    return np.sort(first)


# Items a column sequence turns into objects at a time while it is iterated.
VIEW_CHUNK = 4096


def _column(values, dtype) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``."""
    column = np.asarray(values, dtype=dtype)
    column.flags.writeable = False
    return column


class Columns(Sequence):
    """A sequence held as columns, whose items are built on demand: by
    index, or a chunk at a time while iterated. It equals any tuple or list
    of the items it yields."""

    __slots__ = ()

    def _views(self, start: int, stop: int) -> Iterator:
        raise NotImplementedError

    def __getitem__(self, index: int | slice):
        if isinstance(index, slice):  # a tuple, as the tuples these sequences replaced gave
            return tuple(map(self.__getitem__, range(len(self))[index]))
        i = range(len(self))[index]  # an IndexError past either end
        return next(self._views(i, i + 1))

    def chunked(self, rows: Callable[[int, int], Iterator]) -> Iterator:
        """``rows(start, stop)`` over the whole sequence, a chunk at a time."""
        for start in range(0, len(self), VIEW_CHUNK):
            yield from rows(start, min(start + VIEW_CHUNK, len(self)))

    def __iter__(self) -> Iterator:
        return self.chunked(self._views)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Columns, tuple, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


# The fields of a result page that have a table of distinct values, in the
# order of ResultPage's fields.
PAGE_FIELDS = ("url", "title", "snippet", "concept_tags")


@dataclass(frozen=True, eq=False)
class QueryLog(Columns):
    """A query log as columns: per event its user, time and text codes and a
    span ``page_start[i]:page_start[i + 1]`` of the page columns, which hold
    each result page's url, title, snippet and tag-set codes, its click and
    its dwell time."""

    users: tuple[str, ...]
    texts: tuple[str, ...]
    urls: tuple[str, ...]
    titles: tuple[str, ...]
    snippets: tuple[str, ...]
    tag_sets: tuple[frozenset[str], ...]
    user: np.ndarray
    ts: np.ndarray
    text: np.ndarray
    page_start: np.ndarray  # one entry per event, plus the end of the last span
    url: np.ndarray
    title: np.ndarray
    snippet: np.ndarray
    concept_tags: np.ndarray
    clicked: np.ndarray
    dwell_s: np.ndarray

    @classmethod
    def of(cls, events: Iterable[QueryEvent]) -> QueryLog:
        """A log of the events, in the given order."""
        columns = QueryColumns()
        columns.extend_events(events)
        return columns.log()

    def __len__(self) -> int:
        return len(self.ts)

    def page_columns(self) -> tuple[np.ndarray, ...]:
        """The code column of each of ``PAGE_FIELDS``."""
        return self.url, self.title, self.snippet, self.concept_tags

    def take(self, events: np.ndarray) -> QueryLog:
        """The log of the given events, in the given order, over the same
        tables."""
        lengths = np.diff(self.page_start)[events]
        page_start = np.concatenate([[0], np.cumsum(lengths)])
        pages = np.repeat(self.page_start[events] - page_start[:-1], lengths) + np.arange(page_start[-1])
        return QueryLog(
            self.users,
            self.texts,
            self.urls,
            self.titles,
            self.snippets,
            self.tag_sets,
            *(_column(column[events], column.dtype) for column in (self.user, self.ts, self.text)),
            _column(page_start, np.int64),
            *(_column(column[pages], column.dtype) for column in (*self.page_columns(), self.clicked, self.dwell_s)),
        )

    def distinct_contents(self) -> tuple[np.ndarray, np.ndarray]:
        """The first event of each distinct key, the text and page contents
        of an event, in order of first occurrence; and for every event the
        position of its key among them."""
        if not len(self):
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        page_event = self.page_event()
        slot = np.arange(len(page_event)) - self.page_start[page_event]
        # a row per event: its text, then each page's field codes, -1 past its last page
        keys = np.full((len(self), 1 + len(PAGE_FIELDS) * np.diff(self.page_start).max()), -1, dtype=np.int32)
        keys[:, 0] = self.text
        for field, column in enumerate(self.page_columns()):
            keys[page_event, 1 + len(PAGE_FIELDS) * slot + field] = column
        # a stable sort by key, first column first, so each group of equal
        # keys starts at its first event
        order = np.lexsort(keys.T[::-1])
        keys = keys[order]
        starts = np.ones(len(order), dtype=bool)
        starts[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        rows = np.empty(len(order), dtype=np.intp)
        rows[order] = np.cumsum(starts) - 1  # each event's group, in key order
        first = order[starts]
        by_first = np.argsort(first)
        position = np.empty_like(by_first)
        position[by_first] = np.arange(len(by_first))
        return first[by_first], position[rows]

    def page_event(self) -> np.ndarray:
        """The event of each result page."""
        return np.repeat(np.arange(len(self)), np.diff(self.page_start))

    def any_page(self, flags: np.ndarray) -> np.ndarray:
        """Per event, whether any of its pages has its flag set."""
        return np.bincount(self.page_event()[flags], minlength=len(self)) > 0

    def _views(self, start: int, stop: int) -> Iterator[QueryEvent]:
        first, last = self.page_start[start], self.page_start[stop]
        urls, titles, snippets, tag_sets = self.urls, self.titles, self.snippets, self.tag_sets
        columns = (*self.page_columns(), self.clicked, self.dwell_s)
        pages = [
            ResultPage(urls[a], titles[b], snippets[c], tag_sets[d], clicked, dwell)
            for a, b, c, d, clicked, dwell in zip(*(column[first:last].tolist() for column in columns))
        ]
        bounds = (self.page_start[start : stop + 1] - first).tolist()
        for u, ts, x, lo, hi in zip(
            self.user[start:stop].tolist(), self.ts[start:stop].tolist(), self.text[start:stop].tolist(), bounds, bounds[1:]
        ):
            yield QueryEvent(self.users[u], ts, self.texts[x], tuple(pages[lo:hi]))


def _codes(table: dict, values: Iterable) -> list[int]:
    """The code of each value in ``table``, tabling values not yet in it."""
    values = list(values)
    for value in dict.fromkeys(values):  # the new values in order of first appearance
        table.setdefault(value, len(table))
    return list(map(table.__getitem__, values))


def _indexed_codes(table: dict, values: Sequence, index: np.ndarray) -> np.ndarray:
    """``_codes(table, [values[i] for i in index])`` as int32, tabling only
    the values that ``index`` reaches."""
    index = np.asarray(index, dtype=np.intp)
    code_of = np.zeros(len(values), dtype=np.int32)
    reached = list(dict.fromkeys(index.tolist()))  # in order of first appearance
    code_of[reached] = _codes(table, [values[i] for i in reached])
    return code_of[index]


def _append(column: array, values: np.ndarray) -> None:
    """Append an array of the column's dtype to it."""
    column.frombytes(values.tobytes())


class QueryColumns:
    """A query log built a batch of events at a time, each distinct value of
    a field tabled when it first appears."""

    def __init__(self) -> None:
        self.users: dict[str, int] = {}
        self.texts: dict[str, int] = {}
        self.urls: dict[str, int] = {}
        self.titles: dict[str, int] = {}
        self.snippets: dict[str, int] = {}
        self.tag_sets: dict[frozenset[str], int] = {}
        # typecodes of the columns' dtypes, so that the columns share the
        # arrays' buffers instead of copying them
        self.user, self.ts, self.text = array("i"), array("q"), array("i")
        self.page_start = array("q", [0])
        self.url, self.title, self.snippet, self.concept_tags = (array("i") for _ in PAGE_FIELDS)
        self.clicked, self.dwell_s = array("b"), array("d")

    def extend(
        self,
        users: Sequence[str],
        user: np.ndarray,
        ts: np.ndarray,
        texts: Sequence[str],
        text: np.ndarray,
        pages: Sequence[tuple[str, str, str, frozenset[str]]],
        page: np.ndarray,
        clicked: np.ndarray,
        dwell_s: np.ndarray,
    ) -> None:
        """Events given as columns, each with one result page: event i is by
        ``users[user[i]]``, searches ``texts[text[i]]`` and shows
        ``pages[page[i]]``, a (url, title, snippet, tags) row, with
        ``clicked[i]`` and ``dwell_s[i]``."""
        tables = (self.urls, self.titles, self.snippets, self.tag_sets)
        page_codes = [_indexed_codes(table, values, page) for table, values in zip(tables, zip(*pages))]
        user, text = _indexed_codes(self.users, users, user), _indexed_codes(self.texts, texts, text)
        self._append_codes(user, ts, text, np.ones(len(ts), dtype=np.int64), page_codes, clicked, dwell_s)

    def extend_values(
        self,
        users: Sequence[str],
        ts: Sequence[int],
        texts: Sequence[str],
        page_counts: Sequence[int],
        pages: Sequence[Sequence],
        clicked: Sequence[bool],
        dwell_s: Sequence[float],
    ) -> None:
        """Events given as columns of values: event i has ``page_counts[i]``
        result pages, the next ones of the page columns. ``pages`` holds the
        url, title, snippet and tag-set columns."""
        tables = (self.urls, self.titles, self.snippets, self.tag_sets)
        page_codes = [_codes(table, values) for table, values in zip(tables, pages)]
        user, text = _codes(self.users, users), _codes(self.texts, texts)
        self._append_codes(user, ts, text, page_counts, page_codes, clicked, dwell_s)

    def extend_events(self, events: Iterable[QueryEvent]) -> None:
        """The events, in the given order."""
        events = list(events)
        pages = [page for event in events for page in event.results]
        self.extend_values(
            [event.user_id for event in events],
            [event.ts for event in events],
            [event.text for event in events],
            [len(event.results) for event in events],
            [[getattr(page, name) for page in pages] for name in PAGE_FIELDS],
            [page.clicked for page in pages],
            [page.dwell_s for page in pages],
        )

    def _append_codes(self, user, ts, text, page_counts, page_codes, clicked, dwell_s) -> None:
        """Events given as user codes, times, text codes and page counts, and
        their pages as the code columns of their fields, clicks and dwell
        times."""
        _append(self.user, np.asarray(user, dtype=np.int32))
        _append(self.ts, np.asarray(ts, dtype=np.int64))
        _append(self.text, np.asarray(text, dtype=np.int32))
        _append(self.page_start, self.page_start[-1] + np.cumsum(page_counts, dtype=np.int64))
        for column, codes in zip((self.url, self.title, self.snippet, self.concept_tags), page_codes):
            _append(column, np.asarray(codes, dtype=np.int32))
        _append(self.clicked, np.asarray(clicked, dtype=bool))
        _append(self.dwell_s, np.asarray(dwell_s, dtype=np.float64))

    def log(self) -> QueryLog:
        return QueryLog(
            *map(tuple, (self.users, self.texts, self.urls, self.titles, self.snippets, self.tag_sets)),
            user=_column(self.user, np.int32),
            ts=_column(self.ts, np.int64),
            text=_column(self.text, np.int32),
            page_start=_column(self.page_start, np.int64),
            url=_column(self.url, np.int32),
            title=_column(self.title, np.int32),
            snippet=_column(self.snippet, np.int32),
            concept_tags=_column(self.concept_tags, np.int32),
            clicked=_column(np.frombuffer(self.clicked, dtype=bool), bool),
            dwell_s=_column(self.dwell_s, np.float64),
        )


@dataclass(frozen=True, eq=False)
class VisitLog(Columns):
    """A visit log as columns: per visit its user and restaurant codes,
    entry and exit times. Both tables are sorted."""

    users: tuple[str, ...]
    restaurants: tuple[str, ...]
    user: np.ndarray
    restaurant: np.ndarray
    entry_ts: np.ndarray
    exit_ts: np.ndarray

    @classmethod
    def of(cls, visits: Iterable[VisitEvent]) -> VisitLog:
        """A log of the visits, in the given order."""
        visits = list(visits)
        columns = VisitColumns()
        columns.extend_values(*([getattr(v, name) for v in visits] for name in VISIT_HEADER))
        return columns.log()

    def __len__(self) -> int:
        return len(self.exit_ts)

    def take(self, visits: np.ndarray) -> VisitLog:
        """The log of the given visits, in the given order."""
        return VisitLog(
            self.users,
            self.restaurants,
            *(_column(column[visits], column.dtype) for column in (self.user, self.restaurant, self.entry_ts, self.exit_ts)),
        )

    def rows(self, start: int, stop: int) -> Iterator[tuple[str, str, int, int]]:
        """Per visit of ``start:stop``: its user and restaurant ids, entry and exit times."""
        return zip(
            map(self.users.__getitem__, self.user[start:stop].tolist()),
            map(self.restaurants.__getitem__, self.restaurant[start:stop].tolist()),
            self.entry_ts[start:stop].tolist(),
            self.exit_ts[start:stop].tolist(),
        )

    def _views(self, start: int, stop: int) -> Iterator[VisitEvent]:
        return (VisitEvent(*row) for row in self.rows(start, stop))


def _sorted_table(codes: dict[str, int], column: array) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct values sorted, and the column recoded to match."""
    table = sorted(codes)
    recode = np.empty(len(table), dtype=np.int32)
    recode[[codes[value] for value in table]] = np.arange(len(table), dtype=np.int32)
    return tuple(table), _column(recode[np.asarray(column)], np.int32)


class VisitColumns:
    """A visit log built a batch of visits at a time."""

    def __init__(self) -> None:
        self.users: dict[str, int] = {}
        self.restaurants: dict[str, int] = {}
        self.user, self.restaurant, self.entry_ts, self.exit_ts = array("i"), array("i"), array("q"), array("q")

    def extend(
        self,
        users: Sequence[str],
        user: np.ndarray,
        restaurants: Sequence[str],
        restaurant: np.ndarray,
        entry_ts: np.ndarray,
        exit_ts: np.ndarray,
    ) -> None:
        """Visits given as columns: visit i is by ``users[user[i]]`` at
        ``restaurants[restaurant[i]]``."""
        user, restaurant = _indexed_codes(self.users, users, user), _indexed_codes(self.restaurants, restaurants, restaurant)
        self._append_codes(user, restaurant, entry_ts, exit_ts)

    def extend_values(
        self, users: Sequence[str], restaurants: Sequence[str], entry_ts: np.ndarray, exit_ts: np.ndarray
    ) -> None:
        """Visits given as columns of values."""
        self._append_codes(_codes(self.users, users), _codes(self.restaurants, restaurants), entry_ts, exit_ts)

    def _append_codes(self, user, restaurant, entry_ts, exit_ts) -> None:
        _append(self.user, np.asarray(user, dtype=np.int32))
        _append(self.restaurant, np.asarray(restaurant, dtype=np.int32))
        _append(self.entry_ts, np.asarray(entry_ts, dtype=np.int64))
        _append(self.exit_ts, np.asarray(exit_ts, dtype=np.int64))

    def log(self) -> VisitLog:
        users, user = _sorted_table(self.users, self.user)
        restaurants, restaurant = _sorted_table(self.restaurants, self.restaurant)
        entry_ts, exit_ts = _column(self.entry_ts, np.int64), _column(self.exit_ts, np.int64)
        return VisitLog(users, restaurants, user, restaurant, entry_ts, exit_ts)


def sorted_by(log, times: np.ndarray):
    """``log`` (a log, or an array with an entry per event) sorted stably by
    ``times``; ``log`` itself if it already is."""
    return log.take(np.argsort(times, kind="stable")) if np.any(times[1:] < times[:-1]) else log


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
    """The four streams, the query and visit logs as columns."""

    queries: QueryLog = field(default_factory=lambda: QueryColumns().log())
    visits: VisitLog = field(default_factory=lambda: VisitColumns().log())
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


def _not_a_string(obj: dict, names: tuple[str, ...]) -> ValueError:
    """The error for the first of the fields ``names`` of ``obj`` that is not
    a JSON string."""
    name = next(name for name in names if type(obj[name]) is not str)
    return ValueError(f"{name} must be a string, got {type(obj[name]).__name__}")


def _parse_page(obj: object) -> ResultPage:
    if not isinstance(obj, dict):
        raise ValueError("result entry is not an object")
    if obj.keys() != _RESULT_KEYS:
        raise _field_mismatch("result", obj, _RESULT_KEYS)
    clicked = obj["clicked"]
    dwell = obj["dwell_s"]
    if not isinstance(clicked, bool):
        raise ValueError("clicked must be a boolean")
    # json.loads reads NaN and Infinity; the upper bound refuses those and
    # integers too large for a float
    finite = isinstance(dwell, (int, float)) and not isinstance(dwell, bool) and 0 <= dwell <= sys.float_info.max
    if not finite:
        raise ValueError("dwell_s must be a finite non-negative number")
    tags = obj["concept_tags"]
    if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
        raise ValueError("concept_tags must be a list of strings")
    url, title, snippet = obj["url"], obj["title"], obj["snippet"]
    if not type(url) is type(title) is type(snippet) is str:
        raise _not_a_string(obj, ("url", "title", "snippet"))
    return ResultPage(url, title, snippet, frozenset(tags), clicked, float(dwell))


def _parse_query(line: str) -> QueryEvent:
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    if obj.keys() != _QUERY_KEYS:
        raise _field_mismatch("query", obj, _QUERY_KEYS)
    ts = obj["ts"]
    if not isinstance(ts, int) or isinstance(ts, bool) or ts < 0:
        raise ValueError("ts must be a non-negative integer")
    if ts > MAX_TS:
        raise ValueError(f"ts must be <= {MAX_TS}")
    results = obj["results"]
    if not isinstance(results, list):
        raise ValueError("results must be a list")
    if len(results) > MAX_RESULTS_PER_QUERY:
        raise ValueError(f"more than {MAX_RESULTS_PER_QUERY} results")
    user_id, text = obj["user_id"], obj["text"]
    if not type(user_id) is type(text) is str:
        raise _not_a_string(obj, ("user_id", "text"))
    return QueryEvent(user_id, ts, text, tuple(map(_parse_page, results)))


# A query line in the writer's layout with one result page: the keys in
# ``QUERY_FIELDS`` and ``RESULT_FIELDS`` order and ``json.dumps``' separators,
# strings without escapes or control characters, a time of at most 18 digits
# (so at most MAX_TS) and a dwell time spelled as ``repr`` spells a finite
# float below 1e308. Such a line holds its values as written and passes every
# check of ``_parse_query``.
_STRING = r'"([^"\\\x00-\x1f]*)"'
_TAGS = r'((?:"[^"\\\x00-\x1f]*"(?:, "[^"\\\x00-\x1f]*")*)?)'
_DWELL = r"((?:0|[1-9][0-9]{0,15})\.[0-9]+|[1-9](?:\.[0-9]+)?e(?:-[0-9]{2,3}|\+(?:[0-2]?[0-9]{2}|30[0-7])))"
_WRITER_QUERY = re.compile(
    r'\{"user_id": ' + _STRING + r', "ts": (0|[1-9][0-9]{0,17}), "text": ' + _STRING
    + r', "results": \[\{"url": ' + _STRING + r', "title": ' + _STRING + r', "snippet": ' + _STRING
    + r', "concept_tags": \[' + _TAGS + r'\], "clicked": (true|false), "dwell_s": ' + _DWELL + r"\}\]\}\n?"
)
# Lines of one kind coded together, at most this many at a time. Batches of
# 1,024 left a stand-alone rank's peak RSS about 0.7 MB above the per-line
# loader's at the daily_rank_long config; batches of 256 leave it level and
# load as fast.
BULK_LINES = 256


def _code_batch(columns: QueryColumns, batch: list[re.Match] | list[QueryEvent]) -> None:
    """Code the events of a batch of lines of one kind, ``_WRITER_QUERY``
    matches or parsed events, in order, and empty the batch."""
    if batch and isinstance(batch[0], QueryEvent):
        columns.extend_events(batch)
    elif batch:
        users, ts, texts, urls, titles, snippets, tags, clicked, dwell = (
            list(map(itemgetter(group), batch)) for group in range(1, 10)
        )
        tag_sets = {raw: frozenset(raw[1:-1].split('", "') if raw else ()) for raw in set(tags)}
        columns.extend_values(
            users,
            list(map(int, ts)),
            texts,
            [1] * len(batch),
            (urls, titles, snippets, list(map(tag_sets.__getitem__, tags))),
            list(map("true".__eq__, clicked)),
            list(map(float, dwell)),
        )
    batch.clear()


def load_queries(path: Path) -> QueryLog:
    """The query log, read and checked in one pass, sorted stably by time.

    Lines in the writer's layout are matched, and any other line is parsed
    on its own. Consecutive lines of one kind are coded a batch at a time,
    in file order, which keeps every table in order of first appearance."""
    columns = QueryColumns()
    matches: list[re.Match] = []
    events: list[QueryEvent] = []
    with closing(utf8_lines(path)) as lines:
        for lineno, line in enumerate(lines, start=1):
            match = _WRITER_QUERY.fullmatch(line)
            if match:
                if events:
                    _code_batch(columns, events)
                matches.append(match)
                if len(matches) == BULK_LINES:
                    _code_batch(columns, matches)
                continue
            if not line.strip():
                continue
            _code_batch(columns, matches)
            try:
                events.append(_parse_query(line))
            except ValueError as exc:  # json.JSONDecodeError included
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
            if len(events) == BULK_LINES:
                _code_batch(columns, events)
    _code_batch(columns, matches)
    _code_batch(columns, events)
    log = columns.log()
    return sorted_by(log, log.ts)


def _field(parse: Callable[[str], T], raw: str, what: str) -> T:
    """``parse(raw)``, or a ValueError that says what ``raw`` should be."""
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(f"{what}, got {raw!r}") from None


def int_field(raw: str, name: str, least: int = 0) -> int:
    """A count, rank or time: an integer in [least, MAX_TS], which int64
    holds."""
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if value > MAX_TS:
        raise ValueError(f"{name} must be <= {MAX_TS}, got {value}")
    return value


# Rows of a visit log in the writer's layout: fields without quotes, NULs or
# line breaks, times in canonical digits, at most 18 of them (so at most
# MAX_TS), and CRLF line ends, as ``csv.writer`` writes them.
_VISIT_ID = r'[^,"\r\n\x00]*'
_VISIT_TIME = r"(?:0|[1-9][0-9]{0,17})"
_VISIT_ROW = f"{_VISIT_ID},{_VISIT_ID},{_VISIT_TIME},{_VISIT_TIME}"
_WRITER_VISITS = re.compile(f"{_VISIT_ROW}(?:\r\n{_VISIT_ROW})*")  # rows without the last line end
# Characters of a visit log split and coded at a time. Chunks of 64 K
# characters left the peak RSS of a stand-alone rank or evaluate about
# 0.5 MB above the row-by-row reader's at the daily_rank_long config; chunks
# of 16 K leave it level and split as fast.
BULK_CHARS = 1 << 14


def _bulk_visits(path: Path) -> VisitLog | None:
    """The visit log, split and coded a chunk of rows at a time, if every
    row is in the writer's layout and no visit ends before it starts; None
    for any other file, which ``_read_visits`` reads and checks."""
    columns = VisitColumns()
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            if fh.readline() != ",".join(VISIT_HEADER) + "\r\n":
                return None
            rest = ""
            while chunk := fh.read(BULK_CHARS):
                rows, end, rest = (rest + chunk).rpartition("\r\n")  # whole rows, and the start of the next
                if not end:
                    continue
                if not _WRITER_VISITS.fullmatch(rows):
                    return None
                fields = rows.replace("\r\n", ",").split(",")
                if len(rows) > csv.field_size_limit() and max(map(len, fields)) > csv.field_size_limit():
                    return None  # a field the csv module refuses
                n = len(fields) // 4
                entry_ts = np.fromiter(map(int, fields[2::4]), np.int64, n)
                exit_ts = np.fromiter(map(int, fields[3::4]), np.int64, n)
                if np.any(entry_ts > exit_ts):
                    return None
                columns.extend_values(fields[0::4], fields[1::4], entry_ts, exit_ts)
    except (FileNotFoundError, UnicodeDecodeError):
        return None
    return columns.log() if not rest else None


def _read_visits(path: Path) -> VisitLog:
    """The visit log, read and checked row by row."""

    def parse(row: list[str]) -> VisitEvent:
        user_id, restaurant_id, entry_s, exit_s = row
        entry_ts, exit_ts = int_field(entry_s, "entry_ts"), int_field(exit_s, "exit_ts")
        if entry_ts > exit_ts:
            raise ValueError(f"entry_ts {entry_ts} > exit_ts {exit_ts}")
        return VisitEvent(user_id, restaurant_id, entry_ts, exit_ts)

    _, visits = read_csv(path, VISIT_HEADER, parse)
    return VisitLog.of(visits)


def load_visits(path: Path) -> VisitLog:
    """The visit log, sorted stably by exit time. A visit must not end
    before it starts. A file in the writer's layout is split in bulk; any
    other is read and checked row by row."""
    log = _bulk_visits(path)
    if log is None:
        log = _read_visits(path)
    return sorted_by(log, log.exit_ts)


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
        int_field(crit_s, "critical_count"),
        int_field(major_s, "major_count"),
    )


def load_inspections(path: Path) -> tuple[InspectionRecord, ...]:
    _, records = read_csv(path, INSPECTION_HEADER, _parse_inspection)
    records.sort(key=lambda r: r.date)
    return tuple(records)


def load_visit_log(paths: DatasetPaths) -> tuple[VisitLog, dict[str, RestaurantRecord]]:
    """The visits and the registry by restaurant id; neither the query log
    nor the inspections are read. Every visit must reference a registered
    restaurant; offenders are listed in the raised error."""
    visits = load_visits(paths.visits)
    registry = {r.restaurant_id: r for r in load_restaurants(paths.restaurants)}
    dangling = sorted(set(visits.restaurants) - registry.keys())
    if dangling:
        raise ReferentialError(f"visits reference unknown restaurants: {', '.join(dangling)}")
    return visits, registry


def load_dataset(paths: DatasetPaths) -> Dataset:
    """The four streams, each through its own loader, with the visits
    cross-checked as :func:`load_visit_log` does. Loading is deterministic:
    identical bytes in, identical Dataset out."""
    queries = load_queries(paths.queries)
    visits, registry = load_visit_log(paths)
    return Dataset(queries, visits, tuple(registry.values()), load_inspections(paths.inspections))


def validate_dataset(dataset: Dataset) -> ValidationReport:
    """Enumerate every invariant violation without raising.

    The pipeline refuses to proceed when the report lists any violation.
    """
    violations: list[str] = []
    visits, queries = dataset.visits, dataset.queries
    for i in np.flatnonzero(visits.entry_ts > visits.exit_ts).tolist():
        violations.append(
            f"visit[{i}] user={visits.users[visits.user[i]]} restaurant={visits.restaurants[visits.restaurant[i]]}: "
            f"entry_ts {visits.entry_ts[i]} > exit_ts {visits.exit_ts[i]}"
        )
    page_event = queries.page_event()
    for p in np.flatnonzero(~queries.clicked & (queries.dwell_s != 0)).tolist():
        i = page_event[p]
        violations.append(
            f"query[{i}] result[{p - queries.page_start[i]}] user={queries.users[queries.user[i]]}: "
            f"dwell_s {float(queries.dwell_s[p])} on unclicked result"
        )
    for i, rec in enumerate(dataset.inspections):
        if rec.critical_count < 0:
            violations.append(f"inspection[{i}] restaurant={rec.restaurant_id}: negative critical_count")
        if rec.major_count < 0:
            violations.append(f"inspection[{i}] restaurant={rec.restaurant_id}: negative major_count")

    stamps = np.concatenate([queries.ts, visits.exit_ts])
    return ValidationReport(
        query_count=len(queries),
        visit_count=len(visits),
        restaurant_count=len(dataset.restaurants),
        inspection_count=len(dataset.inspections),
        ts_min=int(stamps.min()) if len(stamps) else None,
        ts_max=int(stamps.max()) if len(stamps) else None,
        violations=tuple(violations),
    )


def write_queries(log: QueryLog, path: Path) -> None:
    """One JSON object per event and line, byte for byte what ``json.dumps(
    ..., ensure_ascii=False)`` gives. Each table value is encoded once. A
    chunk of events at a time, each page is spelled from the page columns,
    and each line joins its event's codes and time with its span of pages."""
    tables = (log.users, log.texts, log.urls, log.titles, log.snippets)
    users, texts, urls, titles, snippets = (np.array([encode_basestring(v) for v in t], dtype=object) for t in tables)
    tag_sets = np.array([json.dumps(sorted(tags), ensure_ascii=False) for tags in log.tag_sets], dtype=object)
    clicks = np.array(["false", "true"], dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(log), VIEW_CHUNK):
            stop = min(start + VIEW_CHUNK, len(log))
            events, pages = slice(start, stop), slice(log.page_start[start], log.page_start[stop])
            # each dwell time as json.dumps spells it, NaN and Infinity included;
            # a chunk without pages gives one empty string, which the zip drops
            dwell = json.dumps(log.dwell_s[pages].tolist())[1:-1].split(", ")
            page_columns = (
                urls[log.url[pages]],
                titles[log.title[pages]],
                snippets[log.snippet[pages]],
                tag_sets[log.concept_tags[pages]],
                clicks[log.clicked[pages].view(np.int8)],
            )
            # spelled as the lines take them: a list of a chunk's spelled
            # pages raised a default simulate's peak RSS by about 3 MB
            spelled = (
                f'{{"url": {a}, "title": {b}, "snippet": {c}, "concept_tags": {d}, '
                f'"clicked": {clicked}, "dwell_s": {w}}}'
                for a, b, c, d, clicked, w in zip(*(column.tolist() for column in page_columns), dwell)
            )
            counts = np.diff(log.page_start[start : stop + 1])
            event_columns = (users[log.user[events]], log.ts[events], texts[log.text[events]], counts)
            fh.writelines(
                f'{{"user_id": {u}, "ts": {ts}, "text": {x}, "results": [{", ".join(islice(spelled, n))}]}}\n'
                for u, ts, x, n in zip(*(column.tolist() for column in event_columns))
            )


# A visit row's ids, if ``csv.writer`` writes them as they are: no
# delimiter, quote, line break or NUL in them.
_PLAIN_ID = re.compile(_VISIT_ID)


def write_visits(log: VisitLog, path: Path) -> None:
    """The visit log as ``write_csv`` writes it. When no id needs quoting,
    as none the simulator makes does, each row is one format of its ids
    and times."""
    if not all(_PLAIN_ID.fullmatch(value) for value in (*log.users, *log.restaurants)):
        write_csv(path, VISIT_HEADER, log.chunked(log.rows))
        return
    users, restaurants = np.array(log.users, dtype=object), np.array(log.restaurants, dtype=object)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(VISIT_HEADER) + "\r\n")
        for start in range(0, len(log), VIEW_CHUNK):
            stop = min(start + VIEW_CHUNK, len(log))
            fh.writelines(
                map(
                    "{},{},{},{}\r\n".format,
                    users[log.user[start:stop]].tolist(),
                    restaurants[log.restaurant[start:stop]].tolist(),
                    log.entry_ts[start:stop].tolist(),
                    log.exit_ts[start:stop].tolist(),
                )
            )


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

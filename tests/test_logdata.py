import json
import math
from datetime import date
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foodwatch import logdata, report
from foodwatch.errors import DataFormatError, ReferentialError
from foodwatch.locmodel import ScoredQueries
from foodwatch.logdata import (
    MAX_TS,
    VISIT_HEADER,
    Dataset,
    DatasetPaths,
    InspectionRecord,
    Outcome,
    QueryEvent,
    QueryLog,
    RestaurantRecord,
    ResultPage,
    RiskLevel,
    Trigger,
    VisitEvent,
    VisitLog,
    load_dataset,
    load_queries,
    load_visits,
    validate_dataset,
    write_dataset,
    write_queries,
    write_visits,
)

from conftest import assert_same_log, page, query, visit
from oracles import load_query_objects, load_visit_objects, scored_queries, write_queries_per_event


def write_files(tmp_path, queries="", visits="user_id,restaurant_id,entry_ts,exit_ts\n",
                restaurants="restaurant_id,city,risk_level\n",
                inspections="restaurant_id,date,trigger,outcome,critical_count,major_count\n"):
    paths = DatasetPaths.in_dir(tmp_path)
    paths.queries.write_text(queries)
    paths.visits.write_text(visits)
    paths.restaurants.write_text(restaurants)
    paths.inspections.write_text(inspections)
    return paths


def query_line(user="u1", ts=0, text="hello", results=()):
    return json.dumps({"user_id": user, "ts": ts, "text": text, "results": list(results)})


def writer_line(user="u1", ts="3", dwell="45.0", clicked="true"):
    """A query line as ``write_queries`` lays it out, with one result page,
    and its time and dwell time spelled as given."""
    return (
        f'{{"user_id": "{user}", "ts": {ts}, "text": "x", "results": [{{"url": "u", "title": "t", "snippet": "s", '
        f'"concept_tags": ["a", "b"], "clicked": {clicked}, "dwell_s": {dwell}}}]}}'
    )


def test_empty_files_give_empty_streams(tmp_path):
    ds = load_dataset(write_files(tmp_path))
    assert ds == Dataset()


def test_unknown_restaurant_is_referential_error(tmp_path):
    paths = write_files(
        tmp_path,
        visits="user_id,restaurant_id,entry_ts,exit_ts\nu1,r999,0,10\n",
        restaurants="restaurant_id,city,risk_level\nr1,A,high\n",
    )
    with pytest.raises(ReferentialError, match="r999"):
        load_dataset(paths)


def test_sorting_matches_bruteforce_stable_sort(tmp_path):
    lines = [
        query_line("a", 50, "third"),
        query_line("b", 10, "first"),
        query_line("c", 50, "also-third"),
    ]
    paths = write_files(tmp_path, queries="\n".join(lines) + "\n")
    ds = load_dataset(paths)
    # oracle: stable sort implemented by explicit (ts, input position) keys
    parsed = [json.loads(l) for l in lines]
    expected = [
        p["text"]
        for p in sorted(
            parsed, key=lambda p: (p["ts"], parsed.index(p))
        )
    ]
    assert [q.text for q in ds.queries] == expected
    assert [q.text for q in ds.queries] == ["first", "third", "also-third"]


def test_malformed_line_reports_line_number(tmp_path):
    paths = write_files(tmp_path, queries=query_line() + "\n{oops\n")
    with pytest.raises(DataFormatError, match=r"queries\.jsonl:2"):
        load_dataset(paths)


def test_missing_field_reports_line_number(tmp_path):
    bad = json.dumps({"user_id": "u1", "ts": 0, "text": "x"})  # no results
    paths = write_files(tmp_path, queries=bad + "\n")
    with pytest.raises(DataFormatError, match=":1:"):
        load_dataset(paths)


_RESULT = {"url": "u", "title": "t", "snippet": "s", "concept_tags": [], "clicked": False, "dwell_s": 0}


@pytest.mark.parametrize(
    "record, message",
    [
        ({"user_id": "u1", "ts": 0, "text": "x"}, "query fields: missing ['results'], unknown []"),
        (
            {"user_id": "u1", "ts": 0, "text": "x", "results": [], "lang": "en", "id": 1},
            "query fields: missing [], unknown ['id', 'lang']",
        ),
        (
            {"ts": 0, "text": "x", "results": [], "userid": "u1"},
            "query fields: missing ['user_id'], unknown ['userid']",
        ),
        (
            {"user_id": "u1", "ts": 0, "text": "x", "results": [{**_RESULT, "rank": 1}]},
            "result fields: missing [], unknown ['rank']",
        ),
        (
            {"user_id": "u1", "ts": 0, "text": "x", "results": [{k: v for k, v in _RESULT.items() if k != "dwell_s"}]},
            "result fields: missing ['dwell_s'], unknown []",
        ),
        # str() would load these as "7", "None" or "['a']"
        ({"user_id": 7, "ts": 0, "text": None, "results": []}, "user_id must be a string, got int"),
        ({"user_id": "u1", "ts": 0, "text": None, "results": []}, "text must be a string, got NoneType"),
        ({"user_id": "u1", "ts": 0, "text": 1.5, "results": []}, "text must be a string, got float"),
        (
            {"user_id": "u1", "ts": 0, "text": "x", "results": [{**_RESULT, "url": ["a"]}]},
            "url must be a string, got list",
        ),
        (
            {"user_id": "u1", "ts": 0, "text": "x", "results": [{**_RESULT, "title": 3}]},
            "title must be a string, got int",
        ),
        (
            {"user_id": "u1", "ts": 0, "text": "x", "results": [{**_RESULT, "snippet": {"a": 1}}]},
            "snippet must be a string, got dict",
        ),
    ],
)
def test_field_mismatch_names_missing_and_unknown_fields(tmp_path, record, message):
    paths = write_files(tmp_path, queries=query_line() + "\n" + json.dumps(record) + "\n")
    with pytest.raises(DataFormatError) as excinfo:
        load_dataset(paths)
    assert str(excinfo.value) == f"{paths.queries}:2: {message}"


@pytest.mark.parametrize("dwell", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, "-1"])
def test_dwell_must_be_finite_and_non_negative(tmp_path, dwell):
    # json.loads reads NaN and Infinity, which no dwell time can be
    record = {"user_id": "u1", "ts": 0, "text": "x", "results": [{**_RESULT, "clicked": True, "dwell_s": "D"}]}
    paths = write_files(tmp_path, queries=query_line() + "\n" + json.dumps(record).replace('"D"', dwell) + "\n")
    with pytest.raises(DataFormatError) as excinfo:
        load_dataset(paths)
    assert str(excinfo.value) == f"{paths.queries}:2: dwell_s must be a finite non-negative number"


def test_bad_csv_header_rejected(tmp_path):
    paths = write_files(tmp_path, visits="user,rest,entry,exit\n")
    with pytest.raises(DataFormatError, match="expected header"):
        load_dataset(paths)


def test_duplicate_restaurant_id_reports_its_line(tmp_path):
    paths = write_files(tmp_path, restaurants="restaurant_id,city,risk_level\nr1,A,high\n\nr1,B,low\n")
    with pytest.raises(DataFormatError, match=r"restaurants\.csv:4: duplicate restaurant_id 'r1'"):
        load_dataset(paths)


def test_visits_sorted_by_exit_ts(tmp_path):
    paths = write_files(
        tmp_path,
        visits="user_id,restaurant_id,entry_ts,exit_ts\nu1,r1,0,100\nu2,r1,0,50\n",
        restaurants="restaurant_id,city,risk_level\nr1,A,HIGH\n",
    )
    ds = load_dataset(paths)
    assert [v.exit_ts for v in ds.visits] == [50, 100]
    assert ds.restaurants[0].risk_level is RiskLevel.HIGH  # case-insensitive


def test_load_is_deterministic(tmp_path):
    paths = write_files(
        tmp_path,
        queries=query_line() + "\n",
        visits="user_id,restaurant_id,entry_ts,exit_ts\nu1,r1,5,9\n",
        restaurants="restaurant_id,city,risk_level\nr1,A,low\n",
        inspections="restaurant_id,date,trigger,outcome,critical_count,major_count\n"
        "r1,2016-05-02,ROUTINE,Safe,0,1\n",
    )
    assert load_dataset(paths) == load_dataset(paths)


def sample_dataset():
    return Dataset(
        queries=QueryLog.of((
            query("u1", 10, "food poisoning", [page()]),
            query("u2", 20, "weather", [page(tags=("local",), clicked=False, dwell=0.0)]),
        )),
        visits=VisitLog.of((visit("u1", "r1", 0, 100), visit("u2", "r2", 50, 150))),
        restaurants=(
            RestaurantRecord("r1", "A", RiskLevel.HIGH),
            RestaurantRecord("r2", "B", RiskLevel.LOW),
        ),
        inspections=(
            InspectionRecord("r1", date(2016, 5, 3), Trigger.FINDER, Outcome.UNSAFE, 2, 1),
        ),
    )


def test_round_trip(tmp_path):
    ds = sample_dataset()
    paths = DatasetPaths.in_dir(tmp_path)
    write_dataset(ds, paths)
    assert load_dataset(paths) == ds


def test_validate_clean_dataset():
    report = validate_dataset(sample_dataset())
    assert report.ok and report.violations == ()
    assert report.query_count == 2 and report.visit_count == 2
    assert report.ts_min == 10 and report.ts_max == 150


def test_validate_entry_after_exit_is_one_violation():
    ds = Dataset(visits=VisitLog.of((VisitEvent("u1", "r1", 101, 100),)))
    report = validate_dataset(ds)
    assert len(report.violations) == 1 and "entry_ts" in report.violations[0]


def test_validate_counts_seeded_violations():
    from foodwatch.logdata import ResultPage

    bad_visits = tuple(VisitEvent(f"u{i}", "r1", 100 + i, 99) for i in range(3))
    dwell_on_unclicked = ResultPage(
        url="u", title="t", snippet="s", concept_tags=frozenset(), clicked=False, dwell_s=7.0
    )
    bad_query = query("u9", 5, "x", [dwell_on_unclicked])
    bad_inspection = InspectionRecord(
        "r1", date(2016, 5, 1), Trigger.ROUTINE, Outcome.SAFE, -1, 0
    )
    ds = Dataset(queries=QueryLog.of((bad_query,)), visits=VisitLog.of(bad_visits), inspections=(bad_inspection,))
    report = validate_dataset(ds)
    assert len(report.violations) == 5  # 3 visit inversions + 1 dwell + 1 count


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 1_000_000), st.text(max_size=20)),
        max_size=8,
    )
)
def test_roundtrip_property(tmp_path_factory, items):
    ds = Dataset(
        queries=QueryLog.of(
            QueryEvent(user_id=f"u{i}", ts=ts, text=text) for i, (ts, text) in enumerate(items)
        )
    )
    d = tmp_path_factory.mktemp("rt")
    paths = DatasetPaths.in_dir(d)
    write_dataset(ds, paths)
    loaded = load_dataset(paths)
    assert sorted(q.text for q in loaded.queries) == sorted(q.text for q in ds.queries)
    assert [q.ts for q in loaded.queries] == sorted(q.ts for q in ds.queries)


# Strings that JSON escapes or that ensure_ascii=False passes through as is.
AWKWARD_TEXT = st.one_of(
    st.sampled_from(["", 'say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "line\u2028sep\u2029",
                     "café", "食中毒", "emoji \U0001f922"]),
    st.text(max_size=12),
)
DWELLS = st.one_of(st.sampled_from([0.0, 123.4, 1e16, 5e-324, 0.1]), st.floats(0, 1e300))


@st.composite
def query_logs(draw):
    # a few page contents, shared across events, and some differing only in tags
    contents = draw(st.lists(
        st.tuples(AWKWARD_TEXT, AWKWARD_TEXT, AWKWARD_TEXT, st.frozensets(AWKWARD_TEXT, max_size=3)),
        min_size=1, max_size=4,
    ))
    events = []
    for _ in range(draw(st.integers(0, 6))):
        pages = []
        for _ in range(draw(st.integers(0, 3))):
            url, title, snippet, tags = draw(st.sampled_from(contents))
            clicked = draw(st.booleans())
            pages.append(ResultPage(url, title, snippet, tags, clicked, draw(DWELLS) if clicked else 0.0))
        events.append(QueryEvent(draw(AWKWARD_TEXT), draw(st.integers(0, 2**40)), draw(AWKWARD_TEXT), tuple(pages)))
    return events


@settings(max_examples=300, deadline=None)
@given(query_logs())
def test_query_writer_matches_one_dumps_per_event(tmp_path_factory, events):
    d = tmp_path_factory.mktemp("writer")
    write_queries(QueryLog.of(events), d / "fast.jsonl")
    write_queries_per_event(events, d / "oracle.jsonl")
    assert (d / "fast.jsonl").read_bytes() == (d / "oracle.jsonl").read_bytes()


def test_query_writer_spells_numbers_as_json_does(tmp_path):
    # an integer dwell (as tests build them, held as a float in the log) and
    # non-finite floats
    events = [query("u1", 3, "x", [page(dwell=dwell)]) for dwell in (45, float("inf"), float("nan"))]
    write_queries(QueryLog.of(events), tmp_path / "fast.jsonl")
    write_queries_per_event(QueryLog.of(events), tmp_path / "oracle.jsonl")
    assert (tmp_path / "fast.jsonl").read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()


# --- columns against the object loaders ---------------------------------------


def _spelled(events):
    """The events with each dwell time as written, so that -0.0 and 0.0 differ."""
    return [
        (e.user_id, e.ts, e.text, [(p.url, p.title, p.snippet, p.concept_tags, p.clicked, repr(p.dwell_s))
                                   for p in e.results])
        for e in events
    ]


@st.composite
def repetitive_query_logs(draw):
    # every field drawn from a small pool, so that values repeat across events
    pool = lambda values: st.sampled_from(draw(st.lists(values, min_size=1, max_size=3)))
    users, texts, urls, titles, snippets = (pool(AWKWARD_TEXT) for _ in range(5))
    tag_sets = pool(st.frozensets(st.sampled_from(["a", "b", "foodborne_illness"])))
    dwells = st.sampled_from([-0.0, 0.0, 30.0, 0.1])
    return [
        QueryEvent(
            draw(users),
            draw(st.integers(0, 5)),
            draw(texts),
            tuple(
                ResultPage(draw(urls), draw(titles), draw(snippets), draw(tag_sets), draw(st.booleans()), draw(dwells))
                for _ in range(draw(st.integers(0, 3)))
            ),
        )
        for _ in range(draw(st.integers(0, 8)))
    ]


@settings(max_examples=300, deadline=None)
@given(st.one_of(query_logs(), repetitive_query_logs()))
def test_query_log_yields_what_the_object_loader_gives(tmp_path_factory, events):
    path = tmp_path_factory.mktemp("columns") / "queries.jsonl"
    write_queries(QueryLog.of(events), path)
    loaded = load_queries(path)
    expected = _spelled(sorted(events, key=lambda e: e.ts))
    assert _spelled(loaded) == _spelled(load_query_objects(path)) == expected
    assert _spelled(loaded[i] for i in range(len(loaded))) == expected
    assert _spelled(QueryLog.of(events)) == _spelled(events)
    # each table holds each distinct value once
    for table in (loaded.users, loaded.texts, loaded.urls, loaded.titles, loaded.snippets, loaded.tag_sets):
        assert len(set(table)) == len(table)


# two values per content field, so that contents repeat and many pairs of
# them differ in one field, or in one page more or less
TWO = st.sampled_from(["", "a"])
REPEATED_CONTENTS = st.lists(
    st.builds(
        QueryEvent,
        st.just("u1"),
        st.integers(0, 3),
        TWO,
        st.lists(
            st.builds(ResultPage, TWO, TWO, TWO, st.sampled_from([frozenset(), frozenset("a")]), st.booleans(), DWELLS),
            max_size=3,
        ).map(tuple),
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(query_logs(), repetitive_query_logs(), REPEATED_CONTENTS))
def test_distinct_contents_are_first_events_of_each_content(events):
    # an event's content is its text and its pages' url, title, snippet and
    # tags in order; clicks and dwell times are not part of it
    log = QueryLog.of(events)
    first_event: dict[tuple, int] = {}
    contents = []
    for i, event in enumerate(log):
        content = (event.text, tuple((p.url, p.title, p.snippet, p.concept_tags) for p in event.results))
        first_event.setdefault(content, i)
        contents.append(content)
    first, rows = log.distinct_contents()
    assert first.tolist() == list(first_event.values())
    assert [list(first_event)[row] for row in rows.tolist()] == contents


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["u1", "u2", "b"]), st.sampled_from(["r1", "r0"]), st.integers(0, 9), st.integers(0, 9)),
        max_size=12,
    )
)
def test_visit_log_yields_what_the_object_loader_gives(tmp_path_factory, rows):
    visits = [visit(u, r, min(a, b), max(a, b)) for u, r, a, b in rows]
    path = tmp_path_factory.mktemp("visits") / "visits.csv"
    write_visits(VisitLog.of(visits), path)
    expected = sorted(visits, key=lambda v: v.exit_ts)
    assert list(load_visits(path)) == load_visit_objects(path) == expected
    assert list(VisitLog.of(visits)) == visits


VISIT_IDS = st.one_of(st.sampled_from(["", "u1", "a,b", 'say "hi"', "cr\rlf\n", "nul\x00", " pad ", "café"]), st.text(max_size=6))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(VISIT_IDS, VISIT_IDS, st.integers(0, 2**62), st.integers(0, 2**62)), max_size=8))
def test_visit_writer_writes_what_the_csv_writer_writes(tmp_path_factory, rows):
    # ids that need no quoting take the writer's own spelling, any other the csv module's
    path = tmp_path_factory.mktemp("visits")
    log = VisitLog.of(visit(*row) for row in rows)
    write_visits(log, path / "visits.csv")
    report.write_csv(path / "reference.csv", VISIT_HEADER, log.rows(0, len(log)))
    assert (path / "visits.csv").read_bytes() == (path / "reference.csv").read_bytes()


BAD_QUERY_LINES = [
    "{oops",
    "[1, 2]",
    json.dumps({"user_id": "u1", "ts": 0, "text": "x"}),
    json.dumps({"user_id": "u1", "ts": -1, "text": "x", "results": []}),
    json.dumps({"user_id": "u1", "ts": True, "text": "x", "results": []}),
    json.dumps({"user_id": "u1", "ts": 0.5, "text": "x", "results": []}),
    json.dumps({"user_id": "u1", "ts": 0, "text": "x", "results": {}}),
    json.dumps({"user_id": "u1", "ts": 0, "text": "x", "results": [_RESULT] * 11}),
    json.dumps({"user_id": 7, "ts": 0, "text": None, "results": []}),
    json.dumps({"user_id": "u1", "ts": 0, "text": ["x"], "results": []}),
    json.dumps({"user_id": "u1", "ts": 0, "text": "x", "results": [1]}),
    json.dumps({"user_id": "u1", "ts": 0, "text": "x", "results": [{**_RESULT, "rank": 1}]}),
    json.dumps({"user_id": "u1", "ts": 0, "text": "x", "results": [{**_RESULT, "clicked": 1}]}),
    json.dumps({"user_id": "u1", "ts": 0, "text": "x", "results": [{**_RESULT, "dwell_s": -1}]}),
    json.dumps({"user_id": "u1", "ts": 0, "text": "x", "results": [{**_RESULT, "dwell_s": "5"}]}),
    json.dumps({"user_id": "u1", "ts": 0, "text": "x", "results": [{**_RESULT, "concept_tags": "ab"}]}),
    json.dumps({"user_id": "u1", "ts": 0, "text": "x", "results": [{**_RESULT, "concept_tags": [1]}]}),
    json.dumps({"user_id": "u1", "ts": 0, "text": "x", "results": [{**_RESULT, "url": None}]}),
    json.dumps({"user_id": "u1", "ts": 0, "text": "x", "results": [_RESULT, {**_RESULT, "snippet": 2}]}),
    # at the edges of the writer's layout
    writer_line(ts=str(MAX_TS + 1)),  # 19 digits
    writer_line(ts="01"),
    writer_line(dwell="1e400"),
    writer_line(dwell="1.8e+308"),
]


@pytest.mark.parametrize("line", BAD_QUERY_LINES)
def test_bad_query_line_gets_the_object_loaders_message(tmp_path, line):
    path = tmp_path / "queries.jsonl"
    path.write_text(query_line() + "\n" + line + "\n")
    with pytest.raises(DataFormatError) as expected:
        load_query_objects(path)
    with pytest.raises(DataFormatError) as got:
        load_queries(path)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith(f"{path}:2: ")


@pytest.mark.parametrize(
    "row", ["u1,r1,x,5", "u1,r1,-1,5", "u1,r1,5,1.5", "u1,r1,500,100", "u1,r1,5", f"u1,r1,5,{MAX_TS + 1}"]
)
def test_bad_visit_row_gets_the_object_loaders_message(tmp_path, row):
    path = tmp_path / "visits.csv"
    path.write_text("user_id,restaurant_id,entry_ts,exit_ts\nu1,r1,0,1\n" + row + "\n")
    with pytest.raises(DataFormatError) as expected:
        load_visit_objects(path)
    with pytest.raises(DataFormatError) as got:
        load_visits(path)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith(f"{path}:3: ")


def _outcome(load, path):
    """What ``load(path)`` gives: its events, or the message of its error."""
    try:
        return list(load(path))
    except DataFormatError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "line",
    [writer_line(dwell=dwell) for dwell in ("-0.0", "1E5", "45", "0", "1e-400", "5e-324", "1e+307")]
    + [writer_line(dwell="1.7976931348623157e+308"), writer_line(ts=str(MAX_TS)), writer_line(ts="0")]
    + [writer_line(clicked="false", dwell="0.0"), writer_line(clicked="1")],
)
def test_query_line_at_the_layouts_edge_loads_as_the_object_loader_does(tmp_path, line):
    path = tmp_path / "queries.jsonl"
    path.write_text(f"{writer_line(ts='5')}\n{line}\n{writer_line(user='u2', ts='1')}\n")
    assert _outcome(lambda p: _spelled(load_queries(p)), path) == _outcome(lambda p: _spelled(load_query_objects(p)), path)


@pytest.mark.parametrize("end", ["\r\n", "\n"], ids=["crlf", "lf"])
@pytest.mark.parametrize(
    "row",
    # int() takes each of these times; the quoted ids are plain ones to csv
    ["u1,r1,012,20", "u1,r1,+5,20", "u1,r1, 5,20", "u1,r1,1_0,20", "u1,r1,\uff15,20", '"u1",r1,5,20', '"u,1",r1,5,20']
    + ['"u\r\n1",r1,5,20', f"u1,r1,5,{MAX_TS}", f"u1,r1,5,{MAX_TS + 1}", "u1,r1,20,5", "u1,r1,x,5", "u1,r1,5", ""],
)
def test_visit_row_at_the_layouts_edge_loads_as_the_object_loader_does(tmp_path, row, end):
    path = tmp_path / "visits.csv"
    path.write_bytes(end.join(["user_id,restaurant_id,entry_ts,exit_ts", "u0,r0,0,1", row, "u2,r1,3,4", ""]).encode())
    assert _outcome(load_visits, path) == _outcome(load_visit_objects, path)


def _respelled(line, how):
    """``line`` as written (0), with its keys in reverse order (1), with other
    whitespace (2), with non-ASCII characters escaped (3), or after a blank
    line (4)."""
    record = json.loads(line)
    if how == 1:
        record = {key: record[key] for key in reversed(record)}
        record["results"] = [{key: page[key] for key in reversed(page)} for page in record["results"]]
    spelled = {
        0: line,
        1: json.dumps(record, ensure_ascii=False),
        2: json.dumps(record, ensure_ascii=False, separators=(" ,", ":\t")),
        3: json.dumps(record),
        4: f" \n{line}",
    }
    return spelled[how]


@settings(max_examples=200, deadline=None)
@given(st.one_of(query_logs(), repetitive_query_logs()), st.data())
def test_mixed_layouts_load_as_the_object_loader_does(tmp_path_factory, events, data):
    path = tmp_path_factory.mktemp("mixed") / "queries.jsonl"
    write_queries(QueryLog.of(events), path)
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    hows = data.draw(st.lists(st.integers(0, 4), min_size=len(lines), max_size=len(lines)))
    path.write_text("".join(f"{_respelled(line, how)}\n" for line, how in zip(lines, hows)), encoding="utf-8")
    with mock.patch.object(logdata, "BULK_LINES", 2):  # batches end within the file too
        loaded = load_queries(path)
    assert _spelled(loaded) == _spelled(load_query_objects(path))
    log = QueryLog.of(events)
    assert_same_log(loaded, log.take(np.argsort(log.ts, kind="stable")))


@pytest.mark.parametrize(
    "stream, malformed",
    [
        ("queries", None),
        ("visits", None),
        ("restaurants", None),
        ("inspections", None),
        # a malformed line ahead of the bad byte, within one decoder block, is named first
        ("queries", ("{oops", "1: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)")),
        ("visits", ("u1,r1,x,5", "2: entry_ts must be an integer, got 'x'")),
    ],
)
def test_undecodable_byte_names_file_and_line(tmp_path, stream, malformed):
    paths = DatasetPaths.in_dir(tmp_path)
    write_dataset(sample_dataset(), paths)
    path = getattr(paths, stream)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1][:3] + b"\xff" + lines[1][3:]
    expected = f"{path}:2: not UTF-8 (invalid start byte, byte 0xff)"
    if malformed is not None:  # before the first row: the queries' first line, the visits' after the header
        line, problem = malformed
        at = 0 if stream == "queries" else 1
        lines.insert(at, line.encode() + lines[at][len(lines[at].rstrip()) :])
        expected = f"{path}:{problem}"
    path.write_bytes(b"".join(lines))
    with pytest.raises(DataFormatError) as excinfo:
        load_dataset(paths)
    assert str(excinfo.value) == expected


@pytest.mark.parametrize("dwells", [(-0.0, 0.0), (0.0, -0.0)])
def test_equal_pages_keep_the_sign_of_their_own_zero_dwell(tmp_path, dwells):
    # -0.0 == 0.0, so a loader that shared dwell times, or whole pages,
    # would give the second page the first one's sign
    events = [query("u1", ts, "x", [page(dwell=dwell)]) for ts, dwell in enumerate(dwells)]
    write_queries(QueryLog.of(events), tmp_path / "queries.jsonl")
    loaded = load_queries(tmp_path / "queries.jsonl")
    assert [math.copysign(1.0, e.results[0].dwell_s) for e in loaded] == [math.copysign(1.0, d) for d in dwells]
    assert loaded[0].results[0].url is loaded[1].results[0].url


def test_loaded_visits_share_one_object_per_distinct_id(tmp_path):
    visits = [visit(f"u{i % 3}", f"r{i % 2}", 10 * i, 10 * i + 5) for i in range(12)]
    write_visits(VisitLog.of(visits), tmp_path / "visits.csv")
    loaded = load_visits(tmp_path / "visits.csv")
    assert loaded == tuple(visits)
    first: dict = {}
    for v in loaded:
        assert first.setdefault(v.user_id, v.user_id) is v.user_id
        assert first.setdefault(v.restaurant_id, v.restaurant_id) is v.restaurant_id
    assert len(first) == 5


LOG_ITEMS = {
    QueryLog: [query(f"u{i % 2}", i, f"text {i % 4}", [page(dwell=float(i))] * (i % 3)) for i in range(7)],
    VisitLog: [visit(f"u{i % 3}", f"r{i % 2}", i, i + 5) for i in range(7)],
    ScoredQueries: [(f"u{i % 2}", i, i / 10) for i in range(7)],
}
LOG_OF = {QueryLog: QueryLog.of, VisitLog: VisitLog.of, ScoredQueries: scored_queries}  # a log of its items


@pytest.mark.parametrize(
    "index",
    [slice(None), slice(1, 4), slice(None, None, 2), slice(-3, None), slice(-1, 1, -2), slice(5, 2), slice(2, 99)],
)
@pytest.mark.parametrize("kind", [QueryLog, VisitLog, ScoredQueries], ids=lambda kind: kind.__name__)
def test_a_slice_of_a_log_is_a_tuple_of_its_items(kind, index):
    items = LOG_ITEMS[kind]
    got = LOG_OF[kind](items)[index]
    assert type(got) is tuple
    assert got == tuple(items)[index]

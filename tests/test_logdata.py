import json
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foodwatch.errors import DataFormatError, ReferentialError
from foodwatch.logdata import (
    Dataset,
    DatasetPaths,
    InspectionRecord,
    Outcome,
    QueryEvent,
    RestaurantRecord,
    ResultPage,
    RiskLevel,
    Trigger,
    VisitEvent,
    load_dataset,
    validate_dataset,
    write_dataset,
    write_queries,
)

from conftest import page, query, visit
from oracles import write_queries_per_event


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
    ],
)
def test_field_mismatch_names_missing_and_unknown_fields(tmp_path, record, message):
    paths = write_files(tmp_path, queries=query_line() + "\n" + json.dumps(record) + "\n")
    with pytest.raises(DataFormatError) as excinfo:
        load_dataset(paths)
    assert str(excinfo.value) == f"{paths.queries}:2: {message}"


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
        queries=(
            query("u1", 10, "food poisoning", [page()]),
            query("u2", 20, "weather", [page(tags=("local",), clicked=False, dwell=0.0)]),
        ),
        visits=(visit("u1", "r1", 0, 100), visit("u2", "r2", 50, 150)),
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
    ds = Dataset(visits=(VisitEvent("u1", "r1", 101, 100),))
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
    ds = Dataset(queries=(bad_query,), visits=bad_visits, inspections=(bad_inspection,))
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
        queries=tuple(
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
    write_queries(events, d / "fast.jsonl")
    write_queries_per_event(events, d / "oracle.jsonl")
    assert (d / "fast.jsonl").read_bytes() == (d / "oracle.jsonl").read_bytes()


def test_query_writer_spells_numbers_as_json_does(tmp_path):
    # an integer dwell (as tests build them) and non-finite floats
    events = [query("u1", 3, "x", [page(dwell=dwell)]) for dwell in (45, float("inf"), float("nan"))]
    write_queries(events, tmp_path / "fast.jsonl")
    write_queries_per_event(events, tmp_path / "oracle.jsonl")
    assert (tmp_path / "fast.jsonl").read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()

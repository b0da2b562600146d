from functools import reduce
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foodwatch import features
from foodwatch.features import (
    DIM,
    FEATURE_BLOCK,
    bucket,
    featurize,
    featurize_rows,
    feature_strings,
    fnv1a64,
    fnv1a64_spans,
    tokenize,
    tokenize_url,
)

from conftest import page, query


def fnv_oracle(data: bytes) -> int:
    # independent FNV-1a-64 expressed as a fold
    return reduce(
        lambda h, b: ((h ^ b) * 0x100000001B3) % 2**64, data, 0xCBF29CE484222325
    )


def test_fnv_known_vectors():
    # published FNV-1a 64-bit test vectors
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64))
def test_fnv_matches_fold_oracle(data):
    assert fnv1a64(data) == fnv_oracle(data)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.binary(max_size=40), max_size=30))
@example([])
@example([b""])
@example([b"", b"a", b"foobar", b""])
def test_vectorized_fnv_matches_fold_oracle(data):
    lengths = np.array([len(d) for d in data], dtype=np.intp)
    hashes = fnv1a64_spans(
        np.frombuffer(b"".join(data), dtype=np.uint8),
        np.cumsum(lengths) - lengths,
        lengths,
        np.full(len(data), fnv1a64(b""), dtype=np.uint64),
    )
    assert hashes.dtype == np.uint64
    assert hashes.tolist() == [fnv_oracle(d) for d in data]


@settings(max_examples=200, deadline=None)
@given(
    st.binary(max_size=120),
    st.lists(
        st.tuples(st.integers(0, 120), st.integers(0, 120), st.binary(max_size=4)),
        max_size=30,
    ),
)
@example(b"", [(0, 0, b""), (0, 0, b"q:")])
@example(b"food_poisoning" + b"x" * 70, [(0, 14, b"qb:"), (5, 79, b"s:"), (14, 0, b"k:")])
def test_span_kernel_matches_prefixed_fnv(buffer, spans):
    # a span hashed from the state after a prefix is the FNV-1a of prefix + span
    starts = np.array([min(s, len(buffer)) for s, _, _ in spans], dtype=np.intp)
    lengths = np.array(
        [min(n, len(buffer) - s) for s, (_, n, _) in zip(starts.tolist(), spans)], dtype=np.intp
    )
    states = np.array([fnv1a64(prefix) for _, _, prefix in spans], dtype=np.uint64)
    hashes = fnv1a64_spans(np.frombuffer(buffer, dtype=np.uint8), starts, lengths, states)
    assert hashes.tolist() == [
        fnv_oracle(prefix + buffer[s : s + n])
        for (_, _, prefix), s, n in zip(spans, starts.tolist(), lengths.tolist())
    ]


def test_food_poisoning_exact_indices():
    event = query(text="food poisoning")
    expected = sorted(
        {
            fnv_oracle(s.encode()) % DIM
            for s in ("q:food", "q:poisoning", "qb:food_poisoning")
        }
    )
    vec = featurize(event)
    assert list(vec) == expected
    assert all(i < DIM for i in vec)


def test_buckets_after_cache_eviction_match_oracle():
    # bucket keeps no cache; over more strings than the former 4,096-entry
    # cache held, a string hashed again after thousands of others still gets
    # the FNV-1a bucket it got the first time
    strings = [f"q:evict{i}" for i in range(5096)]
    first = [bucket(s) for s in strings]
    again = [bucket(s) for s in strings[:1000]]
    assert again == first[:1000]
    assert first == [fnv_oracle(s.encode()) % DIM for s in strings]


def test_empty_event_is_empty_vector():
    assert len(featurize(query(text=""))) == 0


def test_tokenizer_rules():
    assert tokenize("Fo0d-Poisoning!! after  2 days") == ["fo0d", "poisoning", "after", "2", "days"]
    assert tokenize_url("https://en.wikipedia.org/wiki/Foodborne_illness") == [
        "en", "wikipedia", "org", "wiki", "foodborne", "illness",
    ]
    # scheme tokens never leak into URL features
    event = query(text="", results=[page(url="https://example.org/x", title="", snippet="", tags=())])
    feats = set(feature_strings(event))
    assert "u:https" not in feats and "u:example" in feats


def test_namespaces_cover_all_sources():
    event = query(
        text="sick now",
        results=[
            page(
                url="http://site.org/page",
                title="Food safety basics",
                snippet="wash your hands",
                tags=("foodborne_illness", "health"),
            )
        ],
    )
    feats = set(feature_strings(event))
    assert {"q:sick", "q:now", "qb:sick_now"} <= feats
    assert {"u:site", "u:org", "u:page"} <= feats
    assert {"t:food", "t:safety", "tb:food_safety", "tb:safety_basics"} <= feats
    assert {"s:wash", "s:your", "sb:wash_your"} <= feats
    assert {"k:foodborne_illness", "k:health"} <= feats


def test_duplicates_collapse():
    vec = featurize(query(text="food food food"))
    expected = sorted({bucket("q:food"), bucket("qb:food_food")})
    assert list(vec) == expected


def test_bucket_bound_holds_over_large_corpus():
    from foodwatch.seeding import make_rng

    rng = make_rng(8, "corpus")
    vocab = [f"w{i}" for i in range(2000)]
    max_index = -1
    for _ in range(100_000):
        words = [vocab[int(k)] for k in rng.integers(0, len(vocab), size=3)]
        vec = featurize(query(text=" ".join(words)))
        if len(vec):
            max_index = max(max_index, vec[-1])
    assert 0 <= max_index < DIM


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=60))
def test_featurize_pure_and_bounded(text):
    event = query(text=text)
    first = featurize(event)
    second = featurize(event)
    assert first == second
    assert all(0 <= i < DIM for i in first)
    assert list(first) == sorted(set(first))


# Field values drawn from small pools repeat within a block; free text (with
# non-ASCII letters, empty strings and tokens longer than any pooled one)
# rarely does.
_words = st.sampled_from(["food", "poisoning", "sick", "after", "eating", "2", "x"])
_phrases = st.lists(_words, max_size=5).map(" ".join)
_free = st.text(max_size=40) | st.text("abcxyz019 -_é", min_size=30, max_size=80)
_field = _phrases | _free
_tags = st.frozensets(st.sampled_from(["foodborne_illness", "health", "café", "食品", ""]) | st.text(max_size=6))
_pages = st.builds(
    page,
    url=st.sampled_from(["https://example.org/a", "http://site.org/x-y", "ftp://Z.io/Ünï", ""]) | _free,
    title=_field,
    snippet=_field,
    tags=_tags,
)
_events = st.builds(query, text=_field, results=st.lists(_pages, max_size=3))


@settings(max_examples=150, deadline=None)
@given(st.lists(_events, max_size=12), st.sampled_from([1, 2, 5, FEATURE_BLOCK]))
# lower() makes ASCII of the Kelvin sign and a longer string of "İ"
@example([query(text="K"), query(text="İstanbul İ"), query(text="KELVIN K9")], FEATURE_BLOCK)
@example([query(text="Food\tPOISONING\nafter\r\x0b\x0c2 Days", results=[page(title="A\tB", snippet="C\nD")])], 2)
# tags are whole spans: never lowercased or split
@example([query(text="", results=[page(tags=("a_b", "a b", "", "Café", "食品", "FOO"))])], FEATURE_BLOCK)
@example([query(text="x", results=[page(url="HTTPS://Ex.org/A"), page(url="Ftp://B.io/ÜC_d")])], 1)
@example([query(text="no pages"), query(text=""), query(text="a", results=[page()])], FEATURE_BLOCK)
@example([query(text="go " + "ab" * 40 + " " + "é" * 40 + "z" * 70, results=[page(snippet="y" * 65 + " k")])], 5)
def test_featurize_rows_equals_featurize_per_event(events, block):
    with mock.patch.object(features, "FEATURE_BLOCK", block):
        rows = featurize_rows(events)
    assert rows.lengths.tolist() == [len(featurize(e)) for e in events]
    assert rows.indices.tolist() == [i for e in events for i in featurize(e)]
    assert rows.indices.dtype == rows.lengths.dtype == np.intp


def test_featurize_rows_across_block_boundaries():
    from foodwatch.seeding import make_rng

    rng = make_rng(11, "blocks")
    vocab = [f"w{i}" for i in range(50)] + ["a" * 90]
    events = [
        query(
            text=" ".join(vocab[int(k)] for k in rng.integers(0, len(vocab), size=4)),
            results=[
                page(title=f"title {int(rng.integers(0, 3))}", snippet=f"s{i} {j}", tags=("t", f"u{i % 7}"))
                for j in range(int(rng.integers(0, 3)))
            ],
        )
        for i in range(2 * FEATURE_BLOCK + 3)
    ]
    rows = featurize_rows(events)
    assert rows.lengths.tolist() == [len(featurize(e)) for e in events]
    assert rows.indices.tolist() == [i for e in events for i in featurize(e)]


def test_featurize_rows_on_long_tail_shaped_events():
    # as the long_tail benchmark log: a unique token appended to every text
    # and snippet, so no event repeats another's content
    from foodwatch.seeding import make_rng

    rng = make_rng(3, "long tail")
    texts = ["food poisoning", "sick after eating", "weather today", ""]
    urls = ["https://en.wikipedia.org/wiki/Foodborne_illness", "http://news.example.com/local"]
    events = [
        query(
            text=f"{texts[int(rng.integers(0, len(texts)))]} lt{i:012x}",
            results=[
                page(url=urls[i % 2], title="Foodborne illness", snippet=f"symptoms and causes lt{i:012x}")
            ],
        )
        for i in range(600)
    ]
    assert len(events) > 2 * FEATURE_BLOCK
    rows = featurize_rows(events)
    assert rows.lengths.tolist() == [len(featurize(e)) for e in events]
    assert rows.indices.tolist() == [i for e in events for i in featurize(e)]

"""Namespaced token features hashed into a fixed 50,000-dimensional space.

Feature extraction is a pure function of the event: word unigrams and bigrams
from the query text, unigrams from result URLs (scheme stripped), unigrams and
bigrams from result titles and snippets, and one feature per concept tag.
Each namespaced feature string is hashed with FNV-1a 64-bit and bucketed by
modulo; values are binary presence, so duplicates collapse to one index.

Two implementations give the same indices. :func:`featurize` does one event
in pure Python and is the reference. :func:`featurize_rows` does a list of
events in blocks: it tokenizes each distinct field value of a block once,
hashes the feature strings of those values in one vectorized FNV-1a pass
(:func:`fnv1a64_array`) and sorts and de-duplicates every row of the block
with one ``np.sort``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, Sequence

import numpy as np

from .logdata import QueryEvent

DIM = 50_000

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_SCHEME_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*://")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True, eq=False)
class FeatureRows:
    """The feature indices of n rows in one flat array: row i owns the next
    ``lengths[i]`` entries of ``indices``."""

    indices: np.ndarray
    lengths: np.ndarray

    @classmethod
    def of(cls, vectors: Sequence[Sequence[int]]) -> FeatureRows:
        lengths = np.array([len(v) for v in vectors], dtype=np.intp)
        indices = np.fromiter(chain.from_iterable(vectors), dtype=np.intp, count=int(lengths.sum()))
        return cls(indices, lengths)

    def __len__(self) -> int:
        return len(self.lengths)

    def row_ids(self) -> np.ndarray:
        """The row of each entry of ``indices``."""
        return np.repeat(np.arange(len(self)), self.lengths)

    def take(self, rows: np.ndarray) -> FeatureRows:
        """The given rows, in the given order."""
        starts = np.cumsum(self.lengths) - self.lengths
        lengths = self.lengths[rows]
        new_starts = np.cumsum(lengths) - lengths
        offsets = np.repeat(starts[rows] - new_starts, lengths)
        return FeatureRows(self.indices[np.arange(len(offsets)) + offsets], lengths)


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def bucket(feature: str) -> int:
    return fnv1a64(feature.encode("utf-8")) % DIM


def tokenize(text: str) -> list[str]:
    """Lowercase maximal runs of [a-z0-9]."""
    return _TOKEN_RE.findall(text.lower())


def tokenize_url(url: str) -> list[str]:
    return tokenize(_SCHEME_RE.sub("", url))


def _bigrams(tokens: list[str]) -> Iterator[str]:
    for a, b in zip(tokens, tokens[1:]):
        yield f"{a}_{b}"


def feature_strings(event: QueryEvent) -> Iterator[str]:
    """Namespaced feature strings for one event, before hashing."""
    text_tokens = tokenize(event.text)
    for tok in text_tokens:
        yield "q:" + tok
    for bg in _bigrams(text_tokens):
        yield "qb:" + bg
    for page in event.results:
        for tok in tokenize_url(page.url):
            yield "u:" + tok
        title_tokens = tokenize(page.title)
        for tok in title_tokens:
            yield "t:" + tok
        for bg in _bigrams(title_tokens):
            yield "tb:" + bg
        snippet_tokens = tokenize(page.snippet)
        for tok in snippet_tokens:
            yield "s:" + tok
        for bg in _bigrams(snippet_tokens):
            yield "sb:" + bg
        for tag in sorted(page.concept_tags):
            yield "k:" + tag


def feature_key(event: QueryEvent) -> tuple:
    """Everything :func:`feature_strings` reads from an event, as one flat
    tuple: events with equal keys have equal features."""
    key = [event.text]
    for page in event.results:
        key += (page.url, page.title, page.snippet, page.concept_tags)
    return tuple(key)


def featurize(event: QueryEvent) -> tuple[int, ...]:
    """The event's feature indices, strictly increasing and all in [0, DIM);
    each present feature has value 1."""
    return tuple(sorted({bucket(f) for f in feature_strings(event)}))


def fnv1a64_array(data: Sequence[bytes]) -> np.ndarray:
    """:func:`fnv1a64` of each byte string, as ``uint64``.

    One vectorized step per byte position runs over the strings that are
    longer than it; ``uint64`` products wrap modulo 2**64 as the scalar
    mask does.
    """
    n = len(data)
    lengths = np.fromiter(map(len, data), dtype=np.intp, count=n)
    # longest first, by sorting (longest - length, index) packed into one
    # integer: the same integer sort that de-duplicates feature rows, as each
    # further numpy sort routine adds its code pages to a stage's peak RSS
    order = np.sort((lengths.max(initial=0) - lengths) * n + np.arange(n)) % n
    starts = (np.cumsum(lengths) - lengths)[order]
    # longer[p]: how many strings have a byte at position p
    longer = n - np.cumsum(np.bincount(lengths))[:-1]
    buffer = np.frombuffer(b"".join(data), dtype=np.uint8)
    h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for position, count in enumerate(longer.tolist()):
        h[:count] ^= buffer[starts[:count] + position]
        h[:count] *= prime
    hashes = np.empty_like(h)
    hashes[order] = h
    return hashes


def _ngram_strings(tokens: list[str], unigram: str, bigram: str) -> list[str]:
    return [unigram + t for t in tokens] + [f"{bigram}{a}_{b}" for a, b in zip(tokens, tokens[1:])]


# The feature strings of one field value, as feature_strings makes them.
def _text_strings(text: str) -> list[str]:
    return _ngram_strings(tokenize(text), "q:", "qb:")


def _url_strings(url: str) -> list[str]:
    return ["u:" + t for t in tokenize_url(url)]


def _title_strings(title: str) -> list[str]:
    return _ngram_strings(tokenize(title), "t:", "tb:")


def _snippet_strings(snippet: str) -> list[str]:
    return _ngram_strings(tokenize(snippet), "s:", "sb:")


def _tag_strings(tags: frozenset[str]) -> list[str]:
    return ["k:" + tag for tag in tags]


# Events featurized together. A block's memo, strings and arrays are freed
# before the next block starts, so featurization holds no more at once for a
# long list of events than for a short one.
FEATURE_BLOCK = 256


def _featurize_block(events: Sequence[QueryEvent]) -> tuple[np.ndarray, np.ndarray]:
    """The indices and lengths of :func:`featurize_rows` for one block."""
    strings: list[str] = []
    # per field, the range of ``strings`` that holds each distinct value's
    # feature strings, so a value repeated within the block is tokenized once
    texts: dict = {}
    urls: dict = {}
    titles: dict = {}
    snippets: dict = {}
    tags: dict = {}

    def ids(memo: dict, value, strings_of: Callable[..., list[str]]) -> range:
        found = memo.get(value)
        if found is None:
            new = strings_of(value)
            found = memo[value] = range(len(strings), len(strings) + len(new))
            strings.extend(new)
        return found

    flat: list[int] = []  # each event's string ids, event after event
    counts = np.empty(len(events), dtype=np.intp)
    for i, event in enumerate(events):
        start = len(flat)
        flat += ids(texts, event.text, _text_strings)
        for page in event.results:
            flat += ids(urls, page.url, _url_strings)
            flat += ids(titles, page.title, _title_strings)
            flat += ids(snippets, page.snippet, _snippet_strings)
            flat += ids(tags, page.concept_tags, _tag_strings)
        counts[i] = len(flat) - start

    buckets = fnv1a64_array([s.encode("utf-8") for s in strings]) % np.uint64(DIM)
    rows = np.repeat(np.arange(len(events)), counts)
    # sorted by row, then by bucket; np.sort is several times faster than
    # np.unique on these short keys
    keys = np.sort(rows * DIM + buckets.astype(np.intp)[np.array(flat, dtype=np.intp)])
    keys = keys[np.diff(keys, prepend=-1) != 0]  # each (row, bucket) pair once
    return keys % DIM, np.bincount(keys // DIM, minlength=len(events))


def featurize_rows(events: Sequence[QueryEvent]) -> FeatureRows:
    """``featurize`` of every event, as one :class:`FeatureRows`."""
    lengths = np.empty(len(events), dtype=np.intp)
    indices = np.empty(0, dtype=np.intp)
    for start in range(0, len(events), FEATURE_BLOCK):
        block = events[start : start + FEATURE_BLOCK]
        block_indices, block_lengths = _featurize_block(block)
        end = len(indices)
        # grown in place, where concatenating a list of parts would hold
        # every index twice; nothing else refers to the array yet
        indices.resize(end + len(block_indices), refcheck=False)
        indices[end:] = block_indices
        lengths[start : start + len(block)] = block_lengths
    return FeatureRows(indices, lengths)

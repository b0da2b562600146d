"""Namespaced token features hashed into a fixed 50,000-dimensional space.

Feature extraction is a pure function of the event: word unigrams and bigrams
from the query text, unigrams from result URLs (scheme stripped), unigrams and
bigrams from result titles and snippets, and one feature per concept tag.
Each namespaced feature string is hashed with FNV-1a 64-bit and bucketed by
modulo; values are binary presence, so duplicates collapse to one index.

Two implementations give the same indices. :func:`featurize` does one event
in pure Python, from its feature strings, and is the reference.
:func:`featurize_rows` does the events of a :class:`~.logdata.QueryLog` in
blocks and builds no feature string. It reads a block's text and page-field
codes, tokenizes each table value that the block uses once, to bytes, and
lays every token (and every whole concept tag) of the block out in one
buffer, joined by ``_``: a unigram is a token's span, and the bigram of two
neighbouring tokens is the span from the first's start to the second's end,
the bytes ``a_b``. FNV-1a is a left fold, so hashing ``prefix + span`` is
folding the span from the prefix's state; :func:`fnv1a64_spans` hashes all
spans of the block in one vectorized pass. One ``np.sort`` then sorts and
de-duplicates every row of the block.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .logdata import QueryEvent, QueryLog

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

    def __len__(self) -> int:
        return len(self.lengths)

    def row_ids(self) -> np.ndarray:
        """The row of each entry of ``indices``."""
        return np.repeat(np.arange(len(self)), self.lengths)

    def take(self, rows: np.ndarray) -> FeatureRows:
        """The given rows, in the given order."""
        starts = np.cumsum(self.lengths) - self.lengths
        lengths = self.lengths[rows]
        return FeatureRows(self.indices[_ranges(starts[rows], lengths)], lengths)


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


def featurize(event: QueryEvent) -> tuple[int, ...]:
    """The event's feature indices, strictly increasing and all in [0, DIM);
    each present feature has value 1."""
    return tuple(sorted({bucket(f) for f in feature_strings(event)}))


def fnv1a64_spans(
    buffer: np.ndarray, starts: np.ndarray, lengths: np.ndarray, states: np.ndarray
) -> np.ndarray:
    """The FNV-1a fold of each span ``buffer[starts[i] : starts[i] + lengths[i]]``
    of a ``uint8`` buffer, started from the 64-bit state ``states[i]``, as
    ``uint64``.

    FNV-1a is a left fold over bytes, so a span started from
    ``fnv1a64(prefix)`` hashes to ``fnv1a64(prefix + span)``. One vectorized
    step per byte position runs over the spans that are longer than it;
    ``uint64`` products wrap modulo 2**64 as the scalar mask does.
    """
    n = len(starts)
    # longest first, by sorting (longest - length, index) packed into one
    # integer: the same integer sort that de-duplicates feature rows, as each
    # further numpy sort routine adds its code pages to a stage's peak RSS
    order = np.sort((lengths.max(initial=0) - lengths) * n + np.arange(n)) % n
    starts = starts[order]
    # longer[p]: how many spans have a byte at position p
    longer = n - np.cumsum(np.bincount(lengths))[:-1]
    h = states[order]
    prime = np.uint64(_FNV_PRIME)
    for position, active in enumerate(longer.tolist()):
        h[:active] ^= buffer[starts[:active] + position]
        h[:active] *= prime
    hashes = np.empty_like(h)
    hashes[order] = h
    return hashes


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The integers of each range ``[starts[i], starts[i] + lengths[i])``,
    range after range."""
    offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return np.arange(len(offsets)) + offsets


# UTF-8 encodes every non-ASCII character as bytes >= 0x80, so mapping each
# byte outside [a-z0-9] to a space and splitting gives :func:`tokenize`'s
# tokens, as bytes.
_ALNUM = b"abcdefghijklmnopqrstuvwxyz0123456789"
_TOKEN_BYTES = bytes(b if b in _ALNUM else 0x20 for b in range(256))


# Each returns the spans of every value it is given, a list per value.
def _text_spans(texts: Iterable[str]) -> list[list[bytes]]:
    return [text.lower().encode("utf-8").translate(_TOKEN_BYTES).split() for text in texts]


def _url_spans(urls: Iterable[str]) -> list[list[bytes]]:
    return _text_spans(_SCHEME_RE.sub("", url) for url in urls)


def _tag_spans(tag_sets: Iterable[frozenset[str]]) -> list[list[bytes]]:
    # each tag whole: neither lowercased nor split
    return [[tag.encode("utf-8") for tag in tags] for tags in tag_sets]


# The FNV-1a states after each field's unigram and bigram namespace prefixes
# (0: no bigrams).
_UNIGRAM_STATES = np.array([fnv1a64(p) for p in (b"q:", b"u:", b"t:", b"s:", b"k:")], dtype=np.uint64)
_BIGRAM_STATES = np.array([fnv1a64(b"qb:"), 0, fnv1a64(b"tb:"), fnv1a64(b"sb:"), 0], dtype=np.uint64)

# Events featurized together. A block's values, spans and arrays are freed
# before the next block starts, so featurization holds no more at once for a
# long list of events than for a short one.
FEATURE_BLOCK = 256


def _featurize_block(log: QueryLog, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The indices and lengths of :func:`featurize_rows` for the events
    ``start:stop`` of ``log``, hashed from the token spans of the table values
    that they use."""
    first, last = log.page_start[start], log.page_start[stop]
    page_rows = np.repeat(np.arange(stop - start), np.diff(log.page_start[start : stop + 1]))
    # the text of each event, then the fields of its result pages: the
    # field's table, its codes and the row of each, and how one of its values
    # splits into spans
    fields = (
        (log.texts, log.text[start:stop], np.arange(stop - start), _text_spans),
        (log.urls, log.url[first:last], page_rows, _url_spans),
        (log.titles, log.title[first:last], page_rows, _text_spans),
        (log.snippets, log.snippet[first:last], page_rows, _text_spans),
        (log.tag_sets, log.concept_tags[first:last], page_rows, _tag_spans),
    )
    spans: list[bytes] = []
    counts: list[int] = []  # per value used, numbered across fields: its spans
    # per field: the number of each code's value, the row of each code, and
    # the number of values used
    field_values, field_rows, distinct = [], [], []
    for table, codes, rows, split in fields:
        used, value = np.unique(codes, return_inverse=True)
        field_values.append(value + len(counts))
        field_rows.append(rows)
        distinct.append(len(used))
        value_spans = split([table[code] for code in used.tolist()])
        spans += chain.from_iterable(value_spans)
        counts += map(len, value_spans)

    counts = np.array(counts, dtype=np.intp)
    bigram_states = np.repeat(_BIGRAM_STATES, distinct)
    bigram_counts = np.where(bigram_states != 0, np.maximum(counts - 1, 0), 0)
    lengths = np.fromiter(map(len, spans), dtype=np.intp, count=len(spans))
    starts = np.cumsum(lengths + 1) - (lengths + 1)
    first_span = np.cumsum(counts) - counts
    firsts = _ranges(first_span, bigram_counts)  # each bigram's first token
    # unigrams, then bigrams: from the first token's start to the second's
    # end, which holds the bytes ``a_b``
    hashes = fnv1a64_spans(
        np.frombuffer(b"_".join(spans), dtype=np.uint8),
        np.concatenate([starts, starts[firsts]]),
        np.concatenate([lengths, starts[firsts + 1] + lengths[firsts + 1] - starts[firsts]]),
        np.concatenate(
            [np.repeat(np.repeat(_UNIGRAM_STATES, distinct), counts), np.repeat(bigram_states, bigram_counts)]
        ),
    )
    buckets = (hashes % np.uint64(DIM)).astype(np.intp)

    # a value's unigrams are numbered as its spans, and its bigrams follow
    # all unigrams, value after value
    first_bigram = len(spans) + np.cumsum(bigram_counts) - bigram_counts
    values = np.concatenate(field_values)
    rows = np.concatenate(field_rows)
    feature_counts = np.concatenate([counts[values], bigram_counts[values]])
    ids = _ranges(np.concatenate([first_span[values], first_bigram[values]]), feature_counts)
    rows = np.repeat(np.concatenate([rows, rows]), feature_counts)
    # sorted by row, then by bucket; np.sort is several times faster than
    # np.unique on these short keys
    keys = np.sort(rows * DIM + buckets[ids])
    keys = keys[np.diff(keys, prepend=-1) != 0]  # each (row, bucket) pair once
    return keys % DIM, np.bincount(keys // DIM, minlength=stop - start)


def featurize_rows(log: QueryLog) -> FeatureRows:
    """``featurize`` of every event of the log, as one :class:`FeatureRows`."""
    lengths: list[np.ndarray] = []
    indices = np.empty(0, dtype=np.intp)
    for start in range(0, len(log), FEATURE_BLOCK):
        block_indices, block_lengths = _featurize_block(log, start, min(start + FEATURE_BLOCK, len(log)))
        end = len(indices)
        # grown in place, where concatenating a list of parts would hold
        # every index twice; nothing else refers to the array yet
        indices.resize(end + len(block_indices), refcheck=False)
        indices[end:] = block_indices
        lengths.append(block_lengths)
    return FeatureRows(indices, np.concatenate(lengths) if lengths else np.empty(0, dtype=np.intp))

"""Namespaced token features hashed into a fixed 50,000-dimensional space.

Feature extraction is a pure function of the event: word unigrams and bigrams
from the query text, unigrams from result URLs (scheme stripped), unigrams and
bigrams from result titles and snippets, and one feature per concept tag.
Each namespaced feature string is hashed with FNV-1a 64-bit and bucketed by
modulo; values are binary presence, so duplicates collapse to one index.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

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


# A run hashes about a million feature strings but only a few thousand
# distinct ones. The cache is bounded because a log of mostly unique queries
# has over a hundred thousand distinct strings, which would stay resident.
@functools.lru_cache(maxsize=4096)
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

"""Pooled human-judgment protocol: majority voting and chance-corrected
agreement.

Each query gets six binary votes, three from medical doctors and three from
non-medical raters. The unit label is the majority of all six; a 3-3 tie is
broken by the majority of the three MD votes (always defined, the MD count is
odd). Agreement across the pool is Krippendorff's alpha for nominal data,
computed from the coincidence matrix; units need at least two votes to
contribute, so missing votes are supported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

MD_RATERS = 3


@dataclass(frozen=True, eq=False)
class JudgmentMatrix:
    """Votes per unit: md_votes and other_votes are (n_units, 3) 0/1 arrays."""

    md_votes: np.ndarray
    other_votes: np.ndarray

    def __post_init__(self) -> None:
        md = np.asarray(self.md_votes, dtype=int)
        other = np.asarray(self.other_votes, dtype=int)
        if md.ndim != 2 or md.shape[1] != MD_RATERS:
            raise DataError(f"md_votes must have exactly {MD_RATERS} columns")
        if other.shape != md.shape:
            raise DataError("other_votes must match md_votes in shape")
        if not (np.isin(md, (0, 1)).all() and np.isin(other, (0, 1)).all()):
            raise DataError("votes must be 0 or 1")
        object.__setattr__(self, "md_votes", md)
        object.__setattr__(self, "other_votes", other)

    def __len__(self) -> int:
        return self.md_votes.shape[0]

    def values(self) -> np.ndarray:
        """(n_units, 6) array, MD columns first."""
        return np.hstack([self.md_votes, self.other_votes])


def majority_labels(matrix: JudgmentMatrix) -> np.ndarray:
    ones = matrix.values().sum(axis=1)
    md_ones = matrix.md_votes.sum(axis=1)
    labels = np.where(ones > 3, 1, 0)
    ties = ones == 3
    labels[ties] = (md_ones[ties] * 2 > MD_RATERS).astype(int)
    return labels


def krippendorff_alpha(votes: JudgmentMatrix | np.ndarray) -> float:
    """Krippendorff's alpha with the nominal disagreement metric.

    Accepts a JudgmentMatrix or an (n_units, n_raters) float array where NaN
    marks a missing vote. Units with fewer than two votes are dropped. If all
    pairable votes agree everywhere the expected disagreement is zero and
    alpha is defined as 1.0.
    """
    if isinstance(votes, JudgmentMatrix):
        data = votes.values().astype(float)
    else:
        data = np.asarray(votes, dtype=float)
    if data.ndim != 2 or data.shape[1] < 2:
        raise DataError("need a units x raters matrix with at least 2 raters")

    # Coincidence matrix over observed value categories.
    categories: dict[float, int] = {}
    rows = []
    for unit in data:
        present = unit[~np.isnan(unit)]
        if len(present) < 2:
            continue
        for v in present:
            if v not in categories:
                categories[v] = len(categories)
        rows.append(present)
    if len(rows) < 2:
        raise DataError("need at least 2 units with 2 or more votes")

    k = len(categories)
    coincidence = np.zeros((k, k))
    for present in rows:
        m = len(present)
        counts = np.zeros(k)
        for v in present:
            counts[categories[v]] += 1
        # ordered pairs within the unit, weighted 1/(m-1)
        pair = np.outer(counts, counts) - np.diag(counts)
        coincidence += pair / (m - 1)

    n_c = coincidence.sum(axis=1)
    n_total = n_c.sum()
    observed = coincidence.sum() - np.trace(coincidence)  # nominal: off-diagonal mass
    expected = (n_total * n_total - np.dot(n_c, n_c)) / (n_total - 1)
    if expected == 0.0:
        return 1.0
    return float(1.0 - (observed / expected))

import itertools

import numpy as np
import pytest

from foodwatch.errors import DataError
from foodwatch.raters import JudgmentMatrix, krippendorff_alpha, majority_labels
from foodwatch.seeding import make_rng
from oracles import alpha_pairwise_oracle as alpha_oracle
from oracles import vote_majority_oracle as vote_oracle


def label(md, other):
    """The majority label of one unit."""
    return int(majority_labels(JudgmentMatrix([md], [other]))[0])


def test_unanimous_votes():
    assert label([1, 1, 1], [1, 1, 1]) == 1
    assert label([0, 0, 0], [0, 0, 0]) == 0


def test_tie_broken_by_md_majority():
    # 3-3 tie, MDs lean positive
    assert label([1, 1, 0], [1, 0, 0]) == 1
    # 3-3 tie, MDs lean negative
    assert label([1, 0, 0], [0, 1, 1]) == 0
    # not a tie: the six-vote majority wins regardless of the MD split
    assert label([1, 1, 0], [0, 0, 0]) == 0


def test_all_64_patterns_match_enumeration_oracle():
    patterns = list(itertools.product((0, 1), repeat=6))
    matrix = JudgmentMatrix([p[:3] for p in patterns], [p[3:] for p in patterns])
    expected = [vote_oracle(list(p[:3]), list(p[3:])) for p in patterns]
    assert majority_labels(matrix).tolist() == expected


def test_malformed_vote_counts_rejected():
    with pytest.raises(DataError):  # two MD votes
        JudgmentMatrix([[1, 1]], [[0, 0, 0]])
    with pytest.raises(DataError):  # four non-MD votes against three MD votes
        JudgmentMatrix([[1, 1, 1]], [[0, 0, 0, 0]])
    with pytest.raises(DataError):  # a vote that is not 0 or 1
        JudgmentMatrix([[1, 2, 1]], [[0, 0, 0]])


def test_majority_labels_matches_rowwise_aggregation():
    rng = make_rng(4, "labels")
    md = (rng.random((200, 3)) < 0.5).astype(int)
    other = (rng.random((200, 3)) < 0.5).astype(int)
    vectorized = majority_labels(JudgmentMatrix(md, other))
    rowwise = [vote_oracle(m.tolist(), o.tolist()) for m, o in zip(md, other)]
    assert vectorized.tolist() == rowwise


# --- Krippendorff's alpha ----------------------------------------------------


def test_perfect_agreement_on_mixed_labels():
    data = np.array([[i % 2] * 6 for i in range(10)], dtype=float)
    assert krippendorff_alpha(data) == 1.0


def test_two_rater_example_matches_oracle():
    data = np.array([[1, 1], [0, 0], [1, 0], [0, 1]], dtype=float)
    assert krippendorff_alpha(data) == pytest.approx(alpha_oracle(data), abs=1e-12)
    assert krippendorff_alpha(data) == pytest.approx(0.125)


def test_random_matrices_match_oracle():
    rng = make_rng(99, "alpha")
    for trial in range(25):
        n_units = int(rng.integers(4, 12))
        n_raters = int(rng.integers(2, 6))
        data = (rng.random((n_units, n_raters)) < 0.5).astype(float)
        # knock out some votes at random; keep at least two per unit
        for i in range(n_units):
            k = int(rng.integers(0, max(1, n_raters - 1)))
            for j in rng.choice(n_raters, size=k, replace=False):
                data[i, j] = np.nan
        usable = [row for row in data if np.sum(~np.isnan(row)) >= 2]
        if len(usable) < 2:
            continue
        mine = krippendorff_alpha(data)
        ref = alpha_oracle(data)
        assert mine == pytest.approx(ref, abs=1e-6), f"trial {trial}"


def test_all_identical_votes_defined_as_one():
    data = np.ones((5, 4))
    assert krippendorff_alpha(data) == 1.0


def test_units_with_single_vote_are_dropped():
    data = np.array(
        [[1, np.nan, np.nan], [1, 0, np.nan], [0, 0, 0]], dtype=float
    )
    trimmed = np.array([[1, 0, np.nan], [0, 0, 0]], dtype=float)
    assert krippendorff_alpha(data) == pytest.approx(krippendorff_alpha(trimmed))


def test_judgment_matrix_shape_validation():
    with pytest.raises(DataError):
        JudgmentMatrix(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(DataError):
        JudgmentMatrix(np.full((3, 3), 2), np.zeros((3, 3)))

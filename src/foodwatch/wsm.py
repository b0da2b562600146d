"""Weak-supervision labeling and the log-linear query classifier.

Positive training examples are queries whose clicked results land on pages
tagged with the foodborne-illness concept and hold the user long enough;
negatives are sampled at random from the rest of the stream. The classifier
is a logistic model over hashed binary features (see :mod:`.features`),
trained by seeded mini-batch gradient descent on mean logistic loss with an
L2 penalty. The intercept lives outside the hashed space.

A :class:`LabeledSet` holds its examples as a :class:`~.logdata.QueryLog`,
taken from the stream over the stream's own tables, beside an array of
labels; training, scoring and evaluation featurize the log's codes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .config import WsmSettings
from .errors import DataError, NumericalError
from .features import (
    DIM,
    FeatureRows,
    featurize,  # unused here; the benchmark tracer wraps wsm.featurize
    featurize_rows,
)
from .logdata import QueryEvent, QueryLog, first_occurrences
from .report import json_int, write_json
from .seeding import make_rng

FOODBORNE_TAG = "foodborne_illness"


@dataclass(frozen=True, eq=False)
class LabeledSet:
    """Labeled queries: the log of the examples and each one's label, 0 or 1."""

    examples: QueryLog
    labels: np.ndarray

    def texts(self) -> set[str]:
        return {self.examples.texts[code] for code in set(self.examples.text.tolist())}


@dataclass(frozen=True, eq=False)
class WsmModel:
    weights: np.ndarray  # dense, length DIM
    intercept: float
    hyper: WsmSettings  # the settings the model was trained under
    train_seed: int
    final_loss: float
    epoch_losses: tuple[float, ...] = ()


@dataclass(frozen=True)
class WsmMetrics:
    roc_auc: float
    f1: float
    precision: float
    recall: float
    threshold: float


def _foodborne_clicks(log: QueryLog) -> np.ndarray:
    """Per result page: clicked, and tagged with the foodborne concept."""
    tagged = np.array([FOODBORNE_TAG in tags for tags in log.tag_sets], dtype=bool)
    return log.clicked & tagged[log.concept_tags]


def has_foodborne_click(log: QueryLog) -> np.ndarray:
    """Per event: whether any result was clicked and carries the foodborne
    concept tag."""
    return log.any_page(_foodborne_clicks(log))


def is_weak_positive(log: QueryLog, dwell_threshold_s: float) -> np.ndarray:
    """Per event: whether a clicked foodborne result held the user for at
    least ``dwell_threshold_s``."""
    return log.any_page(_foodborne_clicks(log) & (log.dwell_s >= dwell_threshold_s))


def weak_label(
    log: QueryLog,
    settings: WsmSettings = WsmSettings(),
    seed: int = 0,
) -> LabeledSet:
    """Automatically labeled training set: dwell-anchored positives plus a
    seeded uniform sample of negatives, deduplicated by query text.

    First occurrence wins on duplicate text; positives are collected before
    negatives, so a text satisfying the positive rule anywhere in the stream
    never reappears as a negative.
    """
    if not len(log):
        raise DataError("query stream is empty")

    positive = is_weak_positive(log, settings.dwell_threshold_s)
    hits, others = np.flatnonzero(positive), np.flatnonzero(~positive)
    # the first event of each text, among the positive events and among the rest
    positives = hits[first_occurrences(log.text[hits])]
    if not len(positives):
        raise DataError("no weak positives")
    pool = others[first_occurrences(log.text[others])]
    positive_text = np.zeros(len(log.texts), dtype=bool)
    positive_text[log.text[positives]] = True
    negative_pool = pool[~positive_text[log.text[pool]]]

    wanted = settings.neg_ratio * len(positives)
    if len(negative_pool) < wanted:
        raise DataError(
            f"negative pool too small: need {wanted}, have {len(negative_pool)}"
        )
    rng = make_rng(seed, "weak-label")
    chosen = rng.choice(len(negative_pool), size=wanted, replace=False)
    negatives = negative_pool[np.sort(chosen)]

    labels = np.repeat([1, 0], [len(positives), len(negatives)])
    return LabeledSet(log.take(np.concatenate([positives, negatives])), labels)


def _sigmoid(z: np.ndarray | float):
    # exp(-|z|) never overflows, and the clip keeps scores strictly inside
    # (0, 1) even for absurd margins
    z = np.asarray(z, dtype=float)
    ez = np.exp(-np.abs(np.clip(z, -500.0, 500.0)))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _margins(weights: np.ndarray, intercept: float, features: FeatureRows) -> np.ndarray:
    """intercept + the sum of each row's weights, added in index order."""
    return intercept + np.bincount(
        features.row_ids(), weights=weights[features.indices], minlength=len(features)
    )


def _mean_loss(z: np.ndarray, labels: np.ndarray, weights: np.ndarray, l2: float) -> float:
    """Mean logistic loss at margins z plus (l2/2)*||w||^2."""
    # softplus(z) - y*z is the per-example negative log-likelihood
    return float(np.mean(np.logaddexp(0.0, z) - labels * z)) + 0.5 * l2 * float(
        np.dot(weights, weights)
    )


def _gradient(
    z: np.ndarray, weights: np.ndarray, features: FeatureRows, labels: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    """The exact gradient of ``_mean_loss`` at margins ``z`` in the weights
    and the intercept, which is not regularized, without the loss, which
    training does not need at each step."""
    err = (_sigmoid(z) - labels) / len(features)
    grad_w = l2 * weights
    # np.add.at adds entry by entry, so each bucket sums its rows' errors in
    # row order, as a loop over rows would
    np.add.at(grad_w, features.indices, np.repeat(err, features.lengths))
    return grad_w, float(err.sum())


def train_wsm(
    labeled: LabeledSet,
    settings: WsmSettings = WsmSettings(),
    seed: int = 0,
) -> WsmModel:
    """Mini-batch gradient descent, deterministic under the seed.

    Step size decays as ``settings.learning_rate / sqrt(t)`` over global
    update count t.
    Raises on single-class input and on non-finite loss.
    """
    labels = np.asarray(labeled.labels, dtype=float)
    if len(labeled.examples) == 0 or len(set(labels.tolist())) < 2:
        raise DataError("training set must contain both classes")
    # weak_label dedupes by text, so every example is a distinct feature key
    features = featurize_rows(labeled.examples)

    weights = np.zeros(DIM)
    intercept = 0.0
    rng = make_rng(seed, "train-wsm")
    n = len(features)
    step_count = 0
    epoch_losses: list[float] = []
    for _ in range(settings.epochs):
        order = rng.permutation(n)
        for start in range(0, n, settings.batch_size):
            batch = order[start : start + settings.batch_size]
            step_count += 1
            step = settings.learning_rate / math.sqrt(step_count)
            rows = features.take(batch)
            grad_w, grad_b = _gradient(
                _margins(weights, intercept, rows), weights, rows, labels[batch], settings.l2
            )
            weights -= step * grad_w
            intercept -= step * grad_b
        epoch_loss = _mean_loss(_margins(weights, intercept, features), labels, weights, settings.l2)
        if not math.isfinite(epoch_loss):
            raise NumericalError("diverged")
        epoch_losses.append(epoch_loss)

    final_loss = _mean_loss(_margins(weights, intercept, features), labels, weights, settings.l2)
    if not math.isfinite(final_loss) or not np.all(np.isfinite(weights)):
        raise NumericalError("diverged")
    return WsmModel(
        weights=weights,
        intercept=intercept,
        hyper=settings,
        train_seed=seed,
        final_loss=final_loss,
        epoch_losses=tuple(epoch_losses),
    )


# Distinct contents featurized and scored together. Blocks keep the flat
# arrays near a megabyte however many distinct queries a log holds.
SCORE_BLOCK = 1024


def score_queries(model: WsmModel, log: QueryLog) -> np.ndarray:
    """Per event, the probability in (0, 1) that the query concerns
    foodborne illness. Events with equal text and page contents (users,
    times and clicks aside) are featurized and scored once, and each event
    gathers the score of its contents by code."""
    first, rows = log.distinct_contents()
    margins = np.empty(len(first))
    for start in range(0, len(first), SCORE_BLOCK):
        block = first[start : start + SCORE_BLOCK]
        features = featurize_rows(log.take(block))
        margins[start : start + len(block)] = _margins(model.weights, model.intercept, features)
    return _sigmoid(margins)[rows]


def score_query(model: WsmModel, event: QueryEvent) -> float:
    """Probability in (0, 1) that the query concerns foodborne illness."""
    return float(score_queries(model, QueryLog.of([event]))[0])


def save_model(model: WsmModel, path: Path) -> None:
    payload = {
        "version": 1,
        "dim": DIM,
        "weights": model.weights.tolist(),
        "intercept": model.intercept,
        "hyper": asdict(model.hyper),
        "train_seed": model.train_seed,
        "final_loss": model.final_loss,
        "epoch_losses": list(model.epoch_losses),
    }
    write_json(path, payload)


def load_model(path: Path) -> WsmModel:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("model must be a JSON object")
    if payload.get("dim") != DIM:
        raise DataError(f"model dimension {payload.get('dim')} != {DIM}")
    weights = np.asarray(payload["weights"], dtype=float)
    if weights.shape != (DIM,):
        raise DataError("model weights have the wrong shape")
    intercept = float(payload["intercept"])
    final_loss = float(payload["final_loss"])
    epoch_losses = tuple(float(loss) for loss in payload.get("epoch_losses", ()))
    # json reads NaN and Infinity, which would score every query alike
    for name, values in (
        ("weights", weights),
        ("intercept", intercept),
        ("final_loss", final_loss),
        ("epoch_losses", epoch_losses),
    ):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"model {name} must be finite")
    return WsmModel(
        weights=weights,
        intercept=intercept,
        hyper=WsmSettings(**payload["hyper"]),
        train_seed=json_int(payload["train_seed"], "train_seed"),
        final_loss=final_loss,
        epoch_losses=epoch_losses,
    )


def _weighted_sample_without_replacement(
    codes: np.ndarray,
    weights: np.ndarray,
    k: int,
    rng: np.random.Generator,
    names: Sequence[str],
) -> list[int]:
    # Efraimidis-Spirakis reservoir keys: take the k largest u^(1/w), equal
    # keys by name. Only the codes whose key reaches the k-th largest can be
    # among them, so only those get a sort key, not every code of a long
    # stream.
    u = rng.random(len(codes))
    if k == 0:
        return []
    keys = u ** (1.0 / np.asarray(weights, dtype=float))
    kth = np.partition(keys, len(keys) - k)[len(keys) - k]
    candidates = np.flatnonzero(keys >= kth).tolist()
    order = sorted(candidates, key=lambda i: (-keys[i], names[codes[i]]))
    return [int(codes[i]) for i in order[:k]]


def build_eval_sample(
    log: QueryLog,
    n: int,
    seed: int = 0,
    exclude_texts: Iterable[str] = (),
) -> QueryLog:
    """Evaluation sample: half frequency-weighted from the high-recall stratum
    (queries with a clicked foodborne-tagged result), half frequency-weighted
    from the full stream. Deduplicated by text and disjoint from
    ``exclude_texts`` (the training set). A stratum with fewer than ``n/2``
    distinct texts gives all of them, and the full stream fills the sample
    up to ``n``. Texts are counted by code, each list of them in order of
    first occurrence. Returns the log of the first event of each sampled
    text, in the order sampled.
    """
    if n % 2 != 0:
        raise ValueError("n must be even")
    if len(log) < n:
        raise DataError(f"stream has {len(log)} events, need at least {n}")
    excluded = set(exclude_texts)
    kept = ~np.array([text in excluded for text in log.texts], dtype=bool)[log.text]

    events = np.flatnonzero(kept)
    first_event = events[first_occurrences(log.text[events])]
    full_codes = log.text[first_event]
    full_counts = np.bincount(log.text[events], minlength=len(log.texts))
    stratum = np.flatnonzero(kept & has_foodborne_click(log))
    stratum_codes = log.text[stratum[first_occurrences(log.text[stratum])]]
    stratum_counts = np.bincount(log.text[stratum], minlength=len(log.texts))

    rng = make_rng(seed, "eval-sample")
    from_stratum = min(n // 2, len(stratum_codes))
    picked = _weighted_sample_without_replacement(
        stratum_codes, stratum_counts[stratum_codes], from_stratum, rng, log.texts
    )

    is_picked = np.zeros(len(log.texts), dtype=bool)
    is_picked[picked] = True
    remaining = full_codes[~is_picked[full_codes]]
    rest = n - len(picked)
    if len(remaining) < rest:
        raise DataError(
            f"stream too small: need {n} distinct texts outside the training set, "
            f"have {len(full_codes)}"
        )
    picked += _weighted_sample_without_replacement(remaining, full_counts[remaining], rest, rng, log.texts)
    first_of_text = np.zeros(len(log.texts), dtype=np.intp)
    first_of_text[full_codes] = first_event
    return log.take(first_of_text[picked])


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Rank-based (Mann-Whitney) AUC with ties counted one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC needs both classes")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # average rank, 1-based
        i = j + 1
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate_wsm(
    model: WsmModel,
    eval_set: LabeledSet,
    threshold: float,
) -> WsmMetrics:
    labels = np.asarray(eval_set.labels, dtype=int)
    if labels.sum() in (0, len(labels)):
        raise DataError("evaluation set must contain both classes")
    scores = score_queries(model, eval_set.examples)
    auc = roc_auc(scores, labels)
    predicted = scores >= threshold
    tp = int(np.sum(predicted & (labels == 1)))
    fp = int(np.sum(predicted & (labels == 0)))
    fn = int(np.sum(~predicted & (labels == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return WsmMetrics(
        roc_auc=auc, f1=f1, precision=precision, recall=recall, threshold=threshold
    )

"""Weak-supervision labeling and the log-linear query classifier.

Positive training examples are queries whose clicked results land on pages
tagged with the foodborne-illness concept and hold the user long enough;
negatives are sampled at random from the rest of the stream. The classifier
is a logistic model over hashed binary features (see :mod:`.features`),
trained by seeded mini-batch gradient descent on mean logistic loss with an
L2 penalty. The intercept lives outside the hashed space.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, NumericalError, UsageError
from .features import (
    DIM,
    FeatureRows,
    feature_key,
    featurize,  # unused here; the benchmark tracer wraps wsm.featurize
    featurize_rows,
)
from .logdata import QueryEvent
from .seeding import make_rng

FOODBORNE_TAG = "foodborne_illness"


class Provenance(Enum):
    WEAK_AUTO = "weak_auto"
    RATER = "rater"


@dataclass(frozen=True)
class LabeledSet:
    examples: tuple[tuple[QueryEvent, int], ...]
    provenance: Provenance

    def texts(self) -> set[str]:
        return {e.text for e, _ in self.examples}


@dataclass(frozen=True)
class WsmSettings:
    """The ``wsm.*`` settings: weak labeling, training and evaluation."""

    dwell_threshold_s: float = 30.0
    neg_ratio: int = 10  # sampled negatives per weak positive
    l2: float = 1e-5
    batch_size: int = 256
    epochs: int = 60
    learning_rate: float = 1.0  # step at update t is learning_rate / sqrt(t)
    threshold: float = 0.5
    eval_size: int = 200

    def __post_init__(self) -> None:
        for name in ("neg_ratio", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise UsageError(f"wsm.{name} must be >= 1, got {getattr(self, name)}")
        if self.eval_size < 2 or self.eval_size % 2:
            raise UsageError(f"wsm.eval_size must be a positive even number, got {self.eval_size}")


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


def has_foodborne_click(event: QueryEvent) -> bool:
    """True if any result was clicked and carries the foodborne concept tag."""
    return any(p.clicked and FOODBORNE_TAG in p.concept_tags for p in event.results)


def is_weak_positive(event: QueryEvent, dwell_threshold_s: float) -> bool:
    return any(
        p.clicked and FOODBORNE_TAG in p.concept_tags and p.dwell_s >= dwell_threshold_s
        for p in event.results
    )


def weak_label(
    queries: Sequence[QueryEvent],
    settings: WsmSettings = WsmSettings(),
    seed: int = 0,
) -> LabeledSet:
    """Automatically labeled training set: dwell-anchored positives plus a
    seeded uniform sample of negatives, deduplicated by query text.

    First occurrence wins on duplicate text; positives are collected before
    negatives, so a text satisfying the positive rule anywhere in the stream
    never reappears as a negative.
    """
    if not queries:
        raise DataError("query stream is empty")

    positives: list[QueryEvent] = []
    positive_texts: set[str] = set()
    negative_pool: list[QueryEvent] = []
    pool_texts: set[str] = set()
    for event in queries:
        if is_weak_positive(event, settings.dwell_threshold_s):
            if event.text not in positive_texts:
                positive_texts.add(event.text)
                positives.append(event)
        elif event.text not in pool_texts:
            pool_texts.add(event.text)
            negative_pool.append(event)
    if not positives:
        raise DataError("no weak positives")

    negative_pool = [e for e in negative_pool if e.text not in positive_texts]
    wanted = settings.neg_ratio * len(positives)
    if len(negative_pool) < wanted:
        raise DataError(
            f"negative pool too small: need {wanted}, have {len(negative_pool)}"
        )
    rng = make_rng(seed, "weak-label")
    chosen = rng.choice(len(negative_pool), size=wanted, replace=False)
    negatives = [negative_pool[i] for i in sorted(chosen)]

    examples = [(e, 1) for e in positives] + [(e, 0) for e in negatives]
    return LabeledSet(examples=tuple(examples), provenance=Provenance.WEAK_AUTO)


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


def loss_and_gradient(
    weights: np.ndarray,
    intercept: float,
    features: FeatureRows,
    labels: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray, float]:
    """Mean logistic loss plus (l2/2)*||w||^2, and its exact gradient.

    Returns (loss, grad_weights, grad_intercept). The intercept is not
    regularized. Exposed at module level so the gradient can be checked
    against finite differences.
    """
    z = _margins(weights, intercept, features)
    err = (_sigmoid(z) - labels) / len(features)
    grad_w = l2 * weights
    # np.add.at adds entry by entry, so each bucket sums its rows' errors in
    # row order, as a loop over rows would
    np.add.at(grad_w, features.indices, np.repeat(err, features.lengths))
    return _mean_loss(z, labels, weights, l2), grad_w, float(err.sum())


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
    labels = np.array([y for _, y in labeled.examples], dtype=float)
    if len(labeled.examples) == 0 or len(set(labels.tolist())) < 2:
        raise DataError("training set must contain both classes")
    # weak_label dedupes by text, so every example is a distinct feature key
    features = featurize_rows([e for e, _ in labeled.examples])

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
            _, grad_w, grad_b = loss_and_gradient(
                weights, intercept, features.take(batch), labels[batch], settings.l2
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


def _distinct_contents(events: Sequence[QueryEvent]) -> tuple[list[QueryEvent], np.ndarray]:
    """The first event of each distinct feature key, and for every event the
    position of its key among them."""
    row_of_key: dict[tuple, int] = {}
    distinct: list[QueryEvent] = []
    rows = np.empty(len(events), dtype=np.intp)
    for i, event in enumerate(events):
        row = row_of_key.setdefault(feature_key(event), len(distinct))
        if row == len(distinct):
            distinct.append(event)
        rows[i] = row
    return distinct, rows


# Distinct contents featurized and scored together. Blocks keep the flat
# arrays near a megabyte however many distinct queries a log holds.
SCORE_BLOCK = 1024


def score_queries(model: WsmModel, events: Sequence[QueryEvent]) -> np.ndarray:
    """Per event, the probability in (0, 1) that the query concerns
    foodborne illness. Events with equal feature content (users, times and
    clicks aside) are featurized and scored once."""
    distinct, rows = _distinct_contents(events)
    margins = np.empty(len(distinct))
    for start in range(0, len(distinct), SCORE_BLOCK):
        block = distinct[start : start + SCORE_BLOCK]
        features = featurize_rows(block)
        margins[start : start + len(block)] = _margins(model.weights, model.intercept, features)
    return _sigmoid(margins)[rows]


def score_query(model: WsmModel, event: QueryEvent) -> float:
    """Probability in (0, 1) that the query concerns foodborne illness."""
    return float(score_queries(model, [event])[0])


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_model(path: Path) -> WsmModel:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("dim") != DIM:
        raise DataError(f"model dimension {payload.get('dim')} != {DIM}")
    weights = np.asarray(payload["weights"], dtype=float)
    if weights.shape != (DIM,):
        raise DataError("model weights have the wrong shape")
    return WsmModel(
        weights=weights,
        intercept=float(payload["intercept"]),
        hyper=WsmSettings(**payload["hyper"]),
        train_seed=int(payload["train_seed"]),
        final_loss=float(payload["final_loss"]),
        epoch_losses=tuple(payload.get("epoch_losses", ())),
    )


def _weighted_sample_without_replacement(
    items: Sequence[str],
    weights: Sequence[float],
    k: int,
    rng: np.random.Generator,
) -> list[str]:
    # Efraimidis-Spirakis reservoir keys: take the k largest u^(1/w). Only
    # the items whose key reaches the k-th largest can be among them, so
    # only those get a sort key, not every item of a long stream.
    u = rng.random(len(items))
    if k == 0:
        return []
    keys = u ** (1.0 / np.asarray(weights, dtype=float))
    kth = np.partition(keys, len(keys) - k)[len(keys) - k]
    candidates = np.flatnonzero(keys >= kth).tolist()
    order = sorted(candidates, key=lambda i: (-keys[i], items[i]))
    return [items[i] for i in order[:k]]


def build_eval_sample(
    stream: Sequence[QueryEvent],
    n: int,
    seed: int = 0,
    exclude_texts: Iterable[str] = (),
) -> tuple[QueryEvent, ...]:
    """Evaluation sample: half frequency-weighted from the high-recall stratum
    (queries with a clicked foodborne-tagged result), half frequency-weighted
    from the full stream. Deduplicated by text and disjoint from
    ``exclude_texts`` (the training set). A stratum with fewer than ``n/2``
    distinct texts gives all of them, and the full stream fills the sample
    up to ``n``.
    """
    if n % 2 != 0:
        raise ValueError("n must be even")
    if len(stream) < n:
        raise DataError(f"stream has {len(stream)} events, need at least {n}")
    excluded = set(exclude_texts)

    first_event: dict[str, QueryEvent] = {}
    full_counts: dict[str, int] = {}
    stratum_counts: dict[str, int] = {}
    for event in stream:
        if event.text in excluded:
            continue
        if event.text not in first_event:
            first_event[event.text] = event
        full_counts[event.text] = full_counts.get(event.text, 0) + 1
        if has_foodborne_click(event):
            stratum_counts[event.text] = stratum_counts.get(event.text, 0) + 1

    rng = make_rng(seed, "eval-sample")
    stratum_texts = list(stratum_counts)  # insertion order: first occurrence in stream
    from_stratum = min(n // 2, len(stratum_texts))
    picked = _weighted_sample_without_replacement(
        stratum_texts, [stratum_counts[t] for t in stratum_texts], from_stratum, rng
    )
    picked_set = set(picked)

    remaining = [t for t in full_counts if t not in picked_set]
    rest = n - len(picked)
    if len(remaining) < rest:
        raise DataError(
            f"stream too small: need {n} distinct texts outside the training set, "
            f"have {len(full_counts)}"
        )
    picked += _weighted_sample_without_replacement(
        remaining, [full_counts[t] for t in remaining], rest, rng
    )
    return tuple(first_event[t] for t in picked)


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
    labels = np.array([y for _, y in eval_set.examples], dtype=int)
    if labels.sum() in (0, len(labels)):
        raise DataError("evaluation set must contain both classes")
    scores = score_queries(model, [e for e, _ in eval_set.examples])
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

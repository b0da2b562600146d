"""Independent reference implementations used as test oracles.

These deliberately take different computational routes from the library code
they check: closed-form 2x2 odds ratios, Simpson quadrature for the
chi-square tail, pairwise-disagreement Krippendorff alpha, brute-force
majority voting, O(n^2) pairwise AUC, a per-example logistic loss and
gradient, a query log written with one ``json.dumps`` per event, and the
query and visit logs loaded as one object per event and page.
"""

import json
import math
import sys

import numpy as np

from foodwatch.errors import DataFormatError
from foodwatch.logdata import MAX_RESULTS_PER_QUERY, QueryEvent, ResultPage, VisitEvent
from foodwatch.report import read_csv


def crossproduct_oracle(a, b, c, d):
    """Odds ratio and Wald CI for a 2x2 table from the textbook formulas."""
    or_hat = (a / b) / (c / d)
    se = math.sqrt(1 / a + 1 / b + 1 / c + 1 / d)
    lo = math.exp(math.log(or_hat) - 1.96 * se)
    hi = math.exp(math.log(or_hat) + 1.96 * se)
    return or_hat, (lo, hi)


def chi2_sf_quadrature(x, dof, steps=200_000):
    """Chi-square upper tail by Simpson quadrature on t = sqrt(u), which
    removes the dof=1 integrable singularity at the origin."""
    k = dof / 2.0
    log_norm = -k * math.log(2.0) - math.lgamma(k)

    def g(t):
        if t == 0.0:
            return 0.0 if dof != 1 else 2.0 * math.exp(log_norm)
        u = t * t
        return 2.0 * t * math.exp(log_norm + (k - 1.0) * math.log(u) - u / 2.0)

    hi = math.sqrt(x)
    h = hi / steps
    total = g(0.0) + g(hi)
    for i in range(1, steps):
        total += g(i * h) * (4 if i % 2 else 2)
    return 1.0 - total * h / 3.0


def alpha_pairwise_oracle(data):
    """Krippendorff's alpha via within-unit pairwise disagreements."""
    units = []
    for row in np.asarray(data, dtype=float):
        present = [v for v in row if not np.isnan(v)]
        if len(present) >= 2:
            units.append(present)
    n = sum(len(u) for u in units)
    d_o = 0.0
    for u in units:
        d_u = sum(a != b for a in u for b in u)
        d_o += d_u / (len(u) - 1)
    d_o /= n
    values = [v for u in units for v in u]
    d_e = sum(a != b for a in values for b in values) / (n * (n - 1))
    return 1.0 if d_e == 0 else 1.0 - d_o / d_e


def vote_majority_oracle(md, other):
    """Six-vote majority with 3-3 ties settled by the MD bloc."""
    total = sum(md) + sum(other)
    if total != 3:
        return 1 if total > 3 else 0
    return 1 if sum(md) >= 2 else 0


def auc_pairwise_oracle(scores, labels):
    """AUC by explicit positive-negative pair counting, ties worth one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for s in pos:
        wins += np.sum(s > neg) + 0.5 * np.sum(s == neg)
    return wins / (len(pos) * len(neg))


def wilson_oracle(k, n, z=1.6448536269514722):
    if n == 0:
        return 0.0
    phat = k / n
    denominator = 1.0 + z**2 / n
    centre = phat + z**2 / (2.0 * n)
    margin = z * math.sqrt((phat * (1.0 - phat) + z**2 / (4.0 * n)) / n)
    return max(0.0, (centre - margin) / denominator)


def logistic_oracle(weights, intercept, vectors, labels, l2, sigmoid):
    """Mean logistic loss plus (l2/2)*||w||^2 and its gradient, one example
    at a time: each margin summed left to right in Python, the loss from a
    scalar softplus, the gradient scattered by one ``np.add.at`` per example.
    ``sigmoid`` is the library's link, so the gradient isolates the
    accumulation."""
    n = len(vectors)
    z = np.empty(n)
    for i, idx in enumerate(vectors):
        total = 0.0
        for j in idx:
            total += float(weights[j])
        z[i] = intercept + total
    nll = 0.0
    for zi, yi in zip(z.tolist(), labels.tolist()):
        nll += max(zi, 0.0) + math.log1p(math.exp(-abs(zi))) - yi * zi
    loss = nll / n + 0.5 * l2 * math.fsum(w * w for w in weights.tolist())
    err = (sigmoid(z) - labels) / n
    grad_w = l2 * weights
    for idx, e in zip(vectors, err):
        np.add.at(grad_w, idx, e)
    return loss, grad_w, float(err.sum())


def write_queries_per_event(events, path):
    """The query log as one ``json.dumps`` of the whole event per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            results = [
                {
                    "url": page.url,
                    "title": page.title,
                    "snippet": page.snippet,
                    "concept_tags": sorted(page.concept_tags),
                    "clicked": page.clicked,
                    "dwell_s": page.dwell_s,
                }
                for page in event.results
            ]
            record = {"user_id": event.user_id, "ts": event.ts, "text": event.text, "results": results}
            fh.write(json.dumps(record, ensure_ascii=False))
            fh.write("\n")


def _fields(obj, expected, what):
    if set(obj) != set(expected):
        raise ValueError(
            f"{what} fields: missing {sorted(set(expected) - set(obj))}, unknown {sorted(set(obj) - set(expected))}"
        )


def _string(obj, name):
    if type(obj[name]) is not str:
        raise ValueError(f"{name} must be a string, got {type(obj[name]).__name__}")
    return obj[name]


def _result_object(obj):
    if not isinstance(obj, dict):
        raise ValueError("result entry is not an object")
    _fields(obj, ("url", "title", "snippet", "concept_tags", "clicked", "dwell_s"), "result")
    clicked, dwell, tags = obj["clicked"], obj["dwell_s"], obj["concept_tags"]
    if not isinstance(clicked, bool):
        raise ValueError("clicked must be a boolean")
    if isinstance(dwell, bool) or not isinstance(dwell, (int, float)) or not 0 <= dwell <= sys.float_info.max:
        raise ValueError("dwell_s must be a finite non-negative number")
    if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
        raise ValueError("concept_tags must be a list of strings")
    url, title, snippet = (_string(obj, name) for name in ("url", "title", "snippet"))
    return ResultPage(url, title, snippet, frozenset(tags), clicked, float(dwell))


def _query_object(line):
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    _fields(obj, ("user_id", "ts", "text", "results"), "query")
    ts, results = obj["ts"], obj["results"]
    if not isinstance(ts, int) or isinstance(ts, bool) or ts < 0:
        raise ValueError("ts must be a non-negative integer")
    if not isinstance(results, list):
        raise ValueError("results must be a list")
    if len(results) > MAX_RESULTS_PER_QUERY:
        raise ValueError(f"more than {MAX_RESULTS_PER_QUERY} results")
    user_id, text = _string(obj, "user_id"), _string(obj, "text")
    return QueryEvent(user_id, ts, text, tuple(_result_object(r) for r in results))


def load_query_objects(path):
    """The query log as one QueryEvent per line and one ResultPage per
    result, sorted stably by ts: the object loader that the columnar query
    log replaced, with the same checks and messages."""
    events = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                events.append(_query_object(line))
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    return sorted(events, key=lambda e: e.ts)


def _timestamp(raw, name):
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _visit_object(row):
    user_id, restaurant_id, entry_s, exit_s = row
    entry_ts, exit_ts = _timestamp(entry_s, "entry_ts"), _timestamp(exit_s, "exit_ts")
    if entry_ts > exit_ts:
        raise ValueError(f"entry_ts {entry_ts} > exit_ts {exit_ts}")
    return VisitEvent(user_id, restaurant_id, entry_ts, exit_ts)


def load_visit_objects(path):
    """The visit log as one VisitEvent per row, sorted stably by exit_ts."""
    _, visits = read_csv(path, ["user_id", "restaurant_id", "entry_ts", "exit_ts"], _visit_object)
    return sorted(visits, key=lambda v: v.exit_ts)

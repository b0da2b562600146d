from itertools import chain

import numpy as np
import pytest

from foodwatch import wsm
from foodwatch.features import FeatureRows
from foodwatch.locmodel import RestaurantCells
from foodwatch.logdata import QueryEvent, ResultPage, VisitEvent

FOOD_TAG = "foodborne_illness"


def page(
    url="https://en.wikipedia.org/wiki/Foodborne_illness",
    title="Foodborne illness",
    snippet="symptoms and causes",
    tags=(FOOD_TAG,),
    clicked=True,
    dwell=45.0,
):
    return ResultPage(
        url=url,
        title=title,
        snippet=snippet,
        concept_tags=frozenset(tags),
        clicked=clicked,
        dwell_s=dwell if clicked else 0.0,
    )


def query(user="u1", ts=0, text="food poisoning", results=()):
    return QueryEvent(user_id=user, ts=ts, text=text, results=tuple(results))


def visit(user="u1", restaurant="r1", entry=0, exit_ts=1800):
    return VisitEvent(user_id=user, restaurant_id=restaurant, entry_ts=entry, exit_ts=exit_ts)


def cells(counts):
    """The exact cells of a mapping of restaurant ids to ``(visitors,
    affected)`` pairs, in id order, as the sliding window yields them."""
    ids = sorted(counts)
    visitors = np.array([counts[rid][0] for rid in ids], dtype=np.int64)
    affected = np.array([counts[rid][1] for rid in ids], dtype=np.int64)
    return RestaurantCells.exact(tuple(ids), np.arange(len(ids)), visitors, affected)


def feature_rows(vectors):
    """The ``FeatureRows`` of a sequence of index vectors, one row each."""
    lengths = np.array([len(v) for v in vectors], dtype=np.intp)
    indices = np.fromiter(chain.from_iterable(vectors), dtype=np.intp, count=int(lengths.sum()))
    return FeatureRows(indices, lengths)


def loss_and_gradient(weights, intercept, features, labels, l2):
    """Mean logistic loss plus (l2/2)*||w||^2 and its exact gradient, as
    training computes them: (loss, grad_weights, grad_intercept). The
    intercept is not regularized."""
    z = wsm._margins(weights, intercept, features)
    grad_w, grad_b = wsm._gradient(z, weights, features, labels, l2)
    return wsm._mean_loss(z, labels, weights, l2), grad_w, grad_b


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """One full default-configuration pipeline run, shared across tests."""
    from foodwatch.config import RunConfig
    from foodwatch.pipeline import run_pipeline

    out = tmp_path_factory.mktemp("default_run")
    manifest = run_pipeline(RunConfig(), out)
    return out, manifest


def assert_same_log(got, expected):
    """Two query or visit logs hold equal tables, in the same order, and
    columns of the same dtype and bytes, so a dwell keeps its zero's sign."""
    from dataclasses import fields

    assert type(got) is type(expected)
    for f in fields(got):
        a, b = getattr(got, f.name), getattr(expected, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name

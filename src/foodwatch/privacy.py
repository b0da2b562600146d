"""Anonymization, contribution capping, and count release, under the
``privacy.*`` settings (``config.PrivacySettings``).

User ids are replaced by a keyed pseudorandom function before anything else
touches the data: the simulator takes the map from :func:`pseudonyms` and
writes the pseudonym into every event it emits, so raw ids never leave it.
``anonymize_ids`` and ``anonymize_ground_truth`` apply the same map to events
already built, and serve as its reference. Links are capped to one per
(user, restaurant) so each released count has L1 sensitivity 1, and with
privacy on (the default) counts leave the pipeline only with Laplace noise
added and small cells suppressed.
Each cell draws its noise from a PCG64 stream of its own, the one
``make_rng(day seed, "release", restaurant_id)`` would give, so no cell's
noise depends on another cell. ``release`` steps a whole day's streams at
once on uint64 arrays (``seeding.PCG64Lanes``) and builds no generator. It
takes and returns ``locmodel.RestaurantCells``, the one cell shape: the
window's exact cells go in, the noised and suppressed cells come out, and
with privacy switched off the exact cells are released as they are.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import replace

import numpy as np

from .citysim import GroundTruth
from .config import PrivacySettings
from .locmodel import ExposureLink, RestaurantCells, shares
from .logdata import Dataset, QueryEvent, QueryLog, VisitEvent, VisitLog
from .seeding import PCG64Lanes, derive_seeds, make_rng  # make_rng: the benchmark tracer wraps privacy.make_rng


# L1 sensitivity of each released count: contribution capping leaves each
# user at most one link per restaurant, so one user moves a count by at most 1.
SENSITIVITY = 1.0


def pseudonymize(hash_key: int, user_id: str) -> str:
    """Keyed 128-bit pseudonym, hex encoded; consistent within a key."""
    if hash_key == 0:
        raise ValueError("hash_key must be non-zero")
    key_bytes = (hash_key & (2**128 - 1)).to_bytes(16, "big")
    return hashlib.blake2b(
        user_id.encode("utf-8"), key=key_bytes, digest_size=16
    ).hexdigest()


def pseudonyms(user_ids: Iterable[str], hash_key: int) -> dict[str, str]:
    """The keyed pseudonym of each raw id, one hash per distinct id."""
    if hash_key == 0:
        raise ValueError("hash_key must be non-zero")
    return {user_id: pseudonymize(hash_key, user_id) for user_id in user_ids}


def anonymize_ids(dataset: Dataset, hash_key: int) -> Dataset:
    """Replace raw user ids with keyed pseudonyms across all streams.

    The same raw id maps to the same pseudonym in the query and visit
    streams, so downstream joins are unaffected.
    """
    if hash_key == 0:
        raise ValueError("hash_key must be non-zero")
    cache: dict[str, str] = {}

    def pseudo(user_id: str) -> str:
        if user_id not in cache:
            cache[user_id] = pseudonymize(hash_key, user_id)
        return cache[user_id]

    queries = QueryLog.of(
        QueryEvent(user_id=pseudo(q.user_id), ts=q.ts, text=q.text, results=q.results)
        for q in dataset.queries
    )
    visits = VisitLog.of(
        VisitEvent(
            user_id=pseudo(v.user_id),
            restaurant_id=v.restaurant_id,
            entry_ts=v.entry_ts,
            exit_ts=v.exit_ts,
        )
        for v in dataset.visits
    )
    return replace(dataset, queries=queries, visits=visits)


def anonymize_ground_truth(truth: GroundTruth, hash_key: int) -> GroundTruth:
    """Apply the same keyed pseudonyms used for the dataset streams."""
    return GroundTruth(
        infections=tuple(
            replace(r, user_id=pseudonymize(hash_key, r.user_id)) for r in truth.infections
        ),
        query_labels=truth.query_labels,
    )


def cap_contributions(links: Sequence[ExposureLink]) -> tuple[ExposureLink, ...]:
    """At most one link per (user, restaurant), keeping the earliest visit.

    Idempotent; guarantees any single user moves any released count by at
    most one.
    """
    kept: dict[tuple[str, str], ExposureLink] = {}
    for link in links:
        key = (link.user_id, link.restaurant_id)
        prev = kept.get(key)
        if prev is None or link.visit_exit_ts < prev.visit_exit_ts:
            kept[key] = link
    return tuple(kept.values())


def laplace_noise(next_uniforms: Callable[[np.ndarray], np.ndarray], n: int, scale: float) -> np.ndarray:
    """One draw per lane of n, as ``Generator.laplace(0.0, scale)`` makes it
    from the lane's next doubles: ``next_uniforms(lanes)`` gives the next
    double of each lane in ``lanes`` and advances only those.

    A lane whose double is exactly 0 draws its next one, as numpy's
    rejection does, and the logarithm is libm's, through ``math.log``, as in
    numpy's C code (``np.log`` can differ from it in the last bit).
    """
    u = next_uniforms(np.arange(n))
    redraw = np.flatnonzero(u == 0.0)
    while len(redraw):
        u[redraw] = next_uniforms(redraw)
        redraw = redraw[u[redraw] == 0.0]
    upper = u >= 0.5
    log = np.fromiter(map(math.log, np.where(upper, (2.0 - u) - u, u + u).tolist()), dtype=np.float64, count=n)
    return np.where(upper, 0.0 - scale * log, 0.0 + scale * log)


def release(cells: RestaurantCells, settings: PrivacySettings, rng_seed: int) -> RestaurantCells:
    """Laplace-noised counts per restaurant, with small-count suppression;
    with privacy off, the exact cells themselves.

    Each count gets an independent Laplace(SENSITIVITY/epsilon) draw. Noised
    counts stay real-valued so the released proportion is unbiased; the
    proportion is clamped to [0, 1]. Each cell draws its visitors' noise,
    then its affected noise, from the stream ``make_rng(rng_seed, "release",
    restaurant_id)`` would give; ``PCG64Lanes`` steps all the cells' streams
    at once, and no cell's noise depends on another cell.
    """
    if not settings.enabled:
        return cells
    scale = SENSITIVITY / settings.epsilon
    lanes = PCG64Lanes(derive_seeds(rng_seed, ("release",), cells))
    visitors = cells.visitors + laplace_noise(lanes.next_doubles, len(cells), scale)
    affected = cells.affected + laplace_noise(lanes.next_doubles, len(cells), scale)
    noised = (visitors, affected, *shares(visitors, affected))
    return RestaurantCells(cells.restaurants, cells.restaurant, visitors < settings.suppress_below, *noised)

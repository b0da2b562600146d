"""Privacy settings, anonymization, contribution capping, and count release.

User ids are replaced by a keyed pseudorandom function before anything else
touches the data: the simulator takes the map from :func:`pseudonyms` and
writes the pseudonym into every event it emits, so raw ids never leave it.
``anonymize_ids`` and ``anonymize_ground_truth`` apply the same map to events
already built, and serve as its reference. Links are capped to one per
(user, restaurant) so each released count has L1 sensitivity 1, and with
privacy on (the default) counts leave the pipeline only with Laplace noise
added and small cells suppressed.
Noise draws are keyed by (seed, restaurant_id) with a counter-based
construction, so parallel release produces exactly the serial output. With
privacy switched off ``release`` returns the raw counts instead, in the same
record shape.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from .citysim import GroundTruth
from .errors import UsageError
from .locmodel import ExposureLink, RestaurantAggregate, wilson_lower_bound
from .logdata import Dataset, QueryEvent, VisitEvent
from .seeding import (
    make_rng,  # unused here; the benchmark tracer wraps privacy.make_rng
    make_rngs,
)


# L1 sensitivity of each released count: contribution capping leaves each
# user at most one link per restaurant, so one user moves a count by at most 1.
SENSITIVITY = 1.0


DEFAULT_HASH_KEY_HEX = "6f0d6b65792d746573742d6f6e6c7921"  # test-only default secret


@dataclass(frozen=True)
class PrivacySettings:
    enabled: bool = True  # off: release exact counts, unnoised and unsuppressed
    epsilon: float = 1.0  # budget per released count
    suppress_below: int = 30
    hash_key: str = DEFAULT_HASH_KEY_HEX  # hex-encoded 128-bit secret

    def __post_init__(self) -> None:
        if not self.epsilon > 0:  # also refuses nan
            raise UsageError(f"privacy.epsilon must be > 0, got {self.epsilon}")
        if self.suppress_below < 0:
            raise UsageError(f"privacy.suppress_below must be >= 0, got {self.suppress_below}")
        self.hash_key_int()  # rejects a key that is not hex or is zero

    def hash_key_int(self) -> int:
        try:
            value = int(self.hash_key, 16)
        except ValueError:
            raise UsageError(f"privacy.hash_key must be hex, got {self.hash_key!r}") from None
        if value == 0:
            raise UsageError("privacy.hash_key must be non-zero")
        return value


@dataclass(frozen=True)
class ReleasedAggregate:
    """One restaurant's released cell, in the shape of a daily-list row.

    With privacy on the counts are noised and real-valued, and a suppressed
    cell carries none of them; with privacy off they are the raw integers.
    """

    restaurant_id: str
    suppressed: bool
    visitors: float | None
    affected: float | None
    proportion: float | None
    signal: float | None  # Wilson lower bound from the released counts


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

    queries = tuple(
        QueryEvent(user_id=pseudo(q.user_id), ts=q.ts, text=q.text, results=q.results)
        for q in dataset.queries
    )
    visits = tuple(
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


def release(
    aggregates: Mapping[str, RestaurantAggregate],
    settings: PrivacySettings,
    rng_seed: int,
) -> dict[str, ReleasedAggregate]:
    """Laplace-noised counts per restaurant, with small-count suppression.

    Each count gets an independent Laplace(SENSITIVITY/epsilon) draw. Noised
    counts stay real-valued so the released proportion is unbiased; the
    proportion is clamped to [0, 1]. With privacy off the exact counts are
    released as they are.
    """
    if not settings.enabled:
        return {
            rid: ReleasedAggregate(rid, False, agg.visitors, agg.affected, agg.proportion, agg.signal)
            for rid, agg in aggregates.items()
        }
    scale = SENSITIVITY / settings.epsilon
    released: dict[str, ReleasedAggregate] = {}
    rids = sorted(aggregates)
    for rid, rng in zip(rids, make_rngs(rng_seed, [("release", rid) for rid in rids])):
        agg = aggregates[rid]
        noised_visitors = agg.visitors + rng.laplace(0.0, scale)
        if noised_visitors < settings.suppress_below:
            # each cell has its own generator, so skipping the affected
            # draw here changes no other cell's noise
            released[rid] = ReleasedAggregate(rid, True, None, None, None, None)
            continue
        noised_affected = agg.affected + rng.laplace(0.0, scale)
        proportion = min(max(noised_affected / max(noised_visitors, 1.0), 0.0), 1.0)
        trials = max(noised_visitors, 1.0)
        successes = min(max(noised_affected, 0.0), trials)
        released[rid] = ReleasedAggregate(
            restaurant_id=rid,
            suppressed=False,
            visitors=noised_visitors,
            affected=noised_affected,
            proportion=proportion,
            signal=wilson_lower_bound(successes, trials),
        )
    return released


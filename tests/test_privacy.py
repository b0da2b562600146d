import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foodwatch.citysim import SimConfig, generate_world, simulate
from foodwatch.errors import UsageError
from foodwatch.locmodel import ExposureLink, shares
from foodwatch.logdata import Dataset, Trigger
from foodwatch.privacy import (
    PrivacySettings,
    anonymize_ground_truth,
    anonymize_ids,
    cap_contributions,
    laplace_noise,
    pseudonymize,
    pseudonyms,
    release,
)
from foodwatch.seeding import PCG64Lanes, derive_seeds, make_rng

from conftest import cells, query, visit
from oracles import wilson_lower_bound, wilson_oracle

KEY = 0xDEADBEEF_CAFEBABE_0123456789ABCDEF


def link(user, restaurant, exit_ts=1000, q_ts=2000, rank=1):
    return ExposureLink(
        user_id=user,
        restaurant_id=restaurant,
        visit_exit_ts=exit_ts,
        first_positive_query_ts=q_ts,
        recency_rank=rank,
    )


# --- anonymization -----------------------------------------------------------


def test_pseudonyms_consistent_across_streams():
    ds = Dataset(
        queries=(query("alice", 10, "x"), query("bob", 20, "y")),
        visits=(visit("alice", "r1", 0, 5),),
    )
    anon = anonymize_ids(ds, KEY)
    assert anon.queries[0].user_id == anon.visits[0].user_id
    assert anon.queries[0].user_id != "alice"
    assert re.fullmatch(r"[0-9a-f]{32}", anon.queries[0].user_id)


def test_zero_key_rejected():
    with pytest.raises(ValueError):
        anonymize_ids(Dataset(), 0)
    with pytest.raises(ValueError):
        pseudonyms((), 0)
    with pytest.raises(ValueError):
        pseudonymize(0, "alice")


# Infections and complaints are common here, so every stream carries ids.
SICK_CITY = SimConfig(
    cities={"A": 6, "B": 4}, n_users=60, unsafe_prob=(0.6, 0.6, 0.6), p_infect_unsafe=0.5,
    p_complaint_given_ill=0.5, p_frivolous_complaint=0.1,
)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_simulating_with_pseudonyms_equals_anonymizing_after(seed):
    world = generate_world(SICK_CITY, seed)
    dataset, truth = simulate(world, 4, seed, pseudonyms(world.users, KEY))
    raw_dataset, raw_truth = simulate(world, 4, seed, {uid: uid for uid in world.users})
    assert raw_truth.infections and any(r.trigger is Trigger.COMPLAINT for r in raw_dataset.inspections)
    assert dataset == anonymize_ids(raw_dataset, KEY)
    assert truth == anonymize_ground_truth(raw_truth, KEY)


def test_pseudonyms_match_per_id_hash():
    assert pseudonyms(["alice", "bob", "alice"], KEY) == {
        "alice": pseudonymize(KEY, "alice"),
        "bob": pseudonymize(KEY, "bob"),
    }


def test_million_users_no_collision():
    seen = set()
    for i in range(1_000_000):
        seen.add(pseudonymize(KEY, f"user{i}"))
    assert len(seen) == 1_000_000


def test_distinct_keys_give_disjoint_pseudonym_sets():
    users = [f"user{i}" for i in range(10_000)]
    a = {pseudonymize(KEY, u) for u in users}
    b = {pseudonymize(KEY + 1, u) for u in users}
    assert not (a & b)


def test_pseudonymization_deterministic():
    assert pseudonymize(KEY, "alice") == pseudonymize(KEY, "alice")


# --- contribution capping ----------------------------------------------------


def test_repeat_visits_collapse_to_one_link():
    links = [link("u", "r", exit_ts=t) for t in (3000, 1000, 2000)]
    capped = cap_contributions(links)
    assert len(capped) == 1 and capped[0].visit_exit_ts == 1000


def test_capping_idempotent():
    links = [link("u", "r", exit_ts=1000), link("u", "s", exit_ts=1500)]
    once = cap_contributions(links)
    assert cap_contributions(once) == once


def test_capping_matches_bruteforce_dedup():
    rng = make_rng(31, "cap")
    links = [
        link(f"u{int(rng.integers(20))}", f"r{int(rng.integers(10))}", exit_ts=int(t))
        for t in rng.integers(0, 100_000, size=500)
    ]
    capped = cap_contributions(links)
    expected = {}
    for l in links:
        k = (l.user_id, l.restaurant_id)
        if k not in expected or l.visit_exit_ts < expected[k].visit_exit_ts:
            expected[k] = l
    assert set(capped) == set(expected.values())


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 5), st.integers(0, 10_000)),
        max_size=60,
    )
)
def test_capping_guarantees_unit_sensitivity(raw):
    links = [link(f"u{u}", f"r{r}", exit_ts=t) for u, r, t in raw]
    capped = cap_contributions(links)
    pairs = [(l.user_id, l.restaurant_id) for l in capped]
    assert len(pairs) == len(set(pairs))  # each user moves each count by <= 1


# --- release -----------------------------------------------------------------


def agg(rid="r1", visitors=100, affected=10):
    return cells({rid: (visitors, affected)})


def test_huge_epsilon_recovers_counts():
    policy = PrivacySettings(epsilon=1e6, suppress_below=0)
    rel = release(agg(), policy, rng_seed=4)["r1"]
    assert abs(rel.visitors - 100) < 1e-3
    assert abs(rel.affected - 10) < 1e-3
    assert abs(rel.proportion - 0.1) < 1e-4


def test_laplace_moments_match_oracle():
    policy = PrivacySettings(epsilon=1.0, suppress_below=0)
    n = 20_000
    aggs = {f"r{i:05d}": (100, 0) for i in range(n)}
    rel = release(cells(aggs), policy, rng_seed=17)
    noise = np.array([r.visitors - 100 for r in rel.values()])
    assert abs(noise.mean()) < 3 * math.sqrt(2.0) / math.sqrt(n)  # mean-zero bound
    assert abs(noise.mean()) < 0.1
    variance = noise.var()
    assert abs(variance - 2.0) / 2.0 < 0.05  # Var = 2 (sensitivity/epsilon)^2


def test_suppression_exposes_no_counts():
    policy = PrivacySettings(epsilon=1.0, suppress_below=30)
    rel = release(agg(visitors=5, affected=2), policy, rng_seed=1)["r1"]
    assert rel.suppressed
    assert rel.visitors is None and rel.affected is None
    assert rel.proportion is None and rel.signal is None


def test_release_proportion_clamped():
    policy = PrivacySettings(epsilon=0.2, suppress_below=0)
    aggs = {f"r{i}": (3, 3) for i in range(200)}
    for rel in release(cells(aggs), policy, rng_seed=3).values():
        if not rel.suppressed:
            assert 0.0 <= rel.proportion <= 1.0


def test_release_deterministic_and_order_independent():
    policy = PrivacySettings(epsilon=1.0, suppress_below=0)
    aggs = {"rA": (50, 5), "rB": (60, 6)}
    flipped = {"rB": aggs["rB"], "rA": aggs["rA"]}
    a = release(cells(aggs), policy, rng_seed=9)
    b = release(cells(flipped), policy, rng_seed=9)
    assert a == b
    assert a == release(cells(aggs), policy, rng_seed=9)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.text("abcr0123456789", min_size=1, max_size=6),
        st.tuples(st.integers(0, 60), st.integers(0, 60)),
        max_size=25,
    ),
    st.integers(0, 2**32),
)
def test_release_matches_per_cell_bruteforce(counts, seed):
    # brute force: a fresh generator per cell that always draws both
    # noises, visitors first; a suppressed cell's unused affected draw must
    # not shift any other cell's noise
    policy = PrivacySettings(epsilon=0.5, suppress_below=30)
    aggs = {rid: (v, min(a, v)) for rid, (v, a) in counts.items()}
    rel = release(cells(aggs), policy, rng_seed=seed)
    assert sorted(rel) == sorted(aggs)
    for rid, (exact_visitors, exact_affected) in aggs.items():
        rng = make_rng(seed, "release", rid)
        visitors = exact_visitors + rng.laplace(0.0, 2.0)
        affected = exact_affected + rng.laplace(0.0, 2.0)
        cell = rel[rid]
        assert cell.suppressed == (visitors < 30)
        if cell.suppressed:
            assert (cell.visitors, cell.affected, cell.proportion, cell.signal) == (None,) * 4
            continue
        assert (cell.visitors, cell.affected) == (visitors, affected)
        assert cell.proportion == min(max(affected / max(visitors, 1.0), 0.0), 1.0)
        trials = max(visitors, 1.0)
        expected = wilson_oracle(min(max(affected, 0.0), trials), trials)
        assert cell.signal == pytest.approx(expected, abs=1e-12)


def test_release_with_privacy_off_is_exact():
    policy = PrivacySettings(enabled=False, epsilon=0.01, suppress_below=1000)
    aggs = {
        "rA": (50, 5),
        "rB": (3, 0),  # far below suppress_below
        "rC": (0, 0),
    }
    for seed in (0, 1):
        rel = release(cells(aggs), policy, rng_seed=seed)
        assert sorted(rel) == sorted(aggs)
        for rid, cell in rel.items():
            visitors, affected = aggs[rid]
            assert not cell.suppressed
            assert type(cell.visitors) is int and cell.visitors == visitors
            assert type(cell.affected) is int and cell.affected == affected
            assert cell.proportion == (affected / visitors if visitors else 0.0)
            assert cell.signal == pytest.approx(wilson_oracle(affected, visitors), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.text("abcr0123456789", min_size=1, max_size=6),
        st.tuples(st.integers(0, 60), st.integers(0, 60)),
        max_size=25,
    ),
    st.integers(0, 2**32),
    st.floats(0.01, 10.0),
)
def test_release_keeps_the_cell_shape(counts, seed, epsilon):
    exact = cells({rid: (v, min(a, v)) for rid, (v, a) in counts.items()})
    assert release(exact, PrivacySettings(enabled=False, epsilon=epsilon), seed) is exact
    noised = release(exact, PrivacySettings(epsilon=epsilon), seed)
    assert noised.restaurants is exact.restaurants and noised.restaurant is exact.restaurant
    assert list(noised) == list(exact)


def test_policy_validation():
    for epsilon in (0.0, float("nan")):
        with pytest.raises(UsageError, match="privacy.epsilon"):
            PrivacySettings(epsilon=epsilon)
    with pytest.raises(UsageError, match="privacy.suppress_below"):
        PrivacySettings(epsilon=1.0, suppress_below=-1)
    with pytest.raises(UsageError, match="privacy.hash_key"):
        PrivacySettings(hash_key="0")


# --- the vectorized release kernel -------------------------------------------


def test_laplace_noise_equals_generator_laplace_at_edge_seeds_and_release_keys():
    scale = 1.0 / 0.7
    seeds = [0, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    seeds += derive_seeds(2301, ("release",), [f"r{i:05d}" for i in range(2000)]).tolist()
    lanes = PCG64Lanes(np.array(seeds, dtype=np.uint64))
    first = laplace_noise(lanes.next_doubles, len(seeds), scale)
    second = laplace_noise(lanes.next_doubles, len(seeds), scale)
    for seed, a, b in zip(seeds, first.tolist(), second.tolist()):
        rng = np.random.default_rng(seed)
        assert (a, b) == (rng.laplace(0.0, scale), rng.laplace(0.0, scale)), seed
    rng = make_rng(2301, "release", "r00007")
    assert first[5 + 7] == rng.laplace(0.0, scale)


def test_a_zero_uniform_draws_the_lanes_next_double():
    streams = [[0.0, 0.25, 0.75], [0.75, 0.125], [0.0, 0.0, 0.5, 0.0, 0.375], [0.5, 0.0, 0.625]]
    position = [0] * len(streams)

    def next_uniforms(lanes):
        out = []
        for lane in lanes.tolist():
            out.append(streams[lane][position[lane]])
            position[lane] += 1
        return np.array(out, dtype=float)

    def numpy_laplace(u):  # distributions.c, random_laplace with loc 0
        return 0.0 - 2.0 * math.log(2.0 - u - u) if u >= 0.5 else 0.0 + 2.0 * math.log(u + u)

    first = laplace_noise(next_uniforms, 4, 2.0).tolist()
    second = laplace_noise(next_uniforms, 4, 2.0).tolist()
    # repr tells 0.0 (numpy's draw at U = 0.5) from -0.0
    assert list(map(repr, first)) == [repr(numpy_laplace(u)) for u in (0.25, 0.75, 0.5, 0.5)]
    assert list(map(repr, second)) == [repr(numpy_laplace(u)) for u in (0.75, 0.125, 0.375, 0.625)]
    assert position == [3, 2, 5, 3]  # only the lanes that drew a zero drew again


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def generator_before_a_zero(inc: int, half: int) -> np.random.Generator:
    """A PCG64 generator whose next 64-bit output is 0: the step lands on a
    state with equal halves, which XSL-RR maps to 0 at every rotation."""
    after = (half << 64) | half
    state = (after - inc) * pow(_PCG64_MULT, -1, 2**128) % 2**128
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def test_zero_uniform_matches_numpy_rejection():
    specs = [(2 * 12345 + 1, 0xABCDEF), (2**127 + 1, 2**63 + 5)]
    probe = generator_before_a_zero(*specs[0])
    assert probe.random() == 0.0
    reference = [generator_before_a_zero(*spec) for spec in specs] + [np.random.default_rng(4)]
    injected = [generator_before_a_zero(*spec) for spec in specs] + [np.random.default_rng(4)]

    def next_uniforms(lanes):  # lane i draws its next double from injected[i]
        return np.array([injected[i].random() for i in lanes.tolist()], dtype=float)

    draws = [laplace_noise(next_uniforms, 3, 0.5).tolist() for _ in range(2)]
    expected = [[rng.laplace(0.0, 0.5) for rng in reference] for _ in range(2)]
    assert draws == expected


_SHARE_EDGES = st.sampled_from([0.0, -0.0, 1.0, 0.5, -1.0, 1e-300, -1e-300, 30.0, 2.0**53])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=30),
    st.lists(st.tuples(st.floats(-60, 400) | _SHARE_EDGES, st.floats(-60, 400) | _SHARE_EDGES), max_size=30),
)
def test_shares_equal_the_scalar_expressions(exact, noised):
    # exact integer cells, 0 visitors included, as the window yields them,
    # and noised real-valued cells, as the release makes them
    exact = [(v, min(a, v)) for v, a in exact]
    for counts, dtype in ((exact, np.int64), (noised, float)):
        visitors = np.array([v for v, _ in counts], dtype=dtype)
        affected = np.array([a for _, a in counts], dtype=dtype)
        proportion, signal = shares(visitors, affected)
        for (v, a), p, s in zip(counts, proportion.tolist(), signal.tolist()):
            trials = max(v, 1.0)
            assert repr(p) == repr(min(max(a / max(v, 1.0), 0.0), 1.0))
            assert repr(s) == repr(wilson_lower_bound(min(max(a, 0.0), trials), trials))
            if dtype is np.int64:  # an exact cell's share and bound of its own counts
                assert (repr(p), repr(s)) == (repr(a / v if v else 0.0), repr(wilson_lower_bound(a, v)))

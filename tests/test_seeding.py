import numpy as np

from foodwatch.seeding import _pcg64_states, derive_seed, make_rng, make_rngs

# every distribution citysim and privacy.release draw from, in one call each
DRAWS = (
    lambda rng: rng.poisson(1.7, size=3),
    lambda rng: rng.integers(0, 120, size=3),
    lambda rng: rng.integers(6 * 3600, 21 * 3600),
    lambda rng: rng.random(size=3),
    lambda rng: rng.exponential(40.0, size=2),
    lambda rng: rng.gamma(4.0, 0.5, size=2),
    lambda rng: rng.standard_normal(size=3),
    lambda rng: rng.choice(5, p=[0.1, 0.2, 0.3, 0.25, 0.15]),
    lambda rng: rng.choice(["a", "b", "c"], size=2),
    lambda rng: rng.laplace(0.0, 1.0, size=2),
)


def draws(rng):
    return [np.asarray(draw(rng)).tolist() for draw in DRAWS]


def test_batched_states_equal_numpy_seeding():
    edge = [0, 1, 12345, 2**32 - 1, 2**32, 2**63, 2**64 - 1]  # one- and two-word seeds, both ends
    seeds = edge + [derive_seed(9, "release", f"r{i:05d}", 4) for i in range(800)]
    expected = []
    for seed in seeds:
        state = np.random.default_rng(seed).bit_generator.state["state"]
        expected.append((state["state"], state["inc"]))
    assert _pcg64_states(seeds) == expected
    assert [s for seed in edge for s in _pcg64_states([seed])] == expected[: len(edge)]


def test_batched_generators_draw_like_make_rng():
    keys = [("user", f"u{i:06d}", day) for day in range(3) for i in range(40)]
    keys += [("release", f"r{i:05d}") for i in range(40)]
    for key, rng in zip(keys, make_rngs(5, keys), strict=True):
        reference = make_rng(5, *key)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert draws(rng) == draws(reference)


def test_buffered_half_word_does_not_leak_into_the_next_key():
    keys = [("user", "u1", 0), ("user", "u2", 0)]
    rngs = make_rngs(2, keys)
    first = next(rngs)
    first.integers(0, 10, dtype=np.uint32)  # PCG64 keeps the other 32-bit half
    assert first.bit_generator.state["has_uint32"] == 1
    second = next(rngs)
    assert second.bit_generator.state == make_rng(2, *keys[1]).bit_generator.state
    assert second.integers(0, 10, size=5, dtype=np.uint32).tolist() == (
        make_rng(2, *keys[1]).integers(0, 10, size=5, dtype=np.uint32).tolist()
    )


def test_no_keys_no_generators():
    assert list(make_rngs(1, [])) == []

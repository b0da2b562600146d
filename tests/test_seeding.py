import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from foodwatch import seeding
from foodwatch.seeding import PCG64Lanes, _state, derive_seed, derive_seeds, make_rng

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


def lane_state(lanes, lane):
    """The lane's state, in the form of ``Generator.bit_generator.state``."""
    words = (lanes.hi, lanes.lo, lanes.inc_hi, lanes.inc_lo, lanes.has_uint32, lanes.uinteger)
    return _state(*(int(word[lane]) for word in words))


def test_batched_states_equal_numpy_seeding():
    edge = [0, 1, 12345, 2**32 - 1, 2**32, 2**63, 2**64 - 1]  # one- and two-word seeds, both ends
    seeds = edge + [derive_seed(9, "release", f"r{i:05d}", 4) for i in range(800)]
    lanes = PCG64Lanes(np.array(seeds, dtype=np.uint64))
    assert [lane_state(lanes, i) for i in range(len(seeds))] == [np.random.default_rng(s).bit_generator.state for s in seeds]
    assert PCG64Lanes(np.array([], dtype=np.uint64)).next_doubles(np.array([], dtype=np.intp)).tolist() == []


def test_escapes_draw_like_make_rng():
    keys = [("user", f"u{i:06d}", day) for day in range(3) for i in range(40)]
    keys += [("release", f"r{i:05d}") for i in range(40)]
    lanes = PCG64Lanes(np.array([derive_seed(5, *key) for key in keys], dtype=np.uint64))
    references = [make_rng(5, *key) for key in keys]
    assert lanes.escape(np.arange(len(keys)), draws) == [draws(reference) for reference in references]
    assert [lane_state(lanes, lane) for lane in range(len(keys))] == [reference.bit_generator.state for reference in references]


def test_escapes_carry_the_buffered_half_word_both_ways():
    lanes = PCG64Lanes(np.array([2, 3], dtype=np.uint64))
    reference = np.random.default_rng(2)
    assert lanes.integers(np.array([0]), 10).tolist() == [reference.integers(10)]
    assert lane_state(lanes, 0)["has_uint32"] == 1  # PCG64 keeps the other 32-bit half
    uint32s = lambda rng: rng.integers(0, 10, size=3, dtype=np.uint32).tolist()  # noqa: E731
    assert lanes.escape(np.array([0]), uint32s) == [uint32s(reference)]
    assert lane_state(lanes, 0) == reference.bit_generator.state and reference.bit_generator.state["has_uint32"] == 0
    assert lanes.escape(np.array([0]), lambda rng: rng.integers(10, dtype=np.uint32)) == [reference.integers(10, dtype=np.uint32)]
    assert lanes.integers(np.array([0, 1]), [86_400, 7]).tolist() == [
        reference.integers(86_400),
        np.random.default_rng(3).integers(7),
    ]
    assert lane_state(lanes, 0) == reference.bit_generator.state


# the draws an escape runs in citysim, and draws that leave a half word kept
ESCAPES = {
    "normal": lambda rng: rng.standard_normal(),
    "exponential": lambda rng: rng.exponential(40.0),
    "uint32": lambda rng: int(rng.integers(0, 1000, dtype=np.uint32)),
    "wide": lambda rng: int(rng.integers(2**40)),
    "poisson": lambda rng: int(rng.poisson(25.0)),
}

OPS = st.one_of(
    st.tuples(st.just("integers"), st.integers(1, 86_400) | st.sampled_from([1, 2, 3, 2**31 + 1, 2**32 - 1])),
    st.tuples(st.just("random"), st.none()),
    st.tuples(
        st.just("poisson"),
        st.sampled_from([0.0, 1e-300, 9.999999999999998, 10.0, 50.0]) | st.floats(0, 30, allow_nan=False),
    ),
    st.tuples(st.just("escape"), st.sampled_from(sorted(ESCAPES))),
    st.tuples(st.just("exponential"), st.sampled_from([8.0, 20.0, 40.0]) | st.floats(0, 1e6, allow_nan=False)),
)


def scalar_draw(rng, op, arg):
    if op == "integers":
        return int(rng.integers(arg))
    if op == "random":
        return rng.random()
    if op == "poisson":
        return int(rng.poisson(arg))
    if op == "exponential":
        return rng.exponential(arg)
    return ESCAPES[arg](rng)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 2**64 - 1), st.lists(OPS, max_size=25)), min_size=1, max_size=5),
    st.lists(st.sampled_from(["integers", "random", "poisson", "escape", "exponential"]), min_size=1, max_size=8),
)
def test_lane_kernels_draw_like_scalar_generator_calls(programs, rotation):
    """Lanes run their programs interleaved: each turn, every lane whose next
    draw is of the turn's kind draws it in one call, each with its own bound
    or rate. Every lane must draw what ``default_rng(seed)`` draws with the
    same calls, and end in the same state, kept half word included."""
    lanes = PCG64Lanes(np.array([seed for seed, _ in programs], dtype=np.uint64))
    got = [[] for _ in programs]
    position = [0] * len(programs)
    turn = 0
    while any(p < len(ops) for p, (_, ops) in zip(position, programs)):
        kind = rotation[turn % len(rotation)]
        turn += 1
        ready = [i for i, (_, ops) in enumerate(programs) if position[i] < len(ops) and ops[position[i]][0] == kind]
        args = [programs[i][1][position[i]][1] for i in ready]
        at = np.array(ready, dtype=np.intp)
        if kind == "integers":
            drawn = lanes.integers(at, args).tolist()
        elif kind == "random":
            drawn = lanes.next_doubles(at).tolist()
        elif kind == "poisson":
            drawn = lanes.poisson(at, args).tolist()
        elif kind == "exponential":
            drawn = lanes.exponential(at, args).tolist()
        else:
            drawn = [None] * len(ready)
            for kind_of_escape in set(args):  # the lanes running one kind of escape, together
                at_kind = [k for k, arg in enumerate(args) if arg == kind_of_escape]
                for k, value in zip(at_kind, lanes.escape(at[at_kind], ESCAPES[kind_of_escape])):
                    drawn[k] = value
        for i, value in zip(ready, drawn):
            got[i].append(value)
            position[i] += 1
        if turn > len(rotation) * (1 + sum(len(ops) for _, ops in programs)):
            break  # a kind missing from the rotation: no lane can move
    for i, (seed, ops) in enumerate(programs):
        reference = np.random.default_rng(seed)
        expected = [scalar_draw(reference, op, arg) for op, arg in ops[: position[i]]]
        assert got[i] == expected
        assert lane_state(lanes, i) == reference.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.sampled_from([("release",), ("user", "ü-7"), ()]),
    st.lists(st.text(max_size=8) | st.integers(-5, 5), max_size=12),
)
def test_batched_seed_derivation_equals_derive_seed(seed, prefix, lasts):
    got = derive_seeds(seed, prefix, lasts)
    assert got.dtype == np.uint64
    assert got.tolist() == [derive_seed(seed, *prefix, last) for last in lasts]


def test_lanes_draw_the_doubles_of_default_rng():
    edge = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    seeds = edge + [derive_seed(3, "release", f"r{i:05d}") for i in range(500)]
    lanes = PCG64Lanes(np.array(seeds, dtype=np.uint64))
    got = np.stack([lanes.next_doubles(np.arange(len(seeds))) for _ in range(3)], axis=1)
    assert got.tolist() == [np.random.default_rng(seed).random(3).tolist() for seed in seeds]


def test_lanes_advance_only_the_lanes_asked_for():
    seeds = [11, 12, 13]
    lanes = PCG64Lanes(np.array(seeds, dtype=np.uint64))
    first = lanes.next_doubles(np.array([1]))
    rest = lanes.next_doubles(np.arange(3))
    streams = [np.random.default_rng(seed).random(2).tolist() for seed in seeds]
    assert first.tolist() == [streams[1][0]]
    assert rest.tolist() == [streams[0][0], streams[1][1], streams[2][0]]


def _lanes_about_to_output(outputs: list[int]) -> PCG64Lanes:
    """Lanes whose next 64-bit outputs are ``outputs``: increment 1, and a
    state one step short of high word 0 and low word the output, which
    XSL-RR outputs as it is."""
    lanes = PCG64Lanes(np.zeros(len(outputs), dtype=np.uint64))
    states = [((v - 1) * seeding._PCG64_MULT_INV) % (1 << 128) for v in outputs]
    lanes.hi[:] = [state >> 64 for state in states]
    lanes.lo[:] = [state & (2**64 - 1) for state in states]
    lanes.inc_hi[:], lanes.inc_lo[:] = 0, 1
    return lanes


def _numpy_accept_bound(layer: int) -> int:
    """The least ri that numpy's exponential ziggurat does not accept at
    once in ``layer``, found by bisection: an accepted draw steps its
    generator once, any other draw at least twice."""
    lo, hi = -1, 1 << 53  # ri = lo is accepted (or lo = -1), ri = hi is not
    while hi - lo > 1:
        ri = (lo + hi) // 2
        lanes = _lanes_about_to_output([(ri << 11) | (layer << 3)])
        rng = np.random.Generator(np.random.PCG64(0))
        rng.bit_generator.state = lane_state(lanes, 0)
        rng.standard_exponential()
        once = rng.bit_generator.state["state"]["state"] == (ri << 11) | (layer << 3)
        lo, hi = (ri, hi) if once else (lo, ri)
    return hi


def test_lane_exponential_at_every_ziggurat_layer_and_its_bound(monkeypatch):
    """In each of the 256 layers, ri just below the lanes' bound is drawn in
    the lanes and ri at it escapes; both equal ``Generator.exponential``. The
    bound lies below numpy's own, and within a relative 1e-8 of it."""
    we, bound = seeding._ziggurat_exp()
    for layer in range(256):
        assert bound[layer] <= _numpy_accept_bound(layer) <= bound[layer] * (1 + 1e-8)
    outputs = [(int(ri) << 11) | (layer << 3) for layer in range(256) for ri in (max(int(bound[layer]) - 1, 0), bound[layer])]
    escaped = []
    escape = PCG64Lanes.escape
    monkeypatch.setattr(PCG64Lanes, "escape", lambda self, lanes, draw: escaped.extend(lanes.tolist()) or escape(self, lanes, draw))
    lanes = _lanes_about_to_output(outputs)
    got = lanes.exponential(np.arange(len(outputs)), 40.0).tolist()
    assert escaped == [i for i, v in enumerate(outputs) if (v >> 11) >= bound[(v >> 3) & 0xFF]]
    assert len(escaped) == 256 + (bound[1] == 0)  # each layer's bound; layer 1 accepts no ri at once
    for i, v in enumerate(outputs):
        rng = np.random.Generator(np.random.PCG64(0))
        rng.bit_generator.state = lane_state(_lanes_about_to_output([v]), 0)
        assert got[i] == rng.exponential(40.0)
        assert lane_state(lanes, i) == rng.bit_generator.state

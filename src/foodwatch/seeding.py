"""Deterministic seed derivation.

A single run seed fans out to per-module (and per-entity) sub-seeds through a
keyed hash, so any stage can be re-run in isolation and parallel schedules
reproduce the serial output. Python's builtin ``hash`` is randomized per
process and must never be used here.
"""

from __future__ import annotations

import functools
import hashlib
import math
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np


def derive_seed(seed: int, *parts: object) -> int:
    """Map (seed, parts...) to a stable 64-bit sub-seed.

    Parts are joined by their ``str`` form, so callers should pass primitives
    (module names, user ids, day indices) with stable string representations.
    """
    payload = ":".join([str(int(seed))] + [str(p) for p in parts]).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big")


def derive_seeds(seed: int, prefix: Sequence[object], lasts: Iterable[object]) -> np.ndarray:
    """``derive_seed(seed, *prefix, last)`` for each of ``lasts``, as uint64:
    the shared prefix is hashed once and each last part only from there."""
    head = hashlib.blake2b(":".join([str(int(seed))] + [str(p) for p in prefix] + [""]).encode("utf-8"), digest_size=8)
    digests = []
    for last in lasts:
        h = head.copy()
        h.update(str(last).encode("utf-8"))
        digests.append(h.digest())
    return np.frombuffer(b"".join(digests), dtype=">u8").astype(np.uint64)


def make_rng(seed: int, *parts: object) -> np.random.Generator:
    """A numpy Generator seeded from ``derive_seed(seed, *parts)``."""
    return np.random.default_rng(derive_seed(seed, *parts))


# ``np.random.default_rng(seed)`` is ``PCG64(SeedSequence(seed))``. Both
# seeding algorithms and their constants are fixed by NEP 19's stream
# stability promise, which lets ``PCG64Lanes`` reproduce them exactly.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # SeedSequence entropy mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # SeedSequence.generate_state
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_PCG64_MULT_INV = pow(_PCG64_MULT, -1, 1 << 128)


def _hash_consts(start: int, mult: int, n: int) -> list[tuple[np.uint32, np.uint32]]:
    """The (xor, multiply) constant pairs of n successive hash steps; they
    depend only on the step count, never on the data."""
    pairs = []
    for _ in range(n):
        nxt = (start * mult) & _M32
        pairs.append((np.uint32(start), np.uint32(nxt)))
        start = nxt
    return pairs


def _hash(values: np.ndarray, xor: np.uint32, mult: np.uint32) -> np.ndarray:
    values = (values ^ xor) * mult  # uint32 arithmetic wraps, as in numpy's C code
    return values ^ (values >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _seed_sequence_words(seeds: Sequence[int]) -> list[np.ndarray]:
    """``SeedSequence(s).generate_state(8, np.uint32)`` for every 64-bit seed
    s, as eight arrays of one word per seed."""
    seeds64 = np.array(seeds, dtype=np.uint64)
    # Entropy is the seed's 32-bit words, low first; a seed below 2**32 has
    # one word, and the pool fills missing words with 0, so both agree.
    pool = [
        (seeds64 & np.uint64(_M32)).astype(np.uint32),
        (seeds64 >> np.uint64(32)).astype(np.uint32),
        np.zeros(len(seeds64), dtype=np.uint32),
        np.zeros(len(seeds64), dtype=np.uint32),
    ]
    consts = iter(_hash_consts(_INIT_A, _MULT_A, 4 + 4 * 3))
    pool = [_hash(word, *next(consts)) for word in pool]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(consts)))
    return [
        _hash(pool[i % 4], xor, mult)
        for i, (xor, mult) in enumerate(_hash_consts(_INIT_B, _MULT_B, 8))
    ]


# 128-bit integers below are (high, low) pairs of uint64 arrays; numpy's
# uint64 arithmetic wraps modulo 2**64, as the C code's does.
_U3, _U11, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (3, 11, 32, 58, 63, 64))
_LOW8, _LOW32, _TWO32 = np.uint64(0xFF), np.uint64(_M32), np.uint64(1 << 32)
_PCG64_MULT_HI, _PCG64_MULT_LO = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & ((1 << 64) - 1))


def _mul_hi(a: np.ndarray, b: np.ndarray | np.uint64) -> np.ndarray:
    """The high 64 bits of each 128-bit product a * b, from 32-bit limbs."""
    a_lo, a_hi, b_lo, b_hi = a & _LOW32, a >> _U32, b & _LOW32, b >> _U32
    cross_1, cross_2 = a_lo * b_hi, a_hi * b_lo
    mid = ((a_lo * b_lo) >> _U32) + (cross_1 & _LOW32) + (cross_2 & _LOW32)
    return a_hi * b_hi + (cross_1 >> _U32) + (cross_2 >> _U32) + (mid >> _U32)


def _pcg64_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """state * multiplier + inc, modulo 2**128."""
    product_lo = lo * _PCG64_MULT_LO
    product_hi = _mul_hi(lo, _PCG64_MULT_LO) + hi * _PCG64_MULT_LO + lo * _PCG64_MULT_HI
    new_lo = product_lo + inc_lo
    return product_hi + inc_hi + (new_lo < product_lo).astype(np.uint64), new_lo


def _pcg64_words(seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (state high, state low, inc high, inc low) words ``np.random.default_rng(s)``
    starts PCG64 in, for each uint64 seed s, as four uint64 arrays."""
    w = [word.astype(np.uint64) for word in _seed_sequence_words(seeds)]
    s_hi, s_lo, i_hi, i_lo = (w[2 * k] | (w[2 * k + 1] << _U32) for k in range(4))
    # pcg_setseq_128_srandom_r: inc = seq << 1 | 1; state 0, one step, add the seed, one step
    inc_hi, inc_lo = (i_hi << np.uint64(1)) | (i_lo >> _U63), (i_lo << np.uint64(1)) | np.uint64(1)
    lo = inc_lo + s_lo
    hi = inc_hi + s_hi + (lo < inc_lo).astype(np.uint64)
    return (*_pcg64_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)


_T = TypeVar("_T")


class PCG64Lanes:
    """One PCG64 stream per seed, each starting where ``np.random.default_rng(seed)``
    starts, stepped together on uint64 arrays.

    Each lane draws exactly what its ``Generator`` would, draw for draw:
    ``next_doubles`` is ``random()``, ``integers`` is ``integers(n)``,
    ``poisson`` is ``poisson(lam)`` and ``exponential`` is
    ``exponential(scale)``. Any other draw runs on a ``Generator`` put in the
    lane's state, through ``escape``. Every method takes ``lanes``, distinct
    lane indices, and moves no other lane.
    """

    def __init__(self, seeds: np.ndarray):
        self.hi, self.lo, self.inc_hi, self.inc_lo = _pcg64_words(seeds)
        # numpy's 32-bit draws take the low half of a 64-bit output and keep
        # the high half for the next one
        self.has_uint32 = np.zeros(len(self.hi), dtype=bool)
        self.uinteger = np.zeros(len(self.hi), dtype=np.uint64)
        self._rng: np.random.Generator | None = None  # built at the first escape

    def _peek(self, lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next 64-bit output of each lane, and the state (high, low) it
        leaves the lane in; the lanes do not move."""
        hi, lo = _pcg64_step(self.hi[lanes], self.lo[lanes], self.inc_hi[lanes], self.inc_lo[lanes])
        # XSL-RR output: the xor of both halves, rotated right by the top 6 state bits
        x, rot = hi ^ lo, hi >> _U58
        return (x >> rot) | (x << ((_U64 - rot) & _U63)), hi, lo

    def _next_uint64s(self, lanes: np.ndarray) -> np.ndarray:
        out, self.hi[lanes], self.lo[lanes] = self._peek(lanes)
        return out

    def next_doubles(self, lanes: np.ndarray) -> np.ndarray:
        """The next double in [0, 1) of each lane, as ``Generator.random()``
        would draw it."""
        return (self._next_uint64s(lanes) >> _U11).astype(np.float64) * (1.0 / 9007199254740992.0)

    def next_uint32(self, lanes: np.ndarray) -> np.ndarray:
        """The next 32-bit word of each lane, as uint64: the kept high half
        if the lane has one, else the low half of a new 64-bit output."""
        kept = self.has_uint32[lanes]
        out = self.uinteger[lanes]
        fresh = lanes[~kept]
        word = self._next_uint64s(fresh)
        out[~kept] = word & _LOW32
        self.uinteger[fresh] = word >> _U32
        self.has_uint32[lanes] = ~kept
        return out

    def integers(self, lanes: np.ndarray, n) -> np.ndarray:
        """An integer in [0, n) per lane, as ``Generator.integers(n)`` draws
        it for 1 <= n < 2**32 (``n`` one bound or one per lane): Lemire's
        multiply-and-reject on 32-bit words, and no draw at all for n = 1."""
        bound = np.broadcast_to(np.asarray(n, dtype=np.uint64), lanes.shape)
        out = np.zeros(len(lanes), dtype=np.uint64)
        pending = np.flatnonzero(bound > 1)
        bound = bound[pending]
        while len(pending):
            m = self.next_uint32(lanes[pending]) * bound
            # a product whose low word is below 2**32 mod n would bias the draw
            reject = (m & _LOW32) < (_TWO32 - bound) % bound
            out[pending[~reject]] = m[~reject] >> _U32
            pending, bound = pending[reject], bound[reject]
        return out.astype(np.int64)

    def poisson(self, lanes: np.ndarray, lam) -> np.ndarray:
        """A Poisson count per lane, as ``Generator.poisson(lam)`` draws it
        (``lam`` one rate or one per lane): 0 with no draw for a rate of 0,
        doubles multiplied until their product falls to exp(-lam) for a rate
        below 10, and numpy's own PTRS sampler, through ``escape``, above."""
        rate = np.broadcast_to(np.asarray(lam, dtype=np.float64), lanes.shape)
        out = np.zeros(len(lanes), dtype=np.int64)
        high = np.flatnonzero(rate >= 10)
        rates = iter(rate[high].tolist())  # each escape takes the next lane's rate
        out[high] = self.escape(lanes[high], lambda rng: rng.poisson(next(rates)))
        pending = np.flatnonzero((rate > 0) & (rate < 10))
        distinct, which = np.unique(rate[pending], return_inverse=True)
        floor = np.array([math.exp(-x) for x in distinct.tolist()])[which]  # libm's exp, as numpy's C code calls it
        product = np.ones(len(pending))
        while len(pending):
            product *= self.next_doubles(lanes[pending])
            more = product > floor
            out[pending[more]] += 1
            pending, product, floor = pending[more], product[more], floor[more]
        return out

    def exponential(self, lanes: np.ndarray, scale) -> np.ndarray:
        """An exponential draw per lane, as ``Generator.exponential(scale)``
        draws it (``scale`` one mean or one per lane): numpy's ziggurat takes
        a 64-bit output v, a layer ``idx = (v >> 3) & 0xFF`` and ``ri = v >>
        11``, and returns ``scale * (ri * we[idx])`` when ri is below the
        layer's accept bound. A lane whose ri is not safely below it
        escapes, so the rare rejections and tail draws run on numpy's own
        code."""
        scale = np.broadcast_to(np.asarray(scale, dtype=np.float64), lanes.shape)
        we, bound = _ziggurat_exp()
        v, hi, lo = self._peek(lanes)
        layer, ri = ((v >> _U3) & _LOW8).astype(np.intp), v >> _U11
        fast = ri < bound[layer]
        out = np.empty(len(lanes))
        taken = lanes[fast]
        self.hi[taken], self.lo[taken] = hi[fast], lo[fast]
        out[fast] = scale[fast] * (ri[fast].astype(np.float64) * we[layer[fast]])  # numpy's order of products
        scales = iter(scale[~fast].tolist())  # each escape takes the next lane's mean
        out[~fast] = self.escape(lanes[~fast], lambda rng: rng.exponential(next(scales)))
        return out

    def escape(self, lanes: np.ndarray, draw: Callable[[np.random.Generator], _T]) -> list[_T]:
        """``draw(rng)`` for each lane in turn, on a Generator in exactly the
        lane's state: for any draw the lanes do not step themselves. Each lane
        goes on from the state its draw leaves."""
        hi, lo, inc_hi, inc_lo, has_uint32, uinteger = (
            word[lanes].tolist() for word in (self.hi, self.lo, self.inc_hi, self.inc_lo, self.has_uint32, self.uinteger)
        )
        if self._rng is None:
            self._rng = np.random.Generator(np.random.PCG64(0))
        bit_generator = self._rng.bit_generator
        results = []
        for i in range(len(hi)):
            bit_generator.state = _state(hi[i], lo[i], inc_hi[i], inc_lo[i], has_uint32[i], uinteger[i])
            results.append(draw(self._rng))
            state = bit_generator.state
            hi[i], lo[i] = divmod(state["state"]["state"], 1 << 64)
            has_uint32[i], uinteger[i] = state["has_uint32"], state["uinteger"]
        self.hi[lanes], self.lo[lanes], self.has_uint32[lanes], self.uinteger[lanes] = hi, lo, has_uint32, uinteger
        return results


@functools.cache
def _ziggurat_exp() -> tuple[np.ndarray, np.ndarray]:
    """numpy's exponential ziggurat as two tables over its 256 layers: the
    width ``we`` and a bound below which numpy surely accepts ri.

    Each width is read from numpy itself, by one draw on a PCG64 state whose
    next output has ri = 1 in that layer. numpy accepts ri below a table
    value ``ke``, which is 2**53 * we[idx - 1] / we[idx] (we[255] / we[0] in
    layer 0) up to a few units of rounding, and no ri in layer 1. The bound
    is that ratio less a relative 1e-9, far more than those few units.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    inc = 1
    we = np.empty(256)
    for layer in range(256):
        nxt = (1 << 11) | (layer << 3)  # from state high 0 and low nxt, XSL-RR outputs nxt
        state = ((nxt - inc) * _PCG64_MULT_INV) % (1 << 128)
        rng.bit_generator.state = _state(state >> 64, state & ((1 << 64) - 1), 0, inc, 0, 0)
        we[layer] = rng.standard_exponential()
    bound = np.floor(2.0**53 * np.roll(we, 1) / we * (1 - 1e-9)).astype(np.uint64)
    bound[1] = 0
    return we, bound


def _state(hi: int, lo: int, inc_hi: int, inc_lo: int, has_uint32: int, uinteger: int) -> dict:
    """A PCG64 state from its words, in the form of ``Generator.bit_generator.state``."""
    return {
        "bit_generator": "PCG64",
        "state": {"state": (hi << 64) | lo, "inc": (inc_hi << 64) | inc_lo},
        "has_uint32": int(has_uint32),
        "uinteger": uinteger,
    }

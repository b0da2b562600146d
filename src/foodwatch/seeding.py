"""Deterministic seed derivation.

A single run seed fans out to per-module (and per-entity) sub-seeds through a
keyed hash, so any stage can be re-run in isolation and parallel schedules
reproduce the serial output. Python's builtin ``hash`` is randomized per
process and must never be used here.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Sequence

import numpy as np


def derive_seed(seed: int, *parts: object) -> int:
    """Map (seed, parts...) to a stable 64-bit sub-seed.

    Parts are joined by their ``str`` form, so callers should pass primitives
    (module names, user ids, day indices) with stable string representations.
    """
    payload = ":".join([str(int(seed))] + [str(p) for p in parts]).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big")


def make_rng(seed: int, *parts: object) -> np.random.Generator:
    """A numpy Generator seeded from ``derive_seed(seed, *parts)``."""
    return np.random.default_rng(derive_seed(seed, *parts))


def make_rngs(seed: int, keys: Iterable[Sequence[object]]) -> Iterator[np.random.Generator]:
    """One generator per key, each in exactly the state ``make_rng(seed, *key)``
    starts in.

    All keys are seeded in one vectorized batch, and every generator yielded is
    the same object, reseated for the next key: use it up before advancing.
    """
    states = _pcg64_states([derive_seed(seed, *key) for key in keys])
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for state, inc in states:
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,  # no buffered half-word from the previous key
            "uinteger": 0,
        }
        yield rng


# ``np.random.default_rng(seed)`` is ``PCG64(SeedSequence(seed))``. Both
# seeding algorithms and their constants are fixed by NEP 19's stream
# stability promise, which lets ``make_rngs`` reproduce them exactly.
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # SeedSequence entropy mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # SeedSequence.generate_state
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


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


def _pcg64_states(seeds: Sequence[int]) -> list[tuple[int, int]]:
    """PCG64's (state, inc) after seeding from ``SeedSequence(s)``, per seed."""
    w = [word.astype(np.uint64) for word in _seed_sequence_words(seeds)]
    s_hi, s_lo, i_hi, i_lo = ((w[2 * k] | (w[2 * k + 1] << np.uint64(32))).tolist() for k in range(4))
    states = []
    for sh, sl, ih, il in zip(s_hi, s_lo, i_hi, i_lo):
        # pcg_setseq_128_srandom_r: state 0, one step, add the seed, one step
        inc = ((((ih << 64) | il) << 1) | 1) & _M128
        state = ((inc + ((sh << 64) | sl)) * _PCG64_MULT + inc) & _M128
        states.append((state, inc))
    return states

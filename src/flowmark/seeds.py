"""Deterministic seed derivation, and numpy generators seeded a block at a time.

All randomized components take a single 64-bit master seed.  Sub-seeds
(per trial, per flow, per pattern) are derived by hashing the master
seed together with a label and counters, so adding trials or reordering
unrelated work never changes the stream an existing trial sees.

The stream of a seed is that of np.random.default_rng(seed).
seeded_generators runs default_rng's SeedSequence mixing for many seeds in
one numpy pass and hands each seed's words to PCG64; at first use it checks
itself against default_rng and, if numpy's seeding differs, falls back to
default_rng for the rest of the process.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BadParameter, BadSeed

SEED_BITS = 64
_SEED_MASK = (1 << SEED_BITS) - 1


def check_seed(seed: int) -> int:
    """Validate an unsigned 64-bit seed and return it unchanged."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise BadSeed(f"seed must be an int, got {type(seed).__name__}")
    if not 0 <= seed <= _SEED_MASK:
        raise BadSeed(f"seed must fit in {SEED_BITS} unsigned bits, got {seed}")
    return seed


def _encode(part: int | float | str) -> bytes:
    """A seed part's canonical bytes, tagged by type so ("a", 1) and ("a1",) differ."""
    if isinstance(part, bool):
        raise BadSeed("bool is not a valid seed component")
    if isinstance(part, int):
        return b"i" + str(part).encode("ascii")
    if isinstance(part, float):
        return b"f" + struct.pack("<d", part)
    if isinstance(part, str):
        encoded = part.encode("utf-8")
        return b"s" + struct.pack("<I", len(encoded)) + encoded
    raise BadSeed(f"cannot mix {type(part).__name__} into a seed")


def seed_prefix(master: int, *parts: int | float | str):
    """The hash state of derive_seed(master, *parts, ...) before its further parts."""
    check_seed(master)
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<Q", master) + b"".join(map(_encode, parts)))
    return h


def trial_seeds(master: int, label: int | float | str, trials: Iterable[int], k: int) -> list[int]:
    """[derive_seed(master, label, t, i) for t in trials for i in range(k)].

    Each trial's part is hashed once, then each flow index's.
    """
    prefix = seed_prefix(master, label)
    tails = [_encode(i) for i in range(k)]
    digests = []
    for t in trials:
        head = prefix.copy()
        head.update(_encode(t))
        for tail in tails:
            h = head.copy()
            h.update(tail)
            digests.append(h.digest())
    return list(struct.unpack(f"<{len(digests)}Q", b"".join(digests)))


def derive_seed(master: int, *parts: int | float | str) -> int:
    """Mix a master seed with labels/counters into a new 64-bit seed.

    The mix is a keyed blake2b digest over a canonical encoding of the
    parts; each part is tagged by type so ("a", 1) and ("a1",) differ.
    """
    return int.from_bytes(seed_prefix(master, *parts).digest(), "little")


# numpy's SeedSequence constants (a pool of 4 uint32 words).
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return out


# hashmix call c xors its input with _A[c] and multiplies it by _A[c + 1].
_A = _hash_constants(_INIT_A, _MULT_A, 16)
_POOL_XOR = np.array(_A[0:4], np.uint32)[:, None]
_POOL_MUL = np.array(_A[1:5], np.uint32)[:, None]


def _mix_constants() -> tuple[np.ndarray, np.ndarray]:
    """Per source column, the hashmix constants of each destination column.

    Source s hashes into the other columns in order, with calls 4 + 3s to
    6 + 3s; its own row stays 0 (that column is not mixed).
    """
    xor, mul = np.zeros((4, 4, 1), np.uint32), np.zeros((4, 4, 1), np.uint32)
    call = 4
    for src in range(4):
        for dst in range(4):
            if dst != src:
                xor[src, dst], mul[src, dst] = _A[call], _A[call + 1]
                call += 1
    return xor, mul


_MIX_XOR, _MIX_MUL = _mix_constants()
_B = _hash_constants(_INIT_B, _MULT_B, 8)
_STATE_XOR = np.array(_B[0:8], np.uint32)[:, None]
_STATE_MUL = np.array(_B[1:9], np.uint32)[:, None]


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    out = values ^ xor
    out *= mul
    out ^= out >> _SHIFT
    return out


def _pcg64_words(seeds: Sequence[int]) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, np.uint64) of each checked seed, one row each."""
    s = np.array(seeds, dtype=np.uint64).reshape(1, -1)
    # A seed's entropy words are its low and high 32 bits (one word below
    # 2**32, which SeedSequence pads with 0) in a pool of 4; uint32 wraps.
    pool = np.concatenate([s & np.uint64(_M32), s >> np.uint64(32), np.zeros((2, s.size), np.uint64)])
    pool = _hashmix(pool.astype(np.uint32), _POOL_XOR, _POOL_MUL)
    for src in range(4):
        hashed = _hashmix(pool[src], _MIX_XOR[src], _MIX_MUL[src])
        mixed = pool * _MIX_L - hashed * _MIX_R
        mixed ^= mixed >> _SHIFT
        mixed[src] = pool[src]
        pool = mixed
    # 8 uint32 words cycled from the pool, paired low-high into uint64.
    words = _hashmix(np.concatenate([pool, pool]), _STATE_XOR, _STATE_MUL).astype(np.uint64)
    return np.ascontiguousarray((words[0::2] | (words[1::2] << np.uint64(32))).T)


class _BlockSeed:
    """One seed's SeedSequence output, computed with the rest of its block.

    PCG64 seeds itself from generate_state(4, np.uint64), so that is all
    this seed sequence answers.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise BadParameter(f"a block seed holds 4 uint64 words, not {n_words} {dtype}")
        return self.words


@functools.cache
def _seed_sequence(base: type) -> type:
    """base as a subclass of numpy's ISeedSequence, which PCG64 checks its seed against.

    Made at first use, not at import, because importing numpy.random is not
    free; a subclass passes the check faster than a registered class.
    """
    return type(base.__name__, (base, np.random.bit_generator.ISeedSequence), {})


def _block_generators(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """A generator per checked seed, from one vectorised pass over all of them."""
    block_seed, generator, pcg64 = _seed_sequence(_BlockSeed), np.random.Generator, np.random.PCG64
    return (generator(pcg64(block_seed(w))) for w in _pcg64_words(seeds))


_KNOWN_SEEDS = (0, 1, 2**32 - 1, 2**32, _SEED_MASK)
# Fewer seeds than this are seeded faster one default_rng at a time.
_BLOCK_MIN = 8
_block_seeding: bool | None = None  # whether block seeding matches numpy; None: not checked yet


def _same_stream(rng: np.random.Generator, reference: np.random.Generator) -> bool:
    return rng.bit_generator.state == reference.bit_generator.state and np.array_equal(
        rng.exponential(size=4), reference.exponential(size=4)
    )


def _block_seeding_matches() -> bool:
    """At first call, compare block seeding with default_rng on _KNOWN_SEEDS."""
    global _block_seeding
    if _block_seeding is None:
        try:
            rngs = list(_block_generators(_KNOWN_SEEDS))
        except (TypeError, ValueError):  # a PCG64 that asks for other words
            _block_seeding = False
        else:
            _block_seeding = all(map(_same_stream, rngs, map(np.random.default_rng, _KNOWN_SEEDS)))
    return _block_seeding


def seeded_generators(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """For each seed in turn, a generator at the start of default_rng(seed)'s stream.

    All seeds are checked first.  From _BLOCK_MIN seeds on, their
    SeedSequence mixing runs in one numpy pass.
    """
    checked = [check_seed(seed) for seed in seeds]
    if len(checked) < _BLOCK_MIN or not _block_seeding_matches():
        return map(np.random.default_rng, checked)
    return _block_generators(checked)

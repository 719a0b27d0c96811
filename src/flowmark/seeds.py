"""Deterministic seed derivation, and numpy generators seeded a block at a time.

All randomized components take a single 64-bit master seed.  Sub-seeds
(per trial, per flow, per pattern) are derived by hashing the master
seed together with a label and counters, so adding trials or reordering
unrelated work never changes the stream an existing trial sees.

The stream of a seed is that of np.random.default_rng(seed).
seeded_generators runs default_rng's SeedSequence mixing for many seeds in
one numpy pass and hands each seed's words to PCG64.

block_exponentials goes on from those words to the first standard
exponentials of every seed at once: PCG64's state after j steps is linear in
its seed words, and most draws take the exponential ziggurat's fast path,
which reads one output.  The ziggurat's layer widths are read from numpy at
first use, by one draw per layer from a PCG64 set to output that layer.  It
marks the draws it is sure of.

Both rest on one first-use check against default_rng on a few known seeds;
if it fails, every seed goes through default_rng and no block draw is sure.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from typing import Iterator, Sequence

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


def check_seeds(seeds: Sequence[int]) -> Sequence[int]:
    """The seeds, checked in one pass when all are ints in range; else the first bad one raises."""
    if set(map(type, seeds)) <= {int} and 0 <= min(seeds, default=0) and max(seeds, default=0) <= _SEED_MASK:
        return seeds
    return [check_seed(seed) for seed in seeds]


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


def trial_seeds(master: int, label: int | float | str, trials: Sequence[int], i: int) -> list[int]:
    """derive_seed(master, label, t, i) for each int trial t, each hashed from one copied prefix."""
    if not set(map(type, trials)) <= {int}:
        raise BadSeed("trials must be ints")
    prefix, tail = seed_prefix(master, label), _encode(i)
    digests = []
    for t in trials:
        h = prefix.copy()
        h.update(b"i%d%b" % (t, tail))  # _encode(t) + tail, formatted inline
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
    """The SeedSequence outputs of a block of seeds, one row per seed, handed out in turn.

    PCG64 seeds itself from generate_state(4, np.uint64), so that is all
    this seed sequence answers, with the next seed's row at each call.  One
    object serves the block, not one per seed, so the generators a block
    keeps alive give the garbage collector fewer objects to trace.
    """

    def __init__(self, words: np.ndarray):
        self.rows = iter(words)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
            raise BadParameter(f"a block seed holds 4 uint64 words, not {n_words} {dtype}")
        return next(self.rows)


@functools.cache
def _seed_sequence(base: type) -> type:
    """base as a subclass of numpy's ISeedSequence, which PCG64 checks its seed against.

    Made at first use, not at import, because importing numpy.random is not
    free; a subclass passes the check faster than a registered class.
    """
    return type(base.__name__, (base, np.random.bit_generator.ISeedSequence), {})


def _block_generators(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """A generator per checked seed, from one vectorised pass over all of them."""
    block_seed = _seed_sequence(_BlockSeed)(_pcg64_words(seeds))
    generator, pcg64 = np.random.Generator, np.random.PCG64
    return (generator(pcg64(block_seed)) for _ in seeds)


_KNOWN_SEEDS = (0, 1, 2**32 - 1, 2**32, _SEED_MASK)
# Fewer seeds than this are seeded faster one default_rng at a time.
_BLOCK_MIN = 8


def seeded_generators(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """For each seed in turn, a generator at the start of default_rng(seed)'s stream.

    All seeds are checked first.  From _BLOCK_MIN seeds on, their
    SeedSequence mixing runs in one numpy pass.
    """
    checked = check_seeds(seeds)
    if len(checked) < _BLOCK_MIN or not _matches_numpy():
        return map(np.random.default_rng, checked)
    return _block_generators(checked)


# numpy's PCG64 (pcg64.h) steps a 128-bit LCG, then outputs the state's XSL-RR.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U64, _U128 = (1 << 64) - 1, (1 << 128) - 1


@functools.cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """numpy's we_double, and per layer a lower bound on its fast-path threshold ke_double.

    Layer i's width is the draw ri = 1 in it: one PCG64 is set through its
    public state so that its next outputs are 1 << 11 | i << 3, then 1 (a
    state whose high word is 0 outputs its low word, and the increment links
    the two).  U = 0 after it makes layer 1, which has no fast path, accept.
    numpy's ke[i] is floor(2**53 * we[i-1] / we[i]) give or take 3 (ke[0]
    uses we[255] / we[0], and ke[1] is 0); the bound stays 2**10 below that.
    """
    bit_generator, inverse, we = np.random.PCG64(0), pow(_PCG_MULT, -1, 1 << 128), np.empty(256)
    rng, state = np.random.Generator(bit_generator), bit_generator.state
    for layer in range(256):
        first = 1 << 11 | layer << 3
        inc = (1 - first * _PCG_MULT) & _U128  # the next two states are (0, first) and (0, 1)
        state["state"] = {"state": (first - inc) * inverse & _U128, "inc": inc}
        bit_generator.state = state
        we[layer] = rng.standard_exponential()
    ke = np.floor(np.roll(we, 1) / we * 2.0**53) - 2.0**10
    ke[1] = 0.0
    return we, ke.clip(0.0).astype(np.uint64)


@functools.cache
def _pcg64_steps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Output j < n of a seeded PCG64 is the XSL-RR of A_j * s + B_j * inc mod 2**128.

    s and inc are the seed's first and second 128-bit word pairs, inc made
    odd by srandom.  Returns A and B, each as n x 1 uint64 columns of the
    low word's low and high 32 bits, the low word and the high word.
    """
    a, b = _PCG_MULT, _PCG_MULT + 1  # srandom: ((0 * M + inc) + s) * M + inc
    steps = []
    for _ in range(n):
        a, b = a * _PCG_MULT & _U128, (b * _PCG_MULT + 1) & _U128
        steps.append([word for c in (a, b) for word in (c & _M32, c >> 32 & _M32, c & _U64, c >> 64)])
    columns = np.array(steps, np.uint64).reshape(n, 8).T[:, :, None]
    return columns[:4], columns[4:]


def _mul128(hi: np.ndarray, lo: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) * c mod 2**128 in 64-bit words, c as _pcg64_steps gives it; uint64 products wrap."""
    c0, c1, c_lo, c_hi = c
    l0, l1 = lo & _M32, lo >> 32
    low = l0 * c0
    cross = l1 * c0 + (low >> 32)
    mid = l0 * c1 + (cross & _M32)
    return l1 * c1 + (cross >> 32) + (mid >> 32) + lo * c_hi + hi * c_lo, lo * c_lo


def _block_draws(seeds: Sequence[int], n: int) -> tuple[np.ndarray, np.ndarray]:
    """block_exponentials of checked seeds, without the first-use check."""
    # One column per seed while computing: numpy loops fastest over the long axis.
    s_hi, s_lo, seq_hi, seq_lo = _pcg64_words(seeds).T[:, None]
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    a, b = _pcg64_steps(n)
    p_hi, p_lo = _mul128(s_hi, s_lo, a)
    q_hi, q_lo = _mul128(inc_hi, inc_lo, b)
    lo = p_lo + q_lo
    hi = p_hi + q_hi + (lo < p_lo)
    out = hi ^ lo
    rot = hi >> 58
    out = out >> rot | out << ((64 - rot) & 63)
    # random_standard_exponential's fast path: 3 bits dropped, 8 pick the layer.
    we, ke = _ziggurat()
    out >>= 3
    layer = (out & 0xFF).astype(np.intp)
    out >>= 8
    draws = out.view(np.int64).astype(np.float64) * we.take(layer)  # out < 2**53 converts exactly
    sure = np.logical_and.accumulate(out < ke.take(layer), axis=0)
    return np.ascontiguousarray(draws.T), np.ascontiguousarray(sure.T)


@functools.cache
def _matches_numpy() -> bool:
    """Whether block seeding and block draws give default_rng's streams on _KNOWN_SEEDS.

    Checked once per process, at first use: the block generators' states
    must equal default_rng's, and the sure ones of 128 block draws must be
    its first exponentials.  Equal states make equal streams.
    """
    expected = list(map(np.random.default_rng, _KNOWN_SEEDS))
    try:
        rngs = list(_block_generators(_KNOWN_SEEDS))
    except (TypeError, ValueError):  # a PCG64 that asks for other words
        return False
    if [rng.bit_generator.state for rng in rngs] != [rng.bit_generator.state for rng in expected]:
        return False
    draws, sure = _block_draws(_KNOWN_SEEDS, 128)
    first = np.array([rng.standard_exponential(128) for rng in expected])
    return np.array_equal(draws[sure], first[sure])


def block_exponentials(seeds: Sequence[int], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first n standard exponentials of each seed's default_rng stream, in one numpy pass.

    Returns draws and sure, both one row per seed: draws[r, j] is
    default_rng(seeds[r]).standard_exponential(n)[j] wherever sure[r, j]
    holds.  A draw is sure when it and every draw before it in its row took
    the ziggurat's fast path, which reads one PCG64 output; the other paths
    read more, so the columns after one are not numpy's.  All seeds are
    checked first.  If the known-seed check at first use fails, no draw is
    sure for the rest of the process.
    """
    draws, sure = _block_draws(check_seeds(seeds), n)
    sure &= _matches_numpy()
    return draws, sure

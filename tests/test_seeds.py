"""Seed derivation, block seeding and block draws against numpy's own default_rng."""

import decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowmark import PoissonModel, derive_seed, flow_model, seeds
from flowmark.errors import BadParameter, BadSeed, FlowmarkError
from flowmark.flow_model import generate_block
from flowmark.seeds import (
    block_exponentials,
    check_seed,
    check_seeds,
    seed_prefix,
    seeded_generators,
    trial_seeds,
)

SEEDS = st.integers(0, 2**64 - 1)
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 12345]


def states(generators) -> list[dict]:
    return [rng.bit_generator.state for rng in generators]


def default_rng_states(block: list[int]) -> list[dict]:
    return states(map(np.random.default_rng, block))


class AskingForMoreWords(seeds._BlockSeed):
    """Stands in for a PCG64 that asks its seed sequence for other words."""

    def generate_state(self, n_words, dtype=np.uint32):
        return super().generate_state(2 * n_words, dtype)


class SwappedWords(seeds._BlockSeed):
    """Hands PCG64 its words in the wrong order: no error, but other states."""

    def generate_state(self, n_words, dtype=np.uint32):
        return super().generate_state(n_words, dtype)[::-1]


class TestBlockSeeding:
    @given(block=st.lists(SEEDS, min_size=1, max_size=60))
    @example(block=EDGE_SEEDS)
    def test_block_words_and_states_are_default_rng_ones(self, block):
        words = seeds._pcg64_words(block)
        expected = [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in block]
        assert words.tobytes() == np.array(expected).tobytes()
        assert states(seeds._block_generators(block)) == default_rng_states(block)

    @given(block=st.lists(SEEDS, max_size=60))
    def test_generator_states_are_default_rng_states(self, block):
        assert states(seeded_generators(block)) == default_rng_states(block)

    @settings(max_examples=50)
    @given(block=st.lists(SEEDS, min_size=seeds._BLOCK_MIN, max_size=20))
    def test_draws_are_default_rng_draws(self, block):
        drawn = [rng.exponential(size=40).tobytes() for rng in seeded_generators(block)]
        assert drawn == [np.random.default_rng(s).exponential(size=40).tobytes() for s in block]

    def test_block_seeding_is_used_on_this_numpy(self):
        assert seeds._matches_numpy()
        with mock.patch.object(seeds, "_block_generators", wraps=seeds._block_generators) as spy:
            list(seeded_generators(range(seeds._BLOCK_MIN - 1)))
            assert spy.call_count == 0
            list(seeded_generators(range(seeds._BLOCK_MIN)))
            assert spy.call_count == 1

    @pytest.mark.parametrize("bad", [1.5, 2.0, -1, 2**64, True, "3", None])
    def test_every_seed_is_checked(self, bad):
        for block in ([3, bad], [3] * seeds._BLOCK_MIN + [bad]):
            with pytest.raises(BadSeed):
                seeded_generators(block)


ALL_ONES = 2**64 - 1
ZIGGURAT = seeds._ziggurat


def pcg64_with_outputs(first: int, second: int) -> np.random.PCG64:
    """A PCG64 set through its public state so that its next two outputs are these.

    A state whose high word is 0 outputs its low word, so the states after
    the two steps are (0, first) and (0, second); the increment that links
    them must be odd, so first and second must differ in parity.
    """
    mult, mask = seeds._PCG_MULT, 2**128 - 1
    inc = (second - first * mult) & mask
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": (first - inc) * pow(mult, -1, 2**128) & mask, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bit_generator


def ziggurat_output(ri: int, layer: int) -> int:
    """The PCG64 output random_standard_exponential reads as ri in this layer."""
    return ri << 11 | layer << 3


def fast_path(ri: int, layer: int) -> bool:
    """Whether numpy's exponential reads one output only, here where U = 1 - 2**-53 follows.

    At U that close to 1, the slow path of every layer but the base one
    rejects and draws again, and the base one reads U too.
    """
    bit_generator = pcg64_with_outputs(ziggurat_output(ri, layer), ALL_ONES)
    np.random.Generator(bit_generator).standard_exponential()
    return int(bit_generator.random_raw()) == ALL_ONES


def ziggurat_widths() -> list[float]:
    """we_double from the exponential ziggurat's recurrence, run to 40 digits.

    Layer 255 ends at r; each layer has area v = (r + 1) exp(-r), so the one
    below ends at -ln(v / x + exp(-x)), and the base layer is v / exp(-r) wide.
    """
    ctx = decimal.Context(prec=40)
    r = decimal.Decimal("7.6971174701310497140446280481")
    v = ctx.multiply(r + 1, ctx.exp(-r))
    x = [r]
    for _ in range(254):
        x.append(-ctx.ln(ctx.add(ctx.divide(v, x[-1]), ctx.exp(-x[-1]))))
    x.append(ctx.divide(v, ctx.exp(-r)))
    return [float(ctx.divide(end, 2**53)) for end in reversed(x)]


class TestBlockDraws:
    def test_layer_widths_are_the_recurrence(self):
        we, _ = seeds._ziggurat()
        assert we.tolist() == ziggurat_widths()

    def test_layer_widths_are_numpys(self):
        # ri = 1 draws the layer's width; U = 0 after it makes layer 1, which
        # has no fast path, accept it on its slow path.
        we, _ = seeds._ziggurat()
        for layer in range(256):
            rng = np.random.Generator(pcg64_with_outputs(ziggurat_output(1, layer), 1))
            assert rng.standard_exponential() == we[layer]

    def test_thresholds_are_at_most_numpys(self):
        _, ke = seeds._ziggurat()
        assert ke[1] == 0
        for layer in range(256):
            lo, hi = 0, 2**53  # numpy's threshold: the least ri its fast path rejects
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (mid + 1, hi) if fast_path(mid, layer) else (lo, mid)
            assert ke[layer] <= lo
            assert lo - ke[layer] <= 2**10 + 4  # close enough that few draws fall back

    @settings(max_examples=50)
    @given(block=st.lists(SEEDS, max_size=40), n=st.integers(0, 300))
    @example(block=EDGE_SEEDS, n=64)
    def test_sure_draws_are_default_rng_draws(self, block, n):
        draws, sure = block_exponentials(block, n)
        assert draws.shape == sure.shape == (len(block), n)
        for seed, row, known in zip(block, draws, sure):
            expected = np.random.default_rng(seed).standard_exponential(n)
            assert row[known].tobytes() == expected[known].tobytes()
            assert known.tolist() == sorted(known.tolist(), reverse=True)  # a prefix

    def test_a_slow_path_draw_ends_the_sure_draws(self):
        second = int(np.random.default_rng(1).bit_generator.random_raw(2)[1])
        assert not fast_path(second >> 11, second >> 3 & 0xFF)
        assert block_exponentials([1], 4)[1].tolist() == [[True, False, False, False]]

    def test_every_seed_is_checked(self):
        for bad in (1.5, -1, 2**64, True, "3"):
            with pytest.raises(BadSeed):
                block_exponentials([3, bad], 4)


@pytest.fixture
def fresh_check():
    """The first-use check is made afresh in the test and forgotten after it."""
    seeds._matches_numpy.cache_clear()
    yield
    seeds._matches_numpy.cache_clear()


@pytest.mark.parametrize(
    "breakage",
    [
        ("_MIX_L", np.uint32(0xCA01F9DF)),  # block words differ from SeedSequence's
        ("_BlockSeed", AskingForMoreWords),
        ("_ziggurat", lambda: (ZIGGURAT()[0], np.full(256, 2**53, np.uint64))),
        ("_ziggurat", lambda: (np.nextafter(ZIGGURAT()[0], np.inf), ZIGGURAT()[1])),
        ("_BlockSeed", SwappedWords),
    ],
    ids=["wrong-mixing", "other-words-asked", "thresholds-too-high", "widths-one-ulp-wide",
         "swapped-words"],
)
def test_failed_known_seed_check_keeps_numpys_bits(fresh_check, breakage):
    # 100 rows of 0.9 s flows take the block_exponentials pass while it is
    # on; 4.5 s flows are too wide for it and seed a generator per row.
    model, chosen = PoissonModel(2.8615), [derive_seed(4, "fallback", i) for i in range(100)]
    assert len(chosen) >= flow_model._PASS_MIN_ROWS
    widths = [flow_model.draw_width(model, d) for d in (0.9, 4.5)]
    assert widths[0] <= flow_model._PASS_MAX_WIDTH < widths[1]
    expected = [generate_block(model, d, chosen).tobytes() for d in (0.9, 4.5)]
    seeds._matches_numpy.cache_clear()
    sure_drawn = []

    def recorded(*args):
        draws, sure = block_exponentials(*args)
        sure_drawn.append(sure.any())
        return draws, sure

    with mock.patch.object(seeds, *breakage):
        assert not seeds._matches_numpy()
        with mock.patch.object(seeds, "_block_generators") as block_generators, mock.patch.object(
            flow_model, "block_exponentials", recorded
        ):
            assert states(seeded_generators(EDGE_SEEDS * 2)) == default_rng_states(EDGE_SEEDS * 2)
            fallback = [generate_block(model, d, chosen).tobytes() for d in (0.9, 4.5)]
        assert block_generators.call_count == 0
        assert sure_drawn == [False]  # the 0.9 s block took the pass and kept no draw
    assert fallback == expected
    seeds._matches_numpy.cache_clear()
    assert seeds._matches_numpy()


class TestDerivation:
    @given(
        master=SEEDS,
        label=st.one_of(st.integers(-(2**70), 2**70), st.floats(), st.text(max_size=8)),
        trials=st.lists(st.integers(-(2**70), 2**70), max_size=12),
        k=st.integers(0, 7),
        other=st.sampled_from([True, 1.0, "1", np.int64(1)]),
    )
    @example(master=0, label="mc", trials=[2**64 + 1, -1, 2**64, 0, -(2**70)], k=2, other=False)
    def test_trial_seeds_are_derive_seeds(self, master, label, trials, k, other):
        # Any int trials, in any order: a stage draws only the trials still alive.
        for i in range(k):
            assert trial_seeds(master, label, trials, i) == [derive_seed(master, label, t, i) for t in trials]
        with pytest.raises(BadSeed):
            trial_seeds(master, label, [*trials, other], 0)

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.0, True])
    def test_bad_seed_is_a_toolkit_error_and_a_value_or_type_error(self, bad):
        for call in (check_seed, derive_seed, seed_prefix, lambda m: trial_seeds(m, "mc", [0], 0)):
            with pytest.raises(BadSeed) as info:
                call(bad)
            assert isinstance(info.value, (FlowmarkError, ValueError, TypeError))
        with pytest.raises(ValueError):
            check_seed(-1)
        with pytest.raises(TypeError):
            check_seed(1.0)

    @given(
        block=st.lists(
            st.one_of(SEEDS, SEEDS, st.integers(-(2**70), 2**70), st.booleans(), st.floats()),
            max_size=12,
        )
    )
    def test_a_block_of_seeds_fails_as_its_first_bad_seed(self, block):
        errors = []
        for seed in block:
            try:
                check_seed(seed)
            except BadSeed as exc:
                errors.append(exc)
        if not errors:
            assert check_seeds(block) == block
            return
        with pytest.raises(BadSeed) as info:
            check_seeds(block)
        assert (type(info.value), str(info.value)) == (type(errors[0]), str(errors[0]))

    @pytest.mark.parametrize("part", [True, None, b"x", (1,)])
    def test_bad_part_is_bad_seed(self, part):
        with pytest.raises(BadSeed, match="seed"):
            derive_seed(1, part)


def test_block_seed_asked_for_other_words_is_a_toolkit_error():
    block_seed = seeds._BlockSeed(seeds._pcg64_words([1]))
    with pytest.raises(BadParameter) as info:
        block_seed.generate_state(8, np.uint32)
    assert isinstance(info.value, FlowmarkError) and isinstance(info.value, ValueError)

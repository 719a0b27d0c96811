"""Seed derivation and block seeding against numpy's own default_rng."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowmark import PoissonModel, derive_seed, seeds
from flowmark.errors import BadParameter, BadSeed, FlowmarkError
from flowmark.flow_model import generate_block
from flowmark.seeds import check_seed, seed_prefix, seeded_generators, trial_seeds

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


class TestBlockSeeding:
    @settings(deadline=None)
    @given(block=st.lists(SEEDS, min_size=1, max_size=60))
    @example(block=EDGE_SEEDS)
    def test_block_words_and_states_are_default_rng_ones(self, block):
        words = seeds._pcg64_words(block)
        expected = [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in block]
        assert words.tobytes() == np.array(expected).tobytes()
        assert states(seeds._block_generators(block)) == default_rng_states(block)

    @settings(deadline=None)
    @given(block=st.lists(SEEDS, max_size=60))
    def test_generator_states_are_default_rng_states(self, block):
        assert states(seeded_generators(block)) == default_rng_states(block)

    @settings(deadline=None, max_examples=50)
    @given(block=st.lists(SEEDS, min_size=seeds._BLOCK_MIN, max_size=20))
    def test_draws_are_default_rng_draws(self, block):
        drawn = [rng.exponential(size=40).tobytes() for rng in seeded_generators(block)]
        assert drawn == [np.random.default_rng(s).exponential(size=40).tobytes() for s in block]

    def test_block_seeding_is_used_on_this_numpy(self):
        assert seeds._block_seeding_matches()
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

    @pytest.mark.parametrize(
        "breakage",
        [
            ("_MIX_L", np.uint32(0xCA01F9DF)),  # block words differ from SeedSequence's
            ("_BlockSeed", AskingForMoreWords),
        ],
        ids=["wrong-mixing", "other-words-asked"],
    )
    def test_failed_known_seed_check_falls_back_to_default_rng(self, breakage):
        model, chosen = PoissonModel(2.8615), [derive_seed(4, "fallback", i) for i in range(30)]
        expected = generate_block(model, 4.5, chosen)
        with mock.patch.object(seeds, *breakage), mock.patch.object(seeds, "_block_seeding", None):
            assert not seeds._block_seeding_matches()
            with mock.patch.object(seeds, "_block_generators") as block_generators:
                assert states(seeded_generators(EDGE_SEEDS * 2)) == default_rng_states(EDGE_SEEDS * 2)
                fallback = generate_block(model, 4.5, chosen)
            assert block_generators.call_count == 0
        for got, want in zip(fallback, expected):
            assert got.tobytes() == want.tobytes()
        assert seeds._block_seeding_matches()


class TestDerivation:
    @given(
        master=SEEDS,
        label=st.one_of(st.integers(-(2**70), 2**70), st.floats(), st.text(max_size=8)),
        first=st.integers(-(2**70), 2**70),
        count=st.integers(0, 12),
        k=st.integers(0, 7),
    )
    def test_trial_seeds_are_derive_seeds(self, master, label, first, count, k):
        trials = range(first, first + count)
        expected = [derive_seed(master, label, t, i) for t in trials for i in range(k)]
        assert trial_seeds(master, label, trials, k) == expected

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.0, True])
    def test_bad_seed_is_a_toolkit_error_and_a_value_or_type_error(self, bad):
        for call in (check_seed, derive_seed, seed_prefix, lambda m: trial_seeds(m, "mc", [0], 1)):
            with pytest.raises(BadSeed) as info:
                call(bad)
            assert isinstance(info.value, (FlowmarkError, ValueError, TypeError))
        with pytest.raises(ValueError):
            check_seed(-1)
        with pytest.raises(TypeError):
            check_seed(1.0)

    @pytest.mark.parametrize("part", [True, None, b"x", (1,)])
    def test_bad_part_is_bad_seed(self, part):
        with pytest.raises(BadSeed, match="seed"):
            derive_seed(1, part)


def test_block_seed_asked_for_other_words_is_a_toolkit_error():
    block_seed = seeds._BlockSeed(seeds._pcg64_words([1])[0])
    with pytest.raises(BadParameter) as info:
        block_seed.generate_state(8, np.uint32)
    assert isinstance(info.value, FlowmarkError) and isinstance(info.value, ValueError)

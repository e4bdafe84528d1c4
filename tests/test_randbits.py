"""The canonical bit stream and its samplers.

Claims pinned here: block j equals the j-th output of splitmix64 seeded
with the stream seed (checked against the published reference vector);
bits come off each block MSB-first; stream_position counts every
consumed bit exactly; bernoulli_pow2 stops at the first 1 and succeeds
with probability exactly 2**-t; child seeds are a fixed function of
(seed, index); seeds and indices are read by the library's integer rule.
"""

import warnings
from unittest import mock

import numpy as np
import pytest

from fpcount.randbits import (
    MAX_SCAN,
    BitSource,
    BitStream,
    ScriptedBitSource,
    child_seed,
    mix64,
    stream_block,
    stream_skip,
)

# splitmix64 reference outputs for state 0 (widely published test vector)
SPLITMIX64_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


class TestStreamBlocks:
    def test_reference_vector(self):
        assert [stream_block(0, j) for j in range(3)] == SPLITMIX64_SEED0

    def test_mix64_masks_to_64_bits(self):
        assert mix64((1 << 64) + 5) == mix64(5)
        assert 0 <= mix64(2**64 - 1) < 2**64

    def test_seed_masked(self):
        assert BitSource(2**64 + 3).seed == 3

    def test_seeds_are_read_by_the_integer_rule(self):
        # a numpy seed reads the same stream as the int, with no overflow
        # warning from the scalar mix; a float is refused by name
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            src = BitSource(np.uint64(3))
            assert src.take_bits(200) == BitSource(3).take_bits(200)
            assert child_seed(np.uint64(3), np.int64(2)) == child_seed(3, 2)
        for make in (lambda: BitSource(1.5), lambda: child_seed(1.5, 0)):
            with pytest.raises(ValueError, match="^seed 1.5 is not an integer$"):
                make()

    def test_blocks_differ_across_seeds_and_indices(self):
        blocks = {stream_block(s, j) for s in range(4) for j in range(4)}
        assert len(blocks) == 16


class TestBitSource:
    def test_take_64_is_block_zero(self):
        for seed in (0, 1, 0xDEADBEEF):
            assert BitSource(seed).take_bits(64) == stream_block(seed, 0)

    def test_bits_are_msb_first(self):
        seed = 7
        block = stream_block(seed, 0)
        src = BitSource(seed)
        bits = [src.next_bit() for _ in range(64)]
        assert bits == [(block >> (63 - i)) & 1 for i in range(64)]

    def test_take_bits_spans_block_boundaries(self):
        seed = 99
        a = BitSource(seed)
        joined = (a.take_bits(40) << 50) | a.take_bits(50)
        b = BitSource(seed)
        assert joined == b.take_bits(90)
        two_blocks = (stream_block(seed, 0) << 64) | stream_block(seed, 1)
        assert joined == two_blocks >> (128 - 90)

    def test_take_zero_bits(self):
        src = BitSource(5)
        assert src.take_bits(0) == 0
        assert src.stream_position == 0

    def test_position_counts_every_bit(self):
        src = BitSource(11)
        src.take_bits(3)
        src.next_bit()
        src.take_bits(70)
        assert src.stream_position == 74

    @pytest.mark.parametrize(
        "make", [lambda: BitSource(11), lambda: ScriptedBitSource("010101")],
        ids=["BitSource", "ScriptedBitSource"],
    )
    def test_negative_counts_are_refused(self, make):
        src = make()
        src.take_bits(3)
        with pytest.raises(ValueError, match="^bit count -1 is negative$"):
            src.take_bits(-1)
        with pytest.raises(ValueError, match="^scan length -2 is negative$"):
            src.bernoulli_pow2(-2)
        assert src.stream_position == 3

    def test_uniform53_consumes_53_bits(self):
        src = BitSource(2)
        u = src.next_uniform53()
        assert src.stream_position == 53
        assert 0.0 <= u < 1.0
        # the draw is the top 53 bits of the stream as a dyadic rational
        assert u == BitSource(2).take_bits(53) * 2.0**-53


class TestScriptedBitSource:
    def test_replays_script(self):
        src = ScriptedBitSource("0110")
        assert [src.next_bit() for _ in range(4)] == [0, 1, 1, 0]

    def test_accepts_iterables(self):
        assert ScriptedBitSource([1, 0, 1]).take_bits(3) == 0b101

    def test_exhaustion(self):
        src = ScriptedBitSource("01")
        src.take_bits(2)
        with pytest.raises(RuntimeError):
            src.next_bit()

    def test_remaining(self):
        src = ScriptedBitSource("0000")
        src.take_bits(3)
        assert src.remaining == 1

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            ScriptedBitSource("012")

    def test_uniform53_dyadic_values(self):
        assert ScriptedBitSource("0" * 53).next_uniform53() == 0.0
        assert ScriptedBitSource("1" + "0" * 52).next_uniform53() == 0.5
        assert ScriptedBitSource("1" * 53).next_uniform53() == (2**53 - 1) / 2**53


class TestBernoulliPow2:
    def test_t_zero_always_succeeds_without_bits(self):
        src = ScriptedBitSource("")
        assert src.bernoulli_pow2(0) is True
        assert src.stream_position == 0

    def test_stops_at_first_one(self):
        src = ScriptedBitSource("001")
        assert src.bernoulli_pow2(3) is False
        assert src.stream_position == 3
        src = ScriptedBitSource("1")
        assert src.bernoulli_pow2(8) is False
        assert src.stream_position == 1

    def test_succeeds_only_on_all_zeros(self):
        src = ScriptedBitSource("0000")
        assert src.bernoulli_pow2(4) is True
        assert src.stream_position == 4

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_exhaustive_success_probability(self, t):
        # over all 2**t equally likely scripts exactly one succeeds
        successes = 0
        for word in range(1 << t):
            script = format(word, f"0{t}b")
            src = ScriptedBitSource(script)
            if src.bernoulli_pow2(t):
                successes += 1
                assert src.stream_position == t
            else:
                # consumed exactly up to and including the first 1
                assert script[src.stream_position - 1] == "1"
                assert "1" not in script[: src.stream_position - 1]
        assert successes == 1

    def test_same_logic_on_the_real_source(self):
        # the production source must agree with a script of its own bits
        seed = 31337
        prefix = [BitSource(seed).next_bit()]
        src_real = BitSource(seed)
        src_script = ScriptedBitSource(
            [(stream_block(seed, 0) >> (63 - i)) & 1 for i in range(20)]
        )
        for t in (1, 3, 5):
            assert src_real.bernoulli_pow2(t) == src_script.bernoulli_pow2(t)
            assert src_real.stream_position == src_script.stream_position
        assert prefix[0] == (stream_block(seed, 0) >> 63) & 1

    def test_a_long_scan_is_a_loop(self):
        # 10**5 zero bits span 1563 blocks, far past the recursion limit, so
        # a scan that recursed into each new block would fail here
        src = BitSource(0)
        with mock.patch("fpcount.randbits.stream_block", lambda seed, index: 0):
            assert src.bernoulli_pow2(10**5) is True
        assert src.stream_position == 10**5
        # the rest of block 1562 is 0, and block 1563 holds one 1, at its bit
        # 63 - 10 = 53: a scan of 200 bits fails there, and takes it
        one = 1563 * 64 + 53
        with mock.patch(
            "fpcount.randbits.stream_block",
            lambda seed, index: 1 << 10 if index == 1563 else 0,
        ):
            assert src.bernoulli_pow2(200) is False
            assert src.stream_position == one + 1
            assert src.bernoulli_pow2(200) is True
        assert src.stream_position == one + 201


class TestStreamSkip:
    def test_refuses_a_scan_past_the_64_bit_window(self):
        # one scan longer than MAX_SCAN is refused before any block is read
        seeds = np.array([1, 2], dtype=np.uint64)
        t = np.array([1, MAX_SCAN + 1], dtype=np.uint64)
        zeros, ones = np.zeros(2, dtype=np.uint64), np.ones(2, dtype=np.uint64)
        with pytest.raises(OverflowError, match="^scan length beyond the 64-bit window$"):
            stream_skip(seeds, zeros, t, ones, ones[None, :], 2)


class TestBitStreamBase:
    def test_next_bit_is_left_to_subclasses(self):
        with pytest.raises(NotImplementedError):
            BitStream().next_bit()
        with pytest.raises(NotImplementedError):
            BitStream().take_bits(1)  # the samplers draw through next_bit


class TestChildSeed:
    def test_definition(self):
        for seed in (0, 1, 2**63):
            for i in (0, 1, 17):
                assert child_seed(seed, i) == mix64(stream_block(seed, i))

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError, match=r"^replicate index -1 is outside 0\.\.inf$"):
            child_seed(1, -1)
        with pytest.raises(ValueError, match="^replicate index 0.5 is not an integer$"):
            child_seed(1, 0.5)

    def test_children_distinct(self):
        kids = {child_seed(1, i) for i in range(1000)}
        assert len(kids) == 1000

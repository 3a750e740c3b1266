"""Unit tests for the scalar 64-bit mixers."""

import pytest

from repro.hashing.mix import _SM_GAMMA, MASK64, fmix64, mix2, splitmix64


# Two combiners no hash family uses, kept as checks on mix2's mixing.
def mix3(a, b, c):
    return fmix64((mix2(a, b) * _SM_GAMMA + c) & MASK64)


def to_unit(h):
    """Top 53 bits onto [0, 1): exact, and strictly below 1.0."""
    return ((h & MASK64) >> 11) * (1.0 / (1 << 53))


class TestSplitmix64:
    def test_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    def test_within_64_bits(self):
        for x in (0, 1, MASK64, 2**63, 12345678901234567890):
            assert 0 <= splitmix64(x) <= MASK64

    def test_distinct_on_sequential_inputs(self):
        outputs = {splitmix64(i) for i in range(10_000)}
        assert len(outputs) == 10_000

    def test_known_reference_value(self):
        # splitmix64 of state 0 (first output of the reference generator).
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_avalanche_rough(self):
        # Flipping one input bit should flip roughly half the output bits.
        base = splitmix64(0x12345678)
        flipped = splitmix64(0x12345678 ^ 1)
        differing = bin(base ^ flipped).count("1")
        assert 10 <= differing <= 54


class TestFmix64:
    def test_deterministic_and_bounded(self):
        assert fmix64(99) == fmix64(99)
        assert 0 <= fmix64(99) <= MASK64

    def test_bijective_on_sample(self):
        outputs = {fmix64(i) for i in range(20_000)}
        assert len(outputs) == 20_000

    def test_zero_fixed_point(self):
        # fmix64 famously maps 0 -> 0 (xor/multiply structure).
        assert fmix64(0) == 0

    def test_handles_values_above_64_bits(self):
        assert fmix64(2**64 + 5) == fmix64(5)


class TestMixCombiners:
    def test_mix2_asymmetric(self):
        assert mix2(1, 2) != mix2(2, 1)

    def test_mix2_sensitive_to_both_arguments(self):
        assert mix2(1, 2) != mix2(1, 3)
        assert mix2(1, 2) != mix2(4, 2)

    def test_mix3_differs_from_mix2(self):
        assert mix3(1, 2, 3) != mix2(1, 2)

    def test_mix3_order_sensitive(self):
        assert mix3(1, 2, 3) != mix3(3, 2, 1)

    def test_bounded(self):
        assert 0 <= mix2(MASK64, MASK64) <= MASK64
        assert 0 <= mix3(MASK64, MASK64, MASK64) <= MASK64


class TestToUnit:
    def test_range(self):
        for x in (0, 1, MASK64, 2**63):
            assert 0.0 <= to_unit(x) < 1.0

    def test_monotone_scaling(self):
        assert to_unit(0) == 0.0
        assert to_unit(2**63) == pytest.approx(0.5)
        assert to_unit(MASK64) == pytest.approx(1.0, abs=1e-15)

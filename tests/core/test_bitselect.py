"""Unit tests for static and dynamic bit selection."""

import numpy as np
import pytest

from repro.core.bitselect import DynamicBitSelector, StaticBitSelector
from repro.errors import ConfigurationError


class TestStaticBitSelector:
    def test_paper_window_bits_14_to_21(self):
        selector = StaticBitSelector(bits=8, low_bit=14)
        assert selector.shift_for(0) == 14
        # A value with known bits in the window.
        value = 0b1010_1010 << 14
        out = selector.compress(np.array([value]), 0)
        assert out[0] == 0b1010_1010

    def test_saturation_above_window(self):
        selector = StaticBitSelector(bits=4, low_bit=4)
        # Bit 8 set: above the window [4, 8) -> saturate to 0b1111.
        out = selector.compress(np.array([1 << 8]), 0)
        assert out[0] == 0b1111

    def test_bits_below_window_dropped(self):
        selector = StaticBitSelector(bits=4, low_bit=4)
        out = selector.compress(np.array([0b1111]), 0)
        assert out[0] == 0

    def test_window_exceeding_width_rejected(self):
        with pytest.raises(ConfigurationError):
            StaticBitSelector(bits=12, low_bit=14)

    def test_invalid_low_bit(self):
        with pytest.raises(ConfigurationError):
            StaticBitSelector(bits=4, low_bit=-1)


class TestDynamicBitSelector:
    def test_two_guard_bits_above_average(self):
        selector = DynamicBitSelector(bits=6)
        # average = 1000 -> bit_length 10 -> window top 12, shift 6.
        assert selector.shift_for(1000) == 6

    def test_shift_floors_at_zero(self):
        selector = DynamicBitSelector(bits=6)
        assert selector.shift_for(0) == 0
        assert selector.shift_for(3) == 0

    def test_average_value_representable(self):
        selector = DynamicBitSelector(bits=6)
        average = 625_000  # 10M instructions / 16 counters
        shift = selector.shift_for(average)
        compressed = selector.compress(np.array([average]), average)
        assert 0 < compressed[0] <= selector.max_value
        # The average must not saturate: 4x headroom by design.
        assert compressed[0] < selector.max_value

    def test_value_above_window_saturates(self):
        selector = DynamicBitSelector(bits=6)
        average = 1 << 12  # bit_length 13 -> window top at bit 15
        out = selector.compress(np.array([1 << 15]), average)
        assert out[0] == selector.max_value

    def test_four_times_average_representable(self):
        # The two guard bits exist precisely so values a few times the
        # average remain representable without saturating.
        selector = DynamicBitSelector(bits=6)
        average = 1 << 12
        out = selector.compress(np.array([average * 4]), average)
        assert 0 < out[0] <= selector.max_value

    def test_twice_average_not_saturated(self):
        selector = DynamicBitSelector(bits=6)
        average = 1 << 12
        out = selector.compress(np.array([average * 2]), average)
        assert out[0] < selector.max_value

    def test_values_out_of_range_saturate_to_all_ones(self):
        selector = DynamicBitSelector(bits=6)
        out = selector.compress(np.array([1 << 23]), 100)
        assert out[0] == selector.max_value

    def test_negative_average_rejected(self):
        with pytest.raises(ValueError):
            DynamicBitSelector(bits=6).shift_for(-1)

    def test_invalid_bits(self):
        with pytest.raises(ConfigurationError):
            DynamicBitSelector(bits=0)
        with pytest.raises(ConfigurationError):
            DynamicBitSelector(bits=30)

    def test_relative_order_preserved_under_compression(self):
        selector = DynamicBitSelector(bits=6)
        average = 10_000
        counters = np.array([0, 2_000, 8_000, 10_000, 20_000, 39_000])
        out = selector.compress(counters, average)
        assert np.all(np.diff(out) >= 0)

    def test_proportionality_within_window(self):
        # Compression is a right shift: ratios are roughly preserved.
        selector = DynamicBitSelector(bits=8)
        average = 1 << 16
        a, b = 1 << 16, 1 << 15
        out = selector.compress(np.array([a, b]), average)
        assert out[0] == 2 * out[1]

"""Bit selection: compressing 24-bit accumulators into small signatures.

Only a few bits of each accumulator are stored in the signature table
(paper §4.2). Two strategies are implemented:

- :class:`StaticBitSelector` — the prior work's approach: a fixed bit
  window chosen by design exploration (bits 14..21 of each 24-bit
  counter for 32 counters at 10M-instruction intervals).
- :class:`DynamicBitSelector` — this paper's approach: compute the
  average counter value for the interval, keep two bits above the bits
  needed to represent the average (so values up to 4x the average are
  representable), and saturate the selected field to all-ones when a
  more significant bit is set.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ConfigurationError
from repro.core.config import ACCUMULATOR_BITS


class BitSelector(ABC):
    """Strategy interface: compress raw counters into signature values."""

    def __init__(self, bits: int) -> None:
        if not 1 <= bits <= ACCUMULATOR_BITS:
            raise ConfigurationError(
                f"bits must be in [1, {ACCUMULATOR_BITS}], got {bits}"
            )
        self.bits = bits

    @property
    def max_value(self) -> int:
        """Largest representable compressed value (the saturation value)."""
        return (1 << self.bits) - 1

    @abstractmethod
    def shift_for(self, average_counter_value: int) -> int:
        """Return the right-shift applied before masking."""

    def compress(
        self, counters: np.ndarray, average_counter_value: int
    ) -> np.ndarray:
        """Compress raw counters into ``bits``-wide signature values.

        Any counter with a set bit above the selected window saturates
        to the maximum representable value (paper §4.2: "we set all of
        the selected bits to one"). ``counters`` must be non-negative,
        as an accumulator's are; they are not checked again here.
        """
        counters = np.asarray(counters, dtype=np.int64)
        shift = self.shift_for(average_counter_value)
        selected = (counters >> shift) & self.max_value
        overflowed = (counters >> (shift + self.bits)) > 0
        selected = np.where(overflowed, self.max_value, selected)
        return selected.astype(np.int64)


class StaticBitSelector(BitSelector):
    """Fixed bit window (the prior work's statically chosen bits).

    ``low_bit`` is the least significant bit copied; the window is
    ``[low_bit, low_bit + bits)``. The prior work used bits 14..21,
    i.e. ``low_bit=14, bits=8``.
    """

    def __init__(self, bits: int = 8, low_bit: int = 14) -> None:
        super().__init__(bits)
        if not 0 <= low_bit < ACCUMULATOR_BITS:
            raise ConfigurationError(
                f"low_bit must be in [0, {ACCUMULATOR_BITS}), got {low_bit}"
            )
        if low_bit + bits > ACCUMULATOR_BITS:
            raise ConfigurationError(
                f"window [{low_bit}, {low_bit + bits}) exceeds the "
                f"{ACCUMULATOR_BITS}-bit accumulator"
            )
        self.low_bit = low_bit

    def shift_for(self, average_counter_value: int) -> int:
        return self.low_bit


class DynamicBitSelector(BitSelector):
    """Average-driven bit window (this paper's approach, §4.2).

    The number of bits needed to represent the average counter value is
    computed per interval; two guard bits are kept above it so the
    window represents values up to four times the average. The top of
    the selected window sits at ``bit_length(average) + 2``; the window
    is the ``bits`` most significant bits below that point.
    """

    def __init__(self, bits: int = 6) -> None:
        super().__init__(bits)

    def shift_for(self, average_counter_value: int) -> int:
        if average_counter_value < 0:
            raise ValueError(
                "average_counter_value must be non-negative, got "
                f"{average_counter_value}"
            )
        window_top = int(average_counter_value).bit_length() + 2
        return max(window_top - self.bits, 0)

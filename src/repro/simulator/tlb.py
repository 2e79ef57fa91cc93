"""TLB model with fixed miss latency.

Table 1 specifies 8 KB pages with a 30-cycle fixed TLB miss latency.
The TLB itself is modelled as a small fully-associative LRU translation
cache; the latency is applied by the core model.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TLBConfig:
    """Geometry of the TLB.

    Parameters
    ----------
    entries:
        Number of translations held (fully associative, LRU).
    page_bytes:
        Page size; must be a power of two (8 KB per Table 1).
    miss_latency_cycles:
        Fixed penalty applied by the core model per TLB miss.
    """

    entries: int = 64
    page_bytes: int = 8 * 1024
    miss_latency_cycles: int = 30

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ConfigurationError(
                f"TLB entries must be positive, got {self.entries}"
            )
        if self.page_bytes <= 0 or self.page_bytes & (self.page_bytes - 1):
            raise ConfigurationError(
                f"page_bytes must be a power of two, got {self.page_bytes}"
            )
        if self.miss_latency_cycles < 0:
            raise ConfigurationError(
                "miss_latency_cycles must be non-negative, got "
                f"{self.miss_latency_cycles}"
            )

    @property
    def page_shift(self) -> int:
        return self.page_bytes.bit_length() - 1


class TLB:
    """Fully-associative LRU translation lookaside buffer."""

    def __init__(self, config: "TLBConfig | None" = None) -> None:
        self.config = config or TLBConfig()
        self._pages: "OrderedDict[int, None]" = OrderedDict()
        self.accesses = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Translate one byte address; return ``True`` on TLB hit."""
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        page = address >> self.config.page_shift
        self.accesses += 1
        if page in self._pages:
            self._pages.move_to_end(page)
            return True
        self.misses += 1
        self._pages[page] = None
        if len(self._pages) > self.config.entries:
            self._pages.popitem(last=False)
        return False

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def resident_pages(self) -> int:
        return len(self._pages)

    def reset_stats(self) -> None:
        self.accesses = 0
        self.misses = 0

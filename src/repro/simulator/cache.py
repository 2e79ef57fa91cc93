"""Set-associative cache model with LRU replacement.

This is the data/instruction/L2 cache substrate used to calibrate the
per-region event rates of synthetic workloads (DESIGN.md §2). The model
is a functional cache: it tracks tags and replacement state and reports
hits and misses, but does not model timing (timing is the job of
:class:`repro.simulator.core_model.CoreModel`).

The geometry defaults correspond to the paper's Table 1:

- L1 I-cache: 16 KB, 4-way, 32-byte blocks
- L1 D-cache: 16 KB, 4-way, 32-byte blocks
- L2: 128 KB, 8-way, 64-byte blocks
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.errors import ConfigurationError


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of a set-associative cache.

    Parameters
    ----------
    size_bytes:
        Total capacity in bytes. Must be a power of two.
    assoc:
        Number of ways per set. Must be a power of two.
    block_bytes:
        Line size in bytes. Must be a power of two.
    name:
        Human-readable label used in statistics output.
    """

    size_bytes: int
    assoc: int
    block_bytes: int
    name: str = "cache"

    def __post_init__(self) -> None:
        for label, value in (
            ("size_bytes", self.size_bytes),
            ("assoc", self.assoc),
            ("block_bytes", self.block_bytes),
        ):
            if not _is_power_of_two(value):
                raise ConfigurationError(
                    f"{self.name}: {label} must be a positive power of two, "
                    f"got {value}"
                )
        if self.assoc * self.block_bytes > self.size_bytes:
            raise ConfigurationError(
                f"{self.name}: one set ({self.assoc} ways x "
                f"{self.block_bytes} B) does not fit in {self.size_bytes} B"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets in the cache."""
        return self.size_bytes // (self.assoc * self.block_bytes)

    @property
    def block_shift(self) -> int:
        """log2 of the block size, for address decomposition."""
        return self.block_bytes.bit_length() - 1

    @property
    def index_mask(self) -> int:
        return self.num_sets - 1


@dataclass
class CacheStats:
    """Access counters for one cache instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        """Misses per access; 0.0 when the cache has not been accessed."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return the sum of two stats records (for aggregating runs)."""
        return CacheStats(
            accesses=self.accesses + other.accesses,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            writebacks=self.writebacks + other.writebacks,
        )


class Cache:
    """A set-associative cache with true-LRU replacement.

    The cache tracks block tags only (no data), which is all that is
    needed to measure hit/miss behaviour. Addresses are byte addresses.

    Example
    -------
    >>> cfg = CacheConfig(size_bytes=16 * 1024, assoc=4, block_bytes=32)
    >>> cache = Cache(cfg)
    >>> cache.access(0x1000)   # cold miss
    False
    >>> cache.access(0x1004)   # same block: hit
    True
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        # tags[set][way]; -1 marks an invalid way.
        self._tags = np.full(
            (config.num_sets, config.assoc), -1, dtype=np.int64
        )
        # lru[set][way]: higher value == more recently used.
        self._lru = np.zeros((config.num_sets, config.assoc), dtype=np.int64)
        # dirty[set][way]: line was written (write-back policy).
        self._dirty = np.zeros((config.num_sets, config.assoc), dtype=bool)
        self._use_clock = 0

    # -- address decomposition -------------------------------------------

    def _decompose(self, address: int) -> "tuple[int, int]":
        block = address >> self.config.block_shift
        set_index = block & self.config.index_mask
        tag = block >> (self.config.num_sets.bit_length() - 1)
        return set_index, tag

    # -- public API -------------------------------------------------------

    def access(self, address: int, write: bool = False) -> bool:
        """Access one byte address; return ``True`` on hit.

        On a miss the block is filled (write-allocate), evicting the
        LRU way of its set; evicting a dirty line counts a write-back.
        ``write`` marks the touched line dirty (write-back policy).
        """
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        set_index, tag = self._decompose(address)
        self.stats.accesses += 1
        self._use_clock += 1

        ways = self._tags[set_index]
        hit_ways = np.nonzero(ways == tag)[0]
        if hit_ways.size:
            way = int(hit_ways[0])
            self._lru[set_index, way] = self._use_clock
            if write:
                self._dirty[set_index, way] = True
            self.stats.hits += 1
            return True

        # Miss: fill into the invalid way if any, else evict true LRU.
        invalid = np.nonzero(ways == -1)[0]
        if invalid.size:
            victim = int(invalid[0])
        else:
            victim = int(np.argmin(self._lru[set_index]))
            if self._dirty[set_index, victim]:
                self.stats.writebacks += 1
        self._tags[set_index, victim] = tag
        self._lru[set_index, victim] = self._use_clock
        self._dirty[set_index, victim] = write
        self.stats.misses += 1
        return False

    def access_many(self, addresses: Iterable[int]) -> int:
        """Access a sequence of addresses; return the number of misses."""
        misses_before = self.stats.misses
        for address in addresses:
            self.access(int(address))
        return self.stats.misses - misses_before

    def contains(self, address: int) -> bool:
        """Check residency without touching stats or LRU state."""
        set_index, tag = self._decompose(address)
        return bool(np.any(self._tags[set_index] == tag))

    def flush(self) -> None:
        """Invalidate every line; statistics are preserved.

        Dirty lines are dropped without counting write-backs (an
        invalidating flush, matching SimpleScalar's cache_flush).
        """
        self._tags.fill(-1)
        self._lru.fill(0)
        self._dirty.fill(False)
        self._use_clock = 0

    def reset_stats(self) -> None:
        """Zero the statistics counters; contents are preserved."""
        self.stats = CacheStats()

    @property
    def resident_blocks(self) -> int:
        """Number of valid lines currently held."""
        return int(np.count_nonzero(self._tags != -1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cfg = self.config
        return (
            f"Cache({cfg.name}: {cfg.size_bytes}B {cfg.assoc}-way "
            f"{cfg.block_bytes}B blocks, miss_rate="
            f"{self.stats.miss_rate:.4f})"
        )


class CacheHierarchy:
    """A two-level hierarchy: split L1 I/D in front of a unified L2.

    ``access_instruction`` and ``access_data`` return ``(l1_hit, l2_hit)``
    where ``l2_hit`` is ``None`` when the L1 hit (the L2 was not
    consulted). This mirrors the paper's Table 1 hierarchy.
    """

    def __init__(
        self,
        icache: Optional[Cache] = None,
        dcache: Optional[Cache] = None,
        l2: Optional[Cache] = None,
    ) -> None:
        self.icache = icache or Cache(
            CacheConfig(16 * 1024, 4, 32, name="il1")
        )
        self.dcache = dcache or Cache(
            CacheConfig(16 * 1024, 4, 32, name="dl1")
        )
        self.l2 = l2 or Cache(CacheConfig(128 * 1024, 8, 64, name="ul2"))

    def access_instruction(self, address: int) -> "tuple[bool, Optional[bool]]":
        if self.icache.access(address):
            return True, None
        return False, self.l2.access(address)

    def access_data(self, address: int) -> "tuple[bool, Optional[bool]]":
        if self.dcache.access(address):
            return True, None
        return False, self.l2.access(address)

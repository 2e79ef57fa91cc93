"""Compressed interval signatures.

A :class:`Signature` is the compressed per-interval code vector that is
stored in and compared against the signature table: one small integer
per accumulator counter (6 bits each by default). Signatures are value
objects — hashing and equality are defined over the vector contents so
they behave well in tests and caches.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError


class Signature:
    """An immutable compressed code signature.

    Parameters
    ----------
    values:
        Compressed counter values (non-negative small integers).
    bits:
        Width each value was compressed to (for range validation).
    """

    __slots__ = ("_values", "bits", "_total")

    def __init__(self, values: Iterable[int], bits: int) -> None:
        array = np.asarray(list(values) if not isinstance(
            values, np.ndarray) else values, dtype=np.int64)
        if array.ndim != 1 or array.size == 0:
            raise ConfigurationError(
                "signature values must be a non-empty 1-D vector"
            )
        if bits < 1:
            raise ConfigurationError(f"bits must be >= 1, got {bits}")
        if np.any(array < 0) or np.any(array > (1 << bits) - 1):
            raise ConfigurationError(
                f"signature values out of range for {bits} bits"
            )
        array.setflags(write=False)
        self._values = array
        self.bits = bits
        self._total = int(array.sum())

    @classmethod
    def from_compressed(cls, values: np.ndarray, bits: int) -> "Signature":
        """Wrap a bit selector's output without re-checking it.

        ``values`` must be a fresh 1-D ``int64`` array whose entries are
        already in ``[0, 2**bits)`` — what
        :meth:`~repro.core.bitselect.BitSelector.compress` returns. The
        interval-boundary path builds every signature this way; the
        constructor keeps its checks for snapshots and direct callers.
        The array is frozen in place, not copied.
        """
        signature = cls.__new__(cls)
        values.setflags(write=False)
        signature._values = values
        signature.bits = bits
        signature._total = int(values.sum())
        return signature

    @property
    def values(self) -> np.ndarray:
        """The (read-only) compressed counter vector."""
        return self._values

    @property
    def dimensions(self) -> int:
        return int(self._values.shape[0])

    @property
    def total(self) -> int:
        """Sum of the vector's components (used for distance scaling)."""
        return self._total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return self.bits == other.bits and np.array_equal(
            self._values, other._values
        )

    def __hash__(self) -> int:
        return hash((self.bits, self._values.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        head = ", ".join(str(v) for v in self._values[:8])
        ellipsis = ", ..." if self.dimensions > 8 else ""
        return f"Signature([{head}{ellipsis}], bits={self.bits})"

"""Sparse value memory used by the functional simulator.

Stores word values keyed by byte address.  This is the *contents* of the
unified virtual address space — data is logically identical wherever the
page physically resides, so migration is purely a timing concern and the
functional simulator shares one instance for CPU and GPU.
"""

from __future__ import annotations

from typing import Dict

#: default operand for ``load_many``'s mapped ``dict.get`` (one warp wide,
#: sliced to the lane count; grown on demand for wider requests)
_ZEROS = (0,) * 32


class SparseMemory:
    """Word-granular sparse memory (reads of untouched words return 0.0/0)."""

    def __init__(self) -> None:
        self._words: Dict[int, float] = {}

    def load(self, addr: int, width: int = 4) -> float:
        return self._words.get(addr, 0)

    def store(self, addr: int, value, width: int = 4) -> None:
        self._words[addr] = value

    def load_many(self, addrs, width: int = 4) -> list:
        """Batch :meth:`load`: one call for a warp's worth of lanes.

        ``map`` keeps the per-lane dict lookups in C."""
        n = len(addrs)
        if n <= 32:
            return list(map(self._words.get, addrs, _ZEROS[:n]))
        get = self._words.get
        return [get(a, 0) for a in addrs]

    def store_many(self, addrs, values, width: int = 4) -> None:
        """Batch :meth:`store` for parallel ``addrs``/``values`` sequences.

        ``dict.update`` consumes the zip in C; later duplicates overwrite
        earlier ones exactly like the serial store loop did."""
        self._words.update(zip(addrs, values))

    def atomic(self, addr: int, op: str, value, compare=None):
        """Atomic read-modify-write; returns the old value."""
        old = self._words.get(addr, 0)
        if op == "add":
            self._words[addr] = old + value
        elif op == "max":
            self._words[addr] = max(old, value)
        elif op == "min":
            self._words[addr] = min(old, value)
        elif op == "exch":
            self._words[addr] = value
        elif op == "cas":
            if old == compare:
                self._words[addr] = value
        else:
            raise ValueError(f"unknown atomic op {op!r}")
        return old

    def fill(self, base: int, values, width: int = 4) -> None:
        """Bulk-store ``values`` starting at ``base`` with ``width`` stride."""
        addr = base
        for v in values:
            self._words[addr] = v
            addr += width

    def read_array(self, base: int, count: int, width: int = 4) -> list:
        return [self._words.get(base + i * width, 0) for i in range(count)]

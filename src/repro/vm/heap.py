"""Device-side heap allocator (the substrate behind the ``MALLOC`` opcode).

Models a Halloc-style high-throughput GPU allocator: the heap is split into
per-warp arenas so concurrent warps allocate without synchronizing (the
lock-free design of [1] in the paper), each arena serving requests from
size-class slabs with free-lists.  Allocations return *virtual* addresses in
the heap segment; physical backing is committed lazily on first touch, which
is exactly the fault class use case 2 handles locally on the GPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


class HeapExhausted(Exception):
    """Raised when an arena cannot satisfy an allocation."""


_SIZE_CLASSES = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


def _size_class(size: int) -> int:
    for cls in _SIZE_CLASSES:
        if size <= cls:
            return cls
    # Large allocations are rounded to page multiples.
    page = 4096
    return ((size + page - 1) // page) * page


@dataclass
class _Arena:
    base: int
    size: int
    cursor: int = 0
    free_lists: Dict[int, List[int]] = field(default_factory=dict)
    live: Dict[int, int] = field(default_factory=dict)  # addr -> class


class DeviceHeap:
    """Per-warp-arena bump + free-list allocator over a virtual segment."""

    def __init__(self, base: int, size: int, num_arenas: int) -> None:
        if num_arenas <= 0:
            raise ValueError("need at least one arena")
        if size % num_arenas:
            size -= size % num_arenas
        self.base = base
        self.size = size
        arena_size = size // num_arenas
        self._arenas = [
            _Arena(base=base + i * arena_size, size=arena_size)
            for i in range(num_arenas)
        ]

    @property
    def num_arenas(self) -> int:
        return len(self._arenas)

    def malloc(self, arena_id: int, size: int) -> int:
        """Allocate ``size`` bytes from ``arena_id``'s arena; returns VA."""
        return self.malloc_many(arena_id, (size,))[0]

    def malloc_many(self, arena_id: int, sizes) -> List[int]:
        """Allocate each of ``sizes`` in order from one arena (a warp's
        MALLOC, one size per active lane); returns the VAs.  A failing
        request raises with the earlier ones still allocated."""
        arena = self._arenas[arena_id % len(self._arenas)]
        free_lists, live = arena.free_lists, arena.live
        addrs = []
        for size in sizes:
            if size <= 0:
                raise ValueError("allocation size must be positive")
            cls = _size_class(size)
            free = free_lists.get(cls)
            if free:
                addr = free.pop()
            else:
                if arena.cursor + cls > arena.size:
                    raise HeapExhausted(
                        f"arena {arena_id}: {cls}B request, "
                        f"{arena.size - arena.cursor}B left"
                    )
                addr = arena.base + arena.cursor
                arena.cursor += cls
            live[addr] = cls
            addrs.append(addr)
        return addrs

    def free(self, arena_id: int, addr: int) -> None:
        self.free_many(arena_id, (addr,))

    def free_many(self, arena_id: int, addrs) -> None:
        """Free each of ``addrs`` in order (a warp's FREE); a bad address
        raises with the earlier ones already freed."""
        arena = self._arenas[arena_id % len(self._arenas)]
        free_lists, live = arena.free_lists, arena.live
        for addr in addrs:
            cls = live.pop(addr, None)
            if cls is None:
                raise ValueError(f"free of unallocated address {addr:#x}")
            free_lists.setdefault(cls, []).append(addr)

    def bytes_live(self) -> int:
        return sum(sum(a.live.values()) for a in self._arenas)

    def bytes_touched(self) -> int:
        """High-water mark of heap bytes ever handed out (drives how many
        heap pages will ever be first-touched)."""
        return sum(a.cursor for a in self._arenas)

"""Physical page-frame allocator.

A bitmap allocator over the GPU's physical page pool.  The GPU-local fault
handler (use case 2) runs an instance of this allocator *on the GPU*; to keep
CPU- and GPU-side allocations from colliding, the physical address space can
be partitioned (paper Section 4.2: "address space ... partitioning techniques
are used to minimise the contention").
"""

from __future__ import annotations

from typing import List, Optional


class OutOfPhysicalMemory(Exception):
    """Raised when the frame pool is exhausted."""


class FrameAllocator:
    """Bitmap allocator handing out physical page frame numbers."""

    def __init__(self, num_frames: int, first_frame: int = 0) -> None:
        if num_frames <= 0:
            raise ValueError("num_frames must be positive")
        self.num_frames = num_frames
        self.first_frame = first_frame
        self._free: List[bool] = [True] * num_frames
        self._hint = 0
        self._allocated = 0

    @property
    def free_frames(self) -> int:
        return self.num_frames - self._allocated

    def allocate(self) -> int:
        """Allocate one frame; raises :class:`OutOfPhysicalMemory` when full."""
        if self._allocated == self.num_frames:
            raise OutOfPhysicalMemory("no free frames")
        idx = self._hint
        for _ in range(self.num_frames):
            if self._free[idx]:
                self._free[idx] = False
                self._allocated += 1
                self._hint = (idx + 1) % self.num_frames
                return self.first_frame + idx
            idx = (idx + 1) % self.num_frames
        raise OutOfPhysicalMemory("no free frames")  # pragma: no cover

    def release(self, frame: int) -> None:
        idx = frame - self.first_frame
        if not 0 <= idx < self.num_frames:
            raise ValueError(f"frame {frame} outside pool")
        if self._free[idx]:
            raise ValueError(f"double free of frame {frame}")
        self._free[idx] = True
        self._allocated -= 1

    def partition(self, parts: int) -> List["FrameAllocator"]:
        """Split the (fully free) pool into ``parts`` disjoint allocators.

        Used to give each SM's local fault handler a private slice of the
        physical address space, avoiding cross-SM contention.
        """
        if self._allocated:
            raise ValueError("cannot partition a pool with live allocations")
        if parts <= 0 or parts > self.num_frames:
            raise ValueError("bad partition count")
        base, rem = divmod(self.num_frames, parts)
        out: List[FrameAllocator] = []
        start = self.first_frame
        for i in range(parts):
            size = base + (1 if i < rem else 0)
            out.append(FrameAllocator(size, first_frame=start))
            start += size
        return out

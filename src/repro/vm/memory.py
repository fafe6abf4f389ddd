"""Word memory used by the functional simulator.

Stores word values keyed by byte address.  This is the *contents* of the
unified virtual address space — data is logically identical wherever the
page physically resides, so migration is purely a timing concern and the
functional simulator shares one instance for CPU and GPU.

Two backings hold the words, and every address maps to exactly one of
them:

- a dense float64 *image* per segment passed at construction, one slot
  per 4-byte word offset from the segment base, on an anonymous mapping:
  only pages actually written take memory.  A warp whose lanes are all aligned words of one image loads
  with one gather and stores with one scatter.
- a dict for everything else: segments not passed (a workload's sparse
  heap), shared memory, unaligned words and addresses outside every
  image.

Reads of untouched words return 0 (``0.0`` from an image).  The batch
methods take the interpreter's int64 lane-address vector.
"""

from __future__ import annotations

import mmap
import operator
from bisect import bisect_right
from itertools import repeat
from typing import List, Sequence, Tuple

import numpy as np

#: read-modify-write of each atomic op; ``cas`` (store only when the old
#: value equals ``compare``) is handled inline
_ATOMIC = {
    "add": operator.add,
    "max": max,
    "min": min,
    "exch": lambda old, value: value,
    "cas": None,
}


def _zeros(words: int) -> np.ndarray:
    """float64 zeros on a private anonymous mapping, whose pages the OS
    commits only when first written.  (``np.zeros`` takes its memory from
    malloc, which clears recycled heap memory itself and so commits it.)"""
    buf = mmap.mmap(-1, max(words, 1) * 8, flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buf, dtype=np.float64)


class _Words(dict):
    """The word dict: an untouched word reads 0 and stays untouched."""

    def __missing__(self, addr: int) -> int:
        return 0


def _rmw(words, keys, op: str, values, compare) -> list:
    """Apply atomic ``op`` lane by lane to ``words[key]`` (the word dict
    or an image's memoryview); returns each lane's old value.  Lanes run
    in order, so a repeated key sees the earlier lanes' updates."""
    try:
        fn = _ATOMIC[op]
    except KeyError:
        raise ValueError(f"unknown atomic op {op!r}") from None
    olds = []
    for key, value in zip(keys, values):
        old = words[key]
        olds.append(old)
        if fn is not None:
            words[key] = fn(old, value)
        elif old == compare:
            words[key] = value
    return olds


class SparseMemory:
    """Word-granular memory: dense images for ``segments``, a dict for the
    rest.

    ``segments`` are objects with ``base`` and ``size`` (e.g.
    :class:`~repro.vm.address_space.Segment`).  Pass only densely touched
    ones: an image commits a 4 KiB page per 512 word slots written, the
    dict about 100 bytes per word.  Without segments everything is on the
    dict.
    """

    def __init__(self, segments: Sequence = ()) -> None:
        self._words = _Words()
        segs = sorted(segments, key=lambda s: s.base)
        #: image bases, for :func:`bisect_right`
        self._bases: List[int] = [s.base for s in segs]
        #: ``(base, span_bytes, image, memoryview of image)`` per segment;
        #: the memoryview reads and writes one word as a Python float
        #: about twice as fast as numpy scalar indexing
        self._images: List[Tuple[int, int, np.ndarray, memoryview]] = []
        for s in segs:
            words = (s.size + 3) >> 2
            image = _zeros(words)
            self._images.append((s.base, words << 2, image, memoryview(image)))
        #: where the last image's span ends: lanes at or above it are dict
        #: words (the heap lies far above every other segment)
        self._end = sum(self._images[-1][:2]) if segs else 0

    # -- routing -------------------------------------------------------------

    def _cell(self, addr: int):
        """``(words, key)`` holding the word at ``addr``: an image's
        memoryview and word index, or the word dict and ``addr``."""
        if self._images:
            i = bisect_right(self._bases, addr) - 1
            if i >= 0:
                base, span, _, view = self._images[i]
                off = addr - base
                if off < span and not off & 3:
                    return view, off >> 2
        return self._words, addr

    def _warp_slots(self, addrs: np.ndarray):
        """``(image, view, word indices)`` when every lane of ``addrs`` is
        an aligned word of one image, else ``None``.

        One OR-reduction of the offsets tests them all: a negative offset
        sets the sign bit, an unaligned one a low bit, and the OR bounds
        the largest offset from above (the exact maximum is taken only when
        that bound reaches past the image)."""
        if not self._images or not addrs.size:
            return None
        first = addrs.item(0)
        i = bisect_right(self._bases, first) - 1
        if i < 0:
            return None
        base, span, image, view = self._images[i]
        if first - base >= span:
            return None
        off = addrs - base
        bits = int(np.bitwise_or.reduce(off))
        if bits < 0 or bits & 3 or (bits >= span and int(off.max()) >= span):
            return None
        return image, view, off >> 2

    def _on_dict(self, lanes: List[int]) -> bool:
        """Whether every lane lies above all images (a heap warp), so all
        are dict words.  Other warps route lane by lane."""
        return not self._images or not lanes or min(lanes) >= self._end

    # -- single words ----------------------------------------------------------

    def load(self, addr: int, width: int = 4):
        words, key = self._cell(addr)
        return words[key]

    def store(self, addr: int, value, width: int = 4) -> None:
        words, key = self._cell(addr)
        words[key] = value

    def atomic(self, addr: int, op: str, value, compare=None):
        """Atomic read-modify-write; returns the old value."""
        words, key = self._cell(addr)
        return _rmw(words, (key,), op, (value,), compare)[0]

    # -- one warp's lanes ----------------------------------------------------

    def load_many(self, addrs: np.ndarray, width: int = 4):
        """Batch :meth:`load` over a warp's int64 lane addresses: one gather
        when the lanes share an image, else one value per lane."""
        hit = self._warp_slots(addrs)
        if hit is not None:
            image, _, idx = hit
            return image[idx]
        lanes = addrs.tolist()
        if self._on_dict(lanes):
            # ``map`` keeps the per-lane dict lookups in C
            return list(map(self._words.get, lanes, repeat(0)))
        return [self.load(a) for a in lanes]

    def store_many(self, addrs: np.ndarray, values: np.ndarray,
                   width: int = 4) -> None:
        """Batch :meth:`store` of float64 ``values`` to int64 ``addrs``.

        Lanes take effect in order, so of repeated addresses the last lane
        wins, as with ``dict.update``.  numpy leaves the order of a scatter
        with repeated indices unspecified, so only strictly increasing
        indices (the unit-stride case) scatter in one call."""
        hit = self._warp_slots(addrs)
        if hit is not None:
            image, view, idx = hit
            if len(idx) < 2 or (idx[1:] > idx[:-1]).all():
                image[idx] = values
            else:
                for i, v in zip(idx.tolist(), values.tolist()):
                    view[i] = v
            return
        lanes = addrs.tolist()
        if self._on_dict(lanes):
            self._words.update(zip(lanes, values.tolist()))
            return
        for a, v in zip(lanes, values.tolist()):
            self.store(a, v)

    def atomic_many(self, addrs: np.ndarray, op: str, values: list,
                    compare=None) -> list:
        """Batch :meth:`atomic`: lanes in order, returning each lane's old
        value."""
        hit = self._warp_slots(addrs)
        if hit is not None:
            _, view, idx = hit
            return _rmw(view, idx.tolist(), op, values, compare)
        lanes = addrs.tolist()
        if self._on_dict(lanes):
            return _rmw(self._words, lanes, op, values, compare)
        return [self.atomic(a, op, v, compare) for a, v in zip(lanes, values)]

    # -- bulk host access ----------------------------------------------------

    def _span(self, base: int, count: int, width: int):
        """The image slots of ``count`` words at ``width`` stride from
        ``base`` as one numpy view, when they all lie in one image."""
        if count <= 0 or width <= 0 or width & 3:
            return None
        words, first = self._cell(base)
        if words is self._words:
            return None
        step = width >> 2
        stop = first + (count - 1) * step + 1
        if stop > len(words):
            return None
        return np.asarray(words)[first:stop:step]

    def fill(self, base: int, values: Sequence, width: int = 4) -> None:
        """Bulk-store ``values`` starting at ``base`` with ``width`` stride."""
        span = self._span(base, len(values), width)
        if span is not None:
            span[:] = values
        elif self._images:
            for i, v in enumerate(values):
                self.store(base + i * width, v, width)
        else:
            self._words.update(
                zip(range(base, base + len(values) * width, width), values)
            )

    def read_array(self, base: int, count: int, width: int = 4) -> list:
        span = self._span(base, count, width)
        if span is not None:
            return span.tolist()
        return [self.load(base + i * width, width) for i in range(count)]

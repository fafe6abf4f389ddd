"""Segment-backed :class:`SparseMemory` against the plain word dict.

``_Ref`` is the word store the functional simulator used before segments
got dense images: one dict keyed by byte address.  The property test runs
the same random operations on both (warp loads, stores and atomics, single
words, host fills and reads) and requires every value read to be the same
float64, bit for bit.  The segments are small and the address range
narrow, so warps straddle and leave segments, repeat lanes, hit unaligned
words and read untouched ones.
"""

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vm import SparseMemory

Seg = namedtuple("Seg", "base size")


class _Ref:
    """The reference: every word on one dict."""

    def __init__(self):
        self._words = {}

    def load(self, addr, width=4):
        return self._words.get(addr, 0)

    def store(self, addr, value, width=4):
        self._words[addr] = value

    def atomic(self, addr, op, value, compare=None):
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

    def load_many(self, addrs, width=4):
        return [self.load(a) for a in addrs]

    def store_many(self, addrs, values, width=4):
        self._words.update(zip(addrs, values))

    def atomic_many(self, addrs, op, values, compare=None):
        return [self.atomic(a, op, v, compare) for a, v in zip(addrs, values)]

    def fill(self, base, values, width=4):
        for i, v in enumerate(values):
            self._words[base + i * width] = v

    def read_array(self, base, count, width=4):
        return [self.load(base + i * width) for i in range(count)]


def _bits(values):
    """float64 bytes of ``values``: -0.0, NaN payloads and all."""
    return np.asarray(values, dtype=np.float64).tobytes()


LO, HI = -16, 320  # the address range operations draw from
OPS = ("add", "max", "min", "exch", "cas")

values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, float("nan"), float("inf")]),
    st.floats(width=64, allow_nan=True),
)


@st.composite
def segments(draw):
    """1-3 disjoint segments in [0, 256), bases and sizes unaligned too."""
    cursor, segs = draw(st.integers(0, 12)), []
    for _ in range(draw(st.integers(1, 3))):
        base = cursor + draw(st.integers(0, 9))
        size = draw(st.integers(1, 80))
        segs.append(Seg(base, size))
        cursor = base + size
    return segs


@st.composite
def warp(draw, segs):
    """Lane addresses: a stride walk from a segment's base (stride 0
    repeats one word, a negative stride runs backwards), aligned picks in
    one segment, or anywhere in the range."""
    lanes = draw(st.integers(1, 32))
    kind = draw(st.sampled_from(("stride", "picks", "anywhere")))
    seg = draw(st.sampled_from(segs))
    if kind == "stride":
        start = seg.base + 4 * draw(st.integers(0, max(0, seg.size // 4)))
        stride = draw(st.sampled_from((4, 8, 0, -4, 12, 2)))
        addrs = [start + stride * i for i in range(lanes)]
    elif kind == "picks":
        words = max(1, (seg.size + 3) // 4)
        addrs = [seg.base + 4 * draw(st.integers(0, words - 1))
                 for _ in range(lanes)]
    else:
        addrs = draw(st.lists(st.integers(LO, HI), min_size=lanes,
                              max_size=lanes))
    return np.array(addrs, dtype=np.int64)


@st.composite
def programs(draw):
    segs = draw(segments())
    ops = []
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(
            ("load", "store", "atomic", "load1", "store1", "atomic1",
             "fill", "read")))
        width = draw(st.sampled_from((4, 8)))
        if kind in ("load", "store", "atomic"):
            addrs = draw(warp(segs))
            vals = draw(st.lists(values, min_size=len(addrs),
                                 max_size=len(addrs)))
            ops.append((kind, addrs, vals, draw(st.sampled_from(OPS)),
                        draw(values), width))
        elif kind in ("load1", "store1", "atomic1"):
            ops.append((kind, draw(st.integers(LO, HI)), draw(values),
                        draw(st.sampled_from(OPS)), draw(values), width))
        else:
            base = draw(st.integers(LO, HI))
            vals = draw(st.lists(values, min_size=0, max_size=40))
            ops.append((kind, base, vals, None, None,
                        draw(st.sampled_from((4, 8, 2)))))
    return segs, ops


def _apply(mem, op, ref: bool):
    """One operation on ``mem``; returns what it read."""
    kind, where, vals, atom, compare, width = op
    if kind in ("load", "store", "atomic"):
        addrs = where.tolist() if ref else where
        if kind == "load":
            return mem.load_many(addrs, width)
        if kind == "store":
            mem.store_many(addrs, vals if ref else np.array(vals), width)
            return []
        return mem.atomic_many(addrs, atom, vals, compare)
    if kind == "load1":
        return [mem.load(where, width)]
    if kind == "store1":
        mem.store(where, vals, width)
        return []
    if kind == "atomic1":
        return [mem.atomic(where, atom, vals, compare)]
    if kind == "fill":
        mem.fill(where, vals, width)
        return []
    return mem.read_array(where, len(vals), width)


@settings(max_examples=300)
@given(programs())
def test_segment_images_match_the_word_dict(program):
    segs, ops = program
    ref, mem = _Ref(), SparseMemory(segs)
    for op in ops:
        assert _bits(_apply(mem, op, ref=False)) == _bits(
            _apply(ref, op, ref=True)), op
    every = list(range(LO, HI + 8))
    assert _bits([mem.load(a) for a in every]) == _bits(
        [ref.load(a) for a in every])


@pytest.mark.parametrize("segs", [[], [Seg(0, 256)]],
                         ids=["dict", "image"])
def test_repeated_lanes_last_store_wins(segs):
    mem = SparseMemory(segs)
    addrs = np.array([8, 4, 8, 8, 4], dtype=np.int64)
    mem.store_many(addrs, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert mem.load(8) == 4.0 and mem.load(4) == 5.0


@pytest.mark.parametrize("segs", [[], [Seg(0, 256)]],
                         ids=["dict", "image"])
def test_repeated_lanes_atomic_add_in_lane_order(segs):
    mem = SparseMemory(segs)
    olds = mem.atomic_many(np.array([16, 16, 20, 16], dtype=np.int64), "add",
                           [1.0, 2.0, 5.0, 4.0])
    assert olds == [0, 1.0, 0, 3.0]
    assert mem.load(16) == 7.0 and mem.load(20) == 5.0


def test_unknown_atomic_op_rejected_on_an_image():
    with pytest.raises(ValueError):
        SparseMemory([Seg(0, 64)]).atomic_many(
            np.array([0, 4], dtype=np.int64), "nand", [1.0, 1.0])

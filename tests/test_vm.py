"""Virtual-memory substrate tests: pages, page tables, fault classes,
frame allocation, the device heap and the address space."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vm import (
    FAULT_GRANULARITY_PAGES,
    PAGE_SIZE,
    AddressSpace,
    DeviceHeap,
    FaultClass,
    FrameAllocator,
    HeapExhausted,
    Owner,
    OutOfPhysicalMemory,
    PageTable,
    SegmentKind,
    SparseMemory,
    SystemPageState,
    cache_line,
    fault_group,
    page_base,
    page_number,
    page_offset,
    pages_in_group,
)


class TestPageHelpers:
    def test_page_number(self):
        assert page_number(0) == 0
        assert page_number(PAGE_SIZE - 1) == 0
        assert page_number(PAGE_SIZE) == 1

    def test_base_and_offset_recompose(self):
        addr = 5 * PAGE_SIZE + 123
        assert page_base(addr) + page_offset(addr) == addr

    def test_fault_group_covers_16_pages(self):
        group = fault_group(0)
        pages = list(pages_in_group(group))
        assert len(pages) == FAULT_GRANULARITY_PAGES
        assert pages[0] == 0 and pages[-1] == 15

    @given(st.integers(min_value=0, max_value=2**48 - 1))
    def test_page_invariants(self, addr):
        assert page_base(addr) <= addr
        assert page_base(addr) % PAGE_SIZE == 0
        assert 0 <= page_offset(addr) < PAGE_SIZE
        assert page_number(addr) in pages_in_group(fault_group(addr))

    @given(st.integers(min_value=0, max_value=2**40))
    def test_cache_line_monotonic(self, addr):
        assert cache_line(addr) <= cache_line(addr + 128)


class TestPageTable:
    def test_map_lookup_unmap(self):
        pt = PageTable()
        pt.map(5, 42)
        assert pt.lookup(5).ppn == 42
        assert pt.is_mapped(5)
        entry = pt.unmap(5)
        assert entry.ppn == 42
        assert not pt.is_mapped(5)

    def test_mark_dirty(self):
        pt = PageTable()
        pt.map(1, 2)
        pt.mark_dirty(1)
        assert pt.lookup(1).dirty
        pt.mark_dirty(99)  # non-existent: no-op


class TestSystemPageState:
    def make(self):
        state = SystemPageState()
        state.register_range(0x1000, 2 * PAGE_SIZE, Owner.CPU, cpu_dirty=True)
        state.register_range(0x10000, PAGE_SIZE, Owner.CPU, cpu_dirty=False)
        state.register_range(0x20000, PAGE_SIZE, Owner.NONE)
        return state

    def test_classification(self):
        state = self.make()
        assert state.classify_fault(page_number(0x1000)) is FaultClass.MIGRATE
        assert state.classify_fault(page_number(0x10000)) is FaultClass.ALLOC_ONLY
        assert state.classify_fault(page_number(0x20000)) is FaultClass.FIRST_TOUCH
        assert state.classify_fault(page_number(0x900000)) is FaultClass.INVALID

    def test_install_transfers_ownership(self):
        state = self.make()
        vpn = page_number(0x1000)
        assert state.owner_of(vpn) is Owner.CPU
        state.install_gpu_page(vpn, ppn=7)
        assert state.owner_of(vpn) is Owner.GPU
        assert state.gpu_translate(vpn) == 7
        assert not state.cpu_table.is_mapped(vpn)
        # a second fault on a GPU-owned page needs no migration
        assert state.classify_fault(vpn) is FaultClass.ALLOC_ONLY

    def test_untranslated_page_returns_none(self):
        state = self.make()
        assert state.gpu_translate(page_number(0x20000)) is None


class TestFrameAllocator:
    def test_allocate_unique(self):
        alloc = FrameAllocator(8)
        frames = [alloc.allocate() for _ in range(8)]
        assert sorted(frames) == list(range(8))
        with pytest.raises(OutOfPhysicalMemory):
            alloc.allocate()

    def test_release_and_reuse(self):
        alloc = FrameAllocator(2)
        f0 = alloc.allocate()
        alloc.allocate()
        alloc.release(f0)
        assert alloc.allocate() == f0

    def test_double_free_rejected(self):
        alloc = FrameAllocator(2)
        f = alloc.allocate()
        alloc.release(f)
        with pytest.raises(ValueError, match="double free"):
            alloc.release(f)

    def test_release_out_of_pool_rejected(self):
        alloc = FrameAllocator(2, first_frame=10)
        with pytest.raises(ValueError):
            alloc.release(5)

    def test_partition_disjoint(self):
        alloc = FrameAllocator(10)
        parts = alloc.partition(3)
        frames = [p.allocate() for p in parts for _ in range(p.num_frames)]
        assert sorted(frames) == list(range(10))

    def test_partition_requires_free_pool(self):
        alloc = FrameAllocator(4)
        alloc.allocate()
        with pytest.raises(ValueError):
            alloc.partition(2)

    @given(st.lists(st.sampled_from(["alloc", "free"]), max_size=60))
    @settings(max_examples=50)
    def test_never_double_allocates(self, ops):
        alloc = FrameAllocator(8)
        live = set()
        for op in ops:
            if op == "alloc":
                try:
                    frame = alloc.allocate()
                except OutOfPhysicalMemory:
                    assert len(live) == 8
                    continue
                assert frame not in live
                live.add(frame)
            elif live:
                frame = live.pop()
                alloc.release(frame)
            assert alloc.free_frames == 8 - len(live)


class TestDeviceHeap:
    def test_allocations_disjoint(self):
        heap = DeviceHeap(base=0, size=1 << 16, num_arenas=2)
        addrs = [heap.malloc(0, 64) for _ in range(16)]
        assert len(set(addrs)) == 16
        for a, b in zip(sorted(addrs), sorted(addrs)[1:]):
            assert b - a >= 64

    def test_arenas_do_not_overlap(self):
        heap = DeviceHeap(base=0, size=1 << 16, num_arenas=4)
        a0 = heap.malloc(0, 64)
        a1 = heap.malloc(1, 64)
        assert abs(a1 - a0) >= (1 << 16) // 4

    def test_free_recycles_same_class(self):
        heap = DeviceHeap(base=0, size=1 << 12, num_arenas=1)
        a = heap.malloc(0, 100)  # class 128
        heap.free(0, a)
        assert heap.malloc(0, 120) == a

    def test_exhaustion(self):
        heap = DeviceHeap(base=0, size=256, num_arenas=1)
        heap.malloc(0, 128)
        heap.malloc(0, 128)
        with pytest.raises(HeapExhausted):
            heap.malloc(0, 128)

    def test_warp_calls_match_lane_by_lane_calls(self):
        one, warp = (DeviceHeap(base=0, size=1 << 14, num_arenas=2)
                     for _ in range(2))
        sizes = [16, 100, 16, 3000]
        addrs = warp.malloc_many(1, sizes)
        assert addrs == [one.malloc(1, s) for s in sizes]
        warp.free_many(1, addrs[:2])
        for a in addrs[:2]:
            one.free(1, a)
        assert warp.malloc_many(1, [16, 100]) == [one.malloc(1, 16),
                                                  one.malloc(1, 100)]

    def test_exhaustion_mid_warp_keeps_earlier_lanes(self):
        heap = DeviceHeap(base=0, size=256, num_arenas=1)
        with pytest.raises(HeapExhausted):
            heap.malloc_many(0, [128, 128, 128, 16])
        assert heap.bytes_live() == 256

    def test_bad_free_rejected(self):
        heap = DeviceHeap(base=0, size=1 << 12, num_arenas=1)
        with pytest.raises(ValueError):
            heap.free(0, 0x1234)

    def test_invalid_size_rejected(self):
        heap = DeviceHeap(base=0, size=1 << 12, num_arenas=1)
        with pytest.raises(ValueError):
            heap.malloc(0, 0)

    def test_large_allocation_rounds_to_pages(self):
        heap = DeviceHeap(base=0, size=1 << 16, num_arenas=1)
        heap.malloc(0, 5000)
        assert heap.bytes_touched() == 8192

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 512)), max_size=40
        )
    )
    @settings(max_examples=50)
    def test_live_accounting(self, allocs):
        heap = DeviceHeap(base=0, size=1 << 18, num_arenas=4)
        live = []
        for arena, size in allocs:
            try:
                live.append((arena, heap.malloc(arena, size)))
            except HeapExhausted:
                pass
        for arena, addr in live:
            heap.free(arena, addr)
        assert heap.bytes_live() == 0


class TestAddressSpace:
    def test_layout_deterministic(self):
        def build():
            asp = AddressSpace()
            asp.add_segment("a", 1000, SegmentKind.INPUT)
            asp.add_segment("b", 5000, SegmentKind.OUTPUT)
            return asp

        a1, a2 = build(), build()
        assert a1.segment("a").base == a2.segment("a").base
        assert a1.segment("b").base == a2.segment("b").base

    def test_segments_page_aligned_and_disjoint(self):
        asp = AddressSpace()
        asp.add_segment("a", 100, SegmentKind.INPUT)
        asp.add_segment("b", 100, SegmentKind.INPUT)
        a, b = asp.segment("a"), asp.segment("b")
        assert a.base % PAGE_SIZE == 0
        assert b.base >= a.end

    def test_null_page_unmapped(self):
        asp = AddressSpace()
        asp.add_segment("a", 100, SegmentKind.INPUT)
        assert asp.segment("a").base >= PAGE_SIZE
        assert asp.page_state.classify_fault(0) is FaultClass.INVALID

    def test_kinds_map_to_fault_classes(self):
        asp = AddressSpace()
        asp.add_segment("in", 100, SegmentKind.INPUT)
        asp.add_segment("out", 100, SegmentKind.OUTPUT)
        asp.add_segment("scratch", 100, SegmentKind.SCRATCH)
        asp.add_segment("heap", 100, SegmentKind.HEAP)
        state = asp.page_state
        cls = lambda name: state.classify_fault(
            page_number(asp.segment(name).base)
        )
        assert cls("in") is FaultClass.MIGRATE
        assert cls("out") is FaultClass.FIRST_TOUCH
        assert cls("scratch") is FaultClass.ALLOC_ONLY
        assert cls("heap") is FaultClass.FIRST_TOUCH

    def test_heap_segment_far_from_data(self):
        asp = AddressSpace()
        asp.add_segment("in", 100, SegmentKind.INPUT)
        asp.add_segment("heap", 100, SegmentKind.HEAP)
        assert asp.segment("heap").base >= AddressSpace.HEAP_BASE

    def test_duplicate_name_rejected(self):
        asp = AddressSpace()
        asp.add_segment("x", 100, SegmentKind.INPUT)
        with pytest.raises(ValueError):
            asp.add_segment("x", 100, SegmentKind.INPUT)

    def test_segment_of(self):
        asp = AddressSpace()
        seg = asp.add_segment("x", 100, SegmentKind.INPUT)
        assert asp.segment_of(seg.base + 50) is seg
        assert asp.segment_of(0) is None

    def test_premap_all(self):
        asp = AddressSpace()
        asp.add_segment("in", 3 * PAGE_SIZE, SegmentKind.INPUT)
        asp.add_segment("out", PAGE_SIZE, SegmentKind.OUTPUT)
        frames = FrameAllocator(64)
        asp.premap_all(frames)
        for seg in asp.segments():
            for vpn in seg.pages():
                assert asp.page_state.gpu_translate(vpn) is not None

    def test_premap_kinds_subset(self):
        asp = AddressSpace()
        asp.add_segment("in", PAGE_SIZE, SegmentKind.INPUT)
        asp.add_segment("out", PAGE_SIZE, SegmentKind.OUTPUT)
        frames = FrameAllocator(64)
        asp.premap_kinds(frames, ("input",))
        in_vpn = page_number(asp.segment("in").base)
        out_vpn = page_number(asp.segment("out").base)
        assert asp.page_state.gpu_translate(in_vpn) is not None
        assert asp.page_state.gpu_translate(out_vpn) is None


class TestSparseMemory:
    def test_default_zero(self):
        assert SparseMemory().load(0x1234) == 0

    def test_store_load(self):
        mem = SparseMemory()
        mem.store(0x10, 3.5)
        assert mem.load(0x10) == 3.5

    def test_fill_and_read_array(self):
        mem = SparseMemory()
        mem.fill(0x100, [1, 2, 3], width=4)
        assert mem.read_array(0x100, 3) == [1, 2, 3]

    @pytest.mark.parametrize(
        "op,val,expect_new,expect_old",
        [
            ("add", 5, 15, 10),
            ("max", 5, 10, 10),
            ("min", 5, 5, 10),
            ("exch", 5, 5, 10),
        ],
    )
    def test_atomics(self, op, val, expect_new, expect_old):
        mem = SparseMemory()
        mem.store(0x20, 10)
        old = mem.atomic(0x20, op, val)
        assert old == expect_old
        assert mem.load(0x20) == expect_new

    def test_cas(self):
        mem = SparseMemory()
        mem.store(0x20, 10)
        assert mem.atomic(0x20, "cas", 99, compare=10) == 10
        assert mem.load(0x20) == 99
        assert mem.atomic(0x20, "cas", 5, compare=10) == 99
        assert mem.load(0x20) == 99  # compare failed

    def test_unknown_atomic_rejected(self):
        with pytest.raises(ValueError):
            SparseMemory().atomic(0, "nand", 1)

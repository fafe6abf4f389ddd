"""Memory-hierarchy timing tests: caches, MSHRs, DRAM, TLBs, walkers,
coalescer and the composed subsystem."""

import heapq
import sys
import threading
from array import array
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosConfig, ChaosEngine
from repro.mem import (
    Cache,
    Dram,
    FaultInfo,
    MemorySubsystem,
    Mmu,
    Tlb,
    WalkerPool,
    coalesce,
    coalesce_inst,
)
from repro.functional.trace import WarpTrace
from repro.system import GPUConfig, GpuSimulator, architectural_digest
from repro.vm import CACHE_LINE_SIZE, PAGE_SHIFT
from repro.workloads import MICRO


def _next_level_const(latency=100):
    """A DRAM pipe of unbounded bandwidth: every line is ready
    ``latency`` cycles after it is requested."""
    return Dram(latency=latency, bandwidth_bytes_per_cycle=float("inf"),
                line_size=128)


class TestCache:
    def make(self, **kw):
        defaults = dict(
            name="t", size_bytes=1024, assoc=2, line_size=128, latency=10,
            num_mshrs=4,
        )
        defaults.update(kw)
        return Cache(**defaults)

    def test_miss_then_hit(self):
        cache = self.make()
        nxt = _next_level_const(100)
        t1 = cache.access(0, 0.0, False, nxt)
        assert t1 == 110  # latency + next level
        t2 = cache.access(0, t1 + 1, False, nxt)
        assert t2 == t1 + 1 + 10  # hit
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_secondary_miss_merges(self):
        cache = self.make()
        nxt = _next_level_const(100)
        t1 = cache.access(0, 0.0, False, nxt)
        t2 = cache.access(0, 1.0, False, nxt)
        assert t2 == t1  # merged onto the outstanding fill
        assert cache.stats.secondary_misses == 1
        assert cache.stats.misses == 1

    def test_lru_eviction(self):
        # 1024B/128B/2-way = 4 sets; lines 0, 4, 8 map to set 0
        cache = self.make()
        nxt = _next_level_const(0)
        cache.access(0, 0.0, False, nxt)
        cache.access(4, 100.0, False, nxt)
        cache.access(0, 200.0, False, nxt)  # touch 0 -> 4 becomes LRU
        cache.access(8, 300.0, False, nxt)  # evicts 4
        cache.access(0, 400.0, False, nxt)
        assert cache.probe(0)
        assert not cache.probe(4)
        assert cache.stats.evictions == 1

    def test_mshr_backpressure(self):
        cache = self.make(num_mshrs=2)
        nxt = _next_level_const(100)
        t1 = cache.access(0, 0.0, False, nxt)
        t2 = cache.access(4, 0.0, False, nxt)
        t3 = cache.access(8, 0.0, False, nxt)  # waits for an MSHR
        assert t3 > max(t1, t2)
        assert cache.stats.mshr_stalls == 1

    def test_mshr_wait_charges_unloaded_latency(self):
        """MSHR-stalled requests must not book downstream resources at
        future timestamps (the causality fix)."""
        cache = self.make(num_mshrs=1, next_level_unloaded=100)
        nxt = _next_level_const(100)
        cache.access(0, 0.0, False, nxt)
        t2 = cache.access(4, 0.0, False, nxt)
        # second (stalled) request bypassed next level
        assert nxt.stats.accesses == 1
        assert t2 == pytest.approx(110 + 10 + 100)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            Cache("bad", size_bytes=1000, assoc=3, line_size=128,
                  latency=1, num_mshrs=1)

    def test_flush(self):
        cache = self.make()
        cache.access(0, 0.0, False, _next_level_const(0))
        cache.flush()
        assert not cache.probe(0)

    @given(st.lists(st.integers(0, 16), min_size=1, max_size=60))
    @settings(max_examples=50)
    def test_lru_contents_match_reference(self, lines):
        """Cache tag state must equal a reference LRU model."""
        cache = self.make(num_mshrs=64)
        nxt = _next_level_const(0)
        reference = {s: [] for s in range(cache.num_sets)}
        t = 0.0
        for line in lines:
            t += 1000.0  # far apart: fills always complete
            cache.access(line, t, False, nxt)
            ref_set = reference[line % cache.num_sets]
            if line in ref_set:
                ref_set.remove(line)
            elif len(ref_set) >= cache.assoc:
                ref_set.pop(0)
            ref_set.append(line)
        # present lines agree (pending fills count as present-after-access)
        for line in set(lines):
            t += 1000.0
            before_hits = cache.stats.hits
            cache.access(line, t, False, nxt)
            was_hit = cache.stats.hits == before_hits + 1
            assert was_hit == (line in reference[line % cache.num_sets])
            ref_set = reference[line % cache.num_sets]
            if line in ref_set:
                ref_set.remove(line)
            elif len(ref_set) >= cache.assoc:
                ref_set.pop(0)
            ref_set.append(line)


class TestDram:
    def test_latency_plus_bandwidth(self):
        dram = Dram(latency=200, bandwidth_bytes_per_cycle=256, line_size=128)
        t = dram.reserve_bandwidth(0.0, dram.line_size)
        assert t == pytest.approx(200.5)

    def test_bandwidth_serializes(self):
        dram = Dram(latency=0, bandwidth_bytes_per_cycle=128, line_size=128)
        t1 = dram.reserve_bandwidth(0.0, dram.line_size)
        t2 = dram.reserve_bandwidth(0.0, dram.line_size)
        assert t1 == 1.0 and t2 == 2.0
        assert dram.stats.busy_cycles == 2.0

    def test_reserve_bandwidth_bulk(self):
        dram = Dram(latency=10, bandwidth_bytes_per_cycle=256, line_size=128)
        t = dram.reserve_bandwidth(0.0, 256 * 100)
        assert t == pytest.approx(110.0)


class TestTlb:
    def test_hit_after_insert(self):
        tlb = Tlb("t", entries=8, assoc=4)
        assert tlb.lookup(3) is None
        tlb.insert(3, 30)
        assert tlb.lookup(3) == 30

    def test_lru_within_set(self):
        tlb = Tlb("t", entries=4, assoc=2)  # 2 sets
        tlb.insert(0, 1)
        tlb.insert(2, 2)  # same set as 0
        tlb.lookup(0)  # refresh 0
        tlb.insert(4, 3)  # evicts 2
        assert tlb.lookup(0) == 1
        assert tlb.lookup(2) is None

    def test_invalidate(self):
        tlb = Tlb("t", entries=8, assoc=4)
        tlb.insert(1, 10)
        tlb.invalidate(1)
        assert tlb.lookup(1) is None


class TestWalkerPool:
    def test_walk_latency(self):
        pool = WalkerPool(num_walkers=2, walk_latency=500)
        assert pool.walk(0.0) == 500.0

    def test_pool_exhaustion_queues(self):
        pool = WalkerPool(num_walkers=2, walk_latency=500)
        pool.walk(0.0)
        pool.walk(0.0)
        t3 = pool.walk(0.0)  # waits for a walker
        assert t3 == 1000.0
        assert pool.stall_cycles == 500.0


class TestMmu:
    def make(self, mapping=None):
        mapping = mapping if mapping is not None else {}

        def translate_fn(vpn, time):
            return mapping.get(vpn)

        return Mmu(
            num_sms=2, l1_entries=4, l1_assoc=4, l2_entries=16, l2_assoc=4,
            l2_latency=70, num_walkers=4, walk_latency=500,
            translate_fn=translate_fn,
        ), mapping

    def test_cold_walk_then_warm_hits(self):
        mmu, mapping = self.make({5: 50})
        r1 = mmu.translate(0, 5, 0.0)
        assert not r1.faulted
        assert r1.done_time == pytest.approx(570.0)  # l2 latency + walk
        r2 = mmu.translate(0, 5, r1.done_time + 1)
        assert r2.done_time == r1.done_time + 1  # L1 TLB hit

    def test_pending_walk_merging(self):
        mmu, _ = self.make({5: 50})
        r1 = mmu.translate(0, 5, 0.0)
        r2 = mmu.translate(1, 5, 1.0)  # other SM, walk in flight
        assert r2.done_time == r1.done_time
        assert mmu.l2_tlb.stats.merged_walks == 1
        assert mmu.walkers.walks == 1

    def test_entry_invisible_until_walk_completes(self):
        mmu, _ = self.make({5: 50})
        r1 = mmu.translate(0, 5, 0.0)
        r2 = mmu.translate(0, 5, 10.0)  # same SM, before walk done
        assert r2.done_time == r1.done_time  # merged, not an instant hit

    def test_fault_detected_at_walk_completion(self):
        mmu, _ = self.make({})
        r = mmu.translate(0, 9, 0.0)
        assert r.faulted
        assert r.done_time == pytest.approx(570.0)
        assert mmu.fault_detections == 1

    def test_faulted_page_not_cached_in_tlb(self):
        mmu, mapping = self.make({})
        r1 = mmu.translate(0, 9, 0.0)
        mapping[9] = 90  # fault resolved
        r2 = mmu.translate(0, 9, r1.done_time + 1)
        assert not r2.faulted  # re-walks and finds the new mapping


class TestCoalescer:
    def test_fully_coalesced_warp(self):
        addrs = [4 * i for i in range(32)]
        assert coalesce(addrs) == (0,)

    def test_width8_spans_two_lines(self):
        addrs = [8 * i for i in range(32)]
        assert coalesce(addrs) == (0, 1)

    def test_fully_scattered(self):
        addrs = [CACHE_LINE_SIZE * 7 * i for i in range(32)]
        assert coalesce(addrs) == tuple(7 * i for i in range(32))

    def test_preserves_first_touch_order(self):
        assert coalesce([300, 10, 600]) == (2, 0, 4)

    def test_descending_pair_keeps_first_lane_first(self):
        assert coalesce([4 * (47 - i) for i in range(32)]) == (1, 0)

    @given(st.lists(st.integers(0, 2**30), min_size=1, max_size=32))
    @settings(max_examples=100)
    def test_bounds(self, addrs):
        lines = coalesce(addrs)
        assert 1 <= len(lines) <= len(addrs)
        assert len(set(lines)) == len(lines)
        assert set(lines) == {a // CACHE_LINE_SIZE for a in addrs}


@st.composite
def _lane_addresses(draw):
    """1-32 lane addresses shaped like the warp accesses that reach the
    coalescer's different paths: strided runs, ascending or descending,
    that stay on one line, span two or many, or straddle a page boundary,
    with lanes repeated and shuffled; or arbitrary addresses."""
    if draw(st.booleans()):
        return draw(st.lists(st.integers(0, 2**24), min_size=1, max_size=32))
    page = draw(st.integers(64, 4096))
    # start on a page boundary, just before one (straddles), or inside
    offset = draw(st.sampled_from((0, -4, -64, -CACHE_LINE_SIZE, 1000)))
    stride = draw(st.sampled_from((0, 4, 8, 12, 64, 132, 4096, -4, -8, -260)))
    n = draw(st.integers(1, 32))
    addrs = [(page << PAGE_SHIFT) + offset + i * stride for i in range(n)]
    addrs += addrs[:draw(st.integers(0, n))]  # repeated lanes
    if draw(st.booleans()):
        addrs = draw(st.permutations(addrs))
    return addrs


def _coalesce_fresh_record():
    """A coalesce miss on a fresh warp (runs in a forked child)."""
    warp = WarpTrace(0)
    warp.append(0, 2, array("q", [0, 4096]).tobytes())
    return list(coalesce_inst(warp, 0))


class TestCoalescerCache:
    """``coalesce_inst`` memoizes lines in the warp's store: a hit must be
    what a fresh coalesce returns, and only at the line size it was
    filled at."""

    @given(
        addrs=_lane_addresses(),
        sizes=st.permutations((CACHE_LINE_SIZE, 32)),
    )
    @settings(max_examples=200)
    def test_cached_lines_equal_a_fresh_coalesce(self, addrs, sizes):
        for size in (CACHE_LINE_SIZE, 32):
            assert coalesce(addrs, size) == tuple(
                dict.fromkeys(a // size for a in addrs)
            )
        # the record sits between two others whose lines share the store
        warp = WarpTrace(0)
        for lanes in ([0, 4096], addrs, [8192]):
            warp.append(0, len(lanes), array("q", lanes).tobytes())
        first, second = sizes
        for size in (first, first, second, second, first):
            assert tuple(coalesce_inst(warp, 1, size)) == coalesce(addrs, size)
            assert tuple(coalesce_inst(warp, 0, size)) == coalesce(
                [0, 4096], size)

    def test_forked_child_gets_a_free_memo_lock(self):
        """A child forked while another thread of the parent holds the
        memo lock (a serve worker mid-miss while another worker forks)
        can still coalesce: it would otherwise wait forever on a lock
        no thread of its own holds."""
        import repro.mem.coalescer as coalescer
        from repro.harness.isolation import run_experiment_isolated

        with coalescer._memo_lock:
            out = run_experiment_isolated(
                "memo-after-fork", _coalesce_fresh_record, timeout=30.0)
        assert out == [0, 4096 // CACHE_LINE_SIZE]

    def test_concurrent_cold_runs_match_a_serial_run(self):
        """Threads simulating one trace at once, all from empty stores
        (the in-process serve path runs requests on worker threads),
        come out as a serial run does: none reads an entry another has
        not finished writing."""
        wl = MICRO.fresh("mshr-storm")
        warps = [w for b in wl.trace().blocks for w in b.warps]

        def outcome():
            sim = GpuSimulator.for_workload(wl, "replay-queue",
                                            paging="demand")
            res = sim.run()
            return res.cycles, architectural_digest(
                sim.address_space.page_state, res.sm_stats)

        def cold():
            for w in warps:
                w.coal = None

        cold()
        want = outcome()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for _ in range(3):
                cold()
                got = [None] * 3
                threads = [
                    threading.Thread(
                        target=lambda i=i: got.__setitem__(i, outcome()))
                    for i in range(len(got))
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                    assert not t.is_alive()
                assert got == [want] * len(got)
        finally:
            sys.setswitchinterval(interval)


class TestMemorySubsystem:
    def make(self, mapping=None):
        mapping = mapping if mapping is not None else {}
        config = GPUConfig(num_sms=2)
        return (
            MemorySubsystem(config, translate_fn=lambda v, t: mapping.get(v)),
            mapping,
            config,
        )

    def test_translated_access_completes(self):
        memsys, mapping, config = self.make({0: 0})
        result = memsys.warp_access(0, [4 * i for i in range(32)], False, 0.0)
        assert not result.faulted
        assert result.completion > result.translation_done

    def test_unmapped_page_faults(self):
        memsys, _, _ = self.make({})
        result = memsys.warp_access(0, [0], False, 0.0)
        assert result.faulted
        assert result.faults[0].vpn == 0

    def test_partial_fault_parks_only_faulted_requests(self):
        memsys, _, _ = self.make({0: 0})  # page 0 mapped, page 1 not
        addrs = [0, 4096]
        result = memsys.warp_access(0, addrs, False, 0.0)
        assert len(result.faults) == 1
        assert result.faults[0].vpn == 1

    def test_store_completes_at_write_buffer(self):
        memsys, _, _ = self.make({0: 0})
        load = memsys.warp_access(0, [0], False, 0.0)
        memsys.flush()
        store = memsys.warp_access(0, [0], True, 0.0)
        assert store.completion < load.completion

    def test_ldst_pipe_serializes_requests(self):
        memsys, mapping, _ = self.make({i: i for i in range(64)})
        scattered = [128 * 7 * i for i in range(32)]  # 32 requests
        r1 = memsys.warp_access(0, scattered, False, 0.0)
        # last TLB check can be no earlier than the 32-deep request stream
        assert r1.translation_done >= 32.0

    def test_replay_after_fault_unloaded(self):
        memsys, _, config = self.make({})
        replay = memsys.replay_after_fault(0, [0], resolved_time=10_000.0)
        assert replay.translation_done > 10_000.0
        assert replay.completion > replay.translation_done
        assert not replay.faulted
        # shared accumulators untouched (causality)
        assert memsys.dram._next_free == 0.0
        assert memsys._ldst_free[0] == 0.0


# ---------------------------------------------------------------------------
# Reference memory path: the request-by-request timing that the per-page
# translation and the one-pass cache walk must reproduce exactly.
# ---------------------------------------------------------------------------


def _ref_translate(memsys, sm_id, lines, is_store, now):
    """Every request checks its page in turn; a page is translated when its
    first request reaches the check slot."""
    start0 = max(now, memsys._ldst_free[sm_id])
    memsys._ldst_free[sm_id] = start0 + len(lines)
    page_results = {}
    faults = {}
    ready_lines = []
    translation_done = now
    for i, line in enumerate(lines):
        slot = start0 + i
        vpn = (line * memsys.config.line_size) >> PAGE_SHIFT
        result = page_results.get(vpn)
        if result is None:
            result = memsys.mmu.translate(sm_id, vpn, slot)
            page_results[vpn] = result
            if result.faulted:
                faults[vpn] = FaultInfo(
                    vpn=vpn, detect_time=result.done_time, sm_id=sm_id,
                    is_store=is_store,
                )
        check_done = max(slot + 1, result.done_time)
        translation_done = max(translation_done, check_done)
        if not result.faulted:
            ready_lines.append(line)
    return translation_done, ready_lines, list(faults.values())


def _ref_install(cache, line, dirty):
    cset = cache._sets[line % cache.num_sets]
    if line in cset:
        cset.move_to_end(line)
        if dirty:
            cset[line] = True
        return
    if len(cset) >= cache.assoc:
        victim, _ = cset.popitem(last=False)  # evict LRU
        cache._pending.pop(victim, None)
        cache.stats.evictions += 1
    cset[line] = dirty


def _ref_cache_access(cache, line, now, is_store, next_level_access):
    """One request at one level: a hit, a merge onto an in-flight fill, or
    a primary miss that takes an MSHR and calls the next level."""
    stats = cache.stats
    stats.accesses += 1
    cset = cache._sets[line % cache.num_sets]
    if line in cset:
        pending_fill = cache._pending.get(line)
        if pending_fill is not None and pending_fill > now:
            stats.secondary_misses += 1
            cset.move_to_end(line)
            return max(pending_fill, now + cache.latency)
        cache._pending.pop(line, None)
        stats.hits += 1
        cset.move_to_end(line)
        if is_store:
            cset[line] = True
        return now + cache.latency
    stats.misses += 1
    busy = cache._mshr_busy
    while busy and busy[0] <= now:
        heapq.heappop(busy)
    if len(busy) >= cache.num_mshrs:
        stats.mshr_stalls += 1
        slot = heapq.heappop(busy)
    else:
        slot = now
    if cache.chaos is not None:
        stall = cache.chaos.mshr_exhaustion(now, cache.name)
        if stall:
            stats.mshr_stalls += 1
            slot = max(slot, now + stall)
    if slot <= now:
        ready = next_level_access(now + cache.latency, line, is_store)
    else:
        ready = slot + cache.latency + cache.next_level_unloaded
    heapq.heappush(busy, ready)
    _ref_install(cache, line, is_store)
    cache._pending[line] = ready
    return ready


def _ref_dram_access(dram, now):
    if dram.chaos is not None:
        block = dram.chaos.refresh_storm(now)
        if block:
            dram._next_free = max(dram._next_free, now) + block
            dram.stats.busy_cycles += block
    occupancy = dram.line_size / dram.bytes_per_cycle
    start = max(now, dram._next_free)
    dram._next_free = start + occupancy
    dram.stats.accesses += 1
    dram.stats.bytes_transferred += dram.line_size
    dram.stats.busy_cycles += occupancy
    return start + occupancy + dram.latency


def _ref_data_access(memsys, sm_id, lines, is_store, now, is_atomic):
    def dram(start, line, store):
        return _ref_dram_access(memsys.dram, start)

    def l2(start, line, store):
        return _ref_cache_access(memsys.l2_cache, line, start, store, dram)

    completion = now + memsys.config.l1_latency
    if is_store or is_atomic:
        for line in lines:
            ready = l2(now, line, True)
            if is_atomic:
                completion = max(completion, ready)
        return completion
    l1 = memsys.l1_caches[sm_id]
    for line in lines:
        ready = _ref_cache_access(l1, line, now, False, l2)
        completion = max(completion, ready)
    return completion


#: caches small enough to evict and to exhaust every MSHR pool, TLBs and
#: walkers small enough to miss and queue, and a DRAM pipe whose line
#: occupancy (128 / 48 cycles) is not a binary fraction
_SMALL = GPUConfig(
    num_sms=2,
    l1_size=2048, l1_assoc=2, l1_mshrs=2,
    l2_size=2048, l2_assoc=2, l2_mshrs=4,
    l1_tlb_entries=2, l1_tlb_assoc=2, l2_tlb_entries=4, l2_tlb_assoc=2,
    num_walkers=2, dram_bandwidth_gbps=48.0,
)
_PAGES = 6
_LINES_PER_PAGE = (1 << PAGE_SHIFT) // _SMALL.line_size
_MEM_CHAOS = ChaosConfig(
    cpu_latency_rate=0.0, link_latency_rate=0.0, resolve_delay_rate=0.0,
    storm_rate=0.0, squash_rate=0.0, pkt_drop_rate=0.0,
    pkt_reorder_rate=0.0, alloc_fail_rate=0.0, stream_teardown_rate=0.0,
    tlb_miss_rate=0.1, shootdown_rate=0.05,
    mshr_exhaustion_rate=0.2, refresh_storm_rate=0.2,
)


@st.composite
def _warp_accesses(draw):
    """A run of warp accesses: 1-32 lines on 1-4 pages each, issued by
    either SM, as loads, stores or atomics, at gaps short enough to merge
    onto in-flight fills and walks and long enough to let them finish."""
    accesses = []
    lines = ()
    for _ in range(draw(st.integers(1, 12))):
        if lines and draw(st.booleans()):
            # revisit some of the previous access's lines
            lines = lines[:draw(st.integers(1, len(lines)))]
        else:
            pages = draw(st.lists(st.integers(0, _PAGES - 1), min_size=1,
                                  max_size=4, unique=True))
            lines = tuple(draw(st.lists(
                st.sampled_from([p * _LINES_PER_PAGE + o for p in pages
                                 for o in range(_LINES_PER_PAGE)]),
                min_size=1, max_size=32, unique=True,
            )))
        gap = draw(st.one_of(
            st.just(0.0), st.floats(0.0, 60.0), st.floats(0.0, 3000.0)
        ))
        # (is_store, is_atomic): loads, stores, atomics, store-atomics
        kind = draw(st.sampled_from(
            ((False, False), (False, False), (True, False), (False, True),
             (True, True))
        ))
        accesses.append((draw(st.integers(0, 1)), lines, *kind, gap))
    return accesses


def _memory_path_run(program, accesses, mapped_at, chaos_seed,
                     config=_SMALL):
    """Drive one fresh subsystem through ``accesses`` with the program's
    memory path or the reference; returns what each access reported and
    the state every level is left in."""
    engine = None
    if chaos_seed is not None:
        engine = ChaosEngine(_MEM_CHAOS, seed=chaos_seed)
    memsys = MemorySubsystem(
        config,
        translate_fn=lambda vpn, t: vpn + 1 if t >= mapped_at[vpn] else None,
        chaos=engine,
    )
    log = []
    now = 0.0
    for sm_id, lines, is_store, is_atomic, gap in accesses:
        now += gap
        coalesced = coalesce([line * config.line_size for line in lines],
                             config.line_size)
        if program:
            outcome = memsys.translate_access_coalesced(
                sm_id, coalesced, is_store, now
            )
            done = outcome.translation_done
            ready = list(outcome.ready_lines)
            faults = outcome.faults
            completion = memsys.data_access(
                sm_id, ready, is_store, done, is_atomic=is_atomic
            )
        else:
            done, ready, faults = _ref_translate(
                memsys, sm_id, coalesced, is_store, now
            )
            completion = _ref_data_access(
                memsys, sm_id, ready, is_store, done, is_atomic
            )
        log.append((
            done, ready,
            [(f.vpn, f.detect_time, f.sm_id, f.is_store) for f in faults],
            completion,
        ))
    mmu = memsys.mmu
    caches = memsys.l1_caches + [memsys.l2_cache]
    tlbs = mmu.l1_tlbs + [mmu.l2_tlb]
    state = {
        "caches": [
            (asdict(c.stats), [list(s.items()) for s in c._sets],
             c._pending, c._mshr_busy)
            for c in caches
        ],
        "dram": (asdict(memsys.dram.stats), memsys.dram._next_free),
        "tlbs": [(asdict(t.stats), [list(s.items()) for s in t._sets])
                 for t in tlbs],
        "walks": (mmu.walkers.walks, mmu.walkers.stall_cycles,
                  mmu.fault_detections, mmu._pending_walks),
        "ldst_free": memsys._ldst_free,
        "injections": None if engine is None else dict(engine.injections),
    }
    return log, state


class TestMemoryPathReference:
    """The per-page translation and the one-pass L1 -> L2 -> DRAM walk
    time every access exactly as the request-by-request reference above,
    chaos hooks included, and leave every level in the same state."""

    @given(
        accesses=_warp_accesses(),
        mapped_at=st.lists(
            st.sampled_from((0.0, 400.0, 2500.0, float("inf"))),
            min_size=_PAGES, max_size=_PAGES,
        ),
        chaos_seed=st.none() | st.integers(0, 2**16),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, accesses, mapped_at, chaos_seed):
        ref_log, ref_state = _memory_path_run(
            False, accesses, mapped_at, chaos_seed
        )
        log, state = _memory_path_run(True, accesses, mapped_at, chaos_seed)
        for i, (got, want) in enumerate(zip(log, ref_log)):
            assert got == want, f"access {i}"
        assert state == ref_state

    @given(
        accesses=_warp_accesses(),
        mapped_at=st.lists(
            st.sampled_from((0.0, 400.0, float("inf"))),
            min_size=2 * _PAGES, max_size=2 * _PAGES,
        ),
        # a smaller power of two, and a line that does not divide a page
        config=st.sampled_from((
            _SMALL.with_(line_size=64),
            _SMALL.with_(line_size=96, l1_size=1536, l2_size=1536),
        )),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_at_other_line_sizes(
        self, accesses, mapped_at, config
    ):
        ref = _memory_path_run(False, accesses, mapped_at, None, config)
        assert _memory_path_run(True, accesses, mapped_at, None, config) == ref

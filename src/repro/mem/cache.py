"""Set-associative cache timing model with LRU replacement and MSHRs.

Timing is computed in a single pass per request ("timestamp simulation"):
the cache keeps tag state plus, for in-flight misses, the fill time of each
pending line, so later requests to the same line merge onto the outstanding
MSHR (secondary miss) instead of issuing a duplicate fill.  A bounded MSHR
pool applies back-pressure: when all MSHRs are busy a new primary miss waits
for the earliest release.  :func:`walk` times all the lines of one warp
access through L1, L2 and the DRAM pipe in one pass; :class:`Cache` and
:class:`Dram` hold the state it works on.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    secondary_misses: int = 0
    mshr_stalls: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.__init__()


class Cache:
    """One cache level.

    Args:
        name: for stats/debugging.
        size_bytes / assoc / line_size: geometry (must divide evenly).
        latency: hit latency in cycles (also charged before a miss is
            forwarded to the next level, modeling the tag check).
        num_mshrs: bound on concurrently outstanding primary misses.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        line_size: int,
        latency: int,
        num_mshrs: int,
        next_level_unloaded: float = 0.0,
    ) -> None:
        """``next_level_unloaded`` is the unloaded (contention-free) miss
        latency below this cache.  It is charged to requests that had to
        wait for an MSHR: their service happens at a *future* timestamp, and
        booking the shared downstream resources (DRAM pipe, next-level
        MSHRs) at future times would let one backed-up client poison
        present-time requests from every other client (the accumulator would
        jump far ahead of simulation time).  MSHR-limited clients are
        throttled to ``num_mshrs / fill-latency`` throughput either way, so
        the unloaded approximation changes little while keeping the shared
        accumulators causal."""
        num_lines = size_bytes // line_size
        if num_lines % assoc:
            raise ValueError(f"{name}: lines ({num_lines}) not divisible by assoc")
        self.name = name
        self.line_size = line_size
        self.latency = latency
        self.assoc = assoc
        self.num_sets = num_lines // assoc
        self.num_mshrs = num_mshrs
        self.next_level_unloaded = next_level_unloaded
        # per-set OrderedDict line_tag -> dirty flag (LRU order = insertion)
        self._sets = [OrderedDict() for _ in range(self.num_sets)]
        # line -> fill completion time of the outstanding miss
        self._pending: Dict[int, float] = {}
        # min-heap of outstanding primary-miss completion times (MSHR pool)
        self._mshr_busy: list = []
        # what :func:`walk` loads into locals, in one unpack
        self._walk_locals = (
            self._sets, self.num_sets, assoc, self._pending,
            self._mshr_busy, num_mshrs, latency, next_level_unloaded,
        )
        self.stats = CacheStats()
        self.chaos = None  # set by attach_chaos

    def attach_chaos(self, chaos) -> None:
        """Wire the ``cache.mshr_exhaustion`` injection hook: a primary
        miss stalled as if the whole MSHR pool were transiently busy
        (docs/ROBUSTNESS.md).  ``None`` when chaos is disabled, so the
        access hot path is unchanged without it."""
        from repro.chaos import chaos_active

        self.chaos = chaos_active(chaos)

    def probe(self, line: int) -> bool:
        """Tag check without state change (used by tests)."""
        return line in self._sets[line % self.num_sets]

    def access(
        self, line: int, now: float, is_store: bool, below: "Dram"
    ) -> float:
        """Access ``line`` at time ``now`` with this cache alone in front
        of the DRAM pipe ``below``; returns the data-ready time."""
        return walk(None, self, below, (line,), now, is_store)

    def flush(self) -> None:
        """Drop all state (used between experiment runs)."""
        for cset in self._sets:
            cset.clear()
        self._pending.clear()
        self._mshr_busy.clear()


@dataclass
class DramStats:
    accesses: int = 0
    bytes_transferred: int = 0
    busy_cycles: float = 0.0


class Dram:
    """Simple DRAM: fixed latency plus a shared bandwidth pipe.

    Bandwidth is modeled with a "next free" accumulator: each line transfer
    (timed by :func:`walk`) occupies the pipe for
    ``line_size / bytes_per_cycle`` cycles.
    """

    def __init__(self, latency: int, bandwidth_bytes_per_cycle: float, line_size: int) -> None:
        self.latency = latency
        self.bytes_per_cycle = bandwidth_bytes_per_cycle
        self.line_size = line_size
        self._next_free = 0.0
        self.stats = DramStats()
        self.chaos = None  # set by attach_chaos

    def attach_chaos(self, chaos) -> None:
        """Wire the ``dram.refresh_storm`` injection hook: the shared
        bandwidth pipe blocked for a burst of cycles ahead of a transfer
        (docs/ROBUSTNESS.md).  ``None`` when chaos is disabled."""
        from repro.chaos import chaos_active

        self.chaos = chaos_active(chaos)

    def reserve_bandwidth(self, now: float, nbytes: int) -> float:
        """Occupy the pipe for a bulk transfer (context save/restore, page
        migration landing in GPU memory); returns completion time."""
        if self.chaos is not None:
            # Chaos hook site: an injected refresh burst blocks the pipe
            # ahead of the transfer (timing only).
            block = self.chaos.refresh_storm(now)
            if block:
                self._next_free = max(self._next_free, now) + block
                self.stats.busy_cycles += block
        occupancy = nbytes / self.bytes_per_cycle
        start = max(now, self._next_free)
        self._next_free = start + occupancy
        self.stats.bytes_transferred += nbytes
        self.stats.busy_cycles += occupancy
        return start + occupancy + self.latency

    def flush(self) -> None:
        self._next_free = 0.0


def walk(
    l1: Optional[Cache],
    l2: Cache,
    dram: Dram,
    lines: Sequence[int],
    now: float,
    is_store: bool,
) -> float:
    """Time ``lines`` through ``l1`` -> ``l2`` -> ``dram`` in one pass, every
    request issued at ``now``; returns the latest data-ready time (``now``
    when ``lines`` is empty).

    This is the only implementation of cache and DRAM line timing.  ``l1``
    is ``None`` for requests that bypass it (stores and atomics at the
    no-write-allocate L1); it only ever sees loads.  ``is_store`` marks the
    line dirty in ``l2``.  Each level's sets, pending fills and MSHR heap,
    and the DRAM pipe, are held in locals for the whole access (the L2 and
    DRAM ones from the first request that reaches them), and the frequent
    counters are written back once at the end.

    Per request and level: a tag hit is ready after the hit latency; a hit
    on a line whose fill is still in flight merges onto that MSHR
    (secondary miss); a primary miss takes an MSHR (waiting for the
    earliest release when the pool is full) and goes down a level after
    the tag check.  A miss that had to wait for an MSHR is charged the
    level's unloaded downstream latency instead of booking the shared
    resources below at a future time (see :class:`Cache`).  The
    ``cache.mshr_exhaustion`` and ``dram.refresh_storm`` chaos hooks are
    drawn at their sites, L1 before L2 before DRAM for each request.
    """
    heappop = heapq.heappop
    heappush = heapq.heappush
    latest = now
    below = False  # L2 and DRAM state loaded into locals
    if l1 is not None:
        (sets1, nsets1, assoc1, pend1, mshr1, nmshr1, lat1,
         unl1) = l1._walk_locals
        stats1 = l1.stats
        chaos1 = l1.chaos
        hit1 = now + lat1
        hits1 = misses1 = 0

    for line in lines:
        ready = None
        if l1 is None:
            t = now
        else:
            cset1 = sets1[line % nsets1]
            if line in cset1:
                fill = pend1.get(line)
                cset1.move_to_end(line)
                if fill is not None and fill > now:
                    stats1.secondary_misses += 1
                    ready = max(fill, hit1)
                else:
                    if fill is not None:
                        del pend1[line]
                    hits1 += 1
                    ready = hit1
                if ready > latest:
                    latest = ready
                continue
            misses1 += 1
            while mshr1 and mshr1[0] <= now:
                heappop(mshr1)
            if len(mshr1) >= nmshr1:
                stats1.mshr_stalls += 1
                slot = heappop(mshr1)
            else:
                slot = now
            if chaos1 is not None:
                stall = chaos1.mshr_exhaustion(now, l1.name)
                if stall:
                    stats1.mshr_stalls += 1
                    slot = max(slot, now + stall)
            if slot <= now:
                t = hit1
            else:
                ready = slot + lat1 + unl1

        if ready is None:
            if not below:
                below = True
                (sets2, nsets2, assoc2, pend2, mshr2, nmshr2, lat2,
                 unl2) = l2._walk_locals
                stats2 = l2.stats
                chaos2 = l2.chaos
                acc2 = hits2 = misses2 = d_lines = 0
            acc2 += 1
            cset2 = sets2[line % nsets2]
            if line in cset2:
                fill = pend2.get(line)
                cset2.move_to_end(line)
                if fill is not None and fill > t:
                    stats2.secondary_misses += 1
                    ready = max(fill, t + lat2)
                else:
                    if fill is not None:
                        del pend2[line]
                    hits2 += 1
                    if is_store:
                        cset2[line] = True
                    ready = t + lat2
            else:
                misses2 += 1
                while mshr2 and mshr2[0] <= t:
                    heappop(mshr2)
                if len(mshr2) >= nmshr2:
                    stats2.mshr_stalls += 1
                    slot = heappop(mshr2)
                else:
                    slot = t
                if chaos2 is not None:
                    stall = chaos2.mshr_exhaustion(t, l2.name)
                    if stall:
                        stats2.mshr_stalls += 1
                        slot = max(slot, t + stall)
                if slot <= t:
                    if not d_lines:  # first line transfer: load the pipe
                        d_chaos = dram.chaos
                        d_occ = dram.line_size / dram.bytes_per_cycle
                        d_lat = dram.latency
                        d_free = dram._next_free
                        d_busy = dram.stats.busy_cycles
                    u = t + lat2
                    if d_chaos is not None:
                        block = d_chaos.refresh_storm(u)
                        if block:
                            d_free = max(d_free, u) + block
                            d_busy += block
                    start = d_free if d_free > u else u
                    d_free = start + d_occ
                    d_lines += 1
                    d_busy += d_occ
                    ready = start + d_occ + d_lat
                else:
                    ready = slot + lat2 + unl2
                heappush(mshr2, ready)
                if len(cset2) >= assoc2:
                    pend2.pop(cset2.popitem(last=False)[0], None)
                    stats2.evictions += 1
                cset2[line] = is_store
                pend2[line] = ready

        if l1 is not None:
            heappush(mshr1, ready)
            if len(cset1) >= assoc1:
                pend1.pop(cset1.popitem(last=False)[0], None)
                stats1.evictions += 1
            cset1[line] = False
            pend1[line] = ready
        if ready > latest:
            latest = ready

    if l1 is not None:
        stats1.accesses += len(lines)
        stats1.hits += hits1
        stats1.misses += misses1
    if below:
        stats2.accesses += acc2
        stats2.hits += hits2
        stats2.misses += misses2
        if d_lines:
            dram._next_free = d_free
            dstats = dram.stats
            dstats.accesses += d_lines
            dstats.bytes_transferred += d_lines * dram.line_size
            dstats.busy_cycles = d_busy
    return latest

"""Cycle-level SM pipeline model.

Models the SM of paper Figure 1: a warp scheduler picking ready warps, dual
issue (2 instructions per cycle from 1 or 2 warps), per-warp in-program-order
issue gated by scoreboards (pending-write for RAW/WAW, pending-read for WAR),
an operand-read stage, back-end units (2 math, 1 SFU, 1 ld/st, 1 branch), a
global-memory pipeline through the coalescer/TLBs/caches, and out-of-order
commit.  Control-flow instructions disable warp fetch until they commit
(baseline behaviour, Section 2.1); source-operand scoreboards are released at
operand read (the early release that creates the paper's *RAW on replay*
problem).

The preemptible-exception schemes of Section 3 plug in through a
:class:`~repro.core.schemes.PipelineScheme` strategy object that adjusts
(a) how long a warp's fetch stays disabled after a global-memory instruction,
(b) when source scoreboards of global-memory instructions are released, and
(c) operand-log capacity accounting.

Hot-loop structure (docs/PERFORMANCE.md)
----------------------------------------
:meth:`SmPipeline.try_issue` is the simulator's hottest function.
Scoreboards are integer bitmasks over predicate and register bits, checked
against masks pre-decoded per static instruction (:mod:`repro.timing.decode`).
Each warp caches its last blocked verdict (``WarpRT.sb_wait``) with the bits
that blocked it, and only a commit or source release that frees one of those
bits clears it.  The issue scan walks a per-SM bitset of master positions in
round-robin order — the warps that are not done, not parked at a barrier and
not out of trace, minus those with a cached blocked verdict and, while the
LD/ST pipe is clogged by parked faults, those whose head is a global-memory
access.  Wake-ups arm a per-SM ``next_ready_cycle`` scalar instead of
scheduling pure heap events.  All of it is bit-identical to the reference
scan, kept as :meth:`SmPipeline._try_issue_reference` (select it with
``reference_issue=True`` or ``REPRO_REFERENCE_ISSUE=1``) and pinned against
the fast path by the golden digests (``tests/golden_digests.json``) and the
hypothesis equivalence suite.
"""

from __future__ import annotations

import math
import os
from bisect import insort
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.functional.trace import BlockTrace, TraceInst
from repro.mem.coalescer import coalesce_inst
from repro.telemetry import active as _tel_active, ev as _ev

from .decode import decode as _decode, mask_names
from .engine import EventQueue

#: cycles from fetch decision to issue — folded into issue; operand read and
#: execution start are measured from the issue cycle.
BARRIER_RESTART_LATENCY = 6
#: pipeline refill penalty after squashing a faulted instruction is replayed
REPLAY_ISSUE_COST = 8

_INF = math.inf


@dataclass
class SmStats:
    issued: int = 0
    issued_mem: int = 0
    committed: int = 0
    faulted_instructions: int = 0
    cycles_asleep_entries: int = 0
    blocks_launched: int = 0
    blocks_completed: int = 0
    block_switch_outs: int = 0
    block_switch_ins: int = 0
    extra_blocks_fetched: int = 0
    local_handler_runs: int = 0


class WarpRT:
    """Run-time (timing) state of one warp."""

    __slots__ = (
        "slot",
        "trace",
        "idx",
        "fetch_ready",
        "fetch_holds",
        "pw",
        "pr",
        "prm",
        "inflight",
        "at_barrier",
        "done",
        "block",
        "replay_list",
        "dtrace",
        "tlen",
        "pos",
        "sb_wait",
        "sb_bits",
    )

    def __init__(self, slot: int, trace: List[TraceInst], block: "BlockRT") -> None:
        self.slot = slot
        self.trace = trace
        self.idx = 0
        self.fetch_ready = 0.0
        self.fetch_holds = 0
        # Scoreboards over the bits of repro.timing.decode.  A register has
        # at most one pending write (the WAW check blocks a second writer
        # and a squash releases the write before its replay re-marks it),
        # so one mask holds them; reads are counted per bit because sources
        # repeat and in-flight readers share registers.
        self.pw = 0  # pending writes (RAW/WAW)
        self.pr: Dict[int, int] = {}  # source bit -> pending reads
        self.prm = 0  # bits with pending reads (WAR)
        self.inflight = 0
        self.at_barrier = False
        self.done = False
        self.block = block
        self.replay_list: List[TraceInst] = []
        #: decode tuple per trace record (cache hits when the trace was
        #: predecoded at load time — repro.timing.decode)
        self.dtrace = [_decode(t.inst) for t in trace]
        self.tlen = len(trace)
        #: index in the SM's master warp list (maintained by the scan
        #: rebuild; the round-robin pointer is expressed in these positions)
        self.pos = 0
        #: cached scoreboard verdict: True = the warp's next instruction was
        #: scoreboard-blocked and nothing that could unblock it has happened
        #: since (cleared on issue, squash, context change, and by a commit
        #: or source release that frees one of ``sb_bits``)
        self.sb_wait = False
        #: the pending bits that blocked the head when ``sb_wait`` was set
        self.sb_bits = 0

    def next_inst(self) -> Optional[TraceInst]:
        if self.replay_list:
            return self.replay_list[0]
        if self.idx < self.tlen:
            return self.trace[self.idx]
        return None

    def advance(self) -> None:
        if self.replay_list:
            self.replay_list.pop(0)
        else:
            self.idx += 1

    def maybe_done(self) -> bool:
        if (
            not self.done
            and self.idx >= self.tlen
            and not self.replay_list
            and self.inflight == 0
        ):
            self.done = True
        return self.done


class BlockRT:
    """Run-time state of one resident (or switched-out) thread block."""

    ACTIVE = "active"
    SAVING = "saving"
    OFFCHIP = "offchip"
    RESTORING = "restoring"
    DONE = "done"

    __slots__ = (
        "btrace",
        "warps",
        "state",
        "barrier_arrived",
        "drain_time",
        "pending_groups",
        "faulted_inflight",
        "log_capacity",
        "log_used",
        "context_bytes",
        "kernel_id",
    )

    def __init__(self, btrace: BlockTrace, context_bytes: int, log_capacity: int) -> None:
        self.btrace = btrace
        self.kernel_id = btrace.kernel_id
        self.warps: List[WarpRT] = []
        self.state = self.ACTIVE
        self.barrier_arrived = 0
        self.drain_time = 0.0  # latest commit of non-faulted in-flight work
        self.pending_groups: Dict[int, float] = {}  # fault group -> resolve t
        # squashable in-flight faulted instructions: (warp, tinst, commit_ev,
        # destination mask, fetch_hold_release_evs, src_release_ev, slot_ev)
        self.faulted_inflight: List[Tuple] = []
        self.log_capacity = log_capacity
        self.log_used = 0
        self.context_bytes = context_bytes

    @property
    def block_id(self) -> int:
        return self.btrace.block_id

    def is_done(self) -> bool:
        return all(w.done for w in self.warps)

    def unresolved_at(self, time: float) -> bool:
        return any(t > time for t in self.pending_groups.values())


class SmPipeline:
    """One streaming multiprocessor of the timing simulator."""

    def __init__(
        self,
        sm_id: int,
        config,
        events: EventQueue,
        memsys,
        fault_ctl,
        scheme,
        block_source,
        occupancy: int,
        kernel_context_bytes: Dict[int, int],
        telemetry=None,
        chaos=None,
        sanitizer=None,
        reference_issue: bool = False,
    ) -> None:
        self.sm_id = sm_id
        self.config = config
        self.events = events
        self.memsys = memsys
        self.fault_ctl = fault_ctl
        self.scheme = scheme
        self.block_source = block_source  # the GPU's MultiKernelScheduler
        self.occupancy = occupancy
        # kernel id -> a block's register + shared-memory bytes, so a
        # stolen block's switch cost reflects *its* kernel's footprint
        # (docs/CONCURRENCY.md)
        self.kernel_context_bytes = kernel_context_bytes
        self.free_slots = occupancy
        self.blocks: List[BlockRT] = []  # resident blocks
        self.offchip: List[BlockRT] = []  # switched-out blocks (use case 1)
        self.warps: List[WarpRT] = []
        self.rr = 0
        self.sleeping = False
        #: the earliest future cycle at which this SM must be re-scanned
        #: even though no heap event targets it — the min over pending
        #: warp-ready transitions (barrier restarts armed via
        #: :meth:`schedule_wake`; per-issue ``fetch_ready`` advances never
        #: outlive an awake cycle, see docs/PERFORMANCE.md).  The run loop
        #: jumps to ``min(next event, next_ready_cycle)`` when every SM
        #: sleeps.
        self.next_ready_cycle = _INF
        self._wakes: List[float] = []  # pending schedule_wake times, sorted
        # Pending source-scoreboard releases, keyed by due time (each key
        # also has a ``_wakes`` entry).  SM-local and commutative with the
        # same-timestamp heap events, so they bypass the global event queue
        # entirely; :meth:`try_issue` retires due entries before scanning —
        # the same point in the cycle the heap used to fire them.
        self._rel: Dict[float, list] = {}
        #: faulted memory instructions parked in the LD/ST pipeline; at
        #: config.pending_fault_limit the SM cannot issue further global
        #: memory instructions (the clogging that preemption relieves)
        self.pending_faults = 0
        self.stats = SmStats()
        self.local_scheduler = None  # set by use case 1, see core.local_scheduler
        self.on_block_done = None  # callback(sm, block, time) set by the GPU
        # Every budget is at least 1 (GPUConfig rejects less), so an
        # exhausted budget implies an issue this cycle: the fast scan never
        # needs the reference's ``structural`` flag (docs/PERFORMANCE.md).
        self._unit_budget_template = (
            config.num_math_units,
            config.num_sfu_units,
            config.num_ldst_units,
            config.num_branch_units,
        )
        log_bytes = getattr(scheme, "log_bytes", 0)
        self._log_partition = (
            max(512, log_bytes // max(occupancy, 1)) if log_bytes else 0
        )
        # Issue bitsets (fast issue path), bit ``pos`` = ``self.warps[pos]``:
        # scan members, members with a cached blocked verdict, and members
        # whose head is a global-memory access — lazily rebuilt when a
        # membership transition marks them dirty (:meth:`_rebuild_scan`).
        self._members = 0
        self._blocked = 0
        self._memhead = 0
        self._scan_dirty = True
        # Per-run constants hoisted out of the issue loop.
        self._issue_width = config.issue_width
        self._oprd_lat = config.operand_read_latency
        self._pending_limit = config.pending_fault_limit
        self._line_size = config.line_size
        self._anchor = getattr(scheme, "disable_anchor", None)
        self._cover_arith = getattr(scheme, "cover_arithmetic", False)
        self._log_need = (
            scheme.log_bytes_needed(False),
            scheme.log_bytes_needed(True),
        )
        # Schemes declare (core.schemes) whether source scoreboards release
        # right at operand read; custom schemes without the hint take the
        # method-call path, which inlines the release anyway when it is due.
        self._src_imm = getattr(scheme, "immediate_source_release", False)
        # Chaos / sanitizer (repro.chaos): both None unless enabled, so the
        # issue and retirement hot paths pay only an ``is not None`` check.
        from repro.chaos import chaos_active as _chaos_active

        self.chaos = _chaos_active(chaos)
        self.sanitizer = sanitizer
        # Telemetry: ``self.tel`` is None unless an *enabled* Telemetry was
        # supplied, so the hot paths pay only an ``is not None`` check.
        self.tel = _tel_active(telemetry)
        self._tid = f"sm{sm_id}"
        if self.tel is not None:
            reg = self.tel.counters
            prefix = f"gpu.sm[{sm_id}]"
            self._c_stall = reg.counter(f"{prefix}.warp_stall.cycles")
            self._c_stall_fault = reg.counter(f"{prefix}.warp_stall.fault")
            self._c_stall_sb = reg.counter(f"{prefix}.warp_stall.scoreboard")
            self._c_stall_log = reg.counter(f"{prefix}.warp_stall.log")
            self._c_stall_struct = reg.counter(
                f"{prefix}.warp_stall.structural"
            )
            reg.bind_stats(f"{prefix}.stats", self.stats)
            reg.gauge(f"{prefix}.pending_faults", lambda: self.pending_faults)
            reg.gauge(f"{prefix}.ready_warps", self.ready_warp_count)
        if reference_issue or os.environ.get("REPRO_REFERENCE_ISSUE") == "1":
            # Executable spec: shadow the fast path with the reference scan
            # (bound as an instance attribute) for A/B equivalence testing.
            self.try_issue = self._try_issue_reference

    # ------------------------------------------------------------------
    # block lifecycle
    # ------------------------------------------------------------------

    def wake(self) -> None:
        self.sleeping = False

    def schedule_wake(self, time: float) -> None:
        """Arm the run loop to re-scan this SM at ``time`` without pushing a
        heap event: the wake time joins a (tiny) sorted pending list and
        lowers ``next_ready_cycle``; :meth:`try_issue` retires due entries.
        Replaces the pure-wake events the barrier-release path used to
        schedule (counted in ``EventQueue.coalesced``)."""
        self.events.coalesced += 1
        insort(self._wakes, time)
        if time < self.next_ready_cycle:
            self.next_ready_cycle = time

    def launch_block(self, btrace: BlockTrace, time: float) -> BlockRT:
        """Bring a fresh thread block on chip."""
        if self.free_slots <= 0:
            raise RuntimeError(f"SM{self.sm_id}: no free block slot")
        self.free_slots -= 1
        block = BlockRT(
            btrace,
            context_bytes=self.kernel_context_bytes[btrace.kernel_id],
            log_capacity=self._log_partition,
        )
        for wtrace in btrace.warps:
            warp = WarpRT(len(self.warps), wtrace.instructions, block)
            warp.fetch_ready = time
            block.warps.append(warp)
        self.blocks.append(block)
        self._rebuild_warp_list()
        self.stats.blocks_launched += 1
        if self.tel is not None:
            self.tel.tracer.emit(
                _ev.EV_BLOCK_LAUNCH, time, self._tid,
                {"block": block.block_id, "warps": len(block.warps),
                 "kernel": block.kernel_id},
            )
        self.wake()
        return block

    def _rebuild_warp_list(self) -> None:
        self.warps = [
            w
            for b in self.blocks
            if b.state == BlockRT.ACTIVE
            for w in b.warps
            if not w.done
        ]
        self.rr = 0
        self._scan_dirty = True
        for w in self.warps:
            w.sb_wait = False  # conservative: context moved, recheck all

    def _block_finished(self, block: BlockRT, time: float) -> None:
        if self.sanitizer is not None:
            self.sanitizer.check_block_retirement(self, block, time)
        block.state = BlockRT.DONE
        # A retired block lets go of its warps: they point back at it, and
        # nothing reads a finished block's warps, so both are freed as soon
        # as the last queued event that holds them has fired.
        block.warps = []
        self.blocks.remove(block)
        self.free_slots += 1
        self.stats.blocks_completed += 1
        if self.tel is not None:
            self.tel.tracer.emit(
                _ev.EV_BLOCK_DONE, time, self._tid,
                {"block": block.block_id, "kernel": block.kernel_id},
            )
        self._rebuild_warp_list()
        if self.on_block_done is not None:
            self.on_block_done(self, block, time)
        self.wake()

    def release(self) -> None:
        """Break this SM's reference cycles once the run is over, or was
        stopped early: the simulator's ``on_block_done`` callback, the
        reference scan when it is bound as an instance attribute, and,
        as :meth:`_block_finished` does for a retired block, the warps
        and parked faulted instructions (whose events hold this SM) of
        every block still resident or off chip."""
        self.on_block_done = None
        self.__dict__.pop("try_issue", None)
        for block in self.blocks + self.offchip:
            block.warps = []
            block.faulted_inflight = []

    def refill_slot(self, time: float) -> None:
        """Default slot refill: fetch the next pending block, if any."""
        while self.free_slots > 0:
            btrace = self.block_source.next_block(self.sm_id)
            if btrace is None:
                return
            self.launch_block(btrace, time)

    # ------------------------------------------------------------------
    # issue logic
    # ------------------------------------------------------------------

    def _rebuild_scan(self) -> None:
        """Recompute the issue bitsets from the master warp list.

        Members: not done, not parked at a barrier, and still an
        instruction to issue (replay pending or trace remaining).  Warps
        whose fetch is held/not-ready stay members — hold churn is
        per-issue, so evicting them would cost more rebuilds than the one
        flag test they cost in the walk.  Master positions are refreshed
        here so the round-robin pointer maps exactly onto the reference
        scan order."""
        members = blocked = memhead = 0
        for pos, w in enumerate(self.warps):
            w.pos = pos
            if w.done or w.at_barrier:
                continue
            if w.replay_list:
                dec = _decode(w.replay_list[0].inst)
            elif w.idx < w.tlen:
                dec = w.dtrace[w.idx]
            else:
                continue  # trace exhausted, draining in-flight work
            bit = 1 << pos
            members |= bit
            if w.sb_wait:
                blocked |= bit
            if dec[2]:
                memhead |= bit
        self._members = members
        self._blocked = blocked
        self._memhead = memhead
        self._scan_dirty = False

    def ready_warp_count(self) -> int:
        """Current scan-member count (telemetry gauge
        ``gpu.sm[*].ready_warps``)."""
        if self._scan_dirty:
            self._rebuild_scan()
        return self._members.bit_count()

    def try_issue(self, cycle: float) -> int:
        """Attempt up to ``issue_width`` issues this cycle; returns count.

        Fast path of the hot-loop overhaul: walks the member bitset in
        the round-robin order of :meth:`_try_issue_reference` (the
        original full scan, kept as the executable spec), skipping warps
        already known not to issue — a cached blocked verdict, or a
        global-memory head while parked faults clog the LD/ST pipe.  A
        skipped warp would only have raised stall flags, so the issues and
        statistics are the reference's; with telemetry on, a zero-issue
        cycle recomputes the flags over every warp
        (:meth:`_attribute_stall`)."""
        if self.next_ready_cycle <= cycle:
            wakes = self._wakes
            rel = self._rel
            while wakes and wakes[0] <= cycle:
                t = wakes.pop(0)
                if rel:
                    lst = rel.pop(t, None)
                    if lst is not None:
                        for warp, src_bits in lst:
                            self._do_src_release(warp, src_bits, t)
            self.next_ready_cycle = wakes[0] if wakes else _INF
        warps = self.warps
        n = len(warps)
        if n == 0:
            self.sleeping = True
            return 0
        if self._scan_dirty:
            self._rebuild_scan()
        cand = self._members & ~self._blocked
        if self.pending_faults >= self._pending_limit:
            cand &= ~self._memhead  # memory pipeline clogged by parked faults
        issued = 0
        if cand:
            budget = list(self._unit_budget_template)
            width = self._issue_width
            rr = self.rr
            if rr:
                # Rotate so bit i stands for master position (rr + i) mod n:
                # lowest bit first is the reference's visit order.
                cand = (cand >> rr) | ((cand & ((1 << rr) - 1)) << (n - rr))
            while cand:
                low = cand & -cand
                cand ^= low
                pos = low.bit_length() - 1 + rr
                if pos >= n:
                    pos -= n
                warp = warps[pos]
                if warp.sb_wait:
                    # A commit or release for a switched-out warp cleared
                    # this bit via its stale position; the verdict holds.
                    self._blocked |= 1 << pos
                    continue
                # Members are not done and not at a barrier, and within
                # one walk only a warp's own issue changes that.
                if warp.fetch_holds or warp.fetch_ready > cycle:
                    continue
                rl = warp.replay_list
                if rl:
                    tinst = rl[0]
                    dec = _decode(tinst.inst)
                else:
                    idx = warp.idx
                    tinst = warp.trace[idx]
                    dec = warp.dtrace[idx]
                if budget[dec[0]] <= 0:
                    continue  # unit taken by an issue earlier this cycle
                if dec[5] and warp.inflight:  # BAR waits for older insts
                    continue
                pw = warp.pw  # inlined _scoreboard_blocked (hot path)
                hazard = (dec[8] & pw) | (dec[9] & (pw | warp.prm))
                if hazard:
                    warp.sb_wait = True
                    warp.sb_bits = hazard
                    self._blocked |= 1 << pos
                    continue
                if dec[2]:  # not clogged, or the bitset would skip it
                    need = self._log_need[dec[3]]
                    if need and warp.block.log_used + need > warp.block.log_capacity:
                        continue  # log partition full; event will wake us
                budget[dec[0]] -= 1
                self._issue(warp, tinst, dec, cycle)
                issued += 1
                if issued >= width:
                    # Reference-scan equivalent of stopping at issue_width:
                    # rr advances to just past the last issued warp's
                    # master position.  (A completed full circle leaves rr
                    # unchanged, exactly like the reference.)
                    nxt = pos + 1
                    self.rr = nxt if nxt < n else 0
                    break
        if issued:
            self.sleeping = False
            return issued
        self.sleeping = True
        self.stats.cycles_asleep_entries += 1
        if self.tel is not None:
            self._attribute_stall(cycle)
        return 0

    def _attribute_stall(self, cycle: float) -> None:
        """Stall counters of a zero-issue cycle: the flags the reference
        scan raises, from one pass over the warps in its precedence.  With
        nothing issued every unit budget is full, so ``structural`` never
        applies."""
        sb_block = fault_block = log_block = False
        clogged = self.pending_faults >= self._pending_limit
        for warp in self.warps:
            if warp.done or warp.at_barrier:
                continue
            if warp.fetch_holds or warp.fetch_ready > cycle:
                continue
            tinst = warp.next_inst()
            if tinst is None:
                continue
            dec = _decode(tinst.inst)
            if dec[5] and warp.inflight:
                continue
            if self._scoreboard_blocked(warp, dec):
                sb_block = True
            elif dec[2]:
                if clogged:
                    fault_block = True
                else:
                    need = self._log_need[dec[3]]
                    if need and warp.block.log_used + need > warp.block.log_capacity:
                        log_block = True
        self._c_stall.add()
        if fault_block:
            self._c_stall_fault.add()
        if sb_block:
            self._c_stall_sb.add()
        if log_block:
            self._c_stall_log.add()

    def _try_issue_reference(self, cycle: float) -> int:
        """Reference issue scan (pre-overhaul behaviour): full round-robin
        over the master warp list.  Kept as the executable specification the
        fast path must match bit-for-bit; selected via
        ``reference_issue=True`` / ``REPRO_REFERENCE_ISSUE=1``."""
        if self.next_ready_cycle <= cycle:
            wakes = self._wakes
            rel = self._rel
            while wakes and wakes[0] <= cycle:
                t = wakes.pop(0)
                if rel:
                    lst = rel.pop(t, None)
                    if lst is not None:
                        for warp, src_bits in lst:
                            self._do_src_release(warp, src_bits, t)
            self.next_ready_cycle = wakes[0] if wakes else _INF
        warps = self.warps
        n = len(warps)
        if n == 0:
            self.sleeping = True
            return 0
        budget = list(self._unit_budget_template)
        issued = 0
        structural = False
        scanned = 0
        sb_block = fault_block = log_block = False  # stall attribution
        i = self.rr
        width = self.config.issue_width
        while scanned < n and issued < width:
            warp = warps[i]
            i = i + 1 if i + 1 < n else 0
            scanned += 1
            if warp.done or warp.at_barrier:
                continue
            if warp.fetch_holds or warp.fetch_ready > cycle:
                continue
            tinst = warp.next_inst()
            if tinst is None:
                continue  # trace exhausted, draining in-flight work
            dec = _decode(tinst.inst)
            if budget[dec[0]] <= 0:
                structural = True
                continue
            if dec[5] and warp.inflight:  # BAR waits for older instructions
                continue
            if self._scoreboard_blocked(warp, dec):
                sb_block = True
                continue
            if dec[2]:
                if self.pending_faults >= self.config.pending_fault_limit:
                    fault_block = True
                    continue  # memory pipeline clogged by parked faults
                need = self.scheme.log_bytes_needed(dec[3])
                if need and warp.block.log_used + need > warp.block.log_capacity:
                    log_block = True
                    continue  # operand log partition full; event will wake us
            budget[dec[0]] -= 1
            self._issue(warp, tinst, dec, cycle)
            issued += 1
        if issued:
            self.rr = i
        self.sleeping = issued == 0 and not structural
        if self.sleeping:
            self.stats.cycles_asleep_entries += 1
        if issued == 0 and self.tel is not None:
            self._c_stall.add()
            if fault_block:
                self._c_stall_fault.add()
            if sb_block:
                self._c_stall_sb.add()
            if log_block:
                self._c_stall_log.add()
            if structural:
                self._c_stall_struct.add()
        return issued

    def _scoreboard_blocked(self, warp: WarpRT, dec) -> int:
        """The pending bits that block ``dec`` on ``warp`` (0: none) — RAW
        on a source, WAW or WAR on a destination."""
        pw = warp.pw
        return (dec[8] & pw) | (dec[9] & (pw | warp.prm))

    # ------------------------------------------------------------------

    def _issue(self, warp: WarpRT, tinst: TraceInst, dec, cycle: float) -> None:
        """Issue one decoded instruction for ``warp`` at ``cycle``: claim
        scoreboards, then hand it to the memory / barrier / ALU path."""
        if self.tel is not None:
            name = (
                _ev.EV_REPLAY
                if warp.replay_list and warp.replay_list[0] is tinst
                else _ev.EV_ISSUE
            )
            self.tel.tracer.emit(
                name, cycle, self._tid,
                {"op": tinst.inst.op.name, "warp": warp.slot,
                 "block": warp.block.block_id},
            )
        rl = warp.replay_list
        if rl:
            rl.pop(0)
            if rl:
                head = _decode(rl[0].inst)
            elif warp.idx < warp.tlen:
                head = warp.dtrace[warp.idx]
            else:
                head = None
        else:
            idx = warp.idx = warp.idx + 1
            head = warp.dtrace[idx] if idx < warp.tlen else None
        if head is None:
            self._scan_dirty = True  # drained: drop from the members
        elif head[2] != dec[2]:  # the memory-head bit follows the new head
            if head[2]:
                self._memhead |= 1 << warp.pos
            else:
                self._memhead &= ~(1 << warp.pos)
        warp.sb_wait = False  # the next instruction is a different one
        warp.fetch_ready = cycle + 1
        warp.inflight += 1
        dst = dec[9]
        if self.sanitizer is not None and warp.pw & dst:
            from repro.chaos import InvariantViolation

            raise InvariantViolation(
                "second pending write to a register",
                {"sm": self.sm_id, "warp": warp.slot,
                 "block": warp.block.block_id, "op": tinst.inst.op.name,
                 "registers": mask_names(warp.pw & dst)},
            )
        warp.pw |= dst
        src_bits = dec[10]
        if src_bits:
            pr = warp.pr
            for b in src_bits:
                pr[b] = pr.get(b, 0) + 1
            warp.prm |= dec[8]
        self.stats.issued += 1
        oprd = cycle + self._oprd_lat

        if dec[2] and tinst.addresses:  # global memory (can fault)
            self.stats.issued_mem += 1
            self._issue_gmem(warp, tinst, dec, cycle, oprd)
            return

        if dec[5]:  # BAR
            self._issue_barrier(warp, tinst, cycle, oprd)
            return

        commit_time = oprd + dec[1]
        # Extension to arithmetic exceptions (paper Sections 3.1/3.2): a
        # potentially excepting SFU divide is guaranteed exception-free only
        # once it completes execution, so a warp-disable scheme barriers it
        # and the replay-queue scheme holds its source scoreboards that long.
        covers_arith = dec[7] and self._cover_arith
        src_release = oprd
        if covers_arith and self._anchor is None:
            src_release = self.scheme.source_release_time(oprd, commit_time)
        self._queue_src_release(warp, src_bits, src_release, cycle)
        if dec[4] or (covers_arith and self._anchor is not None):
            # control flow: fetch disabled until commit (baseline); covered
            # arithmetic under a warp-disable scheme behaves the same way.
            # The hold release and the commit fall on the same timestamp
            # (release first), so both dispatch from one merged event.
            warp.fetch_holds += 1
            if self.tel is not None:
                self.tel.tracer.emit(
                    _ev.EV_FETCH_DISABLE, cycle, self._tid,
                    {"warp": warp.slot, "why": "control"},
                )
            self.events.coalesced += 1
            self.events.call(
                commit_time, partial(self._commit_release_hold, warp, dst)
            )
        else:
            self.events.call(commit_time, partial(self._commit, warp, dst))
        if commit_time > warp.block.drain_time:
            warp.block.drain_time = commit_time

    def _schedule_src_release(
        self, warp, src_bits, time: float, now: float = None
    ):
        """Release source scoreboards at ``time``; when the release is due
        at or before ``now`` it executes inline (no heap push) — same batch,
        same ordering, one fewer event (docs/PERFORMANCE.md).

        Returns a cancellable Event handle — use this variant only where
        the caller may need to squash the release (faulted in-flight
        instructions); everything else goes through the heap-free
        :meth:`_queue_src_release`."""
        if not src_bits:
            return None
        if now is not None and time <= now:
            self.events.coalesced += 1
            self._do_src_release(warp, src_bits, now)
            return None
        return self.events.schedule(
            time, partial(self._do_src_release, warp, src_bits)
        )

    def _queue_src_release(self, warp, src_bits, time: float, now: float) -> None:
        """Heap-free :meth:`_schedule_src_release` for releases that are
        never cancelled: due entries run inline; future ones park in the
        per-SM ``_rel`` map and fire from :meth:`try_issue`'s wake sweep —
        the same pre-scan point of their due cycle the heap dispatched them
        at, and release order within a timestamp is immaterial (counter
        decrements on per-warp tables commute)."""
        if not src_bits:
            return
        self.events.coalesced += 1
        if time <= now:
            self._do_src_release(warp, src_bits, now)
            return
        lst = self._rel.get(time)
        if lst is None:
            self._rel[time] = [(warp, src_bits)]
            insort(self._wakes, time)
            if time < self.next_ready_cycle:
                self.next_ready_cycle = time
        else:
            lst.append((warp, src_bits))

    def _do_src_release(self, warp, src_bits, time: float = 0.0) -> None:
        """Drop one read of each source bit; a WAR-blocked successor may
        pass once a bit that blocked it has no reader left."""
        pr = warp.pr
        freed = 0
        for b in src_bits:
            left = pr[b] - 1
            if left:
                pr[b] = left
            else:
                del pr[b]
                freed |= b
        if freed:
            warp.prm &= ~freed
            if warp.sb_wait and freed & warp.sb_bits:
                warp.sb_wait = False
                self._blocked &= ~(1 << warp.pos)
        self.sleeping = False  # inlined wake() (hot path)

    def _release_fetch_hold(self, warp: WarpRT, time: float = 0.0) -> None:
        """Drop one fetch hold on ``warp`` (commit / last-check / handler
        return) and wake the SM's issue loop."""
        warp.fetch_holds -= 1
        if self.tel is not None:
            self.tel.tracer.emit(
                _ev.EV_FETCH_ENABLE, time, self._tid, {"warp": warp.slot}
            )
        self.sleeping = False  # inlined wake()

    def _commit(self, warp: WarpRT, dst: int, time: float) -> None:
        """Commit one in-flight instruction of ``warp``: release its
        destination mask ``dst`` and retire the block if this emptied it."""
        if dst:
            warp.pw &= ~dst
            if warp.sb_wait and dst & warp.sb_bits:
                # a RAW/WAW-blocked successor may now pass
                warp.sb_wait = False
                self._blocked &= ~(1 << warp.pos)
        warp.inflight -= 1
        self.stats.committed += 1
        if self.tel is not None:
            self.tel.tracer.emit(
                _ev.EV_COMMIT, time, self._tid, {"warp": warp.slot}
            )
        self.sleeping = False  # inlined wake() (hot path)
        # inlined warp.maybe_done() — the common case (more work in flight)
        # pays three attribute tests instead of a method call
        if warp.done or (
            not warp.inflight and warp.idx >= warp.tlen and not warp.replay_list
        ):
            warp.done = True
            self._scan_dirty = True  # done: drop from the members
            block = warp.block
            self._check_barrier(block, time)
            if block.state in (BlockRT.ACTIVE, BlockRT.SAVING) and block.is_done():
                self._block_finished(block, time)

    def _commit_release_hold(self, warp: WarpRT, dst: int, time: float) -> None:
        """Merged same-timestamp dispatch: fetch-hold release followed by
        commit (the order the reference scheduled them in)."""
        self._release_fetch_hold(warp, time)
        self._commit(warp, dst, time)

    # ------------------------------------------------------------------
    # barriers
    # ------------------------------------------------------------------

    def _issue_barrier(self, warp: WarpRT, tinst, cycle: float, oprd: float) -> None:
        """Park ``warp`` at a BAR; restart everyone once the block arrives."""
        warp.at_barrier = True
        self._scan_dirty = True  # parked: drop from the members
        block = warp.block
        if self.tel is not None:
            self.tel.tracer.emit(
                _ev.EV_BARRIER, cycle, self._tid,
                {"warp": warp.slot, "block": block.block_id},
            )
        block.barrier_arrived += 1
        commit_time = oprd + tinst.inst.info.latency
        self.events.call(commit_time, partial(self._commit, warp, 0))
        self._check_barrier(block, cycle)

    def _check_barrier(self, block: BlockRT, time: float) -> None:
        waiting = [w for w in block.warps if w.at_barrier]
        if not waiting:
            return
        live = sum(1 for w in block.warps if not w.done)
        if len(waiting) >= live:
            restart = time + BARRIER_RESTART_LATENCY
            for w in waiting:
                w.at_barrier = False
                w.fetch_ready = max(w.fetch_ready, restart)
            block.barrier_arrived = 0
            self._scan_dirty = True  # released warps rejoin the members
            self.schedule_wake(restart)

    # ------------------------------------------------------------------
    # global memory path (translation, faults, schemes)
    #
    # The path is event-driven in two phases so that shared bandwidth
    # resources (caches, MSHRs, DRAM pipe) are only booked in global time
    # order: phase 1 (at operand read) coalesces and translates — detecting
    # faults at walk completion; phase 2 (at translation-done) runs the
    # requests through the cache hierarchy.
    # ------------------------------------------------------------------

    def _issue_gmem(self, warp: WarpRT, tinst, dec, cycle: float, oprd: float) -> None:
        """Issue a global-memory instruction: claim warp-disable holds and
        operand-log space now, then translate at operand read (phase 1)."""
        # Warp-disable schemes stop fetching from the cycle the memory
        # instruction is fetched; the release time is known later.
        wd_hold = self._anchor is not None
        if wd_hold:
            warp.fetch_holds += 1
            if self.tel is not None:
                self.tel.tracer.emit(
                    _ev.EV_FETCH_DISABLE, cycle, self._tid,
                    {"warp": warp.slot, "why": "warp-disable"},
                )
        # Operand-log space is claimed at issue (checked by try_issue) and
        # released once the last TLB check clears (scheduled in phase 1).
        need = self._log_need[dec[3]]
        if need:
            warp.block.log_used += need
        self.events.call(
            oprd, partial(self._gmem_translate, warp, tinst, dec, wd_hold)
        )

    def _gmem_translate(
        self, warp: WarpRT, tinst, dec, wd_hold: bool, now: float,
        replayed: bool = False,
    ) -> None:
        """Phase 1 of the global-memory path: coalesce + translate; route
        detected page faults to the fault controller and park the faulted
        instruction for replay (the squashable state of Section 3)."""
        chaos = self.chaos
        if chaos is not None and not replayed:
            # ``sm.squash_replay`` injection: transiently squash this
            # in-flight global-memory instruction and replay it after a
            # pipeline-refill penalty.  Phase 1 has claimed no timed
            # resources yet, so deferring the whole phase is leak-free.
            penalty = chaos.squash_replay(now, self.sm_id)
            if penalty:
                self.events.call(
                    now + penalty,
                    lambda t, w=warp, ti=tinst, d=dec, h=wd_hold:
                        self._gmem_translate(w, ti, d, h, t, True),
                )
                return
        src_bits = dec[10]
        is_store = dec[3]
        block = warp.block
        anchor = self._anchor
        lines = coalesce_inst(tinst, self._line_size)
        outcome = self.memsys.translate_access_coalesced(
            self.sm_id, lines, is_store, now
        )

        if not outcome.faults:
            last_check = outcome.translation_done
            release_t = (
                now
                if self._src_imm
                else self.scheme.source_release_time(now, last_check)
            )
            self._queue_src_release(warp, src_bits, release_t, now)
            self._hold_log_until(block, is_store, last_check)
            if wd_hold and anchor == "lastcheck":
                # The hold lifts at the same timestamp phase 2 starts
                # (release first): one merged event instead of two.
                self.events.coalesced += 1
                self.events.call(
                    last_check,
                    partial(
                        self._gmem_data_release_hold,
                        warp, tinst, dec, outcome.ready_lines,
                    ),
                )
            else:
                self.events.call(
                    last_check,
                    partial(
                        self._gmem_data,
                        warp, tinst, dec, outcome.ready_lines, wd_hold,
                    ),
                )
            return

        # --- faulted instruction ---------------------------------------
        self.stats.faulted_instructions += 1
        handled_locally = False
        resolved = 0.0
        position = 0
        first_detect = min(f.detect_time for f in outcome.faults)
        for fault in outcome.faults:
            fo = self.fault_ctl.on_fault(
                fault.vpn, fault.detect_time, self.sm_id, block.kernel_id
            )
            resolved = max(resolved, fo.resolved_time)
            position = max(position, fo.position)
            handled_locally |= fo.handled_locally
            block.pending_groups[fo.group] = max(
                block.pending_groups.get(fo.group, 0.0), fo.resolved_time
            )
        replay = self.memsys.replay_after_fault_coalesced(
            self.sm_id, lines, resolved + REPLAY_ISSUE_COST
        )
        completion = replay.completion
        last_check_ok = replay.translation_done

        release_t = (
            now
            if self._src_imm
            else self.scheme.source_release_time(now, last_check_ok)
        )
        src_ev = self._schedule_src_release(warp, src_bits, release_t, now)
        self._hold_log_until(block, is_store, last_check_ok)

        hold_evs = []
        if wd_hold:
            release_at = completion if anchor == "commit" else last_check_ok
            hold_evs.append(
                self.events.schedule(
                    release_at, partial(self._release_fetch_hold, warp)
                )
            )
        if handled_locally:
            # The faulting warp runs the handler in system mode: it cannot
            # fetch user instructions until the handler returns.
            self.stats.local_handler_runs += 1
            warp.fetch_holds += 1
            if self.tel is not None:
                self.tel.tracer.emit(
                    _ev.EV_FETCH_DISABLE, now, self._tid,
                    {"warp": warp.slot, "why": "local-handler"},
                )
            hold_evs.append(
                self.events.schedule(
                    resolved, partial(self._release_fetch_hold, warp)
                )
            )

        # The faulted instruction parks in the LD/ST pipeline until it can
        # replay: it holds a pending-fault slot that throttles the SM.
        self.pending_faults += 1
        slot_ev = self.events.schedule(
            completion, partial(self._release_fault_slot)
        )

        commit_ev = self.events.schedule(
            completion, partial(self._commit, warp, dec[9])
        )
        block.faulted_inflight.append(
            (warp, tinst, commit_ev, dec[9], hold_evs, src_ev, slot_ev)
        )
        self.events.call(
            completion, partial(self._forget_faulted, block, commit_ev)
        )
        if self.local_scheduler is not None:
            if block.state == BlockRT.ACTIVE:
                self.local_scheduler.on_fault(
                    self, block, warp, tinst, first_detect, resolved, position
                )
            else:
                # The block was switched out between this instruction's
                # issue and its translation: the switch-out only armed
                # wake-ups for the groups known then, so watch this one too.
                self.events.call(
                    resolved,
                    lambda t, b=block: self.local_scheduler._on_resolved(b, t),
                )

    def _gmem_data(
        self, warp: WarpRT, tinst, dec, lines, wd_hold: bool, now: float
    ) -> None:
        """Phase 2 of the global-memory path: run the translated requests
        through the cache hierarchy and schedule the commit."""
        completion = self.memsys.data_access(
            self.sm_id, lines, dec[3], now, is_atomic=dec[6]
        )
        if wd_hold:
            # wd-commit: fetch re-enables when the instruction commits —
            # same timestamp, release first, merged into one event.
            self.events.coalesced += 1
            self.events.call(
                completion, partial(self._commit_release_hold, warp, dec[9])
            )
        else:
            self.events.call(completion, partial(self._commit, warp, dec[9]))
        if completion > warp.block.drain_time:
            warp.block.drain_time = completion

    def _gmem_data_release_hold(
        self, warp: WarpRT, tinst, dec, lines, now: float
    ) -> None:
        """Merged same-timestamp dispatch for ``wd-lastcheck``: the fetch
        hold lifts exactly when phase 2 starts (release first, as the
        reference ordered its two events)."""
        self._release_fetch_hold(warp, now)
        self._gmem_data(warp, tinst, dec, lines, False, now)

    def _hold_log_until(self, block: BlockRT, is_store: bool, release_at: float) -> None:
        """Schedule the release of the log bytes claimed at issue."""
        need = self._log_need[is_store]
        if need:
            self.events.call(
                release_at, partial(self._release_log, block, need)
            )

    def _release_log(self, block: BlockRT, nbytes: int, time: float = 0.0) -> None:
        block.log_used -= nbytes
        self.sleeping = False  # inlined wake()

    def _release_fault_slot(self, time: float = 0.0) -> None:
        self.pending_faults -= 1
        self.sleeping = False  # inlined wake()

    def _forget_faulted(self, block: BlockRT, commit_ev, time: float = 0.0) -> None:
        """A faulted instruction that completed (block was not switched)."""
        block.faulted_inflight = [
            rec for rec in block.faulted_inflight if rec[2] is not commit_ev
        ]

    # ------------------------------------------------------------------
    # preemption support (used by core.local_scheduler)
    # ------------------------------------------------------------------

    def squash_faulted(self, block: BlockRT, time: float = 0.0) -> None:
        """Squash all in-flight faulted instructions of ``block`` so it can
        be switched out; each will be replayed from the restored context."""
        tel = self.tel
        for rec in block.faulted_inflight:
            warp, tinst, commit_ev, dst, hold_evs, src_ev, slot_ev = rec
            if tel is not None:
                tel.tracer.emit(
                    _ev.EV_SQUASH, time, self._tid,
                    {"op": tinst.inst.op.name, "warp": warp.slot,
                     "block": block.block_id},
                )
            commit_ev.cancel()
            if not slot_ev.fired:
                # Squashing frees the parked instruction's LD/ST slot — the
                # mechanism by which switching out a faulted block unclogs
                # the SM's memory pipeline.
                slot_ev.cancel()
                self._release_fault_slot()
            for hold_ev in hold_evs:
                if not hold_ev.fired:
                    hold_ev.cancel()
                    warp.fetch_holds -= 1
            # the replay marks the write again at its issue
            warp.pw &= ~dst
            if src_ev is not None and not src_ev.fired:
                src_ev.cancel()
                pr = warp.pr
                for b in _decode(tinst.inst)[10]:
                    left = pr[b] - 1
                    if left:
                        pr[b] = left
                    else:
                        del pr[b]
                        warp.prm &= ~b
            warp.inflight -= 1
            warp.replay_list.append(tinst)
            warp.sb_wait = False  # scoreboards changed + next inst changed
        if block.faulted_inflight:
            self._scan_dirty = True  # drained warps regained a replay inst
        block.faulted_inflight = []

    def context_bytes(self, block: BlockRT) -> int:
        """Size of the block's architectural context for a switch."""
        return block.context_bytes + self.scheme.context_extra_bytes(block)

"""Use case 1: thread-block switching on page faults (paper Section 4.1).

Each SM gets a *local scheduler* that tracks active blocks (context on chip)
and off-chip blocks (context in a pre-allocated GPU memory area).  When a
fault is reported, the fill unit also tells the SM the fault's position in
the global pending-fault queue; if the position is above a threshold (the
fault will take a while to resolve), the local scheduler context-switches the
faulting block out and brings something else in: an off-chip block whose
faults have all been resolved, or — limited to ``max_extra_blocks`` per SM —
a fresh pending block from the global scheduler.

Context save/restore moves the block's register-file slice, shared memory
partition and scheme state (replay-queue entries / operand-log partition)
through DRAM; the *ideal* variant models 1-cycle save/restore, the
configuration the paper uses to show the scheduler avoids wasteful switches.
"""

from __future__ import annotations

import weakref
from typing import Optional

from repro.telemetry.events import EV_BLOCK_SWITCH_IN, EV_BLOCK_SWITCH_OUT
from repro.timing.engine import EventQueue
from repro.timing.sm import BlockRT, SmPipeline


class LocalScheduler:
    """Per-SM context-switch policy engine."""

    def __init__(
        self,
        sm: SmPipeline,
        config,
        events: EventQueue,
        dram,
        ideal: bool = False,
    ) -> None:
        # A weak proxy: the SM holds this scheduler, so a strong reference
        # back would keep a finished simulator alive until a cyclic
        # garbage collection.
        self.sm = weakref.proxy(sm)
        self.config = config
        self.events = events
        self.dram = dram
        self.ideal = ideal
        self.extra_fetched = 0

    # ------------------------------------------------------------------
    # fault notification (from the SM's global-memory path)
    # ------------------------------------------------------------------

    def on_fault(
        self,
        sm: SmPipeline,
        block: BlockRT,
        warp,
        rec: int,
        detect_time: float,
        resolved_time: float,
        position: int,
    ) -> None:
        """Schedule a switch decision at the fault's detection time."""
        self.events.schedule(
            detect_time,
            lambda t, b=block, p=position: self._decide(b, p, t),
        )

    def _decide(self, block: BlockRT, position: int, now: float) -> None:
        if block.state != BlockRT.ACTIVE:
            return  # already switching / switched
        if position < self.config.block_switch_threshold:
            return  # fault will resolve soon: not worth a switch
        if not self._replacement_available(now):
            return  # nothing to run instead: switching would only add cost
        self._switch_out(block, now)

    def _replacement_available(self, now: float) -> bool:
        sm = self.sm
        if any(not b.unresolved_at(now) for b in sm.offchip):
            return True
        if (
            sm.block_source.pending > 0
            and self.extra_fetched < self.config.max_extra_blocks
        ):
            return True
        return False

    # ------------------------------------------------------------------
    # switch out
    # ------------------------------------------------------------------

    def _switch_cost(self, block: BlockRT, start: float) -> float:
        if self.ideal:
            return start + 1
        # Context bytes are divided by the experiment's time scale so the
        # switch-cost : fault-cost ratio matches the unscaled system (the
        # fault constants are divided by the same factor).
        nbytes = self.sm.context_bytes(block) / self.config.time_scale
        done = self.dram.reserve_bandwidth(start, nbytes)
        return done + self.config.context_switch_fixed

    def _switch_out(self, block: BlockRT, now: float) -> None:
        """Squash the block's faulted instructions and save its context
        off chip; wake-ups are armed for each pending fault resolution."""
        sm = self.sm
        sm.squash_faulted(block, now)
        block.state = BlockRT.SAVING
        sm._rebuild_warp_list()
        save_start = max(now, block.drain_time)  # drain in-flight work first
        save_done = self._switch_cost(block, save_start)
        sm.stats.block_switch_outs += 1
        if sm.tel is not None:
            sm.tel.tracer.emit_span(
                EV_BLOCK_SWITCH_OUT, now, save_done - now, sm._tid,
                {"block": block.block_id, "kernel": block.kernel_id,
                 "context_bytes": sm.context_bytes(block)},
            )
        self.events.schedule(
            save_done, lambda t, b=block: self._finish_switch_out(b, t)
        )
        # Arrange a wake-up when each of the block's faults resolves, so a
        # free slot can restore it as soon as it becomes runnable.
        for resolve_time in set(block.pending_groups.values()):
            if resolve_time > now:
                self.events.schedule(
                    resolve_time, lambda t, b=block: self._on_resolved(b, t)
                )

    def _finish_switch_out(self, block: BlockRT, now: float) -> None:
        sm = self.sm
        block.state = BlockRT.OFFCHIP
        sm.blocks.remove(block)
        sm.offchip.append(block)
        sm.free_slots += 1
        sm._rebuild_warp_list()
        self.on_slot_free(now)

    def _on_resolved(self, block: BlockRT, now: float) -> None:
        if block.state == BlockRT.OFFCHIP and self.sm.free_slots > 0:
            self.on_slot_free(now)

    # ------------------------------------------------------------------
    # slot filling (also the SM's refill path while this scheduler is on)
    # ------------------------------------------------------------------

    def on_slot_free(self, now: float) -> None:
        sm = self.sm
        while sm.free_slots > 0:
            block = self._ready_offchip(now)
            if block is not None:
                self._restore(block, now)
                continue
            if (
                sm.block_source.pending > 0
                and (not sm.offchip or self.extra_fetched < self.config.max_extra_blocks)
            ):
                btrace = sm.block_source.next_block(sm.sm_id)
                if btrace is None:
                    return
                if sm.offchip:
                    self.extra_fetched += 1
                    sm.stats.extra_blocks_fetched += 1
                sm.launch_block(btrace, now)
                continue
            return  # nothing runnable: wait for a fault resolution

    def _ready_offchip(self, now: float) -> Optional[BlockRT]:
        for block in self.sm.offchip:
            if block.state == BlockRT.OFFCHIP and not block.unresolved_at(now):
                return block
        return None

    def _restore(self, block: BlockRT, now: float) -> None:
        """Bring a runnable off-chip block's context back on chip."""
        sm = self.sm
        block.state = BlockRT.RESTORING
        sm.free_slots -= 1
        restore_done = self._switch_cost(block, now)
        sm.stats.block_switch_ins += 1
        if sm.tel is not None:
            sm.tel.tracer.emit_span(
                EV_BLOCK_SWITCH_IN, now, restore_done - now, sm._tid,
                {"block": block.block_id, "kernel": block.kernel_id},
            )
        self.events.schedule(
            restore_done, lambda t, b=block: self._finish_restore(b, t)
        )

    def _finish_restore(self, block: BlockRT, now: float) -> None:
        sm = self.sm
        sm.offchip.remove(block)
        block.state = BlockRT.ACTIVE
        sm.blocks.append(block)
        for warp in block.warps:
            warp.fetch_ready = max(warp.fetch_ready, now)
        sm._rebuild_warp_list()
        sm.wake()

"""Invariant sanitizer: structural self-checks for the timing simulator.

The timing model keeps a lot of distributed bookkeeping — per-warp
scoreboards, the per-block operand log and replay queue, the pending
fault-group map, the event heap, the physical frame pool.  A model bug
(or an overly creative chaos injection) that corrupts any of these tends
to surface far away as a silent hang or a wrong cycle count.  The
sanitizer turns the corruption into an immediate, structured
:class:`InvariantViolation` at the point where the invariant is supposed
to hold:

- **block retirement** — when a thread block retires, all of its warps'
  scoreboards must be empty, no instruction may remain in flight, its
  operand-log bytes must be fully released, its replay queue drained and
  every fault group it raised resolved;
- **event heap** — no event may be scheduled before the last event that
  already fired (time must not regress), and one ``run_until`` call must
  not fire an unbounded number of events (a same-timestamp
  self-rescheduling event would otherwise spin forever *inside* the
  heap, where the run-loop watchdog cannot see it);
- **frame allocation** — no physical frame may back two virtual pages
  (double allocation across the CPU/per-SM allocator partitions).

The sanitizer is opt-in (``GpuSimulator(sanitize=True)``): production
timing runs store ``None`` and pay nothing, the same contract as
telemetry and chaos.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.timing.decode import mask_names


class InvariantViolation(Exception):
    """A structural invariant of the simulation was broken.

    ``what`` names the invariant; ``details`` carries the structured
    context (block id, leaked entries, offending times) so a failing
    chaos campaign can be diagnosed without re-running it.
    """

    def __init__(self, what: str, details: Optional[Dict] = None) -> None:
        self.what = what
        self.details = dict(details or {})
        lines = [what]
        for key, value in self.details.items():
            lines.append(f"  {key}: {value}")
        super().__init__("\n".join(lines))


class InvariantSanitizer:
    """Stateless-ish checker invoked from the instrumented layers.

    One instance per simulated run; ``checks_run`` counts invocations so
    tests can assert the sanitizer actually looked at something.
    """

    #: events one ``run_until`` call may fire before it is declared a
    #: same-timestamp livelock (far above any legitimate burst)
    max_events_per_advance = 1_000_000

    def __init__(self) -> None:
        self.checks_run = 0

    # ------------------------------------------------------------------
    # block retirement (called by SmPipeline._block_finished)
    # ------------------------------------------------------------------

    def check_block_retirement(self, sm, block, time: float) -> None:
        """Assert no scoreboard / operand-log / replay-queue / fault-group
        state leaked from a retiring thread block."""
        self.checks_run += 1
        leaks: List[str] = []
        for warp in block.warps:
            if warp.pw or warp.pr or warp.prm:
                leaks.append(
                    f"warp {warp.slot}: scoreboard entries "
                    f"pw={mask_names(warp.pw)} "
                    f"pr={mask_names(warp.prm)} reads={sum(warp.pr.values())}"
                )
            if warp.inflight:
                leaks.append(
                    f"warp {warp.slot}: {warp.inflight} in-flight "
                    "instructions at retirement"
                )
            if warp.replay_list:
                leaks.append(
                    f"warp {warp.slot}: {len(warp.replay_list)} unreplayed "
                    "instructions"
                )
        if block.log_used:
            leaks.append(f"operand log: {block.log_used} bytes not released")
        live_replays = [
            rec
            for rec in block.faulted_inflight
            if not rec[2].fired and not rec[2].cancelled
        ]
        if live_replays:
            leaks.append(
                f"replay queue: {len(live_replays)} faulted instructions "
                "still pending"
            )
        if block.unresolved_at(time):
            pending = [
                g for g, t in block.pending_groups.items() if t > time
            ]
            leaks.append(f"fault groups unresolved at retirement: {pending}")
        if leaks:
            raise InvariantViolation(
                "state leak at block retirement",
                {
                    "sm": sm.sm_id,
                    "block": block.block_id,
                    "time": time,
                    "leaks": leaks,
                },
            )

    # ------------------------------------------------------------------
    # physical frames (called at end of run / on demand)
    # ------------------------------------------------------------------

    def check_frames(self, page_state) -> None:
        """Assert no physical frame backs two GPU-mapped virtual pages."""
        self.checks_run += 1
        backing: Dict[int, int] = {}
        for vpn, entry in page_state.gpu_table.items():
            first = backing.setdefault(entry.ppn, vpn)
            if first != vpn:
                raise InvariantViolation(
                    "frame double-allocation",
                    {"ppn": entry.ppn, "vpns": [first, vpn]},
                )

    # ------------------------------------------------------------------
    # event heap (called by EventQueue in sanitized mode)
    # ------------------------------------------------------------------

    def heap_regression(self, scheduled: float, last_fired: float) -> None:
        """An event was scheduled before the heap's last fired time."""
        raise InvariantViolation(
            "event-heap time regression",
            {"scheduled_at": scheduled, "last_fired": last_fired},
        )

    def heap_storm(self, time: float, ran: int) -> None:
        """One heap advance fired an implausible number of events."""
        raise InvariantViolation(
            "event storm: run_until fired too many events in one advance "
            "(same-timestamp self-rescheduling event?)",
            {"advance_to": time, "events_fired": ran,
             "limit": self.max_events_per_advance},
        )

"""Simulation watchdog: turn a wedged run loop into a diagnostic.

The GPU run loop already raises ``DeadlockError`` when it is *provably*
stuck (no SM awake and no events pending).  The nastier failure mode is
the live hang: the loop keeps spinning — SMs report awake but never
issue, or an event keeps rescheduling itself — while no instruction ever
commits.  The watchdog samples forward progress (blocks retired +
instructions committed) once per configured cycle budget; if a whole
budget elapses with no progress it raises :class:`SimulationHang`
carrying a structured :class:`HangDiagnostic` — pending fault groups,
per-SM warp states, event-heap status and the telemetry summary — so a
chaos campaign reports *where* the simulation wedged instead of looping
until the harness timeout kills it.

The budget must exceed the longest legitimate commit gap (a deep fault
storm serializing on the CPU handler can keep an SM quiet for hundreds
of thousands of cycles at time scale 1); :data:`DEFAULT_CYCLE_BUDGET` is
sized for the bundled workloads — see docs/ROBUSTNESS.md for the
thresholds discussion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: default no-progress window, in cycles (well above the worst legitimate
#: commit gap of the bundled workloads at time scale 1)
DEFAULT_CYCLE_BUDGET = 1_000_000.0


@dataclass
class HangDiagnostic:
    """Everything known about the simulation at the moment it hung."""

    cycle: float
    cycle_budget: float
    blocks_remaining: int
    committed: int
    pending_fault_groups: List[int] = field(default_factory=list)
    event_heap_depth: int = 0
    next_event_time: Optional[float] = None
    #: per-SM warp summaries: ``{"sm0": [{"warp": 0, "pc": 3, ...}, ...]}``
    warp_states: Dict[str, List[Dict]] = field(default_factory=dict)
    telemetry_summary: Optional[Dict] = None

    def render(self) -> str:
        """Human-readable dump (the exception message)."""
        out = [
            f"no forward progress for {self.cycle_budget:g} cycles "
            f"(hung at cycle {self.cycle:g})",
            f"  blocks remaining: {self.blocks_remaining}, "
            f"instructions committed: {self.committed}",
            f"  event heap: {self.event_heap_depth} pending, "
            f"next at {self.next_event_time}",
            f"  pending fault groups: {self.pending_fault_groups}",
        ]
        for tid, warps in self.warp_states.items():
            stuck = [w for w in warps if not w.get("done")]
            out.append(f"  {tid}: {len(stuck)} live warps")
            for w in stuck[:8]:
                kernel = (
                    f" kernel={w['kernel']}" if "kernel" in w else ""
                )
                out.append(
                    f"    warp {w['warp']}:{kernel}"
                    f" idx {w['idx']}/{w['trace_len']}"
                    f" inflight={w['inflight']} holds={w['fetch_holds']}"
                    f" barrier={w['at_barrier']} replays={w['replays']}"
                )
        if self.telemetry_summary:
            out.append(f"  telemetry: {self.telemetry_summary}")
        return "\n".join(out)


class SimulationHang(Exception):
    """The watchdog declared the run hung; carries the diagnostic."""

    def __init__(self, diagnostic: HangDiagnostic) -> None:
        self.diagnostic = diagnostic
        super().__init__(diagnostic.render())


class Watchdog:
    """No-forward-progress detector sampled by the GPU run loop.

    ``observe`` is called at most once per ``cycle_budget`` simulated
    cycles with the loop's progress signature; it returns ``True`` while
    the simulation moves and ``False`` once a whole budget passed with
    an unchanged signature (the caller then raises
    :class:`SimulationHang` with a diagnostic it assembles)."""

    def __init__(self, cycle_budget: float = DEFAULT_CYCLE_BUDGET) -> None:
        if cycle_budget <= 0:
            raise ValueError("cycle_budget must be positive")
        self.cycle_budget = cycle_budget
        self._last: Optional[Tuple] = None
        self.trips = 0

    def observe(self, progress: Tuple) -> bool:
        """Record one progress signature; ``False`` = no progress since
        the previous observation (a hang)."""
        if progress == self._last:
            self.trips += 1
            return False
        self._last = progress
        return True

    def reset(self) -> None:
        """Forget the last signature (a fresh run reuses the watchdog)."""
        self._last = None

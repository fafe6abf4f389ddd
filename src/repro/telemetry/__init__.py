"""Telemetry: structured event tracing + hierarchical counters.

The observability layer of the simulator (see docs/OBSERVABILITY.md).  One
:class:`Telemetry` object per simulated run bundles

- a :class:`~repro.telemetry.events.RingBufferTracer` recording typed
  micro-architectural events (issue/commit/squash/replay, TLB hit/miss,
  fault raise/resolve, block switch in/out) exportable as a Chrome
  ``trace_event`` JSON that opens in ``chrome://tracing`` / Perfetto, and
- a :class:`~repro.telemetry.counters.CounterRegistry` of hierarchical
  counters (``gpu.sm[i].warp_stall.fault``, ``gpu.tlb.l2.miss``, ...)
  sampled at a fixed cycle interval into time series.

Zero overhead when disabled: every instrumented component stores ``None``
instead of a disabled Telemetry at construction time, so the hot paths
pay exactly one pointer comparison (usually hoisted out of loops) and the
simulator's timing results are bit-identical with telemetry on or off.

Usage::

    from repro.telemetry import Telemetry
    tel = Telemetry()
    sim = GpuSimulator.for_workload("saxpy", "replay-queue", telemetry=tel)
    sim.run()
    tel.write("traces/run")        # run.trace.json + run.counters.json
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from . import events as ev
from .compare import CounterDiff, diff_counters, diff_files
from .counters import Counter, CounterRegistry, merge_dumps, rollup_flat
from .events import ALL_EVENT_NAMES, RingBufferTracer

#: default counter-sampling period (cycles)
DEFAULT_SAMPLE_INTERVAL = 1000.0


class Telemetry:
    """Per-run telemetry hub: one tracer + one counter registry.

    Components receive this object at construction; a disabled instance
    (``Telemetry(enabled=False)``) is equivalent to passing ``None`` —
    instrumented code must not hold a reference to it.
    """

    def __init__(
        self,
        enabled: bool = True,
        capacity: int = 1 << 16,
        sample_interval: float = DEFAULT_SAMPLE_INTERVAL,
    ) -> None:
        self.enabled = enabled
        self.sample_interval = sample_interval
        self.tracer = RingBufferTracer(capacity)
        self.counters = CounterRegistry()

    def __bool__(self) -> bool:
        """Truthiness == enabled, so ``tel or None`` gates instrumentation."""
        return self.enabled

    # ------------------------------------------------------------------

    def sample(self, now: float) -> None:
        """Record one timestamped snapshot of every counter/gauge."""
        self.counters.sample(now)

    def annotate(self, **metadata) -> None:
        """Attach run metadata (scheme, workload, config) to both outputs."""
        self.counters.metadata.update(metadata)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def chrome_trace(self) -> Dict:
        """The Chrome ``trace_event`` dict for this run."""
        return self.tracer.to_chrome(metadata=self.counters.metadata)

    def write(self, stem: str) -> Dict[str, str]:
        """Write ``<stem>.trace.json`` and ``<stem>.counters.json``
        (creating parent directories); returns
        ``{"trace": path, "counters": path}``."""
        parent = os.path.dirname(stem)
        if parent:
            os.makedirs(parent, exist_ok=True)
        return {
            "trace": self.tracer.write_chrome(
                f"{stem}.trace.json", metadata=self.counters.metadata
            ),
            "counters": self.counters.write_json(f"{stem}.counters.json"),
        }

    def summary(self) -> Dict:
        """Small printable digest: event histogram + headline counters."""
        return {
            "events": self.tracer.names(),
            "events_recorded": self.tracer.recorded,
            "events_dropped": self.tracer.dropped,
            "counters": len(self.counters.paths()),
            "samples": len(self.counters.samples),
        }


def active(telemetry: Optional[Telemetry]) -> Optional[Telemetry]:
    """Normalize a constructor argument: an enabled Telemetry passes
    through, ``None`` or a disabled one becomes ``None`` (so hot paths
    need only an ``is not None`` check)."""
    return telemetry if telemetry is not None and telemetry.enabled else None


__all__ = [
    "ALL_EVENT_NAMES",
    "Counter",
    "CounterDiff",
    "CounterRegistry",
    "DEFAULT_SAMPLE_INTERVAL",
    "RingBufferTracer",
    "Telemetry",
    "active",
    "diff_counters",
    "diff_files",
    "ev",
    "merge_dumps",
    "rollup_flat",
]

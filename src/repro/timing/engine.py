"""Discrete-event backbone of the timing simulator.

The SM front end (issue logic) is evaluated cycle by cycle, but all
long-latency completions (operand reads, commits, memory fills, fault
resolutions, context switches) are events on one global heap.  The run loop
in :mod:`repro.system.gpu` advances the cycle counter by one while any SM is
making issue progress and otherwise jumps straight to the next event time —
the acceleration that makes full-benchmark simulation tractable in Python.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional


class Event:
    """A scheduled callback; cancel() makes it a no-op (used when squashing
    faulted instructions during a block switch)."""

    __slots__ = ("time", "fn", "cancelled", "fired")

    def __init__(self, time: float, fn: Callable[[float], None]) -> None:
        self.time = time
        self.fn = fn
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        self.cancelled = True


class EventQueue:
    """Time-ordered event heap with stable FIFO tie-breaking.

    Exposes the load metrics the telemetry layer samples (see
    docs/OBSERVABILITY.md): ``processed`` events run, ``scheduled`` events
    pushed, ``peak`` outstanding heap depth, and ``coalesced`` dispatches
    that skipped a heap push entirely (same-timestamp callbacks merged into
    one event, wake-ups absorbed by the SMs' ``next_ready_cycle`` scalar,
    and releases executed inline — docs/PERFORMANCE.md).  Together they
    show how event-bound (vs. issue-bound) a simulated region is.
    """

    def __init__(self) -> None:
        # Time-bucketed store: a FIFO list of events per unique timestamp,
        # plus a heap of the distinct timestamps.  Bucket append order is
        # chronological schedule order, so within-bucket FIFO equals the
        # (time, seq) ordering of a per-event heap — bit-identical dispatch
        # with one heap operation per unique time instead of per event
        # (docs/PERFORMANCE.md).
        self._buckets: dict = {}
        self._times: List[float] = []
        self._size = 0
        self.processed = 0
        self.scheduled = 0
        self.peak = 0
        self.coalesced = 0
        # Invariant sanitizer (repro.chaos): None in production runs, so
        # schedule/run_until stay on their unchecked fast paths.
        self._sanitizer = None
        self._last_fired = -math.inf

    def attach_sanitizer(self, sanitizer) -> None:
        """Enable heap self-checks (docs/ROBUSTNESS.md): scheduling before
        the last fired event time raises ``InvariantViolation`` (time
        regression), and one ``run_until`` advance firing an unbounded
        event count is declared a same-timestamp livelock."""
        self._sanitizer = sanitizer

    def schedule(self, time: float, fn: Callable[[float], None]) -> Event:
        """Schedule ``fn(time)``; returns the cancellable Event handle."""
        if self._sanitizer is not None and time < self._last_fired:
            self._sanitizer.heap_regression(time, self._last_fired)
        event = Event(time, fn)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heapq.heappush(self._times, time)
        else:
            bucket.append(event)
        self.scheduled += 1
        self._size += 1
        if self._size > self.peak:
            self.peak = self._size
        return event

    def call(self, time: float, fn: Callable[[float], None]) -> None:
        """Schedule ``fn(time)`` with no cancellation handle.

        Stores a bare ``(time, fn)`` tuple in the bucket instead of an
        :class:`Event` — same FIFO slot, same dispatch order, one object
        allocation less.  Use only for events that are never cancelled
        (commits, fetch/hold releases, memory phases on the non-faulted
        path); squashable work needs :meth:`schedule`'s Event handle."""
        if self._sanitizer is not None and time < self._last_fired:
            self._sanitizer.heap_regression(time, self._last_fired)
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(time, fn)]
            heapq.heappush(self._times, time)
        else:
            bucket.append((time, fn))
        self.scheduled += 1
        self._size += 1
        if self._size > self.peak:
            self.peak = self._size

    def __len__(self) -> int:
        return self._size

    @property
    def next_time(self) -> Optional[float]:
        return self._times[0] if self._times else None

    def run_until(self, time: float) -> int:
        """Run every event with timestamp <= ``time``; returns count run.

        A bucket stays registered while its events fire, so a callback
        scheduling at the *current* timestamp appends to the live bucket
        and fires in this same pass — exactly the per-event heap
        behaviour."""
        if self._sanitizer is not None:
            return self._run_until_sanitized(time)
        ran = 0
        times = self._times
        buckets = self._buckets
        while times and times[0] <= time:
            t = heapq.heappop(times)
            bucket = buckets[t]
            i = 0
            while i < len(bucket):
                event = bucket[i]
                i += 1
                if type(event) is tuple:  # handle-free entry (never cancelled)
                    event[1](event[0])
                    ran += 1
                elif not event.cancelled:
                    event.fired = True
                    event.fn(event.time)
                    ran += 1
            del buckets[t]
            self._size -= i
        self.processed += ran
        return ran

    def _run_until_sanitized(self, time: float) -> int:
        """Checked variant of :meth:`run_until`: tracks the last fired
        time (for the schedule-into-the-past check) and bounds the events
        one advance may fire (a same-timestamp self-rescheduling event
        would otherwise spin inside this loop, invisible to the run-loop
        watchdog)."""
        san = self._sanitizer
        limit = san.max_events_per_advance
        ran = 0  # events fired but not yet folded into ``processed``
        total = 0  # events fired during this advance
        times = self._times
        buckets = self._buckets
        while times and times[0] <= time:
            t = heapq.heappop(times)
            bucket = buckets[t]
            i = 0
            while i < len(bucket):
                event = bucket[i]
                i += 1
                is_tuple = type(event) is tuple
                if not is_tuple and event.cancelled:
                    continue
                if t < self._last_fired:
                    san.heap_regression(t, self._last_fired)
                self._last_fired = t
                if is_tuple:
                    event[1](event[0])
                else:
                    event.fired = True
                    event.fn(event.time)
                ran += 1
                total += 1
                if total > limit:
                    # Fold the accounting in *before* the sanitizer call
                    # (which normally raises) and zero ``ran`` so a tolerant
                    # sanitizer that returns does not double-count these
                    # events below.
                    self.processed += ran
                    ran = 0
                    san.heap_storm(time, total)
            del buckets[t]
            self._size -= i
        self.processed += ran
        return total

    def clear(self) -> None:
        """Drop every pending event without running it (a finished run's
        leftovers: their callbacks hold the SMs that hold this queue)."""
        self._buckets.clear()
        self._times.clear()
        self._size = 0

    def drain(self) -> None:
        """Run all remaining events in time order (end-of-simulation tail).

        Also advances ``_last_fired`` so scheduling checks performed after
        a drain (sanitized runs) still see the true simulation frontier."""
        times = self._times
        buckets = self._buckets
        while times:
            t = heapq.heappop(times)
            bucket = buckets[t]
            i = 0
            while i < len(bucket):
                event = bucket[i]
                i += 1
                if type(event) is tuple:
                    if t > self._last_fired:
                        self._last_fired = t
                    event[1](event[0])
                    self.processed += 1
                elif not event.cancelled:
                    if t > self._last_fired:
                        self._last_fired = t
                    event.fired = True
                    event.fn(event.time)
                    self.processed += 1
            del buckets[t]
            self._size -= i

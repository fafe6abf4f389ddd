"""The GPU memory subsystem: per-SM L1 caches, shared L2, DRAM, and the MMU.

The SM's global-memory pipeline drives a warp access in two timed events,
so that shared resources are only ever booked in global time order:

- :meth:`MemorySubsystem.translate_access_coalesced` (at operand read)
  streams the coalesced requests through the per-SM LD/ST address pipeline,
  one request per cycle, and translates each unique page once, at the slot
  of its first request.  That serialization is why the *last* TLB check of
  a scattered warp access lands tens of cycles after issue.  Page faults
  are detected at walk completion.  It reports ``translation_done`` (when
  the last TLB check finished: the paper's earliest safe point to
  re-enable a disabled warp or release replay-queue source scoreboards),
  the lines whose page translated, and the faulted pages.
- :meth:`MemorySubsystem.data_access` (at ``translation_done``) walks those
  lines through L1 -> L2 -> DRAM in one pass (:func:`repro.mem.cache.walk`)
  and returns the instruction's completion time.

``warp_access`` runs both phases back to back for tests and tools.
Faulted instructions are *replayed* after resolution via
``replay_after_fault_coalesced``, which charges unloaded latencies only:
replay happens far in simulation future, and pushing shared bandwidth
accumulators (LD/ST pipe, DRAM pipe, MSHR pools) to future timestamps
would stall unrelated present-time accesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Sequence

from repro.vm import PAGE_SHIFT

from .cache import Cache, Dram, walk
from .coalescer import coalesce, line_page_shift
from .tlb import Mmu


@dataclass
class FaultInfo:
    """A page fault detected by the fill unit for one warp access."""

    vpn: int
    detect_time: float
    sm_id: int
    is_store: bool = False


@dataclass
class AccessResult:
    """Timing outcome of one warp global-memory instruction."""

    translation_done: float
    completion: float
    faults: List[FaultInfo] = field(default_factory=list)
    num_requests: int = 0

    @property
    def faulted(self) -> bool:
        return bool(self.faults)


class TranslationOutcome(NamedTuple):
    """Phase 1 of a warp access: coalescing + translation of every page.

    ``ready_lines`` holds the coalesced requests whose page translated
    successfully; the data-path phase (cache/DRAM) runs at
    ``translation_done`` so shared bandwidth resources are only ever booked
    in global time order.  A NamedTuple (not a frozen dataclass) because
    one is built per warp access: tuple construction runs in C, while a
    frozen dataclass pays an ``object.__setattr__`` call per field.
    """

    translation_done: float
    ready_lines: Sequence[int] = ()
    faults: Sequence[FaultInfo] = ()
    num_requests: int = 0

    @property
    def faulted(self) -> bool:
        return bool(self.faults)


class MemorySubsystem:
    """Composes caches, DRAM and MMU according to a configuration object.

    ``translate_fn(vpn, time)`` supplies the time-aware page-table view
    (see :class:`repro.system.faults.FaultController`).
    """

    def __init__(self, config, translate_fn, telemetry=None, chaos=None) -> None:
        self.config = config
        dram_unloaded = (
            config.dram_latency
            + config.line_size / config.dram_bandwidth_bytes_per_cycle
        )
        self.l1_caches = [
            Cache(
                f"l1[{i}]",
                size_bytes=config.l1_size,
                assoc=config.l1_assoc,
                line_size=config.line_size,
                latency=config.l1_latency,
                num_mshrs=config.l1_mshrs,
                next_level_unloaded=config.l2_latency + dram_unloaded,
            )
            for i in range(config.num_sms)
        ]
        self.l2_cache = Cache(
            "l2",
            size_bytes=config.l2_size,
            assoc=config.l2_assoc,
            line_size=config.line_size,
            latency=config.l2_latency,
            num_mshrs=config.l2_mshrs,
            next_level_unloaded=dram_unloaded,
        )
        self.dram = Dram(
            latency=config.dram_latency,
            bandwidth_bytes_per_cycle=config.dram_bandwidth_bytes_per_cycle,
            line_size=config.line_size,
        )
        self.mmu = Mmu(
            num_sms=config.num_sms,
            l1_entries=config.l1_tlb_entries,
            l1_assoc=config.l1_tlb_assoc,
            l2_entries=config.l2_tlb_entries,
            l2_assoc=config.l2_tlb_assoc,
            l2_latency=config.l2_tlb_latency,
            num_walkers=config.num_walkers,
            walk_latency=config.walk_latency,
            translate_fn=translate_fn,
        )
        self._ldst_free = [0.0] * config.num_sms
        self._line_page_shift = line_page_shift(config.line_size)
        self.attach_telemetry(telemetry)
        self.attach_chaos(chaos)

    def attach_telemetry(self, telemetry) -> None:
        """Wire the observability layer through the memory subsystem:
        TLB/walker gauges + hit/miss events on the MMU, and cache/DRAM
        gauges under ``gpu.cache.*`` / ``gpu.dram.*`` (zero hot-path
        cost — gauges read the existing stats objects lazily)."""
        from repro.telemetry import active

        tel = active(telemetry)
        self.mmu.attach_telemetry(tel)
        if tel is None:
            return
        reg = tel.counters
        for i, cache in enumerate(self.l1_caches):
            reg.bind_stats(f"gpu.cache.l1[{i}]", cache.stats)
        reg.bind_stats("gpu.cache.l2", self.l2_cache.stats)
        reg.bind_stats("gpu.dram", self.dram.stats)

    def attach_chaos(self, chaos) -> None:
        """Wire the injection hooks across the memory subsystem: the MMU's
        ``tlb.*`` hooks, ``cache.mshr_exhaustion`` on every cache level and
        ``dram.refresh_storm`` on the DRAM pipe (docs/ROBUSTNESS.md).  A
        disabled engine normalizes to ``None`` everywhere, leaving the hot
        paths untouched."""
        from repro.chaos import chaos_active

        engine = chaos_active(chaos)
        self.mmu.attach_chaos(engine)
        for cache in self.l1_caches:
            cache.attach_chaos(engine)
        self.l2_cache.attach_chaos(engine)
        self.dram.attach_chaos(engine)

    # ------------------------------------------------------------------

    def translate_access(
        self,
        sm_id: int,
        addresses: Sequence[int],
        is_store: bool,
        now: float,
    ) -> TranslationOutcome:
        """:meth:`translate_access_coalesced` for raw lane addresses."""
        return self.translate_access_coalesced(
            sm_id, coalesce(addresses, self.config.line_size), is_store, now
        )

    def translate_access_coalesced(
        self,
        sm_id: int,
        lines: Sequence[int],
        is_store: bool,
        now: float,
    ) -> TranslationOutcome:
        """Phase 1 (at operand read): translate a coalesced access, the
        unique line indices of :func:`repro.mem.coalescer.coalesce`.

        The requests stream through the per-SM LD/ST address pipeline, one
        per cycle from ``max(now, pipe free)``.  Each unique page is
        translated once, in first-touch order, when its first request
        reaches the TLB-check slot; every later request on that page sees
        the same result.  ``translation_done`` is therefore the later of
        one past the last request's slot and the latest page translation,
        which is what checking each request in turn would give, since the
        slots rise with the request index.  The SM feeds memoized
        coalescing results (:func:`repro.mem.coalescer.coalesce_inst`)
        so the bucketing is not redone on every issue or replay."""
        nreq = len(lines)
        start0 = max(now, self._ldst_free[sm_id])
        self._ldst_free[sm_id] = start0 + nreq
        # one past the last request's slot, summed in the order the
        # per-request check summed it (fractional times round)
        translation_done = start0 + (nreq - 1) + 1
        translate = self.mmu.translate
        # The lines' pages, each translated at the slot of its first line.
        # A line's page is monotone in its index, so when the lowest and
        # the highest line share a page (nearly every access) it is the
        # only page, first touched by request 0.  One or two lines are
        # compared directly: min() and max() cost more than the test.
        shift = self._line_page_shift
        if shift is None:  # no shift maps this line size onto pages
            size = self.config.line_size
            line_vpns = [(line * size) >> PAGE_SHIFT for line in lines]
        elif (
            lines[0] >> shift == lines[-1] >> shift
            if nreq <= 2
            else min(lines) >> shift == max(lines) >> shift
        ):
            line_vpns = None
        else:
            line_vpns = [line >> shift for line in lines]
        # A page's first touch is always also a new line (each line lives
        # on exactly one page), so deduping the per-line pages gives the
        # first-touch page order of the raw addresses.
        if line_vpns is None:
            pages = (lines[0] >> shift,)
        else:
            pages = dict.fromkeys(line_vpns)
        faults = None
        for vpn in pages:
            slot = start0
            if line_vpns is not None:
                slot += line_vpns.index(vpn)
            result = translate(sm_id, vpn, slot)
            done = result.done_time
            if done > translation_done:
                translation_done = done
            if result.faulted:
                if faults is None:
                    faults = []
                faults.append(
                    FaultInfo(
                        vpn=vpn, detect_time=done, sm_id=sm_id,
                        is_store=is_store,
                    )
                )
        if faults is None:
            return TranslationOutcome(translation_done, lines, (), nreq)
        if line_vpns is None:
            return TranslationOutcome(translation_done, [], faults, nreq)
        faulted = {f.vpn for f in faults}
        ready_lines = [
            line for line, vpn in zip(lines, line_vpns) if vpn not in faulted
        ]
        return TranslationOutcome(translation_done, ready_lines, faults, nreq)

    def data_access(
        self,
        sm_id: int,
        ready_lines: Sequence[int],
        is_store: bool,
        now: float,
        is_atomic: bool = False,
    ) -> float:
        """Phase 2 (at translation-done): run the requests through the
        cache hierarchy; returns the instruction completion time.

        The L1 is no-write-allocate (NVIDIA-style): stores and atomics
        bypass it — and its MSHRs — and are performed at the L2.  Plain
        stores complete at write-buffer acceptance (the warp's commit does
        not wait for the write-back to land); loads and atomics (which
        return the old value) complete when their data is ready.
        """
        completion = now + self.config.l1_latency
        if is_store or is_atomic:
            ready = walk(
                None, self.l2_cache, self.dram, ready_lines, now, True
            )
            return max(completion, ready) if is_atomic else completion
        ready = walk(
            self.l1_caches[sm_id], self.l2_cache, self.dram, ready_lines,
            now, False,
        )
        return max(completion, ready)

    def warp_access(
        self,
        sm_id: int,
        addresses: Sequence[int],
        is_store: bool,
        now: float,
        is_atomic: bool = False,
    ) -> AccessResult:
        """Both phases back to back (convenience for tests and tools;
        the SM pipeline drives the two phases through timed events)."""
        outcome = self.translate_access(sm_id, addresses, is_store, now)
        completion = self.data_access(
            sm_id,
            outcome.ready_lines,
            is_store,
            outcome.translation_done,
            is_atomic=is_atomic,
        )
        return AccessResult(
            translation_done=outcome.translation_done,
            completion=completion,
            faults=outcome.faults,
            num_requests=outcome.num_requests,
        )

    def replay_after_fault(
        self, sm_id: int, addresses: Sequence[int], resolved_time: float
    ) -> AccessResult:
        """Timing of replaying a faulted access once its fault is resolved.

        Charges *unloaded* latencies: the TLBs have no entry for the freshly
        mapped pages (full walk), and the migrated/zero-filled data sits in
        DRAM.  Shared contention accumulators are deliberately not touched —
        the replay executes far in the future relative to the accesses being
        simulated now.
        """
        return self.replay_after_fault_coalesced(
            sm_id, coalesce(addresses, self.config.line_size), resolved_time
        )

    def replay_after_fault_coalesced(
        self, sm_id: int, lines: Sequence[int], resolved_time: float
    ) -> AccessResult:
        """:meth:`replay_after_fault` for an already-coalesced access (the
        SM fast path reuses the memoized coalescing of the original issue)."""
        cfg = self.config
        nreq = len(lines)
        # Requests re-enter the address pipeline back to back.
        last_check = (
            resolved_time + nreq + cfg.l2_tlb_latency + cfg.walk_latency
        )
        completion = last_check + cfg.l2_latency + cfg.dram_latency
        return AccessResult(
            translation_done=last_check,
            completion=completion,
            faults=[],
            num_requests=nreq,
        )

    def flush(self) -> None:
        for cache in self.l1_caches:
            cache.flush()
        self.l2_cache.flush()
        self.dram.flush()
        self.mmu.flush()
        self._ldst_free = [0.0] * self.config.num_sms

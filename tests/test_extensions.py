"""Tests for the paper's extension features: arithmetic-exception coverage
(Sections 3.1/3.2) and the preemption-latency analysis (Section 2.4)."""

import pytest

from repro.core import (
    ReplayQueue,
    WarpDisableCommit,
    WarpDisableLastCheck,
    make_scheme,
)
from repro.core.preemption import (
    measure_preemption_latency,
    preemption_latency_experiment,
)
from repro.functional import Interpreter, Launch
from repro.isa import Imm, KernelBuilder, R
from repro.system import GPUConfig, GpuSimulator, NVLINK
from repro.vm import AddressSpace, SegmentKind, SparseMemory
from repro.workloads import MICRO


def div_heavy_workload():
    """A kernel chained through SFU divides (the divide-by-zero class)."""
    kb = KernelBuilder("divchain", regs_per_thread=16)
    kb.global_thread_id(R(0))
    kb.mov(R(1), Imm(1000.0))
    kb.mov(R(5), Imm(1.0))
    for _ in range(8):
        kb.fdiv(R(1), R(1), Imm(1.5))
        # independent work the barrier (but not the baseline) blocks
        kb.fadd(R(5), R(5), Imm(1.0))
        kb.fmul(R(6), R(5), Imm(2.0))
        kb.fadd(R(7), R(6), Imm(3.0))
    kb.imad(R(3), R(0), Imm(4), kb.param(0))
    kb.st_global(R(3), R(1))
    kb.exit()
    kernel = kb.build()

    def make_aspace():
        asp = AddressSpace()
        asp.add_segment("out", 1 << 16, SegmentKind.OUTPUT)
        return asp

    asp = make_aspace()
    trace = Interpreter(memory=SparseMemory()).run(
        Launch(kernel, 4, 64, params=[asp.segment("out").base])
    )
    return kernel, trace, make_aspace


class TestArithmeticExceptionCoverage:
    def cycles(self, scheme):
        kernel, trace, make_aspace = div_heavy_workload()
        sim = GpuSimulator(kernel, trace, make_aspace(), scheme=scheme)
        return sim.run().cycles

    def test_wd_barrier_on_divides_costs(self):
        plain = self.cycles(WarpDisableCommit())
        covered = self.cycles(WarpDisableCommit(cover_arithmetic=True))
        assert covered > plain  # every divide becomes a warp barrier

    def test_replay_queue_defers_divide_sources(self):
        plain = self.cycles(ReplayQueue())
        covered = self.cycles(ReplayQueue(cover_arithmetic=True))
        # fdiv reads+writes R1 -> the next fdiv WARs on it; deferring the
        # release to execution-complete serializes the chain further
        assert covered >= plain

    def test_lastcheck_variant_also_covers(self):
        plain = self.cycles(WarpDisableLastCheck())
        covered = self.cycles(WarpDisableLastCheck(cover_arithmetic=True))
        assert covered > plain

    def test_memory_only_kernels_unaffected(self):
        wl = MICRO.fresh("saxpy")
        sim = lambda s: GpuSimulator(
            wl.kernel, wl.trace(), wl.make_address_space(), scheme=s
        ).run().cycles
        assert sim(WarpDisableCommit(cover_arithmetic=True)) == sim(
            WarpDisableCommit()
        )

    def test_factory_kwarg(self):
        scheme = make_scheme("replay-queue", cover_arithmetic=True)
        assert scheme.cover_arithmetic


class TestPreemptionLatency:
    def make_sim(self, wl, scheme):
        config = GPUConfig().time_scaled(8.0)
        return GpuSimulator(
            kernel=wl.kernel,
            trace=wl.trace(),
            address_space=wl.make_address_space(),
            config=config,
            scheme=scheme,
            paging="demand",
            interconnect=NVLINK.scaled(8.0),
        )

    def test_stall_on_fault_waits_for_resolutions(self):
        wl = MICRO.fresh("stream-sum")
        sim = self.make_sim(wl, make_scheme("replay-queue"))
        reports = measure_preemption_latency(sim, request_time=100.0)
        pre = reports["preemptible"]
        stall = reports["stall-on-fault"]
        assert stall.worst_latency >= pre.worst_latency
        assert pre.request_time == 100.0

    def test_latency_gap_under_faults(self):
        """With in-flight faults, the non-preemptible policy's context
        switch latency includes the fault round trip (the Section 2.4
        claim)."""
        wl = MICRO.fresh("stream-sum")
        best_gap = 0.0
        for fraction in (0.05, 0.15, 0.3):
            result = preemption_latency_experiment(
                wl, make_scheme("replay-queue"), request_fraction=fraction,
                time_scale=8.0,
            )
            assert result["stall-on-fault"] >= result["preemptible"]
            best_gap = max(
                best_gap, result["stall-on-fault"] - result["preemptible"]
            )
        # at some point during the run, in-flight faults make the
        # non-preemptible switch wait out a fault round trip
        assert best_gap > NVLINK.scaled(8.0).alloc_cost * 0.3

    def test_context_bytes_reported(self):
        wl = MICRO.fresh("saxpy")
        sim = self.make_sim(wl, make_scheme("replay-queue"))
        reports = measure_preemption_latency(sim, request_time=50.0)
        assert any(b > 0 for b in reports["preemptible"].context_bytes)

    def test_mean_and_worst(self):
        wl = MICRO.fresh("saxpy")
        sim = self.make_sim(wl, make_scheme("replay-queue"))
        rep = measure_preemption_latency(sim, 50.0)["preemptible"]
        assert rep.mean_latency <= rep.worst_latency

    # Exact reports, so that where advancing to the request time stops
    # (events and issue at the request time itself do not run) cannot
    # drift.  Every SM reports the same drain time and context, so each
    # case is (preemptible drain, stall-on-fault drain, context bytes,
    # instructions committed by the request time).
    @pytest.mark.parametrize("name,scheme,request_time,want", [
        ("saxpy", "replay-queue", 50.0, (50.0, 3586.0, 12416, 640)),
        ("saxpy", "replay-queue", 250.5, (250.5, 3586.0, 12544, 640)),
        ("saxpy", "replay-queue", 3000.0, (3000.0, 3586.0, 12416, 768)),
        ("saxpy", "baseline", 100.0, (100.0, 3586.0, 12288, 640)),
        ("stream-sum", "replay-queue", 1.0, (8.0, 8.0, 8192, 0)),
        ("stream-sum", "replay-queue", 50.0, (55.0, 55.0, 8192, 448)),
        ("stream-sum", "replay-queue", 100.0, (100.0, 2975.0, 8256, 512)),
        ("stream-sum", "replay-queue", 3000.0, (3004.0, 3004.0, 8192, 896)),
        ("stream-sum", "baseline", 400.0, (400.0, 2975.0, 8192, 512)),
    ])
    def test_reports_pinned(self, name, scheme, request_time, want):
        sim = self.make_sim(MICRO.fresh(name), make_scheme(scheme))
        reports = measure_preemption_latency(sim, request_time)
        pre, stalled = reports["preemptible"], reports["stall-on-fault"]
        n = len(sim.sms)
        drain, stall, ctx, committed = want
        assert pre.drain_ready == [drain] * n
        assert stalled.drain_ready == [stall] * n
        assert pre.context_bytes == stalled.context_bytes == [ctx] * n
        assert sum(sm.stats.committed for sm in sim.sms) == committed

"""Host-memory lifetime of the timing simulator.

A finished simulator must be freed by reference counting alone when its
caller drops it: a campaign cell or serve child runs several simulations
over one trace, and cyclic garbage would stack each run's SMs, blocks and
warps on the next until a full collection (docs/PERFORMANCE.md, "Host
memory of a simulation cell").  The tests switch the cyclic collector
off, with chaos and the sanitizer left off too and telemetry on in one
test only, so whatever reference counting leaves behind stays visible.
"""

import contextlib
import functools
import gc
import tracemalloc
from collections import Counter

import pytest

import repro.core.preemption as preemption
import repro.system.gpu as gpu
from repro.core import make_scheme
from repro.core.preemption import (
    measure_preemption_latency,
    preemption_latency_experiment,
)
from repro.mem import coalesce, coalesce_inst
from repro.system import GPUConfig, GpuSimulator, MultiKernelSimulator, NVLINK
from repro.telemetry import Telemetry
from repro.timing.sm import BlockRT, WarpRT
from repro.workloads import MICRO
from repro.workloads.halloc import AllocCycle
from tests.test_local_scheduler import FaultStorm

_CFG = GPUConfig().time_scaled(8.0)
_IC = NVLINK.scaled(8.0)


@contextlib.contextmanager
def _no_cyclic_gc():
    gc.collect()  # earlier tests' cyclic garbage is not this test's
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _cyclic_repro_garbage() -> Counter:
    """``repro.*`` instances that only a cyclic collection would free."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return Counter(
            type(o).__qualname__ for o in gc.garbage
            if type(o).__module__.startswith("repro.")
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _gpu_sim(wl, trace, **kwargs):
    return GpuSimulator(
        kernel=wl.kernel, trace=trace,
        address_space=wl.make_address_space(), config=_CFG,
        interconnect=_IC, **kwargs,
    )


@pytest.fixture(scope="module")
def storm():
    """Oversubscribed fault storm: blocks switch out and back in."""
    wl = FaultStorm()
    wl.trace()
    return wl


_WAYS = {
    "premapped-baseline": (
        lambda: MICRO.fresh("saxpy"),
        dict(scheme=make_scheme("baseline"), paging="premapped"),
        "blocks_completed",
    ),
    "demand-block-switching": (
        FaultStorm,
        dict(scheme=make_scheme("replay-queue"), paging="demand",
             block_switching=True),
        "block_switch_outs",
    ),
    "demand-heap-local-handling": (
        lambda: AllocCycle(grid_dim=32),
        dict(scheme=make_scheme("replay-queue"), paging="demand-heap",
             local_handling=True),
        "local_handler_runs",
    ),
}


class TestSelfFreeing:
    @pytest.mark.parametrize("way", list(_WAYS))
    def test_finished_simulator_is_freed_by_refcounting(self, way):
        make_wl, kwargs, exercised = _WAYS[way]
        wl = make_wl()
        trace = wl.trace()
        with _no_cyclic_gc():
            sim = _gpu_sim(wl, trace, **kwargs)
            result = sim.run()
            assert sum(getattr(s, exercised) for s in result.sm_stats) > 0
            del sim, result
            assert _cyclic_repro_garbage() == Counter()

    def test_finished_traced_simulator_is_freed_by_refcounting(self):
        """Telemetry on: the registry's gauges read the SMs, the fault
        controller and the simulator, yet dropping the run frees them all,
        and the counters read afterwards are the run's final values."""
        wl = MICRO.fresh("saxpy")
        trace = wl.trace()
        with _no_cyclic_gc():
            tel = Telemetry()
            sim = _gpu_sim(wl, trace, scheme=make_scheme("replay-queue"),
                           paging="demand", telemetry=tel)
            result = sim.run()
            assert result.fault_stats.faults_raised > 0
            final = tel.counters.samples[-1][1]
            del sim, result
            assert tel.counters.snapshot() == final
            del tel, final
            assert _cyclic_repro_garbage() == Counter()

    def test_finished_multi_kernel_simulator_is_freed_by_refcounting(self):
        wl = FaultStorm(grid_dim=64)
        trace = wl.trace()
        with _no_cyclic_gc():
            sim = MultiKernelSimulator(
                [(wl.kernel, trace, 0), (wl.kernel, trace, 1)],
                address_space=wl.make_address_space(), config=_CFG,
                scheme=make_scheme("replay-queue"), interconnect=_IC,
                paging="demand", block_switching=True,
            )
            result = sim.run()
            assert sum(s.block_switch_outs for s in result.sm_stats) > 0
            del sim, result
            assert _cyclic_repro_garbage() == Counter()

    @pytest.mark.parametrize("make_wl,kwargs,held", [
        (lambda: MICRO.fresh("saxpy"), {}, "blocks"),
        (FaultStorm, {"block_switching": True}, "offchip"),
    ], ids=["saxpy", "storm-block-switching"])
    def test_stopped_preemption_probe_is_freed_by_refcounting(
        self, make_wl, kwargs, held, monkeypatch
    ):
        """The preemption experiment stops its second simulator half
        way, with blocks resident (and, switching, off chip) and faults
        parked, and drops it: reference counting alone frees it."""
        stopped = []

        def measure(sim, request_time):
            stopped.append(sim.sms)
            return measure_preemption_latency(sim, request_time)

        monkeypatch.setattr(preemption, "measure_preemption_latency",
                            measure)
        monkeypatch.setattr(gpu, "GpuSimulator",
                            functools.partial(GpuSimulator, **kwargs))
        wl = make_wl()
        wl.trace()
        with _no_cyclic_gc():
            preemption_latency_experiment(
                wl, make_scheme("replay-queue"), _IC, _CFG,
                request_fraction=0.5,
            )
            assert any(getattr(sm, held) for sm in stopped[0])
            del stopped[:]
            assert _cyclic_repro_garbage() == Counter()

    def test_retired_blocks_are_freed_during_the_run(self, storm):
        trace = storm.trace()
        kwargs = dict(scheme=make_scheme("replay-queue"), paging="demand",
                      block_switching=True)
        total = _gpu_sim(storm, trace, **kwargs).run().cycles
        with _no_cyclic_gc():
            sim = _gpu_sim(storm, trace, **kwargs)
            # stop where most blocks have retired and some wait off chip
            measure_preemption_latency(sim, request_time=0.8 * total)
            retired = sum(sm.stats.blocks_completed for sm in sim.sms)
            assert 0 < retired < len(trace.blocks)
            held = [b for sm in sim.sms for b in sm.blocks + sm.offchip]
            assert any(sm.offchip for sm in sim.sms)
            # this run's blocks and warps, by the trace they replay
            blocks = {id(b) for b in trace.blocks}
            warps = {id(w.instructions) for b in trace.blocks for w in b.warps}
            live = Counter(
                type(o) for o in gc.get_objects()
                if type(o) is BlockRT and id(o.btrace) in blocks
                or type(o) is WarpRT and id(o.trace) in warps
            )
            assert live[BlockRT] == len(held)
            assert live[WarpRT] == sum(len(b.warps) for b in held)


class TestHostMemory:
    def test_second_simulation_does_not_stack_on_the_first(self):
        """The traced peak of the second run over one trace stays at the
        first's: the first run's simulator is gone, and only what it
        cached on the trace remains."""
        wl = MICRO.fresh("mshr-storm")
        trace = wl.trace()
        peaks = []
        with _no_cyclic_gc():
            tracemalloc.start()
            try:
                for _ in range(2):
                    tracemalloc.reset_peak()
                    _gpu_sim(wl, trace, scheme=make_scheme("replay-queue"),
                             paging="demand").run()
                    peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] * 1.05

    def test_cached_coalescing_entry_is_compact(self):
        """Each record's cached lines cost at most 96 bytes plus one int64
        per line (a two-line access: 104 bytes)."""
        trace = MICRO.fresh("mshr-storm").trace()
        records = [
            t for b in trace.blocks for w in b.warps for t in w.instructions
            if t.addresses is not None and t.inst.info.can_fault
        ]
        lines = sum(len(coalesce(t.addresses)) for t in records)
        assert lines > 2 * len(records)  # wide accesses are in the mix
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for t in records:
                coalesce_inst(t)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown <= 96 * len(records) + 8 * lines

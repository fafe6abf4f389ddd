"""Kernel and trace serialization round-trips and a scheme sweep."""

import functools
import io
import json
from array import array

import pytest

from repro.core import make_scheme
from repro.functional.serialize import (
    decode_kernel,
    encode_kernel,
    load_trace,
    save_trace,
)
from repro.harness.chaos_campaign import architectural_digest
from repro.system import GpuSimulator
from repro.workloads import MICRO, get_workload
from tests.test_interpreter import global_memory_instructions, touched_pages


#: the kernels the serve-open benchmark sends and the preemptible schemes
#: it runs them under: the traffic the service's trace hand-off carries
SERVE_KERNELS = (
    "saxpy", "stream-sum", "tlb-thrash", "mshr-storm", "divergence-tree",
)
PREEMPTIBLE_SCHEMES = ("wd-commit", "wd-lastcheck", "replay-queue",
                       "operand-log")


@functools.lru_cache(maxsize=None)
def _reloaded(name):
    """``(kernel, trace)`` of ``name`` after a save/load round trip."""
    wl = get_workload(name)
    buf = io.StringIO()
    save_trace(wl.trace(), wl.kernel, buf)
    buf.seek(0)
    return load_trace(buf)


class TestKernelCodec:
    @pytest.mark.parametrize("name", ["saxpy", "stream-sum", "divergence-tree"])
    def test_roundtrip_structural(self, name):
        kernel = MICRO.fresh(name).kernel
        restored = decode_kernel(encode_kernel(kernel))
        assert len(restored) == len(kernel)
        assert restored.regs_per_thread == kernel.regs_per_thread
        for a, b in zip(kernel.instructions, restored.instructions):
            assert a.op is b.op
            assert a.dest == b.dest
            assert tuple(a.srcs) == tuple(b.srcs)
            assert a.target == b.target and a.reconv == b.reconv
            assert a.offset == b.offset and a.width == b.width
            assert a.guard == b.guard and a.cmp == b.cmp and a.atom == b.atom

    def test_parboil_kernels_roundtrip(self):
        for name in ("lbm", "spmv", "sgemm"):
            kernel = get_workload(name).kernel
            restored = decode_kernel(encode_kernel(kernel))
            restored.validate()
            assert len(restored) == len(kernel)


class TestTraceRoundtrip:
    def test_identical_timing_after_reload(self):
        wl = MICRO.fresh("saxpy")
        trace = wl.trace()
        buf = io.StringIO()
        save_trace(trace, wl.kernel, buf)
        buf.seek(0)
        kernel2, trace2 = load_trace(buf)

        def cycles(kernel, trace):
            sim = GpuSimulator(
                kernel, trace, wl.make_address_space(),
                scheme=make_scheme("replay-queue"), paging="premapped",
            )
            return sim.run().cycles

        assert cycles(kernel2, trace2) == cycles(wl.kernel, trace)

    @pytest.mark.parametrize("scheme", PREEMPTIBLE_SCHEMES)
    @pytest.mark.parametrize("name", SERVE_KERNELS)
    def test_serve_traffic_identical_after_reload(self, name, scheme):
        wl = get_workload(name)

        def outcome(kernel, trace):
            sim = GpuSimulator(
                kernel, trace, wl.make_address_space(),
                scheme=make_scheme(scheme), paging="demand",
            )
            result = sim.run()
            return (result.cycles, result.fault_stats.faults_raised,
                    architectural_digest(sim))

        assert outcome(*_reloaded(name)) == outcome(wl.kernel, wl.trace())

    def test_counts_preserved(self):
        wl = MICRO.fresh("stream-sum")
        trace = wl.trace()
        buf = io.StringIO()
        save_trace(trace, wl.kernel, buf)
        buf.seek(0)
        _, trace2 = load_trace(buf)
        assert trace2.dynamic_instructions() == trace.dynamic_instructions()
        assert global_memory_instructions(trace2) \
            == global_memory_instructions(trace)
        assert touched_pages(trace2) == touched_pages(trace)

    def test_file_path_roundtrip(self, tmp_path):
        wl = MICRO.fresh("saxpy")
        path = str(tmp_path / "trace.json")
        save_trace(wl.trace(), wl.kernel, path)
        kernel, trace = load_trace(path)
        assert trace.grid_dim == wl.grid_dim

    def test_version_check(self):
        buf = io.StringIO('{"version": 99}')
        with pytest.raises(ValueError, match="format"):
            load_trace(buf)

    def test_resave_is_byte_identical(self):
        kernel, trace = _reloaded("saxpy")
        loads = [t for w in trace.blocks[0].warps for t in w.instructions
                 if t.addresses is not None]
        assert loads and all(
            isinstance(t.addresses, array) and t.addresses.typecode == "q"
            for t in loads)
        wl = get_workload("saxpy")
        first, again = io.StringIO(), io.StringIO()
        save_trace(wl.trace(), wl.kernel, first)
        save_trace(trace, kernel, again)
        assert again.getvalue() == first.getvalue()

    @staticmethod
    def _doc(name):
        wl = get_workload(name)
        buf = io.StringIO()
        save_trace(wl.trace(), wl.kernel, buf)
        return json.loads(buf.getvalue())

    @pytest.mark.parametrize("pc", [-1, "len"])
    def test_pc_outside_kernel_rejected(self, pc):
        doc = self._doc("saxpy")
        if pc == "len":
            pc = len(doc["kernel"]["instructions"])
        doc["blocks"][0]["warps"][0]["insts"][0][0] = pc
        with pytest.raises(ValueError, match="not an instruction"):
            load_trace(io.StringIO(json.dumps(doc)))

    def test_non_integer_address_rejected(self):
        doc = self._doc("saxpy")
        rec = next(r for r in doc["blocks"][0]["warps"][0]["insts"] if r[2])
        rec[2][0] = "x"
        with pytest.raises(ValueError, match="malformed record"):
            load_trace(io.StringIO(json.dumps(doc)))


class TestSweeps:
    def test_sweep_schemes(self):
        wl = get_workload("stream-sum")
        cycles = [
            GpuSimulator(
                wl.kernel, wl.trace(), wl.make_address_space(),
                scheme=make_scheme(name), paging="premapped",
            ).run().cycles
            for name in ("baseline", "wd-commit", "wd-lastcheck",
                         "replay-queue")
        ]
        row = [cycles[0] / c for c in cycles]
        assert row[0] == 1.0
        assert all(0.3 < v <= 1.05 for v in row)

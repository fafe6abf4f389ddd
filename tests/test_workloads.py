"""Workload-suite tests: every benchmark builds, validates, traces, and the
numerically checkable ones match reference computations."""

import numpy as np
import pytest

from repro.functional import Interpreter
from repro.system import GPUConfig
from repro.vm import SparseMemory
from repro.workloads import (
    HALLOC,
    HALLOC_NAMES,
    MICRO,
    PARBOIL,
    PARBOIL_NAMES,
    get_workload,
)
from tests.test_interpreter import global_memory_instructions, touched_pages

EXPECTED_PARBOIL = {
    "bfs", "cutcp", "histo", "lbm", "mri-gridding", "mri-q", "sad",
    "sgemm", "spmv", "stencil", "tpacf",
}


class TestRegistries:
    def test_all_eleven_parboil_present(self):
        assert set(PARBOIL_NAMES) == EXPECTED_PARBOIL

    def test_halloc_suite(self):
        assert set(HALLOC_NAMES) == {
            "alloc-cycle", "alloc-write", "grid-points", "quad-tree"
        }

    def test_unknown_workload(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("linpack")

    def test_get_workload_caches(self):
        assert get_workload("saxpy") is get_workload("saxpy")

    def test_fresh_is_uncached(self):
        assert MICRO.fresh("saxpy") is not MICRO.fresh("saxpy")


@pytest.mark.parametrize("name", sorted(EXPECTED_PARBOIL))
class TestParboilWorkloads:
    def test_kernel_builds_and_validates(self, name):
        wl = get_workload(name)
        wl.kernel.validate()
        assert len(wl.kernel) > 0

    def test_fits_on_sm(self, name):
        wl = get_workload(name)
        occupancy = GPUConfig().blocks_per_sm(wl.kernel, wl.block_dim)
        assert occupancy >= 1

    def test_oversubscribes_gpu(self, name):
        """Paper Section 4.1: kernels launch more blocks than fit."""
        wl = get_workload(name)
        resident = GPUConfig().blocks_per_sm(wl.kernel, wl.block_dim) * 16
        assert wl.grid_dim > resident

    def test_trace_nonempty_with_memory_traffic(self, name):
        wl = get_workload(name)
        trace = wl.trace()
        assert trace.dynamic_instructions() > 1000
        assert global_memory_instructions(trace, wl.kernel) > 100

    def test_addresses_inside_segments(self, name):
        wl = get_workload(name)
        aspace = wl.make_address_space()
        valid = touched_pages(wl.trace(), wl.kernel)
        for vpn in valid:
            assert aspace.page_state.is_valid(vpn), hex(vpn * 4096)


class TestLbmCharacteristics:
    def test_low_occupancy(self):
        wl = get_workload("lbm")
        assert GPUConfig().blocks_per_sm(wl.kernel, wl.block_dim) == 1

    def test_eight_warps_per_sm(self):
        wl = get_workload("lbm")
        assert wl.block_dim // 32 == 8  # one eighth of the 64-warp SM


class TestMriGriddingImbalance:
    def test_two_orders_of_magnitude_block_imbalance(self):
        from repro.workloads.parboil import MriGridding

        wl = get_workload("mri-gridding")
        per_block = [b.dynamic_instructions() for b in wl.trace().blocks]
        assert max(per_block) / min(per_block) > 10


class TestNumericalCorrectness:
    def test_saxpy(self):
        wl = MICRO.fresh("saxpy")
        mem = wl.run_functional()
        aspace = wl.make_address_space()
        n = wl.num_threads
        y = mem.read_array(aspace.segment("y").base, n)
        expect = [wl.alpha * (i % 97) + 1.0 for i in range(n)]
        assert y == pytest.approx(expect)

    def test_stream_sum(self):
        wl = MICRO.fresh("stream-sum")
        mem = wl.run_functional()
        aspace = wl.make_address_space()
        n, iters = wl.num_threads, wl.iters
        out = mem.read_array(aspace.segment("out").base, n)
        data = [float((i * 7) % 13) for i in range(n * iters)]
        expect = [sum(data[i + k * n] for k in range(iters)) for i in range(n)]
        assert out == pytest.approx(expect)

    def test_spmv_against_numpy(self):
        from repro.workloads.parboil import Spmv

        wl = Spmv(grid_dim=4, block_dim=64)
        mem = wl.run_functional()
        aspace = wl.make_address_space()
        n = wl.num_threads
        rowptr = np.array(
            mem.read_array(aspace.segment("rowptr").base, n + 1), dtype=int
        )
        nnz = rowptr[-1]
        colidx = np.array(
            mem.read_array(aspace.segment("colidx").base, nnz), dtype=int
        )
        vals = np.array(mem.read_array(aspace.segment("vals").base, nnz))
        x = np.array(mem.read_array(aspace.segment("x").base, n))
        y = np.array(mem.read_array(aspace.segment("y").base, n))
        for row in range(n):
            lo, hi = rowptr[row], rowptr[row + 1]
            expect = float(vals[lo:hi] @ x[colidx[lo:hi]])
            assert y[row] == pytest.approx(expect, rel=1e-9)

    def test_histo_counts(self):
        from repro.workloads.parboil import Histo

        wl = Histo(grid_dim=4, block_dim=64, iters=2)
        mem = wl.run_functional()
        aspace = wl.make_address_space()
        hist = mem.read_array(
            aspace.segment("hist").base, wl.grid_dim * wl.BINS
        )
        assert sum(hist) == wl.num_threads * wl.iters

    def test_sgemm_accumulates_shared_products(self):
        from repro.workloads.parboil import Sgemm

        wl = Sgemm(grid_dim=2, block_dim=64, tiles=2, inner=2)
        mem = wl.run_functional()
        aspace = wl.make_address_space()
        c = mem.read_array(aspace.segment("C").base, wl.num_threads)
        # A and B are zero-filled -> every product is 0
        assert c == [0.0] * wl.num_threads


@pytest.mark.parametrize("name", sorted(HALLOC_NAMES))
class TestHallocWorkloads:
    def test_traces_generate(self, name):
        wl = HALLOC.fresh(name)
        wl.grid_dim = 8  # shrink for test speed
        trace = wl.trace()
        assert trace.dynamic_instructions() > 0
        # heap pages must be touched (first-touch fault sources)
        heap_base_page = wl.make_address_space().segment("heap").base >> 12
        assert any(
            p >= heap_base_page for p in touched_pages(trace, wl.kernel)
        )

    def test_heap_sized_for_demand(self, name):
        wl = HALLOC.fresh(name)
        wl.grid_dim = 8
        wl.trace()  # must not raise HeapExhausted


class TestGridPointsChains:
    def test_chain_walk_sums_payloads(self):
        from repro.workloads.halloc import GridPoints

        wl = GridPoints(grid_dim=2, block_dim=32, chain=4)
        mem = wl.run_functional()
        aspace = wl.make_address_space()
        out = mem.read_array(aspace.segment("out").base, wl.num_threads)
        assert out == [pytest.approx(0 + 1 + 2 + 3)] * wl.num_threads

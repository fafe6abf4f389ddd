"""Runtime-facade tests: managed memory, launches, residency persistence,
explicit transfers, device heap, use-case toggles."""

import pytest

from repro.isa import Imm, KernelBuilder, R
from repro.runtime import DevicePointer, GpuDevice, RuntimeError_


def saxpy_kernel():
    kb = KernelBuilder("saxpy", regs_per_thread=12)
    kb.global_thread_id(R(0))
    kb.imad(R(1), R(0), Imm(4), kb.param(0))
    kb.imad(R(2), R(0), Imm(4), kb.param(1))
    kb.ld_global(R(3), R(1))
    kb.ld_global(R(4), R(2))
    kb.ffma(R(5), R(3), kb.param(2), R(4))
    kb.st_global(R(2), R(5))
    kb.exit()
    return kb.build()


def malloc_kernel(chunk=128):
    kb = KernelBuilder("heapuser", regs_per_thread=16)
    kb.global_thread_id(R(0))
    kb.malloc(R(1), Imm(chunk))
    kb.st_global(R(1), Imm(3.0))
    kb.ld_global(R(2), R(1))
    kb.imad(R(3), R(0), Imm(4), kb.param(0))
    kb.st_global(R(3), R(2))
    kb.exit()
    return kb.build()


N_BLOCKS, BLOCK = 8, 64
N = N_BLOCKS * BLOCK


class TestManagedMemory:
    def test_end_to_end_saxpy(self):
        dev = GpuDevice(time_scale=8.0)
        x = dev.malloc_managed(N * 4)
        y = dev.malloc_managed(N * 4)
        dev.fill(x, [float(i) for i in range(N)])
        dev.fill(y, [1.0] * N)
        result = dev.launch(saxpy_kernel(), grid=N_BLOCKS, block=BLOCK,
                            args=[x, y, 2.0])
        assert result.cycles > 0
        assert dev.read(y, 4) == [1.0, 3.0, 5.0, 7.0]
        assert result.fault_stats.migrations > 0  # inputs migrated on demand

    def test_residency_persists_across_launches(self):
        dev = GpuDevice(time_scale=8.0)
        x = dev.malloc_managed(N * 4)
        y = dev.malloc_managed(N * 4)
        dev.fill(x, [1.0] * N)
        dev.fill(y, [0.0] * N)
        kernel = saxpy_kernel()
        first = dev.launch(kernel, N_BLOCKS, BLOCK, args=[x, y, 1.0])
        second = dev.launch(kernel, N_BLOCKS, BLOCK, args=[x, y, 1.0])
        assert first.fault_stats.groups_resolved > 0
        assert second.fault_stats.groups_resolved == 0  # pages resident now
        assert second.cycles < first.cycles
        assert dev.total_cycles == first.cycles + second.cycles
        assert len(dev.launches) == 2

    def test_explicit_memcpy_avoids_faults(self):
        dev = GpuDevice(time_scale=8.0)
        x = dev.malloc_managed(N * 4)
        y = dev.malloc_managed(N * 4)
        dev.fill(x, [1.0] * N)
        dev.fill(y, [0.0] * N)
        for ptr in (x, y):  # the pre-managed-memory style: map up front
            state = dev.aspace.page_state
            for vpn in range(ptr.address >> 12,
                             ((ptr.address + ptr.nbytes - 1) >> 12) + 1):
                if state.gpu_translate(vpn) is None:
                    state.install_gpu_page(vpn, dev.frames.allocate())
        res = dev.launch(saxpy_kernel(), N_BLOCKS, BLOCK, args=[x, y, 1.0])
        assert res.fault_stats.groups_resolved == 0

    def test_untouched_allocation_first_touch(self):
        dev = GpuDevice(time_scale=8.0)
        x = dev.malloc_managed(N * 4)
        y = dev.malloc_managed(N * 4)  # never written by the host
        dev.fill(x, [2.0] * N)
        res = dev.launch(saxpy_kernel(), N_BLOCKS, BLOCK, args=[x, y, 1.0])
        assert res.fault_stats.first_touch > 0

    def test_resident_pages_grow(self):
        dev = GpuDevice(time_scale=8.0)
        x = dev.malloc_managed(N * 4)
        y = dev.malloc_managed(N * 4)
        dev.fill(x, [1.0] * N)
        assert dev.resident_pages() == 0
        dev.launch(saxpy_kernel(), N_BLOCKS, BLOCK, args=[x, y, 1.0])
        assert dev.resident_pages() > 0


class TestValidation:
    def test_bad_allocation_size(self):
        with pytest.raises(RuntimeError_):
            GpuDevice().malloc_managed(0)

    def test_fill_overflow(self):
        dev = GpuDevice()
        x = dev.malloc_managed(16)
        with pytest.raises(RuntimeError_):
            dev.fill(x, [0.0] * 100)

    def test_use_cases_need_preemptible_scheme(self):
        with pytest.raises(RuntimeError_):
            GpuDevice(scheme="baseline", block_switching=True)

    def test_pointer_is_indexable(self):
        dev = GpuDevice()
        x = dev.malloc_managed(64)
        assert int(x) == x.address


class TestDeviceHeap:
    def test_device_malloc_faults_handled_locally(self):
        dev = GpuDevice(
            time_scale=8.0, local_handling=True,
            heap_bytes=1 << 22, heap_arenas=64,
        )
        out = dev.malloc_managed(N * 4)
        res = dev.launch(malloc_kernel(), N_BLOCKS, BLOCK, args=[out])
        assert dev.read(out, 3) == [3.0, 3.0, 3.0]
        assert res.fault_stats.handled_locally > 0

    def test_local_vs_cpu_handling_comparison(self):
        def run(local):
            dev = GpuDevice(
                time_scale=8.0, local_handling=local,
                heap_bytes=1 << 22, heap_arenas=64,
            )
            out = dev.malloc_managed(N * 4)
            return dev.launch(malloc_kernel(), N_BLOCKS, BLOCK, args=[out])

        cpu = run(False)
        gpu = run(True)
        assert cpu.fault_stats.handled_locally == 0
        assert gpu.fault_stats.handled_locally > 0

    def test_block_switching_through_runtime(self):
        dev = GpuDevice(time_scale=8.0, block_switching=True)
        x = dev.malloc_managed(N * 4)
        y = dev.malloc_managed(N * 4)
        dev.fill(x, [1.0] * N)
        res = dev.launch(saxpy_kernel(), N_BLOCKS, BLOCK, args=[x, y, 1.0])
        assert res.cycles > 0  # completes with the local scheduler active


class TestRuntimeChaos:
    """The runtime-facade injection hooks (docs/ROBUSTNESS.md): seeded
    allocation failures and stream teardown mid-kernel, both structured
    and retryable — the serving layer's retry paths depend on it."""

    def _engine(self, seed, **rates):
        from dataclasses import replace

        from repro.chaos import ChaosConfig, ChaosEngine

        zero = ChaosConfig(seed=seed).scaled(0.0)
        return ChaosEngine(replace(zero, **rates))

    def test_alloc_failure_is_structured_and_transient(self):
        from repro.runtime import AllocationFailure

        dev = GpuDevice(
            time_scale=8.0,
            chaos=self._engine(7, alloc_fail_rate=0.5),
        )
        failures = 0
        ptr = None
        for _ in range(64):  # deterministic per seed; bound is a backstop
            try:
                ptr = dev.malloc_managed(N * 4)
                break
            except AllocationFailure as exc:
                failures += 1
                assert exc.nbytes == N * 4
        assert ptr is not None
        assert failures == dev.chaos.injections["runtime.alloc_fail"]
        # the device stayed fully usable
        dev.fill(ptr, [1.0] * N)
        assert dev.read(ptr, 2) == [1.0, 1.0]

    def test_stream_teardown_requeues_and_resumes(self):
        from repro.runtime import StreamTeardownError

        dev = GpuDevice(
            time_scale=8.0,
            chaos=self._engine(3, stream_teardown_rate=0.5),
        )
        x = dev.malloc_managed(N * 4)
        y = dev.malloc_managed(N * 4)
        dev.fill(x, [1.0] * N)
        dev.fill(y, [0.0] * N)
        s0, s1 = dev.create_stream(), dev.create_stream()
        kernel = saxpy_kernel()
        h0 = s0.launch(kernel, N_BLOCKS, BLOCK, args=[x, y, 1.0])
        h1 = s1.launch(kernel, N_BLOCKS, BLOCK, args=[x, y, 1.0])
        teardowns = 0
        result = None
        for _ in range(64):
            try:
                result = dev.synchronize()
                break
            except StreamTeardownError as exc:
                teardowns += 1
                assert exc.pending == 2  # queued work survives the error
        assert result is not None and teardowns >= 1
        assert h0.done and h1.done
        assert dev.chaos.injections["runtime.stream_teardown"] == teardowns
        assert dev.synchronize() is None  # queue fully drained

    def test_same_seed_same_runtime_injections(self):
        from repro.runtime import AllocationFailure

        def outcomes(seed):
            dev = GpuDevice(chaos=self._engine(seed, alloc_fail_rate=0.5))
            pattern = []
            for _ in range(20):
                try:
                    dev.malloc_managed(256)
                    pattern.append("ok")
                except AllocationFailure:
                    pattern.append("fail")
            return pattern

        assert outcomes(11) == outcomes(11)
        assert "fail" in outcomes(11)

    def test_disabled_engine_is_free(self):
        from repro.chaos import ChaosConfig, ChaosEngine

        dev = GpuDevice(chaos=ChaosEngine(ChaosConfig().scaled(0.0)))
        assert dev.chaos is None  # chaos_active normalized it away

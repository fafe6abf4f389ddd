"""Kernel and trace serialization round-trips and a scheme sweep."""

import functools
import io
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_scheme
from repro.functional.serialize import (
    FORMAT_VERSION,
    MAGIC,
    decode_kernel,
    encode_kernel,
    load_trace,
    save_trace,
)
from repro.functional.trace import BlockTrace, KernelTrace, WarpTrace
from repro.system import GpuSimulator, architectural_digest
from repro.workloads import MICRO, get_workload
from tests.test_interpreter import global_memory_instructions, touched_pages


#: the kernels the serve-open benchmark sends and the preemptible schemes
#: it runs them under: the traffic the service's trace hand-off carries
SERVE_KERNELS = (
    "saxpy", "stream-sum", "tlb-thrash", "mshr-storm", "divergence-tree",
)
PREEMPTIBLE_SCHEMES = ("wd-commit", "wd-lastcheck", "replay-queue",
                       "operand-log")
INT64 = (-2**63, 2**63 - 1)


def _saved(trace, kernel) -> bytes:
    buf = io.BytesIO()
    save_trace(trace, kernel, buf)
    return buf.getvalue()


@functools.lru_cache(maxsize=None)
def _container(name) -> bytes:
    wl = get_workload(name)
    return _saved(wl.trace(), wl.kernel)


@functools.lru_cache(maxsize=None)
def _reloaded(name):
    """``(kernel, trace)`` of ``name`` after a save/load round trip."""
    return load_trace(_container(name))


def _layout(data):
    """The container's header and, per column, ``(byte offset,
    itemsize, items)`` (the module docstring of repro.functional.serialize
    gives the layout)."""
    _, _, hlen = struct.unpack_from("<8sII", data)
    header = json.loads(bytes(data[16:16 + hlen]))
    recs = sum(sum(warps[1::2]) for _, warps in header["blocks"])
    columns, pos = {}, 16 + hlen
    for name, size, items in (("offsets", 8, recs + 1),
                              ("addrs", 8, header["addresses"]),
                              ("pcs", 4, recs), ("active", 1, recs)):
        columns[name] = (pos, size, items)
        pos += size * items
    return header, columns


def _patched(data, column, index, value) -> bytes:
    """``data`` with item ``index`` of ``column`` set to ``value``."""
    _, columns = _layout(data)
    pos, size, items = columns[column]
    assert 0 <= index < items
    out = bytearray(data)
    struct.pack_into({8: "<q", 4: "<i", 1: "<B"}[size], out,
                     pos + size * index, value)
    return bytes(out)


def _with_header(data, header) -> bytes:
    """``data`` with its header replaced (padded as the saver pads)."""
    _, _, hlen = struct.unpack_from("<8sII", data)
    text = json.dumps(header, separators=(",", ":")).encode()
    text += b" " * (-(16 + len(text)) % 8)
    return (struct.pack("<8sII", MAGIC, FORMAT_VERSION, len(text)) + text
            + data[16 + hlen:])


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
        kernel2, trace2 = load_trace(_saved(trace, wl.kernel))

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
                    architectural_digest(sim.address_space.page_state,
                                         result.sm_stats))

        assert outcome(*_reloaded(name)) == outcome(wl.kernel, wl.trace())

    def test_counts_preserved(self):
        wl = MICRO.fresh("stream-sum")
        trace = wl.trace()
        kernel2, trace2 = load_trace(_saved(trace, wl.kernel))
        assert trace2.dynamic_instructions() == trace.dynamic_instructions()
        assert global_memory_instructions(trace2, kernel2) \
            == global_memory_instructions(trace, wl.kernel)
        assert touched_pages(trace2, kernel2) \
            == touched_pages(trace, wl.kernel)

    def test_file_path_roundtrip(self, tmp_path):
        wl = MICRO.fresh("saxpy")
        path = str(tmp_path / "trace.bin")
        save_trace(wl.trace(), wl.kernel, path)
        kernel, trace = load_trace(path)
        assert trace.grid_dim == wl.grid_dim
        with open(path, "rb") as fh:
            assert load_trace(fh)[1].dynamic_instructions() \
                == trace.dynamic_instructions()

    def test_version_check(self):
        data = bytearray(_container("saxpy"))
        struct.pack_into("<I", data, 8, 99)
        with pytest.raises(ValueError, match="format"):
            load_trace(bytes(data))

    def test_resave_is_byte_identical(self):
        kernel, trace = _reloaded("saxpy")
        warps = [w for b in trace.blocks for w in b.warps]
        # every warp views the container's columns in place
        assert all(
            isinstance(w.addrs, memoryview) and w.addrs.format == "q"
            and w.addrs is warps[0].addrs and w.pcs.format == "i"
            for w in warps
        )
        assert _saved(trace, kernel) == _container("saxpy")

    @pytest.mark.parametrize("pc", [-1, "len"])
    def test_pc_outside_kernel_rejected(self, pc):
        data = _container("saxpy")
        if pc == "len":
            pc = len(get_workload("saxpy").kernel)
        with pytest.raises(ValueError, match="not an instruction"):
            load_trace(_patched(data, "pcs", 3, pc))

    def test_given_kernel_is_checked_and_returned(self):
        """A container loads against the kernel a run will simulate only
        if it was saved with that kernel; the kernel returned is then
        that object, so no copy is decoded."""
        wl = get_workload("saxpy")
        kernel, trace = load_trace(_container("saxpy"), wl.kernel)
        assert kernel is wl.kernel
        assert _saved(trace, kernel) == _container("saxpy")
        for other in ("stream-sum", "divergence-tree"):
            with pytest.raises(ValueError, match="another kernel"):
                load_trace(_container("saxpy"), get_workload(other).kernel)


def _records():
    """One record: ``(pc, active lanes, lane addresses or None)``."""
    addresses = st.lists(
        st.one_of(st.sampled_from(INT64),
                  st.integers(min_value=INT64[0], max_value=INT64[1])),
        min_size=1, max_size=32,
    )
    return st.tuples(st.integers(0, 9), st.integers(0, 32),
                     st.none() | addresses)


_BLOCKS = st.lists(
    st.tuples(st.integers(0, 10**6),
              st.lists(st.lists(_records(), max_size=6), max_size=3)),
    max_size=3,
)


class TestContainer:
    """The binary container: exact round trips and a ValueError for every
    malformed input (never an IndexError or a silently wrapped index)."""

    @given(blocks=_BLOCKS, grid=st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_and_resave_are_exact(self, blocks, grid):
        kernel = get_workload("saxpy").kernel  # pcs 0-9
        trace = KernelTrace("saxpy", grid_dim=grid, block_dim=64)
        for block_id, warps in blocks:
            block = BlockTrace(block_id)
            for warp_id, recs in enumerate(warps):
                warp = WarpTrace(warp_id)
                for pc, active, addrs in recs:
                    warp.append(pc, active, None if addrs is None
                                else struct.pack(f"={len(addrs)}q", *addrs))
                block.warps.append(warp)
            trace.blocks.append(block)
        data = _saved(trace, kernel)
        kernel2, trace2 = load_trace(data)
        assert encode_kernel(kernel2) == encode_kernel(kernel)
        assert (trace2.grid_dim, trace2.block_dim) == (grid, 64)
        got = [
            (b.block_id, [
                [(w.pcs[w.start + r], w.active[w.start + r],
                  list(w.addresses(r)) or None) for r in range(len(w))]
                for w in b.warps
            ])
            for b in trace2.blocks
        ]
        assert got == [(b, [[(pc, act, addrs) for pc, act, addrs in recs]
                            for recs in warps])
                       for b, warps in blocks]
        assert [[w.warp_id for w in b.warps] for b in trace2.blocks] == [
            list(range(len(warps))) for _, warps in blocks]
        assert _saved(trace2, kernel2) == data

    @pytest.mark.parametrize("cut", [0, 7, 15, 16, 40, -9, -1])
    def test_truncated_container_rejected(self, cut):
        data = _container("saxpy")
        with pytest.raises(ValueError):
            load_trace(data[:cut])

    def test_bad_magic_rejected(self):
        data = _container("saxpy")
        with pytest.raises(ValueError, match="not a trace container"):
            load_trace(b"NOTATRCE" + data[8:])

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_decreasing_offsets_rejected(self, where):
        data = _container("saxpy")
        header, columns = _layout(data)
        items = columns["offsets"][2]
        offsets = struct.unpack_from(f"<{items}q", data, columns["offsets"][0])
        if where == "first":  # the first record starts before the buffer
            bad = _patched(data, "offsets", 0, -8)
        elif where == "last":  # the last record runs past the buffer
            bad = _patched(data, "offsets", items - 1, offsets[-1] + 8)
        else:  # a record ends before it starts, within the buffer
            k = next(i for i in range(1, items - 1)
                     if offsets[i + 1] > offsets[i - 1])
            bad = _patched(data, "offsets", k, offsets[k + 1] + 1)
        with pytest.raises(ValueError, match="offsets"):
            load_trace(bad)

    @pytest.mark.parametrize("field", ["warp count", "addresses"])
    def test_header_count_disagreeing_with_arrays_rejected(self, field):
        data = _container("saxpy")
        header, _ = _layout(data)
        if field == "addresses":
            header["addresses"] += 1
        else:
            header["blocks"][0][1][1] += 1  # block 0, warp 0's count
        with pytest.raises(ValueError, match="describes"):
            load_trace(_with_header(data, header))

    @pytest.mark.parametrize("header", [
        [], {"kernel": {}}, {"blocks": 3},
    ])
    def test_malformed_header_rejected(self, header):
        data = _container("saxpy")
        full, _ = _layout(data)
        if isinstance(header, dict) and "blocks" in header:
            header = {**full, **header}
        with pytest.raises(ValueError, match="malformed trace header"):
            load_trace(_with_header(data, header))


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

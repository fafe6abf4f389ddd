"""Multi-kernel stream tests: scheduler policies, single-stream/legacy
bit-identity, determinism digests, fault-queue contention, cross-kernel
block switching, and the runtime stream API edge cases
(docs/CONCURRENCY.md)."""

from dataclasses import asdict

import pytest

from repro.functional.trace import BlockTrace
from repro.harness import overlap_digest, run_streams_scenario
from repro.runtime import GpuDevice, RuntimeError_
from repro.system import GPUConfig, MultiKernelScheduler
from repro.telemetry import Telemetry
from repro.telemetry import events as ev
from repro.workloads import MICRO, get_stream_scenario

TS = 8.0  # keep the µs-range fault constants small (DEFAULT_TIME_SCALE)

#: ``overlap_digest`` of each stream scenario's overlapped run on the
#: default config, per SM-assignment policy.  The golden digests pin
#: one-launch runs only; these pin two-launch runs: the scheduler's home
#: streams, the per-kernel bookkeeping and the merged fault queue.
OVERLAP_PINS = {
    ("contention", "partition"):
        "b119e70318ba6902a9aeb35ce5ee7b3800b171dec8bdc47a8fd7cd7b85d95797",
    ("contention", "interleave"):
        "a2a0aadb9d30a354e173d02358ac6e2331e42999a32aeaeed451315caa021711",
    ("mixed", "partition"):
        "853c0aad3037178e27e542f0533f4a128c01fcc4a7ae8c2a03931cf9a99129cb",
    ("mixed", "interleave"):
        "65bd57e4cd4a32baab64d43c3f6520cb3eeb84c31172440a9d336517b76ee1a1",
}

#: the same scenarios on 2 SMs x 2 block slots with replay-queue block
#: switching, where blocks switch out and SMs steal across streams (on
#: the default config neither happens): (digest, switch-outs, stolen)
SWITCHING_PINS = {
    "contention": (
        "b07f69f52da4f5aa24c33a6874a14e3c693a9a45718d4df43c2a1b77a31e06fb",
        30, 2,
    ),
    "mixed": (
        "89f98356c23100e0b01df7d104952a7b705edd071fd97519c53536047b2e6f66",
        4, 6,
    ),
}


def _block(block_id, kernel_id):
    return BlockTrace(block_id=block_id, warps=[], kernel_id=kernel_id)


def _overlapped(name, policy="partition", config=None, block_switching=False):
    """One synchronize of stream scenario ``name``, one stream per kernel."""
    dev = GpuDevice(config=config, scheme="replay-queue",
                    block_switching=block_switching, time_scale=TS)
    for spec in get_stream_scenario(name).build(dev):
        dev.create_stream().launch(spec.kernel, grid=spec.grid,
                                   block=spec.block, args=spec.args)
    return dev.synchronize(policy=policy)


def _thrash_specs(device, count=2):
    """``count`` fresh tlb-thrash kernels with disjoint CPU-dirty inputs."""
    specs = []
    for tag in range(count):
        wl = MICRO.fresh("tlb-thrash")
        span = (wl.iters + 1) * wl.num_warps * wl.PAGE_STRIDE
        src = device.malloc_managed(span, name=f"in-{tag}")
        out = device.malloc_managed(wl.num_threads * 4, name=f"out-{tag}")
        device.fill(src, [float(i % 97) for i in range(span // 4)])
        specs.append((wl, src, out))
    return specs


class TestMultiKernelScheduler:
    def _sched(self, policy="partition", num_sms=4):
        # stream 0: kernels 0 then 1 (in-order); stream 1: kernel 2
        blocks = {
            0: [_block(i, 0) for i in range(2)],
            1: [_block(i, 1) for i in range(2)],
            2: [_block(i, 2) for i in range(3)],
        }
        return MultiKernelScheduler(
            [[0, 1], [2]], blocks, num_sms=num_sms, policy=policy
        )

    def test_partition_home_streams(self):
        sched = self._sched("partition", num_sms=4)
        assert [sched.home_stream(j) for j in range(4)] == [0, 0, 1, 1]

    def test_interleave_home_streams(self):
        sched = self._sched("interleave", num_sms=4)
        assert [sched.home_stream(j) for j in range(4)] == [0, 1, 0, 1]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            self._sched(policy="priority")

    def test_same_stream_successor_hidden_until_complete(self):
        sched = self._sched()
        # kernel 1 rides behind kernel 0 on stream 0: invisible in pending
        assert sched.eligible_kernel(0) == 0
        assert sched.pending == 2 + 3  # kernels 0 and 2 only
        got = [sched.next_block(0).kernel_id for _ in range(2)]
        assert got == [0, 0]
        # kernel 0 drained but not complete: home SM now steals from
        # stream 1 rather than running kernel 1 early
        assert sched.next_block(0).kernel_id == 2
        sched.on_kernel_complete(0)
        assert sched.eligible_kernel(0) == 1
        assert sched.next_block(0).kernel_id == 1

    def test_stealing_counts_cross_stream_dispatches(self):
        sched = self._sched()
        # SM 3's home is stream 1 (kernel 2); drain it, then steal
        for _ in range(3):
            assert sched.next_block(3).kernel_id == 2
        assert sched.stolen == 0
        assert sched.next_block(3).kernel_id == 0
        assert sched.stolen == 1
        assert sched.pending_for(0) == 1

    def _one_stream(self, blocks):
        """A single-kernel launch: one stream holding one kernel."""
        return MultiKernelScheduler(
            [[0]], {0: [_block(i, 0) for i in range(blocks)]}, num_sms=4
        )

    def test_one_stream_fifo_order(self):
        sched = self._one_stream(4)
        ids = [sched.next_block(sm).block_id for sm in (0, 3, 1, 0)]
        assert ids == [0, 1, 2, 3]

    def test_one_stream_drains_to_none(self):
        sched = self._one_stream(1)
        assert sched.pending == 1
        sched.next_block(0)
        assert sched.pending == 0
        assert sched.next_block(0) is None
        assert sched.dispatched == 1
        assert sched.stolen == 0

    def test_drained_returns_none(self):
        sched = self._sched()
        got = [sched.next_block(0).kernel_id for _ in range(5)]
        assert got == [0, 0, 2, 2, 2]  # home kernel, then stolen work
        # kernel 1 exists but rides behind incomplete kernel 0: invisible
        assert sched.next_block(0) is None
        sched.on_kernel_complete(0)
        assert [sched.next_block(0).kernel_id for _ in range(2)] == [1, 1]
        assert sched.next_block(0) is None
        assert sched.pending == 0
        assert sched.dispatched == sched.total_blocks == 7


class TestSingleStreamEquivalence:
    def test_one_stream_matches_legacy_launch_bit_for_bit(self):
        # the same kernel through the legacy synchronous path...
        dev_a = GpuDevice(scheme="replay-queue", time_scale=TS)
        (wl, src, out), = _thrash_specs(dev_a, count=1)
        legacy = dev_a.launch(wl.kernel, grid=wl.grid_dim,
                              block=wl.block_dim, args=(src, out))

        # ...and through a single stream + synchronize
        dev_b = GpuDevice(scheme="replay-queue", time_scale=TS)
        (wl2, src2, out2), = _thrash_specs(dev_b, count=1)
        handle = dev_b.create_stream().launch(
            wl2.kernel, grid=wl2.grid_dim, block=wl2.block_dim,
            args=(src2, out2),
        )
        merged = dev_b.synchronize()

        assert merged.cycles == legacy.cycles
        assert asdict(merged.fault_stats) == asdict(legacy.sim.fault_stats)
        assert [asdict(s) for s in merged.sm_stats] == [
            asdict(s) for s in legacy.sim.sm_stats
        ]
        assert handle.done and handle.cycles == merged.kernels[0].cycles
        assert dev_b.read(out2, 4) == dev_a.read(out, 4)


class TestOverlapPins:
    @pytest.mark.parametrize("name,policy", list(OVERLAP_PINS))
    def test_overlapped_digest_pinned(self, name, policy):
        digest = overlap_digest(_overlapped(name, policy))
        assert digest == OVERLAP_PINS[name, policy]

    @pytest.mark.parametrize("name", list(SWITCHING_PINS))
    def test_switching_digest_pinned(self, name):
        res = _overlapped(name, config=GPUConfig(num_sms=2, max_tbs_per_sm=2),
                          block_switching=True)
        digest, switch_outs, stolen = SWITCHING_PINS[name]
        assert sum(s.block_switch_outs for s in res.sm_stats) == switch_outs
        assert res.stolen_blocks == stolen
        assert overlap_digest(res) == digest


class TestDeterminism:
    @pytest.mark.parametrize("policy", ["partition", "interleave"])
    def test_overlapped_run_is_bit_reproducible(self, policy):
        digests = []
        for _ in range(2):
            dev = GpuDevice(scheme="replay-queue", time_scale=TS)
            for wl, src, out in _thrash_specs(dev):
                dev.create_stream().launch(
                    wl.kernel, grid=wl.grid_dim, block=wl.block_dim,
                    args=(src, out),
                )
            digests.append(overlap_digest(dev.synchronize(policy=policy)))
        assert digests[0] == digests[1]

    def test_streams_experiment_overlap_beats_serial(self):
        # the acceptance criterion: overlapped makespan strictly below the
        # serial sum for the contention scenario (replay asserts the
        # digest match internally)
        data = run_streams_scenario("contention", verify_reproducible=True)
        assert data["makespan"] < data["serial_sum"]
        assert all(r["faults_serial"] > 0 for r in data["rows"])

    def test_contention_queues_behind_neighbour(self):
        # overlapped, each kernel finishes no earlier than it does alone:
        # its faults now share the queue with the other stream's
        data = run_streams_scenario("contention", verify_reproducible=False)
        for row in data["rows"]:
            assert row["overlapped"] >= row["serial"]


class TestCrossKernelBlockSwitch:
    def test_switching_fetches_blocks_from_other_kernel(self):
        # 2 SMs x 2 resident blocks vs 32 total blocks: faulted blocks get
        # switched out and the freed slots pull pending work — including
        # blocks *stolen* from the other stream's kernel (use case 1
        # across kernel boundaries)
        dev = GpuDevice(
            config=GPUConfig(num_sms=2, max_tbs_per_sm=2),
            scheme="replay-queue", block_switching=True, time_scale=TS,
        )
        scenario = get_stream_scenario("contention")
        for spec in scenario.build(dev):
            dev.create_stream().launch(
                spec.kernel, grid=spec.grid, block=spec.block,
                args=spec.args,
            )
        tel = Telemetry()
        res = dev.synchronize(telemetry=tel)

        outs = sum(s.block_switch_outs for s in res.sm_stats)
        ins = sum(s.block_switch_ins for s in res.sm_stats)
        assert outs > 0 and ins > 0
        assert res.stolen_blocks > 0

        # partition policy on 2 SMs: SM 0 is stream 0's, SM 1 is stream 1's;
        # a block launch tagged with the other stream's kernel is the
        # cross-kernel fetch in the event log
        cross = [
            rec for rec in tel.tracer.events()
            if rec[0] == ev.EV_BLOCK_LAUNCH
            and rec[5]["kernel"] != int(rec[4].replace("sm", ""))
        ]
        assert len(cross) == res.stolen_blocks > 0

    def test_switch_events_carry_kernel_tags(self):
        dev = GpuDevice(
            config=GPUConfig(num_sms=2, max_tbs_per_sm=2),
            scheme="replay-queue", block_switching=True, time_scale=TS,
        )
        for wl, src, out in _thrash_specs(dev):
            dev.create_stream().launch(
                wl.kernel, grid=wl.grid_dim, block=wl.block_dim,
                args=(src, out),
            )
        tel = Telemetry()
        dev.synchronize(telemetry=tel)
        tagged = [
            rec for rec in tel.tracer.events()
            if rec[0] in (ev.EV_BLOCK_SWITCH_OUT, ev.EV_BLOCK_SWITCH_IN)
        ]
        assert tagged and all("kernel" in rec[5] for rec in tagged)


class TestRuntimeStreamApi:
    def test_stream_launch_rejects_telemetry(self):
        dev = GpuDevice(time_scale=TS)
        (wl, src, out), = _thrash_specs(dev, count=1)
        stream = dev.create_stream()
        with pytest.raises(RuntimeError_):
            dev.launch(wl.kernel, grid=wl.grid_dim, block=wl.block_dim,
                       args=(src, out), telemetry=Telemetry(), stream=stream)

    def test_foreign_stream_rejected(self):
        dev = GpuDevice(time_scale=TS)
        other = GpuDevice(time_scale=TS)
        (wl, src, out), = _thrash_specs(dev, count=1)
        with pytest.raises(RuntimeError_):
            dev.launch(wl.kernel, grid=wl.grid_dim, block=wl.block_dim,
                       args=(src, out), stream=other.create_stream())

    def test_handle_cycles_raises_before_synchronize(self):
        dev = GpuDevice(time_scale=TS)
        (wl, src, out), = _thrash_specs(dev, count=1)
        handle = dev.create_stream().launch(
            wl.kernel, grid=wl.grid_dim, block=wl.block_dim, args=(src, out)
        )
        assert not handle.done
        with pytest.raises(RuntimeError_):
            handle.cycles
        dev.synchronize()
        assert handle.done and handle.cycles > 0

    def test_legacy_launch_drains_queue_first(self):
        # program order: a synchronous launch implicitly synchronizes any
        # queued stream work so it observes the streams' paging state
        dev = GpuDevice(time_scale=TS)
        (wl, src, out), (wl2, src2, out2) = _thrash_specs(dev, count=2)
        handle = dev.create_stream().launch(
            wl.kernel, grid=wl.grid_dim, block=wl.block_dim, args=(src, out)
        )
        legacy = dev.launch(wl2.kernel, grid=wl2.grid_dim,
                            block=wl2.block_dim, args=(src2, out2))
        assert handle.done  # implicit synchronize ran
        assert len(dev.sync_results) == 1
        assert legacy.cycles > 0
        assert dev.total_cycles == pytest.approx(
            dev.sync_results[0].cycles + legacy.cycles
        )

    def test_empty_synchronize_returns_none(self):
        dev = GpuDevice(time_scale=TS)
        assert dev.synchronize() is None
        assert dev.create_stream().synchronize() is None

    def test_more_streams_than_sms_rejected(self):
        dev = GpuDevice(config=GPUConfig(num_sms=2), time_scale=TS)
        specs = _thrash_specs(dev, count=3)
        for wl, src, out in specs:
            dev.create_stream().launch(
                wl.kernel, grid=wl.grid_dim, block=wl.block_dim,
                args=(src, out),
            )
        with pytest.raises(ValueError):
            dev.synchronize()

    def test_stream_summary_and_readback(self):
        dev = GpuDevice(time_scale=TS)
        outs = []
        for wl, src, out in _thrash_specs(dev):
            dev.create_stream().launch(
                wl.kernel, grid=wl.grid_dim, block=wl.block_dim,
                args=(src, out),
            )
            outs.append(out)
        res = dev.synchronize()
        summary = res.stream_summary()
        assert set(summary) == {0, 1}
        assert all(s["launches"] == 1 for s in summary.values())
        assert sum(s["faults"] for s in summary.values()) \
            == res.fault_stats.faults_raised
        # functional results are exactly the synchronous-path values
        a, b = (dev.read(o, 4) for o in outs)
        assert a == b  # identical kernels on identical inputs


class TestMultiStreamWatchdog:
    """Watchdog + invariant sanitizer under multi-stream contention: a
    hang confined to one stream must surface as a kernel-tagged
    SimulationHang while the other stream's completed work stays intact
    (the fault-containment contract docs/ROBUSTNESS.md serves on)."""

    def _wedged_sim(self, budget=50_000.0):
        """A two-stream contention sim whose stream-1 home SMs are wedged
        (awake, never issuing) from cycle 0: stream 0 runs to completion,
        stream 1's resident blocks never retire."""
        from repro.chaos import Watchdog
        from repro.system import MultiKernelSimulator

        dev = GpuDevice(scheme="replay-queue", time_scale=TS)
        for wl, src, out in _thrash_specs(dev):
            dev.create_stream().launch(
                wl.kernel, grid=wl.grid_dim, block=wl.block_dim,
                args=(src, out),
            )
        sim = MultiKernelSimulator(
            dev._queued,
            address_space=dev.aspace,
            config=dev.config,
            scheme=dev.scheme,
            interconnect=dev.interconnect,
            paging="demand",
            frame_allocator=dev.frames,
            watchdog=Watchdog(budget),
            sanitize=True,
        )
        for sm in sim.sms:
            if sim.tb_scheduler.home_stream(sm.sm_id) == 1:
                sm.try_issue = lambda cycle: 0  # awake, never issues
        return sim

    def test_hang_in_one_stream_tags_the_offending_kernel(self):
        from repro.chaos import SimulationHang

        sim = self._wedged_sim()
        with pytest.raises(SimulationHang) as exc_info:
            sim.run()
        diag = exc_info.value.diagnostic

        # the diagnostic names the hung launch, not just the SM
        assert diag.stuck_kernels() == [1]
        live = [
            w
            for warps in diag.warp_states.values()
            for w in warps if not w["done"]
        ]
        assert live and all(w["kernel"] == 1 for w in live)
        assert "kernel=1" in str(exc_info.value)

        # the other stream's completed blocks are intact
        assert sim.kernel_remaining[0] == 0
        assert sim.kernel_remaining[1] > 0
        assert diag.committed > 0
        assert sim.kernel_last_done[0] > 0.0

    def test_healthy_contention_run_trips_nothing(self):
        from repro.chaos import Watchdog
        from repro.system import MultiKernelSimulator

        dev = GpuDevice(scheme="replay-queue", time_scale=TS)
        for wl, src, out in _thrash_specs(dev):
            dev.create_stream().launch(
                wl.kernel, grid=wl.grid_dim, block=wl.block_dim,
                args=(src, out),
            )
        sim = MultiKernelSimulator(
            dev._queued,
            address_space=dev.aspace,
            config=dev.config,
            scheme=dev.scheme,
            interconnect=dev.interconnect,
            paging="demand",
            frame_allocator=dev.frames,
            watchdog=Watchdog(),
            sanitize=True,
        )
        result = sim.run()  # sanitizer invariants checked throughout
        assert result.cycles > 0
        assert sim.watchdog.trips == 0
        assert all(n == 0 for n in sim.kernel_remaining.values())

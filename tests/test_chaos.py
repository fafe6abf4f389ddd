"""Chaos engine tests: deterministic injection, timing-only perturbation,
memory-hierarchy hooks, hypothesis intensity sweeps, watchdog hang
detection, invariant sanitizer checks (docs/ROBUSTNESS.md)."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    ALL_HOOKS,
    ChaosConfig,
    ChaosEngine,
    InvariantSanitizer,
    InvariantViolation,
    SimulationHang,
    Watchdog,
    chaos_active,
)
from repro.core import make_scheme
from repro.harness import run_chaos_campaign
from repro.isa import R
from repro.system import GpuSimulator, architectural_digest
from repro.timing.engine import EventQueue
from repro.vm import Owner, SystemPageState
from repro.workloads import MICRO

from tests.test_timing_sm import make_sm, t_alu, t_exit


def build_sim(wl, scheme="replay-queue", paging="demand", **kw):
    return GpuSimulator(
        kernel=wl.kernel,
        trace=wl.trace(),
        address_space=wl.make_address_space(),
        scheme=make_scheme(scheme),
        paging=paging,
        **kw,
    )


@pytest.fixture(scope="module")
def saxpy():
    return MICRO.fresh("saxpy")


@pytest.fixture(scope="module")
def mshr_storm():
    return MICRO.fresh("mshr-storm")


def arch_state(sim):
    return architectural_digest(sim.address_space.page_state,
                                [sm.stats for sm in sim.sms])


_BASELINES = {}


def clean_baseline(wl):
    """Clean-run ``(cycles, digest)`` for a workload, computed once per
    module (the reference every chaotic run must architecturally match)."""
    cached = _BASELINES.get(wl.name)
    if cached is None:
        sim = build_sim(wl)
        cycles = sim.run().cycles
        cached = _BASELINES[wl.name] = (cycles, arch_state(sim))
    return cached


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

class TestChaosEngine:
    def _drive(self, engine, n=200):
        out = []
        for i in range(n):
            t = float(i)
            out.append(engine.cpu_latency(100.0, t))
            out.append(engine.link_latency(40.0, t))
            out.append(engine.resolve_delay(t))
            out.append(engine.fault_storm(t))
            out.append(engine.spurious_miss(t, vpn=i))
            out.append(engine.tlb_shootdown(t))
            out.append(engine.squash_replay(t, sm_id=i % 4))
            out.append(engine.mshr_exhaustion(t, cache="l1[0]"))
            out.append(engine.refresh_storm(t))
            out.append(engine.pkt_drop(t))
            out.append(engine.pkt_reorder(t))
            out.append(engine.alloc_failure(t, nbytes=4096))
            out.append(engine.stream_teardown(t, stream=i % 2))
        return out

    def test_same_seed_same_injections(self):
        a = ChaosEngine(seed=42)
        b = ChaosEngine(seed=42)
        assert self._drive(a) == self._drive(b)
        assert a.injections == b.injections

    def test_different_seed_differs(self):
        a = ChaosEngine(seed=1)
        b = ChaosEngine(seed=2)
        assert self._drive(a) != self._drive(b)

    def test_every_hook_fires_under_high_intensity(self):
        engine = ChaosEngine(ChaosConfig(seed=0).scaled(50.0))
        self._drive(engine, n=3000)
        assert set(engine.summary()) == set(ALL_HOOKS)
        assert engine.total_injections == sum(engine.injections.values())

    def test_zero_intensity_disables(self):
        cfg = ChaosConfig().scaled(0.0)
        assert not cfg.enabled
        assert chaos_active(ChaosEngine(cfg)) is None
        assert chaos_active(None) is None
        assert chaos_active(ChaosEngine(seed=1)) is not None

    def test_scaled_clamps_rates(self):
        cfg = ChaosConfig().scaled(1e9)
        assert cfg.storm_rate == 1.0
        assert cfg.cpu_latency_rate == 1.0
        with pytest.raises(ValueError):
            ChaosConfig().scaled(-1)

    def test_seed_override(self):
        engine = ChaosEngine(ChaosConfig(seed=3), seed=9)
        assert engine.config.seed == 9

    def test_injections_emit_telemetry(self):
        from repro.telemetry import Telemetry
        from repro.telemetry.events import EV_CHAOS

        tel = Telemetry()
        engine = ChaosEngine(
            ChaosConfig(seed=0).scaled(50.0), telemetry=tel
        )
        self._drive(engine, n=500)
        assert tel.tracer.count(EV_CHAOS) > 0
        assert tel.counters.value("chaos.total") == engine.total_injections


# ---------------------------------------------------------------------------
# timing-only perturbation (the acceptance property)
# ---------------------------------------------------------------------------

class TestTimingOnlyPerturbation:
    def test_disabled_chaos_is_bit_identical(self, saxpy):
        plain = build_sim(saxpy).run()
        disabled = build_sim(
            saxpy, chaos=ChaosEngine(ChaosConfig().scaled(0.0))
        )
        assert disabled.chaos is None  # normalized away, like telemetry
        assert disabled.run().cycles == plain.cycles

    def test_campaign_bit_reproducible(self, saxpy):
        a = run_chaos_campaign(
            "saxpy", seed=7, schemes=("replay-queue",), intensity=10.0
        )
        b = run_chaos_campaign(
            "saxpy", seed=7, schemes=("replay-queue",), intensity=10.0
        )
        assert a.to_dict() == b.to_dict()

    def test_architectural_state_matches_for_all_schemes(self, saxpy):
        table = run_chaos_campaign(
            "saxpy",
            seed=3,
            schemes=("wd-commit", "replay-queue", "operand-log"),
            intensity=25.0,
        )
        match_idx = table.columns.index("state-match")
        inject_idx = table.columns.index("injections")
        for scheme, row in table.rows.items():
            assert row[match_idx] == 1.0, f"{scheme} diverged under chaos"
        assert sum(row[inject_idx] for row in table.rows.values()) > 0

    def test_digest_reflects_final_mappings(self, saxpy):
        sim = build_sim(saxpy)
        sim.run()
        vpns, blocks, committed = arch_state(sim)
        assert blocks == saxpy.grid_dim
        assert committed > 0
        assert list(vpns) == sorted(vpns)
        assert len(vpns) > 0


# ---------------------------------------------------------------------------
# memory-hierarchy hooks (MSHR exhaustion, DRAM refresh storms)
# ---------------------------------------------------------------------------

#: only the cache/DRAM hooks enabled, at rates that fire on a small run
MEM_ONLY_CFG = ChaosConfig(
    cpu_latency_rate=0.0,
    link_latency_rate=0.0,
    resolve_delay_rate=0.0,
    storm_rate=0.0,
    tlb_miss_rate=0.0,
    shootdown_rate=0.0,
    squash_rate=0.0,
    mshr_exhaustion_rate=0.05,
    refresh_storm_rate=0.02,
)


class TestMemoryHierarchyHooks:
    def test_hooks_registered(self):
        assert "cache.mshr_exhaustion" in ALL_HOOKS
        assert "dram.refresh_storm" in ALL_HOOKS

    def test_hooks_fire_and_state_matches(self, mshr_storm):
        clean_cycles, clean_digest = clean_baseline(mshr_storm)
        engine = ChaosEngine(MEM_ONLY_CFG, seed=4)
        sim = build_sim(mshr_storm, chaos=engine, sanitize=True)
        result = sim.run()
        assert engine.injections["cache.mshr_exhaustion"] > 0
        assert engine.injections["dram.refresh_storm"] > 0
        # the hooks only ever delay, so they can't speed the run up —
        # and must not change what the run computed
        assert result.cycles >= clean_cycles
        assert arch_state(sim) == clean_digest

    def test_hooks_emit_inject_events(self):
        from repro.telemetry import Telemetry
        from repro.telemetry.events import EV_CHAOS

        tel = Telemetry()
        engine = ChaosEngine(MEM_ONLY_CFG, seed=1, telemetry=tel)
        for i in range(500):
            engine.mshr_exhaustion(float(i), cache="l2")
            engine.refresh_storm(float(i))
        assert tel.tracer.count(EV_CHAOS) == engine.total_injections > 0
        assert (
            tel.counters.value("chaos.cache.mshr_exhaustion")
            == engine.injections["cache.mshr_exhaustion"]
        )

    def test_mshr_stall_takes_future_service_path(self):
        """An injected exhaustion must charge the unloaded downstream
        latency (the future-service path), not book shared resources."""
        from repro.mem.cache import Cache, Dram

        always = ChaosConfig(mshr_exhaustion_rate=1.0,
                             mshr_stall_max_cycles=100.0)
        cache = Cache("l1", size_bytes=1024, assoc=2, line_size=64,
                      latency=4, num_mshrs=8, next_level_unloaded=50.0)
        cache.attach_chaos(ChaosEngine(always, seed=0))
        dram = Dram(latency=0, bandwidth_bytes_per_cycle=64, line_size=64)
        ready = cache.access(0, 10.0, False, dram)
        assert dram.stats.accesses == 0  # stalled miss never touched DRAM
        assert ready > 10.0 + cache.latency + cache.next_level_unloaded
        assert cache.stats.mshr_stalls == 1


# ---------------------------------------------------------------------------
# hypothesis intensity sweeps (ROADMAP chaos follow-up)
# ---------------------------------------------------------------------------

class TestIntensitySweepProperties:
    """Property tests along the intensity axis: zero intensity must be
    bit-identical to an uninjected run; any intensity must leave the run
    sanitizer-clean with the identical architectural state."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_zero_intensity_bit_identical(self, saxpy, seed):
        clean_cycles, _ = clean_baseline(saxpy)
        engine = ChaosEngine(ChaosConfig(seed=seed).scaled(0.0))
        sim = build_sim(saxpy, chaos=engine)
        assert sim.chaos is None  # normalized away regardless of seed
        assert sim.run().cycles == clean_cycles

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        intensity=st.floats(0.0, 40.0, allow_nan=False),
    )
    def test_any_intensity_sanitizer_clean_state(self, saxpy, seed,
                                                 intensity):
        _, clean_digest = clean_baseline(saxpy)
        engine = ChaosEngine(ChaosConfig(seed=seed).scaled(intensity))
        sim = build_sim(
            saxpy, chaos=engine, watchdog=Watchdog(), sanitize=True
        )
        sim.run()
        assert sim.sanitizer.checks_run > 0
        assert sim.watchdog.trips == 0
        assert arch_state(sim) == clean_digest


# ---------------------------------------------------------------------------
# watchdog
# ---------------------------------------------------------------------------

class TestWatchdog:
    def test_observe_semantics(self):
        wd = Watchdog(cycle_budget=100.0)
        assert wd.observe((5, 0))
        assert wd.observe((5, 10))  # progress
        assert not wd.observe((5, 10))  # none
        assert wd.trips == 1
        wd.reset()
        assert wd.observe((5, 10))

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            Watchdog(cycle_budget=0)

    def test_artificial_hang_caught_within_budget(self, saxpy):
        """Wedged SMs (awake, never issuing) plus a self-rescheduling
        stuck event: progress-blind loops like this must trip the
        watchdog within its cycle budget, not spin to max_cycles."""
        budget = 5_000.0
        sim = build_sim(saxpy, watchdog=Watchdog(budget))
        # a fault raised before the run wedges: its group stays pending
        page_state = sim.address_space.page_state
        vpn = next(iter(dict(page_state.cpu_table.items())))
        sim.fault_ctl.on_fault(vpn=vpn, detect_time=0.0, sm_id=0)
        for sm in sim.sms:
            sm.try_issue = lambda cycle: 0  # awake but never issues
        def stuck(t):
            sim.events.schedule(t + 50.0, stuck)
        sim.events.schedule(0.0, stuck)

        with pytest.raises(SimulationHang) as exc_info:
            sim.run(max_cycles=100 * budget)
        diag = exc_info.value.diagnostic
        assert diag.cycle <= 2 * budget  # caught within the budget window
        assert diag.cycle_budget == budget
        assert diag.blocks_remaining == saxpy.grid_dim
        assert diag.committed == 0
        assert diag.pending_fault_groups  # the pre-raised fault group
        assert diag.event_heap_depth > 0  # the stuck event keeps pending
        assert set(diag.warp_states) == {
            f"sm{sm.sm_id}" for sm in sim.sms
        }
        some_sm = next(iter(diag.warp_states.values()))
        assert {"warp", "idx", "inflight", "fetch_holds"} <= set(
            some_sm[0]
        )
        rendered = str(exc_info.value)
        assert "no forward progress" in rendered
        assert "pending fault groups" in rendered

    def test_healthy_run_never_trips(self, saxpy):
        sim = build_sim(saxpy, watchdog=Watchdog(5_000.0))
        result = sim.run()
        assert result.cycles > 0
        assert sim.watchdog.trips == 0


# ---------------------------------------------------------------------------
# invariant sanitizer
# ---------------------------------------------------------------------------

def _clean_block():
    warp = SimpleNamespace(
        slot=0, pw=0, pr={}, prm=0, inflight=0, replay_list=[]
    )
    return SimpleNamespace(
        block_id=1,
        warps=[warp],
        log_used=0,
        faulted_inflight=[],
        pending_groups={},
        unresolved_at=lambda time: False,
    )


class TestSanitizer:
    def test_clean_retirement_passes(self):
        san = InvariantSanitizer()
        san.check_block_retirement(
            SimpleNamespace(sm_id=0), _clean_block(), 100.0
        )
        assert san.checks_run == 1

    @pytest.mark.parametrize(
        "corrupt,needle",
        [
            (lambda b: setattr(b.warps[0], "pw", 1 << 13), "scoreboard"),
            (lambda b: setattr(b.warps[0], "inflight", 2), "in-flight"),
            (lambda b: b.warps[0].replay_list.append(object()),
             "unreplayed"),
            (lambda b: setattr(b, "log_used", 64), "operand log"),
            (lambda b: setattr(b, "unresolved_at", lambda t: True),
             "fault groups"),
        ],
    )
    def test_leaks_detected(self, corrupt, needle):
        san = InvariantSanitizer()
        block = _clean_block()
        block.pending_groups = {7: 999.0}
        corrupt(block)
        with pytest.raises(InvariantViolation) as exc_info:
            san.check_block_retirement(
                SimpleNamespace(sm_id=3), block, 100.0
            )
        assert needle in str(exc_info.value)
        assert exc_info.value.details["sm"] == 3

    def test_second_pending_write_detected(self):
        """A scoreboard mask holds one pending write per register (the WAW
        check blocks a second writer); the sanitized issue path checks it."""
        trace = [t_alu(R(1), R(0)), t_exit()]
        sm, _, block = make_sm([trace], sanitizer=InvariantSanitizer())
        warp = block.warps[0]
        dec = warp.dtrace[0]
        warp.pw = dec[9]  # R1 already has a write in flight
        with pytest.raises(InvariantViolation, match="second pending write"):
            sm._issue(warp, 0, dec, 0.0)

    def test_fired_faulted_record_tolerated(self):
        """At a faulted instruction's completion time the commit event
        fires before the forget event (FIFO tie-break), so a just-fired
        record may still sit in faulted_inflight at retirement."""
        san = InvariantSanitizer()
        block = _clean_block()
        fired_ev = SimpleNamespace(fired=True, cancelled=False)
        block.faulted_inflight = [(None, None, fired_ev)]
        san.check_block_retirement(SimpleNamespace(sm_id=0), block, 10.0)
        live_ev = SimpleNamespace(fired=False, cancelled=False)
        block.faulted_inflight = [(None, None, live_ev)]
        with pytest.raises(InvariantViolation):
            san.check_block_retirement(SimpleNamespace(sm_id=0), block, 10.0)

    def test_frame_double_allocation_detected(self):
        san = InvariantSanitizer()
        state = SystemPageState()
        state.register_range(0, 8 * 4096, Owner.NONE)
        state.install_gpu_page(0, ppn=10)
        state.install_gpu_page(1, ppn=11)
        san.check_frames(state)  # distinct frames: fine
        state.install_gpu_page(2, ppn=10)  # same frame twice
        with pytest.raises(InvariantViolation) as exc_info:
            san.check_frames(state)
        assert exc_info.value.details["ppn"] == 10

    def test_heap_time_regression_detected(self):
        events = EventQueue()
        events.attach_sanitizer(InvariantSanitizer())
        events.schedule(10.0, lambda t: None)
        events.run_until(10.0)
        with pytest.raises(InvariantViolation, match="time regression"):
            events.schedule(5.0, lambda t: None)

    def test_heap_storm_detected(self):
        events = EventQueue()
        san = InvariantSanitizer()
        san.max_events_per_advance = 100
        events.attach_sanitizer(san)

        def stuck(t):
            events.schedule(t, stuck)  # same-timestamp livelock

        events.schedule(1.0, stuck)
        with pytest.raises(InvariantViolation, match="event storm"):
            events.run_until(1.0)

    def test_sanitized_queue_matches_unsanitized(self):
        order_a, order_b = [], []
        plain, checked = EventQueue(), EventQueue()
        checked.attach_sanitizer(InvariantSanitizer())
        for q, order in ((plain, order_a), (checked, order_b)):
            for t in (3.0, 1.0, 2.0, 1.0):
                q.schedule(t, lambda tt, o=order: o.append(tt))
            q.run_until(5.0)
        assert order_a == order_b == [1.0, 1.0, 2.0, 3.0]
        assert plain.processed == checked.processed == 4

    def test_sanitized_full_run_is_bit_identical(self, saxpy):
        plain = build_sim(saxpy).run()
        checked_sim = build_sim(saxpy, sanitize=True)
        checked = checked_sim.run()
        assert checked.cycles == plain.cycles
        assert checked_sim.sanitizer.checks_run > 0


class TestInterconnectHooks:
    """The icnt.pkt_drop / icnt.pkt_reorder hooks (docs/ROBUSTNESS.md)."""

    def test_registered_in_all_hooks(self):
        assert "icnt.pkt_drop" in ALL_HOOKS
        assert "icnt.pkt_reorder" in ALL_HOOKS

    def test_pkt_drop_fires_and_counts(self):
        engine = ChaosEngine(ChaosConfig(seed=0, pkt_drop_rate=1.0,
                                         pkt_drop_max_retx=3))
        retx = [engine.pkt_drop(float(t)) for t in range(50)]
        assert all(1 <= r <= 3 for r in retx)
        assert engine.injections["icnt.pkt_drop"] == 50

    def test_pkt_reorder_fires_and_counts(self):
        engine = ChaosEngine(ChaosConfig(seed=0, pkt_reorder_rate=1.0,
                                         pkt_reorder_max_slots=2))
        slots = [engine.pkt_reorder(float(t)) for t in range(50)]
        assert all(1 <= s <= 2 for s in slots)
        assert engine.injections["icnt.pkt_reorder"] == 50

    def test_zero_rate_never_fires(self):
        engine = ChaosEngine(ChaosConfig(seed=0, pkt_drop_rate=0.0,
                                         pkt_reorder_rate=0.0))
        assert all(engine.pkt_drop(float(t)) == 0 for t in range(50))
        assert all(engine.pkt_reorder(float(t)) == 0 for t in range(50))
        assert engine.total_injections == 0

    def test_perturb_timing_only_in_campaign(self):
        # drive a full run with ONLY the interconnect hooks armed:
        # state-match must hold and the chaotic run must actually differ
        zeroed = {
            name: 0.0
            for name in vars(ChaosConfig())
            if name.endswith("_rate")
        }
        cfg = ChaosConfig(
            seed=0,
            **{**zeroed, "pkt_drop_rate": 1.0, "pkt_reorder_rate": 1.0},
        )
        wl = MICRO.fresh("tlb-thrash")
        base_sim = build_sim(wl)
        base = base_sim.run()
        chaotic_sim = build_sim(
            MICRO.fresh("tlb-thrash"), chaos=ChaosEngine(cfg),
            watchdog=Watchdog(), sanitize=True,
        )
        chaotic = chaotic_sim.run()
        assert chaotic_sim.chaos.total_injections > 0
        assert chaotic.cycles > base.cycles
        assert arch_state(base_sim) == arch_state(chaotic_sim)


class TestStreamChaosCampaign:
    """Multi-kernel stream runs in the chaos soak matrix."""

    def test_state_match_under_both_policies(self):
        from repro.harness import run_stream_chaos_campaign

        for policy in ("partition", "interleave"):
            table = run_stream_chaos_campaign(
                "contention", seed=0, policy=policy,
                schemes=("replay-queue",),
            )
            row = table.rows["replay-queue"]
            assert row[-1] == 1.0  # state-match
            assert row[3] > 0  # injections fired

    def test_build_chaos_cells_stream_axis(self):
        from repro.harness import build_chaos_cells
        from repro.harness.chaos_campaign import run_stream_chaos_campaign

        cells = build_chaos_cells(
            ["saxpy"], seeds=[0, 1],
            stream_policies=("partition", "interleave"),
        )
        keys = [c.key for c in cells]
        assert "chaos/saxpy/s0" in keys
        assert "chaos/streams-contention/partition/s0" in keys
        assert "chaos/streams-contention/interleave/s1" in keys
        assert "chaos/streams-mixed/partition/s1" in keys
        stream_cells = [c for c in cells if "streams-" in c.key]
        assert all(c.fn is run_stream_chaos_campaign
                   for c in stream_cells)
        assert all(c.group == "chaos" for c in cells)

    def test_no_stream_policies_no_stream_cells(self):
        from repro.harness import build_chaos_cells

        cells = build_chaos_cells(["saxpy"], seeds=[0])
        assert [c.key for c in cells] == ["chaos/saxpy/s0"]

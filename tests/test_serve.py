"""Multi-tenant serving-layer tests: admission control, circuit
breakers, the content-addressed result cache, the asyncio service's
retry/backoff + containment behaviour, and the bit-reproducible
virtual-time driver (docs/ROBUSTNESS.md "Serving")."""

import asyncio
import threading

import pytest

from repro.chaos import HangDiagnostic, SimulationHang
from repro.harness.hashing import content_hash
from repro.harness.isolation import ExperimentFailure
from repro.serve import (
    GpuService,
    QueueFull,
    ResultCache,
    ServiceCore,
    TenantPolicy,
    TenantQuarantined,
    UnknownTenant,
    VirtualTimeDriver,
    containment_experiment,
    execute_request,
    merge_arrivals,
    open_loop_arrivals,
)
from repro.serve.core import CircuitBreaker, percentile
from repro.serve.loadgen import Arrival
from repro.system import PAGING_MODES


def _hang(budget=1_000.0):
    return SimulationHang(
        HangDiagnostic(
            cycle=budget, cycle_budget=budget,
            blocks_remaining=1, committed=0,
        )
    )


def stub_executor(spec):
    """Deterministic fake data plane: cycles derived from the spec,
    ``hang`` raises like a watchdog trip, ``hang_until_reseed`` hangs
    only until the retry path bumps the seed past 1000 (a genuinely
    transient failure), ``faults`` passes a fault tally through."""
    if spec.get("hang"):
        raise _hang(float(spec.get("cycle_budget") or 1_000.0))
    if spec.get("hang_until_reseed") and int(spec.get("seed", 0)) < 1000:
        raise _hang(float(spec.get("cycle_budget") or 1_000.0))
    cycles = 1_000.0 + 100.0 * (int(spec.get("seed", 0)) % 7)
    return {
        "workload": spec.get("workload", "stub"),
        "cycles": cycles,
        "faults_raised": int(spec.get("faults", 0)),
        "state_digest": content_hash(spec),
    }


def _policy(**kw):
    base = dict(
        max_streams=2, max_queue_depth=2, fault_budget=100,
        hang_budget=1, breaker_window=100_000.0, cooldown=10_000.0,
        half_open_probes=1,
    )
    base.update(kw)
    return TenantPolicy(**base)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.99) == 0.0

    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        assert percentile(samples, 0.50) == 50
        assert percentile(samples, 0.99) == 99
        assert percentile(samples, 1.0) == 100

    def test_single_sample(self):
        assert percentile([42.0], 0.99) == 42.0


class TestCircuitBreaker:
    def test_hang_budget_trips_and_cooldown_recovers(self):
        br = CircuitBreaker(_policy(hang_budget=1))
        assert br.allow(0.0)
        br.record_hang(10.0)
        assert br.state == CircuitBreaker.CLOSED  # within budget
        br.record_hang(20.0)  # tally 2 > budget 1
        assert br.state == CircuitBreaker.OPEN
        assert not br.allow(25.0)
        # cooldown elapses -> HALF_OPEN admits exactly one probe
        assert br.allow(20.0 + 10_000.0)
        assert br.state == CircuitBreaker.HALF_OPEN
        assert not br.allow(20.0 + 10_000.0)
        br.record_success(30_100.0)
        assert br.state == CircuitBreaker.CLOSED
        # tallies cleared: one new hang stays within budget again
        br.record_hang(30_200.0)
        assert br.state == CircuitBreaker.CLOSED

    def test_fault_budget_trips(self):
        br = CircuitBreaker(_policy(fault_budget=100))
        br.record_faults(60, 0.0)
        assert br.state == CircuitBreaker.CLOSED
        br.record_faults(60, 1.0)  # 120 > 100
        assert br.state == CircuitBreaker.OPEN

    def test_window_expires_old_faults(self):
        br = CircuitBreaker(_policy(fault_budget=100, breaker_window=50.0))
        br.record_faults(80, 0.0)
        br.record_faults(80, 100.0)  # first batch aged out
        assert br.state == CircuitBreaker.CLOSED

    def test_failed_probe_retrips(self):
        br = CircuitBreaker(_policy(hang_budget=0, cooldown=100.0))
        br.record_hang(0.0)
        assert br.state == CircuitBreaker.OPEN
        assert br.allow(200.0)  # half-open probe
        br.record_hang(201.0)
        assert br.state == CircuitBreaker.OPEN
        assert not br.allow(250.0)


class TestServiceCoreAdmission:
    def test_unknown_tenant_is_structured(self):
        core = ServiceCore()
        with pytest.raises(UnknownTenant) as exc:
            core.check_admission("ghost", 0.0)
        assert exc.value.to_dict()["code"] == "unknown-tenant"

    def test_quota_then_queue_then_shed(self):
        core = ServiceCore()
        core.register_tenant("t", _policy(max_streams=1, max_queue_depth=1))
        assert core.acquire_slot("t", 0.0) == "run"
        assert core.acquire_slot("t", 0.0) == "queued"
        with pytest.raises(QueueFull) as exc:
            core.acquire_slot("t", 0.0)
        assert exc.value.code == "queue-full"
        assert "quota" in str(exc.value)
        state = core.tenant("t")
        assert state.rejections == 1
        assert core.counters.value("serve.slo.rejected") == 1

    def test_quarantine_rejects_before_cache(self):
        core = ServiceCore()
        core.register_tenant("t", _policy(hang_budget=0))
        state = core.tenant("t")
        state.inflight = 1
        core.fail("t", 0.0, hang=True)
        with pytest.raises(TenantQuarantined) as exc:
            core.check_admission("t", 1.0)
        d = exc.value.to_dict()
        assert d["code"] == "quarantined"
        assert d["tenant"] == "t"
        assert core.counters.value("serve.slo.quarantines") == 1

    def test_tenant_telemetry_rollups(self):
        core = ServiceCore()
        core.register_tenant("t", _policy())
        core.check_admission("t", 0.0)
        assert core.acquire_slot("t", 0.0) == "run"
        core.complete("t", 5.0, latency_cycles=1234.0, faults=7)
        core.record_cache_hit("t")
        snap = core.counters.snapshot()
        assert snap["serve.tenant[t].submits"] == 1
        assert snap["serve.tenant[t].faults"] == 7
        assert snap["serve.tenant[t].cache_hits"] == 1
        assert snap["serve.tenant[t].p99_cycles"] == 1234.0
        assert snap["serve.slo.completed"] == 1


class TestResultCache:
    def test_key_ignores_dict_order(self):
        a = {"workload": "saxpy", "seed": 3}
        b = {"seed": 3, "workload": "saxpy"}
        assert ResultCache.key(a) == ResultCache.key(b)

    def test_hit_miss_and_stats(self):
        cache = ResultCache(capacity=8)
        key = cache.key({"x": 1})
        assert cache.get(key) is None
        cache.put(key, {"cycles": 1.0})
        assert cache.get(key) == {"cycles": 1.0}
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        for i in range(3):
            cache.put(f"k{i}", {"i": i})
        assert cache.get("k0") is None  # evicted
        assert cache.get("k2") == {"i": 2}
        assert cache.evictions == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)


def _service(**kw):
    kw.setdefault("isolated", False)
    kw.setdefault("executor", stub_executor)
    kw.setdefault("backoff_base", 0.001)
    return GpuService(**kw)


def _record_attempts(service, first_kind=None):
    """The seed of each of ``service``'s execution attempts; with
    ``first_kind``, the first attempt fails with it, the way the
    isolation layer reports a crashed or timed-out child."""
    seeds = []
    run_once = service._run_once

    def attempt(name, spec):
        seeds.append(spec.get("seed"))
        if first_kind is not None and len(seeds) == 1:
            return ExperimentFailure(name=name, kind=first_kind,
                                     message="injected")
        return run_once(name, spec)

    service._run_once = attempt
    return seeds


class TestGpuService:
    def test_execute_then_cache_hit_bit_identical(self):
        service = _service()
        service.register_tenant("t", _policy())
        spec = {"workload": "w", "seed": 3}

        async def run():
            cold = await service.submit("t", spec)
            warm = await service.submit("t", spec)
            return cold, warm

        cold, warm = asyncio.run(run())
        assert cold.ok and not cold.cached and cold.attempts == 1
        assert warm.cached and warm.attempts == 0
        assert warm.value == cold.value  # bit-identical table
        assert service.core.tenant("t").cache_hits == 1

    def test_transient_hang_retried_with_reseed(self):
        service = _service(max_attempts=3)
        service.register_tenant("t", _policy())
        spec = {"workload": "w", "seed": 0, "hang_until_reseed": True}

        res = asyncio.run(service.submit("t", spec))
        assert res.ok
        assert res.attempts == 2  # hung once, reseeded retry succeeded
        assert service.core.tenant("t").retries == 1
        assert service.core.counters.value("serve.slo.retries") == 1

    @pytest.mark.parametrize("kind", ["ChildCrash", "Timeout"])
    def test_transient_failure_retried_with_the_requested_seed(self, kind):
        service = _service(max_attempts=3)
        service.register_tenant("t", _policy())
        seeds = _record_attempts(service, first_kind=kind)
        spec = {"workload": "w", "seed": 7}

        res = asyncio.run(service.submit("t", spec))
        assert res.ok and res.attempts == 2
        assert seeds == [7, 7]
        assert res.value == stub_executor(spec)
        assert service.cache.get("t", res.key) == stub_executor(spec)

    def test_hang_without_a_seed_reseeds_from_seed_zero(self):
        service = _service(max_attempts=3)
        service.register_tenant("t", _policy())
        seeds = _record_attempts(service)

        res = asyncio.run(service.submit(
            "t", {"workload": "w", "hang_until_reseed": True}
        ))
        assert res.ok
        assert seeds == [None, 1000]

    def test_exhausted_hang_fails_and_quarantines(self):
        service = _service(max_attempts=2)
        service.register_tenant("t", _policy(hang_budget=0))
        spec = {"workload": "w", "hang": True}

        res = asyncio.run(service.submit("t", spec))
        assert not res.ok
        assert res.failure.kind == "SimulationHang"
        assert res.attempts == 2
        state = service.core.tenant("t")
        assert state.hangs == 1
        assert state.breaker.state == CircuitBreaker.OPEN
        with pytest.raises(TenantQuarantined):
            asyncio.run(service.submit("t", {"workload": "w"}))
        assert state.rejections == 1

    def test_queue_full_sheds_structured(self):
        gate = threading.Event()

        def slow_executor(spec):
            gate.wait(timeout=10.0)
            return stub_executor(spec)

        service = _service(executor=slow_executor)
        service.register_tenant(
            "t", _policy(max_streams=1, max_queue_depth=0)
        )

        async def run():
            first = asyncio.create_task(
                service.submit("t", {"workload": "a"})
            )
            await asyncio.sleep(0.05)  # first occupies the only stream
            with pytest.raises(QueueFull):
                await service.submit("t", {"workload": "b"})
            gate.set()
            return await first

        res = asyncio.run(run())
        assert res.ok
        assert service.core.tenant("t").rejections == 1

    def test_one_tenant_quarantined_others_unaffected(self):
        service = _service(max_attempts=1)
        service.register_tenant("storm", _policy(hang_budget=0))
        service.register_tenant("steady", _policy(max_queue_depth=8))
        subs = [("storm", {"workload": "w", "hang": True, "seed": 0})]
        subs += [
            ("steady", {"workload": "w", "seed": i}) for i in range(6)
        ]
        subs += [("storm", {"workload": "w", "seed": 99})]

        async def run():
            # storm's hang first, then everyone else concurrently
            await service.drain(subs[:1])
            return await service.drain(subs[1:])

        results = asyncio.run(run())
        steady = [r for r in results[:-1]]
        assert all(r.ok for r in steady)
        assert isinstance(results[-1], TenantQuarantined)
        assert service.core.tenant("steady").completions == 6
        assert service.core.tenant("steady").rejections == 0


def _arrivals(tenant, specs, gap=1_000.0):
    return [
        Arrival(time=gap * (i + 1), tenant=tenant, seq=i, spec=spec)
        for i, spec in enumerate(specs)
    ]


class TestVirtualTimeDriver:
    def _core(self, tenants):
        core = ServiceCore()
        for name, policy in tenants:
            core.register_tenant(name, policy)
        return core

    def test_latency_includes_queue_wait(self):
        core = self._core([("t", _policy(max_streams=2))])
        driver = VirtualTimeDriver(
            core, num_gpus=1, executor=stub_executor
        )
        # both arrive before the first (1000-cycle) job finishes; the
        # second waits for the single GPU
        specs = [{"workload": "w", "seed": 0}, {"workload": "w", "seed": 7}]
        report = driver.run(_arrivals("t", specs, gap=100.0))
        lat = sorted(core.tenant("t").latencies_cycles)
        assert lat[0] == 1_000.0  # ran immediately
        assert lat[1] == pytest.approx(1_900.0)  # 800 wait + 1000 + 100
        assert report["slo"]["completed"] == 2

    def test_same_seed_same_digest(self):
        def run_once():
            core = self._core([
                ("a", _policy()), ("b", _policy()),
            ])
            streams = [
                open_loop_arrivals(
                    7, name, [{"workload": "w", "seed": s} for s in range(4)],
                    12, 500.0,
                )
                for name in ("a", "b")
            ]
            driver = VirtualTimeDriver(core, executor=stub_executor)
            return driver.run(merge_arrivals(*streams))

        first, second = run_once(), run_once()
        assert first["digest"] == second["digest"]
        assert first == second

    def test_hang_trips_breaker_and_sheds_backlog(self):
        core = self._core([
            ("t", _policy(max_streams=1, max_queue_depth=2, hang_budget=0))
        ])
        driver = VirtualTimeDriver(
            core, num_gpus=1, max_attempts=2, executor=stub_executor
        )
        hang = {"workload": "w", "hang": True, "cycle_budget": 500.0}
        specs = [hang] + [{"workload": "w", "seed": s} for s in (1, 2)]
        report = driver.run(_arrivals("t", specs, gap=10.0))
        # the hang job fails (2 attempts), trips the breaker, and the
        # two queued jobs are shed as structured quarantine rejections
        assert report["slo"]["failed"] == 1
        assert report["slo"]["hangs"] == 1
        assert report["tenants"]["t"]["breaker"] == "open"
        assert report["rejections"]["t"]["quarantined"] == 2
        assert report["slo"]["completed"] == 0

    def test_cache_hits_are_free_and_counted(self):
        core = self._core([("t", _policy())])
        driver = VirtualTimeDriver(core, executor=stub_executor)
        spec = {"workload": "w", "seed": 5}
        report = driver.run(_arrivals("t", [spec, dict(spec)], gap=5_000.0))
        assert report["cached_served"] == 1
        assert report["cache"]["hits"] == 1
        state = core.tenant("t")
        assert sorted(state.latencies_cycles) == [0.0, 1_500.0]


class TestContainmentExperiment:
    def test_contained_and_reproducible_with_stub(self):
        kwargs = dict(
            steady_tenants=2, requests_per_tenant=60, storm_requests=30,
            mean_gap_cycles=2_000.0, storm_cycle_budget=1_000.0,
            executor=stub_executor,
        )
        rep = containment_experiment(seed=3, **kwargs)
        rep2 = containment_experiment(seed=3, **kwargs)
        assert rep["baseline"]["digest"] == rep2["baseline"]["digest"]
        assert rep["chaotic"]["digest"] == rep2["chaotic"]["digest"]
        assert rep["storm_quarantines"] >= 1
        assert rep["storm_rejections"].get("quarantined", 0) > 0
        assert rep["chaotic"]["tenants"]["storm"]["breaker"] == "open"
        for s in rep["steady"].values():
            assert s["within_bound"]

    def test_different_seed_different_digest(self):
        kwargs = dict(
            steady_tenants=1, requests_per_tenant=20, storm_requests=10,
            mean_gap_cycles=2_000.0, executor=stub_executor,
        )
        a = containment_experiment(seed=0, **kwargs)
        b = containment_experiment(seed=1, **kwargs)
        assert a["baseline"]["digest"] != b["baseline"]["digest"]


class TestRealExecutor:
    def test_clean_run_is_deterministic(self):
        spec = {"workload": "saxpy", "time_scale": 8.0}
        first = execute_request(spec)
        second = execute_request(dict(spec))
        assert first == second
        assert first["cycles"] > 0
        assert first["faults_raised"] > 0  # demand paging faults
        assert first["injections"] == 0

    def test_chaos_spec_injects(self):
        spec = {
            "workload": "saxpy", "time_scale": 8.0,
            "chaos_intensity": 3.0, "seed": 1, "cycle_budget": 200_000.0,
        }
        result = execute_request(spec)
        assert result["injections"] > 0

    def test_hang_spec_raises_simulation_hang(self):
        with pytest.raises(SimulationHang):
            execute_request({"workload": "saxpy", "hang": True})

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ValueError, match="unknown spec key"):
            execute_request({"workload": "saxpy", "wl": "typo"})

    @pytest.mark.parametrize("paging", PAGING_MODES)
    def test_every_paging_mode_runs(self, paging):
        result = execute_request({"workload": "saxpy", "paging": paging})
        assert result["cycles"] > 0

    @pytest.mark.parametrize("bad, match", [
        ({"scheme": "bogus"}, "unknown scheme"),
        ({"paging": "prefetch-neighborhood"}, "unknown paging mode"),
    ])
    @pytest.mark.parametrize("trace_text", [None, "{}"])
    def test_malformed_spec_fails_before_trace_work(
        self, monkeypatch, bad, match, trace_text
    ):
        import repro.serve.executor as executor_mod
        from repro.workloads.base import Workload

        def no_trace_work(*args, **kwargs):
            raise AssertionError("trace work for a malformed spec")

        monkeypatch.setattr(Workload, "trace", no_trace_work)
        monkeypatch.setattr(executor_mod, "load_trace", no_trace_work)
        with pytest.raises(ValueError, match=match):
            execute_request({"workload": "lbm", **bad}, trace_text)

    def test_cache_hit_matches_cold_run_through_service(self):
        service = GpuService(isolated=False)
        # real kernels fault by design (demand paging): budget above it
        service.register_tenant("t", _policy(fault_budget=10**6))
        spec = {"workload": "saxpy", "time_scale": 8.0}

        async def run():
            cold = await service.submit("t", spec)
            warm = await service.submit("t", dict(spec))
            return cold, warm

        cold, warm = asyncio.run(run())
        assert warm.cached
        assert warm.value == cold.value
        assert warm.value["state_digest"] == cold.value["state_digest"]


class TestServeCli:
    def test_serve_bench_registered(self):
        from repro.harness.__main__ import SUBCOMMANDS

        assert "serve-bench" in SUBCOMMANDS

    def test_update_conflicts_with_quick(self):
        from repro.harness.serve_bench import main

        with pytest.raises(SystemExit) as exc:
            main(["--update", "--quick"])
        assert exc.value.code == 2

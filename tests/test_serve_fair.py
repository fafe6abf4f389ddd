"""Weighted-fair admission and tenant cache isolation tests: the
deficit-round-robin grant queue, the partitioned result cache, the
rejection taxonomy (distinct codes *and* reasons per class), closed-loop
clients under the virtual-time driver, the fairness experiment, and the
``SERVE_COUNTERS`` manifest staying honest against the live registry
(docs/SERVING.md)."""

import asyncio
import re
import threading

import pytest

from repro.harness.hashing import content_hash
from repro.serve import (
    ClosedLoopClient,
    DeficitRoundRobin,
    GpuService,
    PartitionedResultCache,
    SERVE_COUNTERS,
    ServiceCore,
    ServiceUnavailable,
    TenantPolicy,
    VirtualTimeDriver,
    fairness_experiment,
)
from repro.serve.core import (
    QueueFull,
    ServeRejection,
    TenantQuarantined,
    UnknownTenant,
)
from repro.serve.loadgen import fairness_run
from repro.serve.wire import register_wire_counters

REJECTION_CLASSES = (
    ServeRejection, UnknownTenant, QueueFull,
    TenantQuarantined, ServiceUnavailable,
)


def scaled_stub(spec):
    """Deterministic stub data plane whose cycle cost scales the way
    the real executor does: ``time_scale`` divides the simulated
    fault-service latency, so a higher scale means a shorter kernel."""
    ts = float(spec.get("time_scale", 1.0))
    cycles = 40_000.0 / ts + 250.0 * (int(spec.get("seed", 0)) % 5)
    return {
        "workload": spec.get("workload", "stub"),
        "cycles": cycles,
        "faults_raised": 0,
        "state_digest": content_hash(spec),
    }


class TestDeficitRoundRobin:
    def test_weights_shape_the_grant_order(self):
        q = DeficitRoundRobin()
        q.register("a", weight=2)
        q.register("b", weight=1)
        for i in range(9):
            q.push("a", f"a{i}")
            q.push("b", f"b{i}")
        grants = [q.pop()[0] for _ in range(9)]
        # weight 2 earns two consecutive grants per round
        assert grants == ["a", "a", "b", "a", "a", "b", "a", "a", "b"]

    def test_priority_classes_drain_strictly_first(self):
        q = DeficitRoundRobin()
        q.register("lo", weight=5, priority=0)
        q.register("hi", weight=1, priority=1)
        for i in range(3):
            q.push("lo", i)
            q.push("hi", i)
        grants = [q.pop()[0] for _ in range(6)]
        assert grants == ["hi", "hi", "hi", "lo", "lo", "lo"]

    def test_idle_tenant_does_not_bank_credit(self):
        """A queue that goes empty forfeits its deficit: returning
        after an idle stretch earns no burst."""
        q = DeficitRoundRobin()
        q.register("a", weight=1)
        q.register("b", weight=1)
        q.push("a", 1)
        assert q.pop() == ("a", 1)  # b idle the whole time
        for i in range(4):
            q.push("a", i)
            q.push("b", i)
        grants = [q.pop()[0] for _ in range(8)]
        assert grants.count("a") == grants.count("b") == 4

    def test_fifo_within_a_tenant(self):
        q = DeficitRoundRobin()
        q.register("a")
        q.push("a", 1)
        q.push("a", 2)
        assert q.pop() == ("a", 1)
        assert q.pop() == ("a", 2)

    def test_empty_pop_and_len(self):
        q = DeficitRoundRobin()
        q.register("a")
        assert q.pop() is None
        assert len(q) == 0
        q.push("a", 1)
        assert len(q) == 1
        assert q.depth("a") == 1

    def test_register_is_idempotent_and_validates(self):
        q = DeficitRoundRobin()
        q.register("a", weight=2)
        q.register("a", weight=2)
        assert q.registered("a")
        with pytest.raises(ValueError):
            q.register("b", weight=0)

    def test_snapshot(self):
        q = DeficitRoundRobin()
        q.register("a", weight=2, priority=1)
        q.push("a", 1)
        snap = q.snapshot()
        assert snap["a"]["weight"] == 2
        assert snap["a"]["priority"] == 1
        assert snap["a"]["depth"] == 1


class TestPartitionedCache:
    def test_shares_size_partitions(self):
        cache = PartitionedResultCache(total_capacity=12)
        a = cache.register_tenant("a", share=2)
        b = cache.register_tenant("b", share=1)
        assert a.capacity == 8
        assert b.capacity == 4

    def test_partition_floor_is_one(self):
        cache = PartitionedResultCache(total_capacity=2)
        for name in ("a", "b", "c", "d"):
            cache.register_tenant(name)
        assert all(
            cache.partition(n).capacity >= 1 for n in ("a", "b", "c", "d")
        )

    def test_one_tenant_cannot_evict_another(self):
        """The structural isolation property: a flood of misses from one
        tenant never touches another tenant's partition."""
        cache = PartitionedResultCache(total_capacity=8)
        cache.register_tenant("steady")
        cache.register_tenant("storm")
        steady_key = cache.key({"w": "mine"})
        cache.put("steady", steady_key, {"v": 1})
        for i in range(1000):
            cache.put("storm", cache.key({"w": i}), {"v": i})
        assert cache.get("steady", steady_key) == {"v": 1}
        assert cache.partition("steady").evictions == 0
        assert cache.partition("storm").evictions > 0

    def test_unknown_tenant_raises(self):
        cache = PartitionedResultCache()
        with pytest.raises(KeyError, match="no cache partition"):
            cache.partition("ghost")

    def test_aggregate_stats_nest_per_tenant(self):
        cache = PartitionedResultCache(total_capacity=8)
        cache.register_tenant("a")
        key = cache.key({"w": 1})
        assert cache.get("a", key) is None
        cache.put("a", key, {"v": 1})
        assert cache.get("a", key) == {"v": 1}
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["tenants"]["a"]["hits"] == 1
        assert len(cache) == 1

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            PartitionedResultCache(total_capacity=0)
        cache = PartitionedResultCache()
        with pytest.raises(ValueError):
            cache.register_tenant("a", share=0)


class TestRejectionTaxonomy:
    def test_every_class_has_a_distinct_code(self):
        codes = [cls.code for cls in REJECTION_CLASSES]
        assert len(set(codes)) == len(codes), codes

    def test_every_class_has_a_distinct_reason(self):
        """The bug this pins down: unknown-tenant and queue-full used
        to share one generic reason string, so wire clients (and logs)
        could not tell a typo'd tenant from backpressure."""
        reasons = [cls.reason for cls in REJECTION_CLASSES]
        assert len(set(reasons)) == len(reasons), reasons

    def test_to_dict_carries_the_taxonomy(self):
        rej = UnknownTenant("ghost", "no registration")
        data = rej.to_dict()
        assert data["code"] == "unknown-tenant"
        assert data["reason"] == UnknownTenant.reason
        assert data["tenant"] == "ghost"
        assert data["detail"] == "no registration"

    def test_message_leads_with_the_code(self):
        for cls in REJECTION_CLASSES:
            assert str(cls("t", "d")).startswith(f"[{cls.code}]")


class TestClosedLoopDriver:
    def _run(self, seed=0, fair=True):
        core = ServiceCore()
        core.register_tenant("t", TenantPolicy(max_streams=2,
                                               max_queue_depth=16))
        clients = [
            ClosedLoopClient(
                tenant="t", client_id=c,
                menu=[{"workload": "w", "time_scale": 8.0, "seed": s}
                      for s in range(6)],
                requests=10, think_mean_cycles=2_000.0, seed=seed,
            )
            for c in range(2)
        ]
        driver = VirtualTimeDriver(
            core, num_gpus=1, fair=fair, executor=scaled_stub
        )
        return driver.run(clients=clients, label="closed")

    def test_every_client_settles_every_request(self):
        report = self._run()
        loop = report["closed_loop"]["t"]
        assert loop["clients"] == 2
        assert loop["issued"] == loop["settled"] == loop["target"] == 20
        assert report["tenants"]["t"]["completions"] > 0

    def test_bit_reproducible(self):
        assert self._run(seed=3) == self._run(seed=3)

    def test_seed_changes_the_schedule(self):
        assert self._run(seed=0)["digest"] != self._run(seed=1)["digest"]

    def test_fair_flag_recorded(self):
        assert self._run(fair=True)["fair"] is True
        assert self._run(fair=False)["fair"] is False


FAIR_KW = dict(
    clients_per_tenant=2, requests_per_client=8,
    storm_clients=2, storm_requests_per_client=10,
    executor=scaled_stub,
)


class TestFairnessExperiment:
    def test_storm_cannot_starve_steady_tenants(self):
        rep = fairness_experiment(seed=0, **FAIR_KW)
        assert rep["fair_contained"] is True
        assert rep["storm_completions"] > 0
        for name, s in rep["fair"].items():
            assert s["within_bound"], (name, s)
            assert s["storm_induced_evictions"] == 0

    def test_reproducible_from_the_seed(self):
        a = fairness_experiment(seed=2, **FAIR_KW)
        b = fairness_experiment(seed=2, **FAIR_KW)
        assert a["contended"]["digest"] == b["contended"]["digest"]
        assert a["fifo"]["digest"] == b["fifo"]["digest"]
        assert a["fair"] == b["fair"]

    def test_fair_and_fifo_schedules_differ(self):
        """The counterfactual must actually be a different schedule —
        otherwise the recorded fifo_ratio is theater."""
        rep = fairness_experiment(seed=0, **FAIR_KW)
        assert rep["contended"]["digest"] != rep["fifo"]["digest"]

    def test_storm_is_bounded_not_banned(self):
        """Weighted-fair is not quarantine: the storm tenant still gets
        its weight-1 share and completes its work."""
        rep = fairness_run(0, True, fair=True, **FAIR_KW)
        assert rep["tenants"]["storm"]["completions"] == 20
        assert rep["tenants"]["storm"]["quarantines"] == 0


class TestWeightedPolicies:
    def test_summary_reports_weight_and_priority(self):
        core = ServiceCore()
        core.register_tenant(
            "t", TenantPolicy(weight=3, priority=1)
        )
        summary = core.tenant_summary("t")
        assert summary["weight"] == 3
        assert summary["priority"] == 1

    def test_gpu_slots_validates(self):
        with pytest.raises(ValueError):
            GpuService(gpu_slots=0)

    def test_asyncio_shell_grants_gpu_by_priority_then_weight(self):
        """Under contention for one GPU slot the asyncio shell grants in
        the core's order: the priority-1 request first, then weight-2
        requests twice as often as weight-1 ones."""
        release = threading.Event()
        seen = []

        def executor(spec):
            seen.append(spec["tag"])
            if spec["tag"] == "hold":
                assert release.wait(timeout=60.0), "never released"
            return scaled_stub(spec)

        service = GpuService(isolated=False, gpu_slots=1, executor=executor)
        service.register_tenant("hold")
        for name, weight in (("w1", 1), ("w2", 2)):
            service.register_tenant(
                name, TenantPolicy(weight=weight, max_streams=3)
            )
        # registered last, so only its priority can put it first
        service.register_tenant("vip", TenantPolicy(priority=1))

        def spec(tag):
            return {"workload": "stub", "tag": tag}

        async def run():
            hold = asyncio.ensure_future(service.submit("hold", spec("hold")))
            queued = [
                asyncio.ensure_future(service.submit(tenant, spec(tag)))
                for tenant, tag in [("w1", f"w1-{i}") for i in range(3)]
                + [("w2", f"w2-{i}") for i in range(3)]
                + [("vip", "vip")]
            ]
            for _ in range(10_000):
                depths = service.core.execution_snapshot().values()
                if sum(d["depth"] for d in depths) == len(queued):
                    break
                await asyncio.sleep(0)
            else:
                raise AssertionError("requests never queued for the GPU")
            release.set()
            return await asyncio.gather(hold, *queued)

        try:
            results = asyncio.run(asyncio.wait_for(run(), timeout=60.0))
        finally:
            release.set()
        assert all(r.ok and not r.cached for r in results)
        assert seen[:2] == ["hold", "vip"]
        assert [tag[:2] for tag in seen[2:5]].count("w2") == 2
        assert len(seen) == 8


class TestServeCountersManifest:
    def test_manifest_matches_the_live_registry(self):
        """Register everything the serving layer can register (core,
        tenant, cache partitions, wire counters) and require the
        ``SERVE_COUNTERS`` manifest to match exactly — both ways."""
        service = GpuService(isolated=False, executor=scaled_stub)
        service.register_tenant("t", TenantPolicy())
        register_wire_counters(service.core.counters)
        live = {
            re.sub(r"\[[^\]]+\]", "[*]", path)
            for path in service.core.counters.snapshot()
            if path.startswith("serve.")
        }
        manifest = set(SERVE_COUNTERS)
        assert live - manifest == set(), (
            f"registered but missing from SERVE_COUNTERS: "
            f"{sorted(live - manifest)}"
        )
        assert manifest - live == set(), (
            f"in SERVE_COUNTERS but never registered: "
            f"{sorted(manifest - live)}"
        )

    def test_manifest_is_well_formed(self):
        assert len(set(SERVE_COUNTERS)) == len(SERVE_COUNTERS)
        for name in SERVE_COUNTERS:
            assert name.startswith("serve."), name

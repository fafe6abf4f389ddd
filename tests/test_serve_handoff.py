"""The isolated service path and its trace hand-off: real forked
executions equal in-process ones, each workload's trace is generated
once in a forked child and never in the service process, and failed
requests leave no trace text behind (docs/SERVING.md "Trace
hand-off")."""

import asyncio
import os
import sys

import pytest

from repro.serve import GpuService, TenantPolicy, execute_request
from repro.workloads import HALLOC, MICRO, PARBOIL
from repro.workloads.base import Workload

#: result fields a (workload, scheme, time scale) determines
CHECKED = ("state_digest", "cycles", "faults_raised", "instructions")


@pytest.fixture
def trace_log(tmp_path, monkeypatch):
    """Fresh workload registries (no inherited traces) and a log of
    every ``Workload.trace`` call as ``(pid, name, generated)``, written
    to a file so forked children report theirs too."""
    for registry in (PARBOIL, HALLOC, MICRO):
        monkeypatch.setattr(registry, "_instances", {})
    path = tmp_path / "trace-calls.log"
    original = Workload.trace

    def logged(self):
        generated = self._trace is None
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()} {self.name} {int(generated)}\n")
        return original(self)

    monkeypatch.setattr(Workload, "trace", logged)

    def calls():
        if not path.exists():
            return []
        rows = [line.split() for line in path.read_text().splitlines()]
        return [(int(pid), name, gen == "1") for pid, name, gen in rows]

    return calls


def _service(**kw):
    kw.setdefault("timeout", 60.0)
    kw.setdefault("max_attempts", 1)
    service = GpuService(isolated=True, **kw)
    service.register_tenant(
        "t", TenantPolicy(max_streams=8, max_queue_depth=8,
                          fault_budget=10**9, hang_budget=10**6),
    )
    return service


def _submit_each(service, specs):
    async def run():
        return [await service.submit("t", spec) for spec in specs]

    return asyncio.run(run())


def _spec(workload, scheme, seed=0):
    return {"workload": workload, "scheme": scheme, "time_scale": 8.0,
            "seed": seed}


def _generated(calls):
    return sorted(name for _, name, generated in calls if generated)


def _in_service_process(calls):
    return [c for c in calls if c[0] == os.getpid()]


class TestIsolatedHandoff:
    def test_forked_results_equal_in_process(self, trace_log):
        # per workload: the first run generates, the second decodes
        specs = [
            _spec(w, s)
            for w in ("saxpy", "mshr-storm")
            for s in ("replay-queue", "wd-commit")
        ]
        service = _service()
        results = _submit_each(service, specs)
        assert _generated(trace_log()) == ["mshr-storm", "saxpy"]
        assert service.held_traces == ["mshr-storm", "saxpy"]
        for spec, res in zip(specs, results):
            assert res.ok and not res.cached, res.failure
            want = execute_request(spec)
            for field in CHECKED:
                assert res.value[field] == want[field], (spec, field)

    def test_sequential_requests_generate_each_trace_once(self, trace_log):
        specs = [_spec("saxpy", "operand-log", seed) for seed in range(3)]
        specs += [_spec("stream-sum", "wd-lastcheck", seed)
                  for seed in range(2)]
        service = _service()
        assert all(r.ok for r in _submit_each(service, specs))
        calls = trace_log()
        assert _generated(calls) == ["saxpy", "stream-sum"]
        assert _in_service_process(calls) == []
        # the runs that got a held text never asked the workload
        assert len({pid for pid, _, _ in calls}) == 2

    def test_failed_requests_hold_no_text(self, trace_log):
        failing = [
            {"workload": "no-such-kernel"},
            {"workload": "saxpy", "hang": True},
            {"workload": "saxpy", "scheme": "bogus"},
            {"workload": "saxpy", "paging": "bogus"},
            {"workload": ["saxpy"]},
        ]
        service = _service()
        results = _submit_each(service, failing)
        assert [r.failure.kind for r in results] == [
            "KeyError", "SimulationHang", "ValueError", "ValueError",
            "KeyError",
        ]
        assert service.held_traces == []
        assert trace_log() == []
        # a later success holds the text; a failure that was handed it
        # records only its spec
        ok, bad = _submit_each(
            service,
            [_spec("saxpy", "replay-queue"),
             {"workload": "saxpy", "scheme": "bogus", "seed": 1}],
        )
        assert ok.ok and service.held_traces == ["saxpy"]
        assert bad.failure.kind == "ValueError"
        assert bad.failure.kwargs == {
            "spec": {"workload": "saxpy", "scheme": "bogus", "seed": 1}
        }
        assert _generated(trace_log()) == ["saxpy"]
        assert _in_service_process(trace_log()) == []

    def test_concurrent_first_requests(self, trace_log):
        # eight distinct first requests over two workloads on four
        # slots: concurrent children may each generate, one text stays
        specs = [
            _spec(w, s)
            for w in ("saxpy", "divergence-tree")
            for s in ("wd-commit", "wd-lastcheck", "replay-queue",
                      "operand-log")
        ]
        service = _service(gpu_slots=4)

        async def run():
            return await asyncio.wait_for(
                service.drain(("t", spec) for spec in specs), timeout=240.0
            )

        # more worker threads than cores, switching often, share the
        # held-text table
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = asyncio.run(run())
        finally:
            sys.setswitchinterval(interval)
        assert service.held_traces == ["divergence-tree", "saxpy"]
        calls = trace_log()
        assert _in_service_process(calls) == []
        assert set(_generated(calls)) == {"divergence-tree", "saxpy"}
        for spec, res in zip(specs, results):
            assert res.ok and not res.cached, res.failure
            want = execute_request(spec)
            for field in CHECKED:
                assert res.value[field] == want[field], (spec, field)


def test_serve_smoke_runs_the_forked_handoff(capsys):
    from repro.harness.__main__ import main

    assert main(["serve", "--smoke"]) == 0
    assert "the second from the held trace" in capsys.readouterr().out

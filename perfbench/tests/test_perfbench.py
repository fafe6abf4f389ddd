"""Self-tests of the benchmark (not part of the program's test suite).

    python3 -m pytest perfbench/tests -q

The live tests drive the real daemon and simulator on small inputs
(a two-step ladder of a dozen requests, the stream-sum micro kernel),
so the whole file takes well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path[:0] = [PERFBENCH, os.path.join(ROOT, "src")]

import analysis  # noqa: E402
import common  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
import yardstick  # noqa: E402
from tracer import Boundary, Tracer  # noqa: E402
from yardstick import Yardstick  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
with open(os.path.join(PERFBENCH, "metrics.json")) as _fh:
    DOC = json.load(_fh)
E2E = [m["name"] for m in BENCH["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
DIAGNOSTICS = {"unattributed_s", "catchall_s", "attributed_share",
               "traced_host_s", "trace_overhead", "boundaries_missing"}


class FakeCtx:
    def __init__(self, workload: str, side_file: str) -> None:
        self.workload = workload
        self.side_file = side_file
        self.mismatches = []


def _main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.fixture
def small_ladder(monkeypatch):
    """Two short steps: enough requests to exercise every stage."""
    monkeypatch.setattr(serve, "SATURATION_RPS", 20.0)
    monkeypatch.setattr(serve, "STEPS", (("light", 1.0, 0.5, 12),
                                         ("heavy", 1.5, 0.5, 12)))
    monkeypatch.setattr(serve, "SETUP_PROBES", 0)


# ---------------------------------------------------------------------------
# names and documentation
# ---------------------------------------------------------------------------

def test_metric_names_match_benchmark_json(tmp_path):
    assert list(DOC["end_to_end"]) == E2E
    assert list(DOC["per_layer"]) == PER_LAYER
    assert sorted(DOC["workloads"]) == sorted(run.WORKLOADS)
    assert set(WORKLOADS) <= set(run.WORKLOADS)
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        doc = DOC["end_to_end"].get(m["name"]) or DOC["per_layer"][m["name"]]
        assert (doc["unit"], doc["better"]) == (m["unit"], m["better"])
    res = {"setup": [1.0], "rss_mb": 1.0, "attempted": 1, "failed": 0,
           "sim_kips": 1.0, "sim_units": 1, "light_ms": [1.0],
           "heavy_ms": [2.0], "max_ok_rps": 1.0, "rate_units": 1}
    e2e = run.end_to_end(res)
    assert list(e2e) == E2E
    assert {unit for _, unit, _ in e2e.values()} <= {
        m["unit"] for m in BENCH["end_to_end"]}
    ctx = FakeCtx("sweep-premapped", str(tmp_path / "none.jsonl"))
    per_layer = analysis.per_layer(ctx, {"overhead": (1.0, 1.5)})
    assert sorted(per_layer) == sorted(PER_LAYER)
    for name, (_, unit, _) in per_layer.items():
        assert unit == DOC["per_layer"][name]["unit"], name


def test_every_per_layer_metric_names_what_it_should_move():
    for name, doc in DOC["per_layer"].items():
        if name in DIAGNOSTICS:
            assert doc["layer"] == "all" and doc["moves"] == []
            continue
        assert doc["layer"] and doc["idle_on"] is not None, name
        assert doc["moves"], f"{name} names no end-to-end metric"
        for metric, workload in doc["moves"]:
            assert metric in E2E, (name, metric)
            assert workload in WORKLOADS, (name, workload)
    for doc in DOC["end_to_end"].values():
        assert doc["why"] and doc["per_workload"]
    assert len(DOC["not_measured"]) >= 4


# ---------------------------------------------------------------------------
# tracing must not change what is simulated
# ---------------------------------------------------------------------------

def _case(kernel: str, side_file=None):
    args = [sys.executable, os.path.join(PERFBENCH, "sweep.py"), "case",
            kernel]
    if side_file:
        args += ["--trace", side_file]
    out = subprocess.run(args, cwd=ROOT, env=common.child_env(),
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_traced_and_untraced_runs_simulate_identically(tmp_path):
    side = str(tmp_path / "side.jsonl")
    plain = _case("stream-sum")
    traced = _case("stream-sum", side)
    assert plain["rows"] == traced["rows"]
    assert plain["sims"] == traced["sims"]
    dumps = analysis.load_dumps(side)
    merged = layers.merge(dumps)
    assert merged["missing"] == []
    assert merged["counts"]["sim.instructions"] == sum(
        s["instructions"] for s in traced["sims"])
    host = analysis._batch_host(dumps)
    shares = layers.attribution(host, merged["layer_self"])
    assert shares["attributed_share"] >= 0.9


def _busy(seconds: float) -> float:
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        pass
    return seconds


def test_forked_child_time_counts_once(tmp_path):
    """An isolated call's child time is host time once, split to the
    child's layers; the forking span keeps only the fork overhead."""
    from repro.harness import runner

    side = str(tmp_path / "side.jsonl")
    tracer = layers.new_tracer()
    layers.isolation_boundary(tracer, "repro.harness.runner", side,
                              "harness.experiments")
    try:
        t0 = time.monotonic()
        assert runner.run_experiment_isolated("busy", _busy,
                                              args=(0.3,)) == 0.3
        wall = time.monotonic() - t0
    finally:
        tracer.uninstall()
    dumps = analysis.load_dumps(side) + [tracer.dump()]
    split = layers.merge(dumps)["layer_self"]
    host = analysis._batch_host(dumps)
    assert 0.3 <= host <= wall
    assert sum(split.values()) == pytest.approx(host, abs=1e-6)
    assert split["harness.experiments"] >= 0.3
    assert split["harness.isolation"] <= host - 0.3


# ---------------------------------------------------------------------------
# a renamed boundary degrades to unattributed time
# ---------------------------------------------------------------------------

def test_missing_target_is_reported_not_raised():
    tracer = Tracer()
    tracer.install([
        Boundary("repro.harness.experiments:run_fig99", "harness"),
        Boundary("repro.no_such_module:f", "harness"),
    ])
    assert tracer.missing == ["run_fig99", "f"]
    assert tracer._installed == []


def _traced_fig10(boundaries):
    from repro.harness import experiments

    tracer = layers.new_tracer()
    tracer.install(boundaries)
    try:
        experiments.run_fig10(workloads=["stream-sum"])
    finally:
        tracer.uninstall()
    return tracer.dump()


def test_removed_boundary_falls_into_unattributed(tmp_path):
    def unattributed(dump):
        merged = layers.merge([dump])
        host = analysis._batch_host([dump])
        return host, layers.attribution(host, merged["layer_self"])[
            "unattributed_s"]

    whole = _traced_fig10(layers.SWEEP)
    renamed = [Boundary("repro.harness.experiments:run_fig10_renamed",
                        "harness.experiments", "span")]
    degraded = _traced_fig10(renamed)
    host, lost = unattributed(whole)
    assert lost < 0.01 * host
    assert unattributed(degraded)[1] > lost
    side = tmp_path / "side.jsonl"
    side.write_text(json.dumps(degraded) + "\n")
    ctx = FakeCtx("sweep-premapped", str(side))
    metrics = analysis.per_layer(ctx, {"overhead": (1.0, 1.0)})
    assert metrics["boundaries_missing"][0] == 1
    assert metrics["unattributed_s"][0] > 0
    assert metrics["harness.experiments.self_s"][0] == 0


# ---------------------------------------------------------------------------
# the load generator and the serve workload, live
# ---------------------------------------------------------------------------

def test_hit_behind_a_slow_miss_is_timed_as_a_hit():
    fast = {"workload": "saxpy", "scheme": "wd-commit", "time_scale": 8.0,
            "seed": 1}
    slow = {"workload": "mshr-storm", "scheme": "replay-queue",
            "time_scale": 8.0, "seed": 2}
    plan = [
        {"step": 0, "due": 0.0, "tenant": "a", "spec": fast},
        {"step": 0, "due": 1.0, "tenant": "a", "spec": slow},
        {"step": 0, "due": 1.01, "tenant": "a", "spec": dict(fast)},
    ]
    with common.RunDir() as run_dir:
        sock = os.path.join(run_dir.rel, "t.sock")
        daemon = serve.Daemon(sock)
        try:
            records = serve.drive(sock, plan, drain_s=30.0)
        finally:
            assert daemon.stop() == 0
        assert not os.path.exists(os.path.join(common.ROOT, sock))
    miss, hit = records[1], records[2]
    assert hit["result"]["cached"] and not miss["result"]["cached"]
    assert hit["done"] < miss["done"]
    assert hit["done"] - hit["due"] < 0.05


def test_repeat_share_sets_the_hit_ratio_not_the_run_length():
    for seconds in (10.0, 40.0, 120.0):
        plan = serve.schedule(7, serve.ladder(seconds))
        fresh = {json.dumps(p["spec"], sort_keys=True) for p in plan}
        repeats = len(plan) - len(fresh)
        assert abs(repeats / len(plan) - serve.REPEAT_SHARE) < 0.02
    assert serve.schedule(7, serve.ladder(10.0)) == serve.schedule(
        7, serve.ladder(10.0))


def test_serve_traced_run_reports_every_layer(small_ladder):
    code, out = _main(["--workload", "serve-open", "--seed", "3",
                       "--seconds", "1", "--trace", "1"])
    assert code == 0 and out["correct"] and out["failed"] == 0
    metrics = out["metrics"]
    assert sorted(metrics) == sorted(PER_LAYER)
    assert metrics["attributed_share"]["value"] >= 0.9
    assert metrics["boundaries_missing"]["value"] == 0
    for name in ("serve.wire.submit_rtt_ms.p50", "serve.fair.wait_ms.p50",
                 "serve.cache.lookup_us.p50", "harness.isolation.fork_ms.p50",
                 "serve.executor.functional_ms.p50", "functional.self_s",
                 "timing.sm.self_s"):
        assert metrics[name]["value"] > 0, name


def test_corrupted_expected_digest_fails_the_run(small_ladder, monkeypatch,
                                                 tmp_path):
    with open(run.EXPECTED) as fh:
        expected = json.load(fh)
    for outputs in expected["serve"].values():
        outputs["state_digest"] = "0" * 16
    bad = tmp_path / "expected.json"
    bad.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED", str(bad))
    code, out = _main(["--workload", "serve-open", "--seed", "3",
                       "--seconds", "1", "--trace", "0"])
    assert code != 0 and out["correct"] is False
    assert sorted(out["metrics"]) == sorted(E2E)


def test_wrong_cycles_fail_the_run(small_ladder, monkeypatch, tmp_path):
    """The served outputs are checked per scheme, not only by digest."""
    with open(run.EXPECTED) as fh:
        expected = json.load(fh)
    for outputs in expected["serve"].values():
        outputs["cycles"] += 1
    bad = tmp_path / "expected.json"
    bad.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED", str(bad))
    code, out = _main(["--workload", "serve-open", "--seed", "4",
                       "--seconds", "1", "--trace", "0"])
    assert code != 0 and out["correct"] is False


# ---------------------------------------------------------------------------
# the yardstick
# ---------------------------------------------------------------------------

def _yard_from(tmp_path, samples) -> Yardstick:
    """A yardstick that reads ``samples`` and runs no process."""
    path = tmp_path / "yard.txt"
    path.write_text("".join(f"{at:.4f} {ms:.4f}\n" for at, ms in samples))
    yard = Yardstick.__new__(Yardstick)
    yard.out_file = str(path)
    return yard


def test_yardstick_expresses_times_at_the_reference_speed(tmp_path):
    ref = yardstick.REFERENCE_MS
    period = yardstick.PERIOD_S
    slow = [(i * period, 2.0 * ref) for i in range(40)]
    fast = [(20.0 + i * period, ref) for i in range(40)]
    # one sample that woke on a cold cache: trimmed away
    fast[10] = (fast[10][0], 50.0 * ref)
    yard = _yard_from(tmp_path, slow + fast)
    assert yard.slowdown(0.0, 9.9) == pytest.approx(2.0)
    assert yard.slowdown(20.0, 29.9) == pytest.approx(1.0)
    # a window between samples widens until it holds enough of them
    between = yard.slowdown(15.0, 15.0)
    assert 1.0 < between < 2.0


def test_yardstick_process_samples_and_stops(tmp_path):
    with Yardstick(str(tmp_path / "yard.txt"), common.spawn) as yard:
        time.sleep(3 * yardstick.PERIOD_S)
    assert yard.proc.returncode == 0
    assert len(yard.samples()) >= 2
    assert 0.1 < yard.slowdown(0.0, time.monotonic()) < 10.0


# ---------------------------------------------------------------------------
# run hygiene
# ---------------------------------------------------------------------------

LEAK = ("import subprocess, sys; "
        "subprocess.Popen([sys.executable, '-c', "
        "'import time; time.sleep(60)'])")


def test_leaked_grandchild_fails_the_run(monkeypatch):
    """A process forked below a child and left running when that child
    exits is adopted by the benchmark, reported, killed and reaped."""
    import sweep

    def leaky_run(ctx):
        subprocess.run([sys.executable, "-c", LEAK], check=True)
        return {"attempted": 1, "failed": 0, "setup": [1.0],
                "rss_mb": 1.0, "sim_kips": 1.0, "sim_units": 1,
                "light_ms": [1.0], "heavy_ms": [1.0], "max_ok_rps": 1.0,
                "rate_units": 1}

    monkeypatch.setattr(sweep, "run", leaky_run)
    code, out = _main(["--workload", "sweep-premapped", "--seed", "1",
                       "--seconds", "1", "--trace", "0"])
    assert code != 0 and out["correct"] is False
    assert common.live_children() == []

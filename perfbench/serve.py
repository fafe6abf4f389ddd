"""``serve-open``: open-loop arrivals at fixed rates against the daemon.

One process drives ``python -m repro.harness serve`` over a unix socket
with two threads and two connections: the submitter sends each request
at its due time, the collector polls every outstanding request without
blocking, so a cache hit queued behind a slow miss is timed as a hit.
Latency runs from each request's due time to the moment the collector
sees the result.  The daemon runs isolated execution with
``--gpu-slots 2`` and three tenants weighted 2/2/1; every other setting
is the CLI default.

The ladder's two steps are placed from the daemon's saturation rate
(:data:`SATURATION_RPS`, measured with perfbench/saturation.py): light
at 0.4 of it and heavy, the highest step below saturation, at 0.5.
Latencies are reported with the step's stolen share of the host removed
(``latency x (1 - steal share)``, the steal share read from
``/proc/stat`` over the step), because on a shared VM every process of
the daemon stretches with the CPU time the hypervisor takes, and at the
yardstick's reference speed around each request (perfbench/yardstick.py),
because the CPU's own speed swings as well.

Inputs come from ``--seed``: tenants, arrival times, specs and their
seeds.  Arrivals are Poisson within blocks of ten requests, each block
spanning exactly its share of the step.  A fixed share of requests
(:data:`REPEAT_SHARE`, evenly spread) repeats a recent spec of the same
tenant that was first sent at least :data:`REPEAT_AGE_S` earlier, so the
repeat share, not the run length, sets the cache hit ratio.  Every other
request is a fresh (workload, scheme) with a fresh seed, drawn so every
combination appears equally often.  The seed changes only the cache key,
never the result, so each result is checked against the expected
outputs (:data:`CHECKED`) of its (workload, scheme, time scale).
"""

from __future__ import annotations

import os
import queue
import random
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from common import cpu_ticks, now, peak_child_rss_mb, quantile, spawn
from common import steal_share

TENANTS = (("a", 2), ("b", 2), ("c", 1))
KERNELS = ("saxpy", "stream-sum", "tlb-thrash", "mshr-storm",
           "divergence-tree")
SCHEMES = ("wd-commit", "wd-lastcheck", "replay-queue", "operand-log")
#: the program's default time scale (``experiments.DEFAULT_TIME_SCALE``,
#: which the daemon applies to specs without one, and the time scale of
#: its own serving load generator)
TIME_SCALE = 8.0
#: share of requests that repeat one of the tenant's RECENT specs.  The
#: program's serve-bench uses 0.35; there cache hits (33%) and saxpy, the
#: cheapest kernel (12.5%), make up 46% of requests, so the p50 sat at
#: the gap between saxpy's latencies and the other kernels' (84 -> 103 ms
#: in one run) and moved by a fifth from run to run.  At 0.25 it lies
#: inside the other kernels' latencies
REPEAT_SHARE = 0.25
RECENT = 8
#: a repeat names a spec first sent at least this long before it, so
#: the original has finished and every repeat is a cache hit: the hit
#: count, and with it the latency quantiles, does not depend on how
#: fast the run went
REPEAT_AGE_S = 1.0
#: the highest offered rate (per second) whose completions keep pace
#: (at least 0.97 of it, nothing refused), measured on a 2-vCPU host with
#: perfbench/saturation.py: at 17/s 16.6/s completed, at 18/s 17.0/s
#: with a growing backlog, at 19/s admission control refused 47 of 190
#: requests (metrics.json, "serve_saturation")
SATURATION_RPS = 17.0
#: ladder steps: (name, share of SATURATION_RPS, share of --seconds,
#: minimum requests).  Each takes at least 100 requests, so ten samples
#: lie beyond its p90.  The host's speed drifts (the same measurement
#: found 15/s forty minutes earlier), so heavy, the highest step below
#: saturation, keeps a margin: waiting amplifies the host's swings, and
#: at 0.6 the heavy p50 spread 0.26 across ten runs as measured and 0.12
#: at the reference speed, twice the light step's.  Light stays at 0.4:
#: at 0.3 its 112 requests left its p90 too few samples (spread 0.20 in
#: five runs).  No step lies above saturation: there the daemon's
#: default admission limits refuse requests
STEPS = (
    ("light", 0.4, 0.55, 100),
    ("heavy", 0.5, 0.45, 100),
)
#: arrivals are Poisson within blocks of this many requests, each block
#: spanning exactly its share of the step, so a step's load does not
#: drift with the seed
BLOCK = 10
#: p90 limit of a step that counts toward ``max_ok_rps``
LIMIT_MS = 1000.0
POLL_S = 0.005
SETUP_PROBES = 4
DAEMON_TIMEOUT_S = 60.0


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def ladder(seconds: float) -> List[tuple]:
    """``(rate, requests)`` per step of :data:`STEPS`."""
    return [
        (share * SATURATION_RPS,
         max(least, int(share * SATURATION_RPS * seconds * time_share)))
        for _, share, time_share, least in STEPS
    ]


def is_repeat(index: int) -> bool:
    """Whether request ``index`` repeats a recent spec: exactly
    REPEAT_SHARE of every run of requests, evenly spread."""
    return int((index + 1) * REPEAT_SHARE) > int(index * REPEAT_SHARE)


def schedule(seed: int, ladder) -> List[Dict]:
    """Every request of the ladder: step, due offset, tenant, spec."""
    rng = random.Random(seed)
    combos = [(k, s) for k in KERNELS for s in SCHEMES]
    fresh: List = []
    tenants: List[str] = []
    #: tenant -> [(due offset, spec)] of its last RECENT fresh specs
    recent: Dict[str, List] = {name: [] for name, _ in TENANTS}
    plan = []
    offset = 0.0
    index = 0
    for step, (rate, count) in enumerate(ladder):
        duration = count / rate
        times = []
        for start in range(0, count, BLOCK):
            n = min(BLOCK, count - start)
            span = n / rate
            times += sorted(start / rate + rng.uniform(0.0, span)
                            for _ in range(n))
        for t in times:
            if not tenants:
                tenants = [n for n, w in TENANTS for _ in range(w)]
                rng.shuffle(tenants)
            tenant = tenants.pop()
            due = offset + t
            old = [spec for sent, spec in recent[tenant]
                   if due - sent >= REPEAT_AGE_S]
            if is_repeat(index) and old:
                spec = dict(rng.choice(old))
            else:
                if not fresh:
                    fresh = list(combos)
                    rng.shuffle(fresh)
                kernel, scheme = fresh.pop()
                spec = {"workload": kernel, "scheme": scheme,
                        "time_scale": TIME_SCALE,
                        "seed": rng.randrange(1 << 30)}
                recent[tenant] = (recent[tenant] + [(due, spec)])[-RECENT:]
            plan.append({"step": step, "due": due,
                         "tenant": tenant, "spec": spec})
            index += 1
        offset += duration
    return plan


def step_bounds(ladder) -> List[List[float]]:
    bounds, offset = [], 0.0
    for rate, count in ladder:
        bounds.append([offset, offset + count / rate])
        offset += count / rate
    return bounds


# ---------------------------------------------------------------------------
# the daemon
# ---------------------------------------------------------------------------

def daemon_args(sock: str, side_file: Optional[str]) -> List[str]:
    serve = ["serve", "--socket", sock, "--gpu-slots", "2"]
    for name, weight in TENANTS:
        serve += ["--tenant", f"{name}:{weight}"]
    if side_file is None:
        return ["-m", "repro.harness", *serve]
    return ["perfbench/serve_host.py", side_file, *serve]


class Daemon:
    """One fresh daemon on a fresh socket; ``setup_s`` runs from spawn
    until a ping succeeds on a connection whose handshake lists every
    tenant."""

    def __init__(self, sock: str, side_file: Optional[str] = None):
        self.sock = sock
        self.spawned = spawned = now()
        self.proc = spawn(daemon_args(sock, side_file),
                          stdout=subprocess.DEVNULL)
        try:
            self.setup_s = self._wait_ready(spawned)
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, spawned: float) -> float:
        from repro.serve import ServeClient

        sock = self.sock
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited {self.proc.returncode} during start-up"
                )
            try:
                client = ServeClient(sock, timeout=30.0).connect()
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if now() - spawned > DAEMON_TIMEOUT_S:
                    raise RuntimeError("daemon did not start")
                time.sleep(0.002)
        try:
            client.ping()
            tenants = client.server_info.get("tenants", [])
            setup_s = now() - spawned
        finally:
            client.close()
        if sorted(tenants) != sorted(n for n, _ in TENANTS):
            raise RuntimeError(f"daemon registered tenants {tenants}")
        return setup_s

    def stop(self) -> int:
        """Drain and shut the daemon down; wait for it to exit."""
        from repro.serve import ServeClient

        if self.proc.poll() is None:
            try:
                with ServeClient(self.sock, timeout=30.0) as client:
                    client.shutdown(drain=True)
            except OSError:
                self.proc.terminate()
            try:
                self.proc.wait(timeout=DAEMON_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


# ---------------------------------------------------------------------------
# the load generator
# ---------------------------------------------------------------------------

def drive(sock: str, plan: List[Dict], drain_s: float,
          marks=(), ticks: Optional[List] = None) -> List[Dict]:
    """Send ``plan`` open-loop; returns one record per request with its
    due, send and done times (absolute) and its outcome.  Meanwhile the
    calling thread appends ``cpu_ticks()`` to ``ticks`` at each offset in
    ``marks`` and once more when every request is done."""
    from repro.serve import ServeClient, ServeRejection, WireError

    submitted: "queue.Queue" = queue.Queue()
    records: List[Dict] = [dict(r) for r in plan]
    t0 = now() + 0.05
    for rec in records:
        rec["due"] += t0

    def submitter() -> None:
        try:
            with ServeClient(sock, timeout=30.0) as client:
                for rec in records:
                    delay = rec["due"] - now()
                    if delay > 0:
                        time.sleep(delay)
                    rec["sent"] = now()
                    try:
                        rec["id"] = client.submit(rec["tenant"], rec["spec"])
                    except ServeRejection as rej:
                        rec["error"] = f"refused at submit: {rej}"
                    rec["acked"] = now()
                    submitted.put(rec)
        except (OSError, WireError) as exc:
            print(f"perfbench: submitter stopped: {exc}", file=sys.stderr)
        finally:
            submitted.put(None)

    def collector() -> None:
        outstanding: List[Dict] = []
        try:
            collect(outstanding)
        except (OSError, WireError) as exc:
            print(f"perfbench: collector stopped: {exc}", file=sys.stderr)

    def collect(outstanding: List[Dict]) -> None:
        finished = False
        deadline = records[-1]["due"] + drain_s
        with ServeClient(sock, timeout=30.0) as client:
            while not (finished and not outstanding):
                while True:
                    try:
                        rec = submitted.get_nowait()
                    except queue.Empty:
                        break
                    if rec is None:
                        finished = True
                    elif "error" not in rec:
                        outstanding.append(rec)
                progress = False
                for rec in list(outstanding):
                    polled = now()
                    try:
                        res = client.result(rec["id"], wait=0.0)
                    except ServeRejection as rej:
                        rec["error"] = f"refused: {rej.code}"
                        res = None
                    if res is None and "error" not in rec:
                        continue
                    rec["done"] = now()
                    rec["polled"] = polled
                    rec["result"] = res
                    outstanding.remove(rec)
                    progress = True
                if now() > deadline:
                    for rec in outstanding:
                        rec["error"] = "not done before the drain deadline"
                    del outstanding[:]
                    if finished:
                        break
                if not progress:
                    time.sleep(POLL_S)

    threads = [threading.Thread(target=submitter, name="submitter"),
               threading.Thread(target=collector, name="collector")]
    for thread in threads:
        thread.start()
    for mark in marks:
        delay = t0 + mark - now()
        if delay > 0:
            time.sleep(delay)
        if ticks is not None:
            ticks.append(cpu_ticks())
    for thread in threads:
        thread.join()
    if ticks is not None:
        ticks.append(cpu_ticks())
    for rec in records:
        rec["t0"] = t0
    return records


# ---------------------------------------------------------------------------
# one ladder run
# ---------------------------------------------------------------------------

def ladder_run(ctx, tag: str, trace: bool) -> Dict:
    sock = os.path.join(ctx.run_dir.rel, f"{tag}.sock")
    before = cpu_ticks()
    daemon = Daemon(sock, ctx.side_file if trace else None)
    setup_steal = steal_share(before, cpu_ticks())
    steps = ladder(ctx.seconds)
    ticks: List = []
    try:
        plan = schedule(ctx.seed, steps)
        records = drive(sock, plan, drain_s=15.0,
                        marks=[b[0] for b in step_bounds(steps)],
                        ticks=ticks)
    finally:
        code = daemon.stop()
    if code != 0:
        ctx.mismatches.append(f"daemon exited with code {code}")
    check_results(ctx, records)
    steal = [steal_share(ticks[i], ticks[i + 1])
             for i in range(len(ticks) - 1)]
    return {"setup_s": ctx.at_reference(
                daemon.setup_s * (1.0 - setup_steal), daemon.spawned,
                daemon.spawned + daemon.setup_s),
            "records": records, "steal": steal}


def check_results(ctx, records: List[Dict]) -> None:
    """Each result against the expected outputs of its (workload, scheme,
    time scale); cache hits equal the cold result of their key."""
    expected = ctx.expected["serve"]
    cold: Dict[str, Dict] = {}
    for rec in records:
        res = rec.get("result")
        if res is None:
            continue
        if not res.get("ok"):
            rec["error"] = f"execution failed: {res.get('failure')}"
            continue
        key = result_key(rec["spec"])
        value = res["value"]
        want = expected.get(key, {})
        for field in CHECKED:
            ctx.check(f"serve {key} {field}", value.get(field),
                      want.get(field))
        if not res["cached"]:
            cold.setdefault(res["key"], value)
    for rec in records:
        res = rec.get("result")
        if res and res.get("ok") and res["cached"]:
            if res["key"] in cold:
                ctx.check(f"serve cache hit {res['key']}", res["value"],
                          cold[res["key"]])


#: result fields that (workload, scheme, time scale) determine when
#: chaos is off: the seed changes only the cache key
CHECKED = ("state_digest", "cycles", "faults_raised", "instructions")


def result_key(spec: Dict) -> str:
    return f"{spec['workload']}|{spec['scheme']}|{spec['time_scale']}"


def step_stats(records: List[Dict], steps, steal: List[float],
               slowdown=lambda start, end: 1.0) -> List[Dict]:
    """Per step: latencies of completed requests (as measured, and with
    the step's stolen share of the host removed and at the reference
    speed of ``slowdown(start, end)`` around each request, which also
    sets each record's ``ref_ms``), failures, backlog at the step's end
    and whether it meets the limit."""
    bounds = step_bounds(steps)
    t0 = records[0]["t0"]
    stats = []
    for step, (rate, count) in enumerate(steps):
        mine = [r for r in records if r["step"] == step]
        end = t0 + bounds[step][1]
        done = [r for r in mine if "done" in r and "error" not in r]
        lat = [(r["done"] - r["due"]) * 1000.0 for r in done]
        failed = [r for r in mine if "done" not in r or "error" in r]
        backlog = sum(1 for r in records
                      if r["due"] <= end and r.get("done", end + 1) > end)
        missing = lat + [float("inf")] * len(failed)
        p90_all = quantile(missing, 0.9)
        passes = p90_all <= LIMIT_MS and backlog <= max(
            2, rate * LIMIT_MS / 1000.0
        )
        last = max((r.get("done", end) for r in mine), default=end)
        stolen = steal[step] if step < len(steal) else 0.0
        for r, x in zip(done, lat):
            r["ref_ms"] = x * (1.0 - stolen) / slowdown(r["due"], r["done"])
        stats.append({
            "rate": rate, "latencies": lat, "failed": len(failed),
            "steal": stolen,
            "slowdown": slowdown(t0 + bounds[step][0], last),
            "host_latencies": [r["ref_ms"] for r in done],
            "backlog_end": backlog, "passes": passes,
            "achieved_rps": (count - len(failed))
            / (last - (t0 + bounds[step][0])),
            "late_ms": [(r["sent"] - r["due"]) * 1000.0 for r in mine
                        if "sent" in r],
        })
    return stats


def _probe(ctx, i: int) -> float:
    before = cpu_ticks()
    daemon = Daemon(os.path.join(ctx.run_dir.rel, f"probe{i}.sock"))
    stolen = steal_share(before, cpu_ticks())
    if daemon.stop() != 0:
        ctx.mismatches.append("probe daemon exited nonzero")
    return ctx.at_reference(daemon.setup_s * (1.0 - stolen), daemon.spawned,
                            daemon.spawned + daemon.setup_s)


def run(ctx) -> Dict:
    setup = [_probe(ctx, i) for i in range(SETUP_PROBES)]
    main = ladder_run(ctx, "serve", trace=False)
    records = main["records"]
    stats = step_stats(records, ladder(ctx.seconds), main["steal"],
                       ctx.yard.slowdown)
    setup.append(main["setup_s"])
    passing = [s for s in stats if s["passes"]]
    failed = sum(s["failed"] for s in stats)
    light = stats[0]
    cold = [r for r in records
            if r.get("result") and not r["result"]["cached"]
            and "error" not in r and r["step"] == 0]
    if not cold:
        raise RuntimeError("no request of the light step completed")
    res = {
        "attempted": len(records),
        "failed": failed,
        "setup": setup,
        "rss_mb": peak_child_rss_mb(),
        "sim_kips": sum(r["result"]["value"]["instructions"] for r in cold)
        / sum(r["ref_ms"] for r in cold),
        "sim_units": len(cold),
        "light_ms": light["host_latencies"],
        "heavy_ms": stats[1]["host_latencies"],
        "max_ok_rps": passing[-1]["achieved_rps"] if passing else 0.0,
        "rate_units": sum(len(s["latencies"]) for s in stats),
        "steps": stats,
        "records": records,
        "measured": {
            f"p50_ms.{name}": quantile(
                [x * (1.0 - st["steal"]) for x in st["latencies"]], 0.5)
            for name, st in zip((s[0] for s in STEPS), stats)
        },
    }
    for name, st in zip((s[0] for s in STEPS), stats):
        print(f"# step {name:<9} {st['rate']:6.2f}/s "
              f"n={len(st['latencies'])} failed={st['failed']} "
              f"backlog_end={st['backlog_end']} steal={st['steal']:.3f} "
              f"slowdown={st['slowdown']:.3f} "
              f"p50_ms={quantile(st['latencies'], 0.5):.1f} "
              f"p90_ms={quantile(st['latencies'], 0.9):.1f} "
              f"achieved={st['achieved_rps']:.2f}/s "
              f"{'meets' if st['passes'] else 'misses'} the limit")
    if ctx.trace:
        import layers

        tracer = layers.client_tracer()
        try:
            res["traced"] = traced = ladder_run(ctx, "traced", trace=True)
        finally:
            tracer.uninstall()
        res["traced_light_ms"] = step_stats(
            traced["records"], ladder(ctx.seconds), traced["steal"],
            ctx.yard.slowdown,
        )[0]["host_latencies"]
        res["local_dumps"] = [tracer.dump()]
    return res


def reference() -> Dict:
    """Expected outputs per (workload, scheme, time scale), from
    in-process executions."""
    from repro.serve import execute_request

    expected = {}
    for kernel in KERNELS:
        for scheme in SCHEMES:
            spec = {"workload": kernel, "scheme": scheme,
                    "time_scale": TIME_SCALE, "seed": 0}
            value = execute_request(spec)
            expected[result_key(spec)] = {f: value[f] for f in CHECKED}
    return expected


if __name__ == "__main__":
    print("serve.py is driven by perfbench/run.py", file=sys.stderr)
    sys.exit(2)

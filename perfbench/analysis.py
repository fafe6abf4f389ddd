"""Per-layer metrics of a traced run (``--trace 1``).

A traced run first repeats the workload untraced, then runs it once
with the boundary timers of perfbench/layers.py; ``trace_overhead`` is
the ratio of the two on the same work (the same matrix, or for
``serve-open`` the light step's p50 on the same schedule).  Every
per-layer metric is printed on every workload: a layer that does no
work on a workload reports 0.

Attribution.  Host time is split three ways: time inside a boundary of
a named layer (``attributed_share`` of the host time), time inside a
boundary of no named layer (``catchall_s``: the experiment functions'
own code, the benchmark's load generator) and time no boundary covers
(``unattributed_s``).  For the batch workloads the host time is the busy
window of every thread that ran a boundary (from its first to its last
depth-0 boundary call); a forked child's time counts once, inside the
window of the thread that waited for it, and is split by the child's
layers (its span durations are taken out of the forking span's layer).
For ``serve-open`` it is the sum of request latencies; each instant of
a request belongs to the innermost span recorded around it (client op,
daemon span, forked execution split by its layers' self times), and an
instant no span covers is unattributed.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

import common
import layers
from common import median, quantile
from layers import fork_ms, p50, p90, spans_named
from tracer import chrome_trace, load_dumps

#: (value, unit, sample count)
Metric = Tuple[float, str, int]
SUBMIT = "GpuService.submit"


def _batch_host(dumps: List[Dict]) -> float:
    """Every thread's busy window.  A forked child records no window of
    its own (its root span nests under the isolated call that forked it),
    so its time counts once, inside the parent's window."""
    return sum(last - first for d in dumps
               for first, last in d["threads"].values())


def _parallel_share(cells: List[Dict]) -> float:
    """Share of the makespan with two cells running at once."""
    if not cells:
        return 0.0
    edges = sorted([(s["start"], 1) for s in cells]
                   + [(s["end"], -1) for s in cells])
    busy2 = 0.0
    running = 0
    prev = edges[0][0]
    for t, delta in edges:
        if running >= 2:
            busy2 += t - prev
        running += delta
        prev = t
    makespan = edges[-1][0] - edges[0][0]
    return busy2 / makespan if makespan else 0.0


def _harness(m: Dict) -> Dict[str, Tuple[float, int]]:
    cells = spans_named(m, "execute_cell")
    writes = spans_named(m, "write_json")
    checkpoints = [(s["end"] - s["start"]) * 1000.0 for s in writes
                   if s.get("checkpoint")]
    merge = sum(s["end"] - s["start"]
                for name in ("merge_outcomes", "write_merge_artifacts")
                for s in spans_named(m, name))
    forks = fork_ms(m)
    return {
        "harness.isolation.fork_ms.p50": (p50(forks), len(forks)),
        "harness.runner.cell_s.p50": (
            p50([s["end"] - s["start"] for s in cells]), len(cells)),
        "harness.runner.parallel_share": (
            _parallel_share(cells), len(cells)),
        "harness.store.checkpoint_ms.p50": (
            p50(checkpoints), len(checkpoints)),
        "harness.store.merge_s": (merge, 1),
    }


# ---------------------------------------------------------------------------
# serve-open: per-request stages
# ---------------------------------------------------------------------------

def _request_split(rec: Dict, sub: Optional[Dict], spans: List[Dict],
                   children: Dict) -> Dict[str, float]:
    """Split one request's latency (seconds) into layers: at each
    instant the innermost (latest-started) span covering it owns the
    time, a forked execution's time is shared out by its layers' self
    times, and an instant no span covers is left out (unattributed)."""
    lo, hi = rec["due"], rec["done"]
    #: (start, end, layer, forked child or None)
    ivs = [(rec["due"], rec["sent"], "loadgen", None)]
    if "acked" in rec:
        ivs.append((rec["sent"], rec["acked"], "serve.wire", None))
    if "polled" in rec:
        ivs.append((rec["polled"], rec["done"], "serve.wire", None))
    if sub is not None:
        ivs.append((sub["start"], sub["end"], sub["layer"], None))
        # the collector's poll interval: the result waited for the
        # load generator to ask for it
        ivs.append((sub["end"], rec.get("polled", sub["end"]), "loadgen",
                    None))
        for s in spans:
            ivs.append((s["start"], s["end"], s["layer"], None))
            child = children.get(s["id"])
            if child is not None:
                ivs.append((child["start"], child["end"], "", child))
    points = sorted({min(max(t, lo), hi) for iv in ivs for t in iv[:2]}
                    | {lo, hi})
    split: Dict[str, float] = {}
    for a, b in zip(points, points[1:]):
        mid = (a + b) / 2.0
        owner = None
        for iv in ivs:
            if iv[0] <= mid < iv[1] and (
                owner is None or iv[0] > owner[0]
                or (iv[0] == owner[0] and iv[1] < owner[1])
            ):
                owner = iv
        if owner is None:
            continue
        if owner[3] is None:
            split[owner[2]] = split.get(owner[2], 0.0) + (b - a)
            continue
        own = owner[3]["layer_self"]
        total = sum(own.values())
        for layer, seconds in own.items():
            split[layer] = split.get(layer, 0.0) + (b - a) * seconds / total
    return split


def _serve(res: Dict, dumps: List[Dict], m: Dict) -> Tuple[Dict, float,
                                                            Dict]:
    traced = res["traced"]["records"]
    daemon = [d for d in dumps
              if any(s["name"] == SUBMIT for s in d["spans"])]
    subs = sorted((s for d in daemon for s in d["spans"]
                   if s["name"] == SUBMIT), key=lambda s: s["start"])
    by_req: Dict[str, List[Dict]] = {}
    for d in daemon:
        for s in d["spans"]:
            if s["name"] != SUBMIT and s["req"] is not None:
                by_req.setdefault(s["req"], []).append(s)
    children = {}
    for d in dumps:
        roots = [s for s in d["spans"] if s["name"].startswith("child:")]
        if len(roots) != 1:
            continue
        root = roots[0]
        layer_self: Dict[str, float] = {}
        for name, st in d["hot"].items():
            layer = d["layer_of"].get(name, "unknown")
            layer_self[layer] = layer_self.get(layer, 0.0) + st[2]
        children[root["parent"]] = {
            "layer_self": layer_self,
            "start": root["start"],
            "end": root["end"],
            "functional": sum(s["end"] - s["start"] for s in d["spans"]
                              if s["name"] == "Workload.trace"),
            "timing": sum(s["end"] - s["start"] for s in d["spans"]
                          if s["name"] == "GpuSimulator.run"),
        }
    sent = [r for r in traced if "id" in r]
    host = 0.0
    split: Dict[str, float] = {}
    matched = []
    from repro.harness.hashing import content_hash

    for i, rec in enumerate(sent):
        sub = subs[i] if i < len(subs) else None
        if sub is not None and (sub.get("tenant"), sub.get("key")) != (
            rec["tenant"], content_hash(rec["spec"])
        ):
            sub = None
        if "done" not in rec:
            continue
        spans = by_req.get(sub["id"], []) if sub is not None else []
        host += rec["done"] - rec["due"]
        for layer, seconds in _request_split(rec, sub, spans,
                                             children).items():
            split[layer] = split.get(layer, 0.0) + seconds
        matched.append((rec, sub))

    admission, lookup, waits = [], [], []
    execs = []
    for rec, sub in matched:
        if sub is None:
            continue
        spans = by_req.get(sub["id"], [])
        adm = [s for s in spans if s["name"] in
               ("ServiceCore.check_admission", "ServiceCore.acquire_slot")]
        if adm:
            admission.append(sum(s["end"] - s["start"] for s in adm) * 1e6)
        look = [s for s in spans if s["name"] in
                ("PartitionedResultCache.key", "PartitionedResultCache.get")]
        if look:
            lookup.append(sum(s["end"] - s["start"] for s in look) * 1e6)
        iso = [s for s in spans if s["name"] == "run_experiment_isolated"]
        acq = [s for s in spans if s["name"] == "ServiceCore.acquire_slot"]
        if iso and acq:
            waits.append((iso[0]["start"] - acq[0]["end"]) * 1000.0)
        for s in iso:
            execs.append((sub.get("tenant"), sub.get("key"), s))
    dup = 0
    first_start: Dict[Tuple, float] = {}
    for tenant, key, s in sorted(execs, key=lambda e: e[2]["start"]):
        if (tenant, key) in first_start:
            dup += 1
        else:
            first_start[(tenant, key)] = s["start"]

    done = [r for r in res["records"] if r.get("result")]
    hits = [r for r in done if r["result"]["cached"]]
    rtt = [(r["acked"] - r["sent"]) * 1000.0 for r in res["records"]
           if "acked" in r]
    late = [x for s in res["steps"] for x in s["late_ms"]]
    funcs = [c["functional"] * 1000.0 for c in children.values()]
    times = [c["timing"] * 1000.0 for c in children.values()]
    wire_bytes = m["counts"].get("wire.bytes", 0.0)
    metrics = {
        "serve.wire.submit_rtt_ms.p50": (p50(rtt), len(rtt)),
        "serve.wire.bytes_per_req": (
            wire_bytes / len(traced) if traced else 0.0, len(traced)),
        "serve.core.admission_us.p50": (p50(admission), len(admission)),
        "serve.fair.wait_ms.p50": (p50(waits), len(waits)),
        "serve.fair.wait_ms.p90": (p90(waits), len(waits)),
        "serve.cache.lookup_us.p50": (p50(lookup), len(lookup)),
        "serve.cache.hit_ratio": (
            len(hits) / len(done) if done else 0.0, len(done)),
        "serve.cache.dup_exec_ratio": (
            dup / len(execs) if execs else 0.0, len(execs)),
        "serve.executor.functional_ms.p50": (p50(funcs), len(funcs)),
        "serve.executor.timing_ms.p50": (p50(times), len(times)),
        "loadgen.late_ms.p99": (
            quantile(late, 0.99) if late else 0.0, len(late)),
        "loadgen.backlog_end.light": (
            float(res["steps"][0]["backlog_end"]), 1),
        "loadgen.backlog_end.heavy": (
            float(res["steps"][-1]["backlog_end"]), 1),
    }
    return metrics, host, split


def per_layer(ctx, res: Dict) -> Dict[str, Metric]:
    """Every per-layer metric of metrics.json, in its order and unit."""
    dumps = load_dumps(ctx.side_file)
    dumps += res.get("local_dumps", [])
    m = layers.merge(dumps)
    values: Dict[str, Tuple[float, int]] = {
        name: (value, 1)
        for name, value in layers.simulator_metrics(m).items()
    }
    values.update(_harness(m))
    if ctx.workload == "serve-open":
        serve_metrics, host, split = _serve(res, dumps, m)
        values.update(serve_metrics)
        base = median(res["light_ms"])
        overhead = median(res["traced_light_ms"]) / base if base else 0.0
    else:
        host = _batch_host(dumps)
        split = dict(m["layer_self"])
        untraced, traced_s = res.get("overhead", (0.0, 0.0))
        overhead = traced_s / untraced if untraced else 0.0
    for layer, seconds in sorted(split.items(), key=lambda kv: -kv[1]):
        kind = "named" if layer in layers.NAMED_LAYERS else "catch-all"
        print(f"# host time {layer:<28} {seconds:10.3f} s  {kind}")
    attributed = layers.attribution(host, split)
    values["unattributed_s"] = (attributed["unattributed_s"], 1)
    values["catchall_s"] = (attributed["catchall_s"], 1)
    values["attributed_share"] = (attributed["attributed_share"], 1)
    values["traced_host_s"] = (host, 1)
    values["trace_overhead"] = (overhead, 1)
    values["boundaries_missing"] = (float(len(m["missing"])), 1)
    if m["missing"]:
        print(f"# boundaries missing (time unattributed): {m['missing']}")
    write_chrome(ctx, dumps)
    with open(os.path.join(common.HERE, "metrics.json")) as fh:
        doc = json.load(fh)["per_layer"]
    out: Dict[str, Metric] = {}
    for name, entry in doc.items():
        value, samples = values.get(name, (0.0, 0))
        out[name] = (value, entry["unit"], samples)
    return out


def write_chrome(ctx, dumps: List[Dict]) -> None:
    """Keep the traced run's spans as a Chrome trace under .perfbench/."""
    starts = [s["start"] for d in dumps for s in d["spans"]]
    if not starts:
        return
    os.makedirs(common.WORK, exist_ok=True)
    path = os.path.join(common.WORK, f"trace-{ctx.workload}.json")
    with open(path, "w") as fh:
        json.dump(chrome_trace(dumps, min(starts)), fh)
    print(f"# chrome trace: {os.path.relpath(path, common.ROOT)}")

"""Which entry points of the program the traced run times, per layer,
and how the recorded timings and counts become per-layer metrics.

Targets are public entry points, the name a layer's caller binds
(``repro.system.gpu:predecode_trace`` is the decode entry point as the
simulator calls it), or, where no public name marks a layer's edge, a
method such as the daemon's submit handler.  Nothing here is imported
by an untraced run.
"""

from __future__ import annotations

from typing import Dict, List

from common import median, quantile
from tracer import Boundary, ChildRoot, Tracer

#: event-callback module -> layer (longest prefixes first)
MODULE_LAYERS = {
    "repro.mem.coalescer": "mem.coalescer",
    "repro.timing.sm": "timing.sm",
    "repro.timing.engine": "timing.engine",
    "repro.timing.decode": "timing.decode",
    "repro.core.local_scheduler": "core.local_scheduler",
    "repro.system.faults": "system.faults",
    "repro.system.gpu": "system.gpu",
    "repro.mem": "mem.hierarchy",
    "repro.vm": "vm",
    "repro.functional": "functional",
}


def _sim_counts(tracer: Tracer, args, kwargs, result) -> None:
    """Read the finished simulation's public statistics into counts."""
    sim = args[0]
    c = tracer.count
    c("sim.runs", 1)
    c("sim.instructions", result.dynamic_instructions)
    c("sim.cycles", result.cycles)
    try:
        events = sim.events
        c("engine.processed", events.processed)
        c("engine.scheduled", events.scheduled)
        c("engine.coalesced", events.coalesced)
        mem = sim.memsys
        c("l1.hits", sum(x.stats.hits for x in mem.l1_caches))
        c("l1.accesses", sum(x.stats.accesses for x in mem.l1_caches))
        c("l2.hits", mem.l2_cache.stats.hits)
        c("l2.accesses", mem.l2_cache.stats.accesses)
        tlbs = mem.mmu.l1_tlbs
        c("tlb.hits", sum(t.stats.hits for t in tlbs)
          + mem.mmu.l2_tlb.stats.hits)
        c("tlb.lookups", sum(t.stats.accesses for t in tlbs))
        c("sm.issued", sum(s.issued for s in result.sm_stats))
        c("sm.switch_outs", sum(s.block_switch_outs for s in result.sm_stats))
        if result.fault_stats is not None:
            c("faults.raised", result.fault_stats.faults_raised)
            c("faults.joined", result.fault_stats.joined_pending)
    except AttributeError as exc:  # a renamed statistic: count it missing
        c(f"missing:{exc}", 1)


def _trace_counts(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("functional.instructions", result.dynamic_instructions())


def _path_kind(tracer: Tracer, args, kwargs, result) -> Dict:
    path = str(args[0]) if args else str(kwargs.get("path", ""))
    return {"checkpoint": "/cells/" in path.replace("\\", "/")}


SIMULATOR = [
    Boundary("repro.workloads.base:Workload.trace", "functional", "span"),
    Boundary("repro.functional.interpreter:Interpreter.run", "functional",
             "span", hook=_trace_counts),
    Boundary("repro.system.gpu:predecode_trace", "timing.decode"),
    Boundary("repro.system.gpu:GpuSimulator.run", "system.gpu", "span",
             hook=_sim_counts),
    Boundary("repro.timing.sm:SmPipeline.try_issue", "timing.sm",
             sum_result=True),
    Boundary("repro.timing.engine:EventQueue.run_until", "timing.engine"),
    Boundary("repro.timing.engine:EventQueue.schedule", "timing.engine",
             "callbacks"),
    Boundary("repro.timing.engine:EventQueue.call", "timing.engine",
             "callbacks"),
    Boundary("repro.timing.sm:coalesce_inst", "mem.coalescer"),
    *[
        Boundary(f"repro.mem.hierarchy:MemorySubsystem.{m}", "mem.hierarchy")
        for m in (
            "translate_access", "translate_access_coalesced", "data_access",
            "warp_access", "replay_after_fault",
            "replay_after_fault_coalesced",
        )
    ],
    Boundary("repro.system.faults:FaultController.translate",
             "system.faults"),
    Boundary("repro.system.faults:FaultController.on_fault",
             "system.faults"),
    Boundary("repro.core.local_scheduler:LocalScheduler.on_fault",
             "core.local_scheduler"),
    Boundary("repro.core.local_scheduler:LocalScheduler.on_slot_free",
             "core.local_scheduler"),
    *[
        Boundary(f"repro.vm.page_table:SystemPageState.{m}", "vm")
        for m in ("gpu_translate", "classify_fault", "install_gpu_page")
    ],
    Boundary("repro.vm.physical:FrameAllocator.allocate", "vm"),
]

SWEEP = [
    Boundary("repro.harness.experiments:run_fig10", "harness.experiments",
             "unit"),
    Boundary("repro.harness.experiments:run_fig11", "harness.experiments",
             "unit"),
]

CAMPAIGN = [
    Boundary("repro.harness.runner:execute_cell", "harness.runner", "unit"),
    Boundary("repro.harness.runner:merge_outcomes", "harness.runner",
             "span"),
    Boundary("repro.harness.store:write_json", "harness.store", "span",
             hook=_path_kind),
    Boundary("repro.harness.store:write_merge_artifacts", "harness.store",
             "span"),
    Boundary("repro.harness.store:TimeoutHistory.flush", "harness.store",
             "span"),
]


def _submit_key(tracer: Tracer, args, kwargs, result) -> Dict:
    from repro.harness.hashing import content_hash

    tenant, spec = args[1], args[2]
    return {"tenant": tenant, "key": content_hash(spec)}


def _cache_key(tracer: Tracer, args, kwargs, result) -> Dict:
    return {"key": result}


DAEMON = [
    Boundary("repro.serve.service:GpuService.submit", "serve.core", "async",
             hook=_submit_key),
    Boundary("repro.serve.core:ServiceCore.check_admission", "serve.core",
             "span"),
    Boundary("repro.serve.core:ServiceCore.acquire_slot", "serve.core",
             "span"),
    Boundary("repro.serve.service:GpuService._acquire_gpu", "serve.fair",
             "await"),
    Boundary("repro.serve.service:GpuService._execute", "serve.core",
             "await"),
    Boundary("repro.serve.service:GpuService._run_once", "serve.core",
             "span"),
    Boundary("repro.serve.cache:PartitionedResultCache.key", "serve.cache",
             "span", hook=_cache_key),
    Boundary("repro.serve.cache:PartitionedResultCache.get", "serve.cache",
             "span"),
    Boundary("repro.serve.cache:PartitionedResultCache.put", "serve.cache",
             "span"),
    Boundary("repro.serve.wire:ServeDaemon._op_submit", "serve.wire",
             "span"),
]

CLIENT = [
    Boundary(f"repro.serve.client:ServeClient.{op}", "serve.wire", "span")
    for op in ("ping", "register", "submit", "result", "stats", "shutdown")
]


def isolation_boundary(tracer: Tracer, module: str, side_file: str,
                       child_layer: str) -> None:
    """Time ``run_experiment_isolated`` as ``module`` calls it, and wrap
    the function it forks so the child reports its own timings."""
    import importlib

    target = "run_experiment_isolated"
    try:
        owner = importlib.import_module(module)
        original = getattr(owner, target)
    except (ImportError, AttributeError):
        tracer.missing.append(f"{module}.{target}")
        return

    def isolated(name, fn, *args, **kwargs):
        return original(name, ChildRoot(tracer, fn, side_file, child_layer),
                        *args, **kwargs)

    tracer._set(owner, target,
                tracer.span(target, "harness.isolation", isolated))


def client_tracer() -> Tracer:
    """Time the client's wire ops and count the bytes of every frame the
    load generator sends or receives."""
    import repro.serve.client as client

    tracer = Tracer(MODULE_LAYERS)
    tracer.install(CLIENT)
    encode, read = client.encode_frame, client.read_frame

    def counted_encode(payload):
        blob = encode(payload)
        tracer.count("wire.bytes", len(blob))
        return blob

    def counted_read(rfile):
        frame = read(rfile)
        if frame is not None:
            tracer.count("wire.bytes", len(encode(frame)))
        return frame

    tracer._set(client, "encode_frame", counted_encode)
    tracer._set(client, "read_frame", counted_read)
    return tracer


def new_tracer() -> Tracer:
    tracer = Tracer(MODULE_LAYERS)
    tracer.install(SIMULATOR)
    return tracer


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

#: the layers the benchmark attributes host time to; time in any other
#: boundary (the experiment functions' own code, the benchmark's load
#: generator) is reported as ``catchall_s``, not as attributed
NAMED_LAYERS = frozenset((
    "functional", "timing.decode", "timing.sm", "timing.engine",
    "system.gpu", "mem.coalescer", "mem.hierarchy", "system.faults",
    "core.local_scheduler", "vm", "harness.isolation", "harness.runner",
    "harness.store", "serve.wire", "serve.core", "serve.fair",
    "serve.cache", "serve.executor",
))

#: layers whose self time is reported as ``<layer>.self_s``
SELF_LAYERS = (
    "functional", "timing.decode", "timing.sm", "timing.engine",
    "system.gpu", "mem.coalescer", "mem.hierarchy", "system.faults",
    "core.local_scheduler", "vm", "harness.experiments", "harness.runner",
    "harness.store",
)


def merge(dumps: List[Dict]) -> Dict:
    """Fold process dumps into layer self times, boundary stats and
    counts; child-process time is subtracted from the span that forked
    the child."""
    layer_self: Dict[str, float] = {}
    boundary: Dict[str, List] = {}
    counts: Dict[str, float] = {}
    missing = set()
    spans = [s for d in dumps for s in d["spans"]]
    by_id = {s["id"]: s for s in spans}
    for d in dumps:
        missing.update(d["missing"])
        for name, st in d["hot"].items():
            layer = d["layer_of"].get(name, "unknown")
            layer_self[layer] = layer_self.get(layer, 0.0) + st[2]
            agg = boundary.setdefault(name, [0, 0.0, 0.0, 0])
            for i in range(4):
                agg[i] += st[i]
        for k, v in d["counts"].items():
            counts[k] = counts.get(k, 0) + v
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] != s["pid"]:
            dur = s["end"] - s["start"]
            layer_self[parent["layer"]] = (
                layer_self.get(parent["layer"], 0.0) - dur
            )
            parent["child_s"] = parent.get("child_s", 0.0) + dur
    return {
        "layer_self": layer_self, "boundary": boundary, "counts": counts,
        "missing": sorted(missing), "spans": spans,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def simulator_metrics(m: Dict) -> Dict[str, float]:
    """Per-layer metrics of the simulator stack (0 where a layer did no
    work on this workload)."""
    ls, c, b = m["layer_self"], m["counts"], m["boundary"]
    out = {f"{layer}.self_s": ls.get(layer, 0.0) for layer in SELF_LAYERS}
    functional_s = ls.get("functional", 0.0)
    out["functional.kinst_per_s"] = _ratio(
        c.get("functional.instructions", 0) / 1000.0, functional_s
    )
    issue = b.get("SmPipeline.try_issue", [0, 0.0, 0.0, 0])
    out["timing.sm.issue_yield"] = _ratio(issue[3], issue[0])
    kinst = c.get("sim.instructions", 0) / 1000.0
    out["timing.engine.events_per_kinst"] = _ratio(
        c.get("engine.processed", 0), kinst
    )
    out["timing.engine.coalesced_share"] = _ratio(
        c.get("engine.coalesced", 0),
        c.get("engine.coalesced", 0) + c.get("engine.scheduled", 0),
    )
    out["mem.l1_hit_ratio"] = _ratio(c.get("l1.hits", 0),
                                     c.get("l1.accesses", 0))
    out["mem.l2_hit_ratio"] = _ratio(c.get("l2.hits", 0),
                                     c.get("l2.accesses", 0))
    out["mem.tlb_hit_ratio"] = _ratio(c.get("tlb.hits", 0),
                                      c.get("tlb.lookups", 0))
    out["system.faults.raised"] = float(c.get("faults.raised", 0))
    out["system.faults.join_ratio"] = _ratio(c.get("faults.joined", 0),
                                             c.get("faults.raised", 0))
    out["core.local_scheduler.switches"] = float(c.get("sm.switch_outs", 0))
    return out


def spans_named(m: Dict, name: str) -> List[Dict]:
    return [s for s in m["spans"] if s["name"] == name]


def fork_ms(m: Dict) -> List[float]:
    """Per isolated call: its duration minus the forked child's own."""
    return [
        (s["end"] - s["start"] - s.get("child_s", 0.0)) * 1000.0
        for s in spans_named(m, "run_experiment_isolated")
        if "child_s" in s
    ]


def p50(values: List[float]) -> float:
    return median(values) if values else 0.0


def p90(values: List[float]) -> float:
    return quantile(values, 0.9) if values else 0.0


def attribution(host_s: float, split: Dict[str, float]) -> Dict[str, float]:
    """Traced host time by kind: in a named layer, in a catch-all
    boundary, or in no boundary at all (``unattributed_s``)."""
    named = sum(v for k, v in split.items() if k in NAMED_LAYERS)
    other = sum(v for k, v in split.items() if k not in NAMED_LAYERS)
    return {
        "attributed_share": _ratio(named, host_s),
        "catchall_s": other,
        "unattributed_s": max(0.0, host_s - named - other),
    }

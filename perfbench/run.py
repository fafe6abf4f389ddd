"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

BENCHMARK.json lists ``campaign-demand`` and ``serve-open``;
``sweep-premapped`` runs by hand only (perfbench/metrics.json,
"not_measured", says why).

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run with boundary timers around the program's layer entry
points (perfbench/layers.py) and prints the per-layer metrics.  Every
run checks the program's outputs against ``perfbench/expected.json``
and prints, as the last line of stdout, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it give each metric with its unit and sample count, the machine's
``nproc``, one calibration spin and the yardstick's mean slowdown over
the run.  Time metrics are expressed at the yardstick's reference speed
(perfbench/yardstick.py).  Metric definitions: perfbench/metrics.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Tuple

import common
from common import RunDir, median, quantile
from yardstick import Yardstick

WORKLOADS = ("sweep-premapped", "campaign-demand", "serve-open")
EXPECTED = os.path.join(common.HERE, "expected.json")


class Context:
    """What a workload module needs: settings, expected outputs, the
    side file children append traces to, the running yardstick and the
    output-check ledger."""

    def __init__(self, args, run_dir: RunDir, expected: Dict,
                 yard: Yardstick) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.run_dir = run_dir
        self.side_file = run_dir.file("side.jsonl")
        self.expected = expected
        self.yard = yard
        self.mismatches: List[str] = []

    def at_reference(self, seconds: float, start: float,
                     end: float) -> float:
        """``seconds`` measured over ``[start, end]`` (monotonic), as
        they would read at the yardstick's reference speed."""
        return seconds / self.yard.slowdown(start, end)

    def check(self, what: str, got, want) -> None:
        """Record a mismatch between an output and its expected value."""
        if got != want:
            self.mismatches.append(f"{what}: got {got!r}, expected {want!r}")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(res: Dict) -> Dict[str, Tuple[float, str, int]]:
    """The end-to-end metrics of one untraced run (metrics.json)."""
    light, heavy = res["light_ms"], res["heavy_ms"]
    return {
        "setup_s": (median(res["setup"]), "s", len(res["setup"])),
        "peak_rss_mb": (res["rss_mb"], "MiB", 1),
        "ok_ratio": (
            (res["attempted"] - res["failed"]) / res["attempted"],
            "ratio", res["attempted"],
        ),
        "sim_kips": (res["sim_kips"], "kinst/s", res["sim_units"]),
        "p50_ms.light": (quantile(light, 0.5), "ms", len(light)),
        "p90_ms.light": (quantile(light, 0.9), "ms", len(light)),
        "p50_ms.heavy": (quantile(heavy, 0.5), "ms", len(heavy)),
        "p90_ms.heavy": (quantile(heavy, 0.9), "ms", len(heavy)),
        "max_ok_rps": (res["max_ok_rps"], "1/s", res["rate_units"]),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not common.program_available():
        print(f"perfbench: the program's sources ({common.SRC}) are not "
              "in this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    if not common.become_subreaper():
        print("perfbench: cannot adopt orphaned descendants; the check for "
              "leftover processes sees direct children only", file=sys.stderr)
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    nproc = os.cpu_count()
    ticks = common.cpu_ticks()
    spin = common.calibration_spin()
    with RunDir() as run_dir:
        with Yardstick(run_dir.file("yardstick.txt"), common.spawn) as yard:
            started = common.now()
            ctx = Context(args, run_dir, expected, yard)
            if args.workload == "sweep-premapped":
                import sweep as workload
            elif args.workload == "campaign-demand":
                import campaign as workload
            else:
                import serve as workload
            res = workload.run(ctx)
            slowdown = yard.slowdown(started, common.now())
        if ctx.trace:
            import analysis

            metrics = analysis.per_layer(ctx, res)
        else:
            metrics = end_to_end(res)
        problems = common.leftovers(run_dir)
        if yard.proc.returncode != 0:
            problems.append(f"the yardstick exited {yard.proc.returncode}")
    for line in ctx.mismatches + problems:
        print(f"perfbench: {line}", file=sys.stderr)
    import resource

    own_cpu = resource.getrusage(resource.RUSAGE_SELF)
    steal = common.steal_share(ticks, common.cpu_ticks())
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={nproc} calibration_spin_s={spin:.4f} "
          f"steal_share={steal:.3f} slowdown={slowdown:.3f} "
          f"bench_cpu_s={own_cpu.ru_utime + own_cpu.ru_stime:.2f}")
    for name, (value, unit, samples) in metrics.items():
        print(f"# {name:<40} {value:>14.6g} {unit:<8} n={samples}")
    for name, value in res.get("measured", {}).items():
        print(f"# at the measured speed: {name} {value:.6g}")
    correct = not ctx.mismatches and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

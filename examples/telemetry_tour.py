#!/usr/bin/env python
"""Telemetry tour: trace a run, inspect events and counters, write files.

Runs saxpy under on-demand paging with telemetry enabled, then shows the
three ways to consume the data: the event histogram, the hierarchical
counter views (snapshot / rollup / glob aggregate / time series), and
the on-disk artifacts (Chrome trace_event JSON for Perfetto + counter
dump).  See docs/OBSERVABILITY.md for the full story.

Run:  python examples/telemetry_tour.py
"""

from repro.system import GpuSimulator
from repro.telemetry import Telemetry, ev


def main():
    tel = Telemetry(sample_interval=500)
    result = GpuSimulator.for_workload(
        "saxpy", "replay-queue", paging="demand", telemetry=tel,
    ).run()
    print(f"saxpy/replay-queue/demand: {result.cycles:.0f} cycles, "
          f"{tel.tracer.recorded} events recorded "
          f"({tel.tracer.dropped} dropped)\n")

    print("event histogram:")
    for name, count in sorted(tel.tracer.names().items()):
        print(f"  {name:<18} {count}")

    print("\nfirst three page faults (vpn, fault group, detecting SM):")
    raises = [r for r in tel.tracer.events() if r[0] == ev.EV_FAULT_RAISE]
    for name, _ph, ts, _dur, _tid, args in raises[:3]:
        print(f"  cycle {ts:6.0f}  {args}")

    print("\nper-SM issue-stall attribution (glob aggregate):")
    agg = tel.counters.aggregate
    for leaf in ("cycles", "fault", "scoreboard"):
        total = agg(f"gpu.sm[*].warp_stall.{leaf}")
        print(f"  warp_stall.{leaf:<11} {total:8.0f}")

    print("\nTLB and fault-controller counters:")
    print(tel.counters.render("gpu.tlb.l2.*"))
    print(tel.counters.render("gpu.tlb.miss"))
    print(tel.counters.render("gpu.fault.faults_raised"))

    sampled = tel.counters.series("gpu.fault.faults_raised")
    print("\nfaults raised over time (sampled every 500 cycles):")
    for t, v in sampled:
        print(f"  cycle {t:6.0f}  {v:.0f}")

    paths = tel.write("traces/telemetry-tour")
    print(f"\nwrote {paths['trace']} — open it in chrome://tracing "
          "or https://ui.perfetto.dev")
    print(f"wrote {paths['counters']} — flat values, rollup tree, samples")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Demonstrate the paper's Section 2.4 motivation: under demand paging, a
non-preemptible GPU cannot context switch until every in-flight fault is
serviced, while the preemptible-exception schemes squash and switch
immediately.

Run:  python examples/preemption_latency.py
"""

from repro.core import preemption_latency_experiment
from repro.system import DEFAULT_TIME_SCALE


def main():
    print("preemption request arrives while faults are in flight;")
    print("worst-case context-switch latency across SMs (cycles):\n")
    print(f"{'workload':14s} {'request@':>10s} {'preemptible':>12s} "
          f"{'stall-on-fault':>15s} {'ratio':>7s}")
    for name in ("stream-sum", "sgemm", "lbm"):
        result = preemption_latency_experiment(
            name, "replay-queue", request_fraction=0.1,
            time_scale=DEFAULT_TIME_SCALE, interconnect="nvlink",
        )
        pre, stall = result["preemptible"], result["stall-on-fault"]
        ratio = stall / max(pre, 1.0)
        print(f"{name:14s} {result['request_time']:10.0f} {pre:12.0f} "
              f"{stall:15.0f} {ratio:7.0f}x")
    print("\nThe stall-on-fault column includes waiting out fault round")
    print("trips; the preemptible column only drains normal in-flight work")
    print("(squashed faulted instructions replay from the saved context).")


if __name__ == "__main__":
    main()

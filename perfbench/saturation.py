"""Find the serve daemon's saturation rate: the offered rate at which
its completions stop keeping pace with arrivals.

    python3 perfbench/saturation.py [--rates 6,10,14,18,22] [--seconds 8]

Each rate runs as one open-loop step of the serve-open traffic (same
tenants, kernels, schemes, time scale and repeat share) against a fresh
daemon.  Per rate it prints the achieved completion rate, latency
quantiles and the backlog when arrivals stop.  The serve-open ladder
(serve.SATURATION_RPS) is placed from this measurement; rerun it when
the host or the program's serving path changes a lot.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import common
from common import RunDir, quantile, steal_share

sys.path.insert(0, common.SRC)

import serve  # noqa: E402


def measure(run_dir: RunDir, rate: float, seconds: float, seed: int):
    sock = os.path.join(run_dir.rel, f"sat{rate:g}.sock")
    count = max(40, int(rate * seconds))
    plan = serve.schedule(seed, [(rate, count)])
    daemon = serve.Daemon(sock)
    ticks = []
    try:
        records = serve.drive(sock, plan, drain_s=30.0, marks=[0.0],
                              ticks=ticks)
    finally:
        daemon.stop()
    t0 = records[0]["t0"]
    end = t0 + count / rate
    done = [r for r in records if "done" in r and "error" not in r]
    lat = [(r["done"] - r["due"]) * 1000.0 for r in done]
    last = max(r["done"] for r in done)
    return {
        "offered_rps": rate,
        "requests": count,
        "failed": count - len(done),
        "achieved_rps": round(len(done) / (last - t0), 3),
        "p50_ms": round(quantile(lat, 0.5), 1),
        "p90_ms": round(quantile(lat, 0.9), 1),
        "backlog_end": sum(1 for r in records
                           if r.get("done", end + 1) > end),
        "steal": round(steal_share(ticks[0], ticks[-1]), 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/saturation.py")
    parser.add_argument("--rates", default="6,10,14,18,22")
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    common.become_subreaper()
    with RunDir() as run_dir:
        for rate in (float(r) for r in args.rates.split(",")):
            print(json.dumps(measure(run_dir, rate, args.seconds,
                                     args.seed)), flush=True)
        problems = common.leftovers(run_dir)
    for line in problems:
        print(f"saturation: {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

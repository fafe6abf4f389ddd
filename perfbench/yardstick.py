"""The host-speed yardstick: a fixed pure-Python walk timed next to the
program, so time metrics can be expressed at one reference speed.

On a shared VM the CPU time of the same pure-Python work swings by a
factor of two within seconds and drifts over minutes (an SMT sibling,
the frequency and the caches are shared with other tenants), so a run's
CPU or wall seconds read the host as much as the program.  This process
times :func:`sample` every :data:`PERIOD_S` in its own thread CPU time
and appends ``monotonic_s ms`` lines to a file; the benchmark reads the
mean sample time around the interval a measurement covered and divides
the measurement by ``mean / REFERENCE_MS``.  A change to the program
does not touch the yardstick (it imports nothing of it), so it still
moves every time metric.

The sample walks a large object graph at pseudo-random places, because
the simulator's slowdown follows the caches and memory more than the
ALU: over six campaign-demand runs whose CPU-time figures spread
0.20-0.29 (IQR/median), they spread 0.05-0.11 at the speed of this walk
and 0.10-0.19 at the speed of a cache-resident loop of integer
arithmetic, method calls and small-dict updates.  The walk shares the
caches with the program, so a change that shrinks the program's working
set also speeds the walk a little: such a change shows somewhat damped.
Run as a script::

    python3 perfbench/yardstick.py OUT_FILE

It stops on SIGTERM.  The walk costs about 2% of one CPU and holds about
35 MB.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from typing import List, Tuple

#: seconds between samples
PERIOD_S = 0.25
#: ms one :func:`sample` takes at the reference speed (about its median
#: during benchmark runs on the 2-vCPU VM the benchmark was built on); a
#: scale, not a measurement
REFERENCE_MS = 10.5
#: objects in the walked graph, keys in its table and steps per sample
NODES = 300_000
KEYS = 100_003
STEPS = 8000
#: seconds a measurement's interval is widened by at each end: the
#: host's speed swings within seconds, the seconds before a measurement
#: set the state it met (a served request's queue), and about 25 samples
#: average out the yardstick's own noise.  In six serve-open runs whose
#: measured latency quantiles spread 0.28-0.36 (IQR/median), they spread
#: 0.08-0.17 at the speed of each whole step and 0.06-0.14 at the speed
#: around each request
PAD_S = 3.0
#: a window with fewer samples is widened until it has this many
MIN_SAMPLES = 5
START_TIMEOUT_S = 30.0
#: share of a window's samples dropped at each end before averaging, so
#: one sample stretched by a rare event (a page fault, a migration to
#: the other CPU) does not move a short window
TRIM = 0.1


class _Node:
    __slots__ = ("key", "total")

    def __init__(self, key: int) -> None:
        self.key = key
        self.total = 0

    def add(self, x: int) -> int:
        self.total += x
        return self.total & 7


def sample(nodes: List[_Node], table: dict) -> float:
    """Thread CPU ms of one fixed unit of interpreter work: a method
    call on a pseudo-random one of ``nodes`` and an update of a
    pseudo-random key of ``table``, :data:`STEPS` times."""
    t0 = time.thread_time()
    x = 12345
    n = len(nodes)
    for _ in range(STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x % KEYS
        table[key] = nodes[x % n].add(x) + table.get(key, 0)
    return (time.thread_time() - t0) * 1000.0


def probe_main(out_file: str) -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    nodes = [_Node(i) for i in range(NODES)]
    table: dict = {}
    with open(out_file, "a", buffering=1) as fh:
        due = time.monotonic()
        while not stop:
            at = time.monotonic()
            fh.write(f"{at:.4f} {sample(nodes, table):.4f}\n")
            due += PERIOD_S
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            else:
                due = time.monotonic()
    return 0


class Yardstick:
    """A running probe process and the samples it has written; it has
    written its first sample when the constructor returns."""

    def __init__(self, out_file: str, spawn) -> None:
        self.out_file = out_file
        open(out_file, "w").close()
        self.proc: subprocess.Popen = spawn(
            ["perfbench/yardstick.py", out_file],
            stdout=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + START_TIMEOUT_S
        while not self.samples():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("the yardstick did not start")
            time.sleep(0.01)

    def samples(self) -> List[Tuple[float, float]]:
        out = []
        with open(self.out_file) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2:
                    out.append((float(parts[0]), float(parts[1])))
        return out

    def slowdown(self, start: float, end: float) -> float:
        """Mean sample time around ``[start, end]`` (monotonic seconds,
        widened by :data:`PAD_S` at each end) relative to
        :data:`REFERENCE_MS`: how much slower than the reference the
        host ran then."""
        xs = self.samples()
        if not xs:
            raise RuntimeError("the yardstick wrote no sample")
        pad = PAD_S
        while True:
            inside = sorted(ms for at, ms in xs
                            if start - pad <= at <= end + pad)
            if len(inside) >= min(MIN_SAMPLES, len(xs)):
                cut = int(len(inside) * TRIM)
                kept = inside[cut:len(inside) - cut]
                return sum(kept) / len(kept) / REFERENCE_MS
            pad += PERIOD_S

    def stop(self) -> int:
        """Stop the probe and wait for it; its exit code (0 unless it
        died early)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        return self.proc.returncode

    def __enter__(self) -> "Yardstick":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: yardstick.py OUT_FILE", file=sys.stderr)
        sys.exit(2)
    sys.exit(probe_main(os.path.abspath(sys.argv[1])))

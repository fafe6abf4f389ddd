"""The measurement procedure shared by the three ``BENCH_*`` benchmarks.

``hotloop`` (``BENCH_timing.json``), ``dist-bench`` (``BENCH_dist.json``)
and ``serve-bench`` (``BENCH_serve.json``) each own their case, the
region they time and their print lines.  This module owns the rest: the
calibration spin and the best-of-N normalized CPU measurement, where the
records live and how they are written, the CI gate's tolerance band, and
the command-line tail (``--repeats``, ``--update``, ``--json``).
docs/PERFORMANCE.md
"Measuring" describes the procedure and tabulates the three records.

Only the standard library is imported here, so a benchmark command loads
nothing beyond its own case.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Any, Callable, Dict, Tuple

#: calibration spin iterations — sized so one spin takes O(100ms), long
#: enough to be timed stably, short enough to repeat
SPIN_N = 2_000_000

#: relative tolerance of the CI gate on a committed score
GATE_TOLERANCE = 0.25

#: the repository root, where the records are committed
_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))
)))


def calibration_spin() -> float:
    """CPU seconds for the fixed pure-Python spin (the ratio denominator).

    Deliberately plain interpreter work (integer arithmetic, attribute-free
    loop) so it scales with CPython dispatch speed the same way the
    simulator's hot loops do."""
    t0 = time.process_time()
    acc = 0
    for i in range(SPIN_N):
        acc += i ^ (acc & 0xFFFF)
    if acc == -1:  # pragma: no cover - keeps the loop from being elided
        raise AssertionError
    return time.process_time() - t0


def best_of(run: Callable[[], Any], repeats: int) -> Tuple[Dict, Any]:
    """Best-of-``repeats`` calibration-normalized CPU time of ``run()``.

    Spins and runs alternate (spin, run, spin, run, ...) so a load shift
    mid-measurement biases both halves of the ratio the same way.
    Returns the measurement — ``raw_seconds``, ``spin_seconds``,
    ``normalized`` (their ratio) and ``repeats`` — and what the last
    ``run()`` returned."""
    repeats = max(1, repeats)
    runs, spins = [], []
    result = None
    for _ in range(repeats):
        spins.append(calibration_spin())
        t0 = time.process_time()
        result = run()
        runs.append(time.process_time() - t0)
    best_run, best_spin = min(runs), min(spins)
    return {
        "raw_seconds": round(best_run, 4),
        "spin_seconds": round(best_spin, 4),
        "normalized": round(best_run / best_spin, 4),
        "repeats": repeats,
    }, result


def band(committed: float) -> Tuple[float, float]:
    """The CI gate's accepted range around a committed score:
    ±:data:`GATE_TOLERANCE` of it."""
    half = committed * GATE_TOLERANCE
    return committed - half, committed + half


def record_path(name: str) -> str:
    """Committed location of the record file ``name`` (the repo root)."""
    return os.path.join(_ROOT, name)


def load_record(path: str) -> Dict:
    """Read a benchmark record."""
    with open(path) as fh:
        return json.load(fh)


def save_record(record: Dict, path: str) -> str:
    """Write a benchmark record the way the committed ones are written:
    indent 1, sorted keys, trailing newline."""
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def cli(command: str, description: str, record: str,
        repeats: int = 3) -> argparse.ArgumentParser:
    """The argument parser of a benchmark command, with the shared tail
    already added; the command adds its own options before parsing."""
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.harness {command}", description=description,
    )
    parser.add_argument("--repeats", type=int, default=repeats)
    parser.add_argument(
        "--update", action="store_true",
        help=f"write the measurement to {os.path.basename(record)}",
    )
    parser.add_argument(
        "--json", metavar="FILE",
        help="also write the measurement (plus the committed record, "
             "when present) to FILE — used by the CI artifacts",
    )
    return parser


def finish(args: argparse.Namespace, record: str, measured: Dict,
           updated: Dict) -> int:
    """The shared tail of a benchmark command: with ``--update`` save
    ``updated`` as the committed record, with ``--json`` write
    ``{"committed", "measured"}`` to the named file."""
    if args.update:
        print(f"updated {save_record(updated, record)}")
    if args.json:
        try:
            committed = load_record(record)
        except FileNotFoundError:
            committed = None
        save_record({"committed": committed, "measured": measured},
                    args.json)
        print(f"wrote {args.json}")
    return 0

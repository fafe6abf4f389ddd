"""Plumbing shared by the benchmark's workloads: paths, child processes,
statistics, the calibration spin and run hygiene."""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import stat
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: working space of a run (sockets, campaign dirs, side files, traces)
WORK = os.path.join(ROOT, ".perfbench")

now = time.monotonic

#: per-step iterations of the drift diagnostic (same loop as the
#: program's hot-loop benchmark, reimplemented so this benchmark imports
#: no bench module)
SPIN_N = 2_000_000


def program_available() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def spawn(args: Sequence[str], **kwargs) -> subprocess.Popen:
    """Start a fresh Python process with the program on its path; the
    working directory is the checkout root (socket paths are relative
    to it, which keeps them short)."""
    return subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=child_env(), **kwargs
    )


def run_json(args: Sequence[str], timeout: float) -> Dict:
    """Run a child to completion and parse the JSON object on its last
    stdout line; raises ``RuntimeError`` when it fails."""
    proc = spawn(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{args[0]} timed out after {timeout:g}s")
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(args)} exited {proc.returncode}: "
            + err.decode(errors="replace")[-2000:]
        )
    return json.loads(out.decode().strip().splitlines()[-1])


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1])."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def calibration_spin() -> float:
    """CPU seconds for a fixed pure-Python loop: a drift diagnostic
    recorded beside each run, never a divisor."""
    t0 = time.process_time()
    acc = 0
    for i in range(SPIN_N):
        acc += i ^ (acc & 0xFFFF)
    if acc == -1:  # keeps the loop from being optimised away
        raise AssertionError
    return time.process_time() - t0


def cpu_ticks() -> List[int]:
    """Host-wide ``[busy, steal]`` clock ticks from ``/proc/stat``."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return [user + nice + system + irq + softirq, steal]


def steal_share(start: List[int], end: List[int]) -> float:
    """Share of the CPU time this VM wanted between two ``cpu_ticks``
    readings that the hypervisor gave to someone else (a drift
    diagnostic: wall-time metrics stretch with it)."""
    busy, steal = end[0] - start[0], end[1] - start[1]
    return steal / (busy + steal) if busy + steal else 0.0


def peak_child_rss_mb() -> float:
    """Largest peak resident set of any waited-for descendant (the
    program's processes, forked children included), in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class RunDir:
    """A fresh working directory under ``.perfbench/`` for one run,
    removed on exit (nothing carries over between runs)."""

    def __init__(self) -> None:
        os.makedirs(WORK, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=WORK)
        #: the same directory relative to the checkout root
        self.rel = os.path.relpath(self.path, ROOT)

    def file(self, name: str) -> str:
        return os.path.join(self.path, name)

    def __enter__(self) -> "RunDir":
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


#: ``prctl`` option that makes orphaned descendants reparent to the
#: caller instead of init (Linux >= 3.4)
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt every orphaned descendant of this process, so a process
    that a daemon or campaign process forked and left running shows up
    in :func:`live_children` after its parent exited."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def live_children() -> List[int]:
    """Live (not zombie) processes whose parent is this process: its own
    children and, once :func:`become_subreaper` ran, every orphaned
    descendant."""
    pid = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[1]) == pid and fields[0] != "Z":
            found.append(int(entry))
    return found


def reap(pids: Sequence[int]) -> None:
    """Kill ``pids`` and wait for them and for every exited child."""
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in pids:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def leftovers(run_dir: RunDir) -> List[str]:
    """What a run left behind: live descendant processes (which are then
    killed and reaped) and socket files."""
    alive = live_children()
    problems = [f"child process {pid} still running" for pid in alive]
    reap(alive)
    for dirpath, _, files in os.walk(run_dir.path):
        for name in files:
            path = os.path.join(dirpath, name)
            if name.endswith(".sock") or _is_socket(path):
                problems.append(f"socket file {path} left behind")
    return problems


def _is_socket(path: str) -> bool:
    try:
        return stat.S_ISSOCK(os.lstat(path).st_mode)
    except OSError:
        return False

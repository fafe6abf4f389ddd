"""Distributed campaign execution: work-stealing coordinator + workers.

The local campaign runner drives a :class:`repro.harness.runner.Campaign`
from supervisor threads; this module drives the *same* campaign object
across machines while keeping every determinism guarantee:

**Coordinator** (:class:`CampaignCoordinator`).  An op table on the
:mod:`repro.wire` frame server, the serve daemon's protocol, in front of
one ``Campaign``, which owns the cell matrix, the campaign directory,
the counters, resume and the merge.  Its ``hello`` reply carries the
execution policy and lease duration; its ops are ``lease``,
``heartbeat``, ``upload`` and ``status``.  It runs no cells and keeps
only what a fleet adds: lease expiry (workers heartbeat to extend their
leases; the campaign re-leases — steals — a cell whose lease expired,
so a wedged or dead worker delays only its own cells), upload
validation and result-hash dedup.  The campaign directory *is* the
local runner's checkpoint store: ``--resume`` restores a half-finished
distributed campaign, and a serial run can finish a campaign a fleet
started, and vice versa.

**Worker** (:class:`DistWorker`, ``python -m repro.harness worker
--coordinator HOST:PORT``).  N of today's supervisors pointed at a
remote queue: each leases a cell, rebuilds it from its recipe
(:func:`cell_from_wire`), runs it through the local runner's
:func:`repro.harness.runner.execute_cell` and uploads the checkpoint the
local runner would have written.  A heartbeat thread extends leases; a
cell missing from its reply was stolen, and its in-flight child is
cancelled.  Every call is one connection (connect, ``hello``, one op,
close).  A refused, reset, closed, cut or malformed exchange is a
transport failure: a missed heartbeat, or a retried lease or upload.
Past the miss budget the worker cancels everything and exits 3 —
losing the coordinator can never wedge a fleet.  A ``bad-request`` or
``conflict`` reply is logged and not retried; a refused first
handshake, or a reply to it that is not a frame, exits 2.

**Determinism.**  Uploads are validated with the same
:func:`repro.harness.store.validate_checkpoint` the resume path trusts.
Duplicates after a steal are deduplicated by
:func:`repro.harness.store.result_hash` (status + table: durations
legitimately differ); a *mismatched* duplicate is a determinism
violation: counted (``harness.dist.upload_conflicts``), answered
``conflict``, first write wins.  The merged ``tables.json`` and
``counters.json`` come from the campaign's own merge in canonical cell
order, so any fleet is byte-identical to the serial runner.  See
docs/ROBUSTNESS.md for the protocol, failure modes and trust model.
"""
from __future__ import annotations

import importlib
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

from . import store
from ..wire import (
    PROTOCOL_VERSION,
    FrameServer,
    WireError,
    dial,
    encode_frame,
    error,
    handshake,
    read_frame,
)
from .isolation import RetryPolicy
from .runner import (
    Campaign,
    CampaignCell,
    CampaignResult,
    CellOutcome,
    ExecutionPolicy,
    _default_echo,
    execute_cell,
    outcome_from_checkpoint,
)

#: default lease duration; a worker heartbeats at a third of this, so a
#: dead worker's cells are re-leased after at most one lease period
DEFAULT_LEASE_S = 15.0

#: consecutive failed heartbeats before a worker declares the
#: coordinator lost, cancels its in-flight cells and exits (code 3)
HEARTBEAT_MISS_BUDGET = 3

#: a worker's checkpoint upload: 3 attempts, 0.2 s and then 0.4 s apart;
#: the third failure means the coordinator is lost
UPLOAD_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.2)

#: a worker's join handshake: 8 attempts, 0.2 s apart doubling to at
#: most 2 s (the coordinator may still be binding its port)
HANDSHAKE_RETRY = RetryPolicy(max_attempts=8, backoff_base=0.2,
                              backoff_cap=2.0)

#: worker exit codes (the coordinator-crash test asserts these)
EXIT_OK = 0
EXIT_PROTOCOL = 2
EXIT_COORDINATOR_LOST = 3

#: reply codes a worker logs and does not retry: the coordinator
#: refused the request itself, so sending it again gets the same answer
REFUSALS = ("bad-request", "conflict")

#: every ``harness.dist.*`` rollup the coordinator maintains
#: (docs/OBSERVABILITY.md documents each; tools/check_doc_links.py
#: parses this tuple)
DIST_COUNTER_LEAVES = (
    "leases", "steals", "lease_expiries", "uploads", "upload_retries",
    "upload_dedup", "upload_conflicts", "upload_rejected", "heartbeats",
    "workers",
)


def cell_to_wire(cell) -> Dict:
    """The cell's construction recipe: its function by module +
    qualname (every campaign cell function is an importable
    module-level callable), kwargs, merge position and config hash."""
    return {
        "key": cell.key,
        "fn": {
            "module": cell.fn.__module__,
            "qualname": cell.fn.__qualname__,
        },
        "kwargs": cell.kwargs,
        "group": cell.group,
        "row_prefix": cell.row_prefix,
        "config_hash": cell.config_hash(),
    }


def cell_from_wire(data: Dict) -> CampaignCell:
    """Reconstruct a :class:`CampaignCell` from :func:`cell_to_wire`'s
    form; raises :class:`WireError` when the function cannot be
    imported or the recomputed config hash disagrees with the declared
    one (the worker must never run a cell it cannot re-derive).  It
    imports whatever the coordinator names: point workers only at
    trusted coordinators."""
    try:
        fn_ref = data["fn"]
        fn = importlib.import_module(fn_ref["module"])
        for part in fn_ref["qualname"].split("."):
            fn = getattr(fn, part)
    except (KeyError, TypeError, ImportError, AttributeError) as exc:
        raise WireError(f"cannot resolve cell function: {exc}")
    try:
        cell = CampaignCell(
            key=data["key"],
            fn=fn,
            kwargs=dict(data.get("kwargs") or {}),
            group=data.get("group", ""),
            row_prefix=data.get("row_prefix", ""),
        )
    except (KeyError, TypeError) as exc:
        raise WireError(f"malformed wire cell: {exc}")
    declared = data.get("config_hash")
    if cell.config_hash() != declared:
        raise WireError(
            f"cell {cell.key!r}: reconstructed config hash "
            f"{cell.config_hash()} != declared {declared!r}"
        )
    return cell


class CampaignCoordinator(FrameServer):
    """Serves one :class:`repro.harness.runner.Campaign` to remote
    workers (module docstring).  ``run()`` blocks until the matrix
    completes and returns the same :class:`CampaignResult` the local
    runner would."""

    thread_name = "dist-coordinator"

    def __init__(
        self,
        cells: Sequence[CampaignCell],
        *,
        out_dir: str,
        resume: bool = False,
        timeout: Optional[float] = None,
        adaptive_timeout: bool = True,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        lease_seconds: float = DEFAULT_LEASE_S,
        host: str = "127.0.0.1",
        port: int = 0,
        echo: Callable[[str], None] = _default_echo,
    ) -> None:
        if out_dir is None:
            raise ValueError(
                "the coordinator requires an out_dir: the campaign "
                "directory is the checkpoint store workers upload into"
            )
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be > 0")
        super().__init__(host=host, port=port)
        self.campaign = Campaign(
            cells, out_dir=out_dir, resume=resume, timeout=timeout,
            adaptive_timeout=adaptive_timeout, workers="dist", echo=echo,
        )
        self.cells = self.campaign.cells
        self.out_dir = out_dir
        self.counters = self.campaign.counters
        for leaf in DIST_COUNTER_LEAVES:
            self.counters.counter(f"harness.dist.{leaf}")
        self.policy = ExecutionPolicy(
            timeout=timeout,
            retry=RetryPolicy(max_attempts, backoff_base, backoff_cap),
        )
        self.lease_seconds = lease_seconds
        self._echo = echo
        self._lock = threading.Lock()
        self._by_key = {cell.key: cell for cell in self.cells}
        self._workers: set = set()
        #: workers that have been *told* the matrix is done (via lease
        #: or heartbeat) — run() keeps serving until this covers
        #: _workers, so fleet workers exit 0 instead of mistaking the
        #: natural end of the campaign for a coordinator crash
        self._done_acked: set = set()

    # -- ops (called from server threads) ----------------------------------

    def ops(self) -> Dict:
        return {
            "lease": lambda frame: self.lease(str(frame.get("worker"))),
            "heartbeat": self._op_heartbeat,
            "upload": lambda frame: self.upload(
                str(frame.get("worker")), frame.get("checkpoint"),
                frame.get("upload_attempt", 1),
            ),
            "status": lambda frame: self.status(),
        }

    def hello(self) -> Dict:
        """The handshake reply: execution policy, lease duration and
        progress."""
        retry = self.policy.retry
        return {
            "server": "repro.harness.dist",
            "lease_seconds": self.lease_seconds,
            "policy": {
                "timeout": self.policy.timeout,
                "max_attempts": retry.max_attempts,
                "backoff_base": retry.backoff_base,
                "backoff_cap": retry.backoff_cap,
            },
            "cells": len(self.cells),
            "done": len(self.campaign.outcomes),
        }

    def status(self) -> Dict:
        """The ``status`` op: progress snapshot."""
        with self.campaign.lock:
            done = len(self.campaign.outcomes)
            leased = len(self.campaign.leases)
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "complete": self.campaign.finished.is_set(),
            "pending": len(self.cells) - done - leased,
            "leased": leased,
            "done": done,
        }

    def lease(self, worker: str) -> Dict:
        """The ``lease`` op: hand out the next cell in canonical order —
        first pending cell, else the first leased cell whose lease
        expired (a steal)."""
        with self._lock:
            if worker not in self._workers:
                self._workers.add(worker)
                self.counters.counter("harness.dist.workers").add(1)
            leased = self.campaign.lease(worker, self.lease_seconds)
            if leased is None:
                if self.campaign.finished.is_set():
                    self._done_acked.add(worker)
                    return {"ok": True, "done": True}
                return {"ok": True, "wait": True, "retry_after": 0.5}
            cell, stolen_from = leased
            if stolen_from is not None:
                self.counters.counter("harness.dist.steals").add(1)
                self.counters.counter("harness.dist.lease_expiries").add(1)
                self._echo(
                    f"[dist] {cell.key}: lease expired on "
                    f"{stolen_from!r}, re-leased to {worker!r}"
                )
            self.counters.counter("harness.dist.leases").add(1)
        response = {
            "ok": True,
            "cell": cell_to_wire(cell),
            "lease_seconds": self.lease_seconds,
        }
        hint = self.campaign.timeouts.get(cell.key)
        if hint is not None:
            response["adaptive_timeout"] = hint
        return response

    def heartbeat(self, worker: str, keys: List[str]) -> Dict:
        """The ``heartbeat`` op: extend the worker's live leases; the
        reply lists the keys it still holds (a missing key was stolen —
        the worker cancels that cell)."""
        expiry = time.monotonic() + self.lease_seconds
        held: List[str] = []
        with self.campaign.lock:
            for key in keys:
                lease = self.campaign.leases.get(key)
                if lease is not None and lease[0] == worker:
                    lease[1] = expiry
                    held.append(key)
        done = self.campaign.finished.is_set()
        with self._lock:
            self.counters.counter("harness.dist.heartbeats").add(1)
            if done:
                self._done_acked.add(worker)
        return {"ok": True, "keys": held, "done": done}

    def _op_heartbeat(self, frame: Dict) -> Dict:
        keys = frame.get("keys") or []
        if not (isinstance(keys, list)
                and all(isinstance(k, str) for k in keys)):
            return error("bad-request", "keys must be a list of cell keys")
        return self.heartbeat(str(frame.get("worker")), keys)

    def upload(self, worker, data, upload_attempt=1) -> Dict:
        """The ``upload`` op: validate one finished cell and complete it
        on the campaign.  Duplicates after a steal dedupe by result
        hash; mismatched duplicates are determinism violations
        (``conflict``, first write wins)."""
        key = data.get("key") if isinstance(data, dict) else None
        if not isinstance(upload_attempt, int):
            problem = f"upload_attempt {upload_attempt!r} is not an integer"
        elif not isinstance(key, str):
            problem = "malformed checkpoint payload"
        elif key not in self._by_key:
            problem = f"unknown cell {key!r}"
        else:
            cell = self._by_key[key]
            problem = store.validate_checkpoint(data, key, cell.config_hash())
        if problem is not None:
            with self._lock:
                self.counters.counter("harness.dist.upload_rejected").add(1)
            self._echo(f"[dist] rejected upload from {worker!r} ({problem})")
            return error("bad-request", problem)
        outcome = outcome_from_checkpoint(cell, data)
        with self._lock:
            self.counters.counter("harness.dist.uploads").add(1)
            self.counters.counter("harness.dist.upload_retries").add(
                max(0, upload_attempt - 1)
            )
            # Persisted verbatim: the file is byte-compatible with a
            # locally written checkpoint (resume works across machines
            # and run modes).
            if self.campaign.complete(outcome, checkpoint=data):
                return {"ok": True, "dedup": False}
            # Both sides hash their rebuilt checkpoint, so a restored
            # cell compares the same way as an uploaded one.
            kept, rhash = (
                store.result_hash(store.build_checkpoint(o))
                for o in (self.campaign.outcomes[key], outcome)
            )
            if kept == rhash:
                self.counters.counter("harness.dist.upload_dedup").add(1)
                self._echo(
                    f"[dist] {key}: duplicate upload from {worker!r} "
                    "deduplicated (result hashes match)"
                )
                return {"ok": True, "dedup": True}
            self.counters.counter("harness.dist.upload_conflicts").add(1)
        self._echo(
            f"[dist] {key}: CONFLICTING duplicate upload from {worker!r} "
            "— determinism violation (kept the first result)"
        )
        return error("conflict", f"{key}: result hash conflict",
                     kept=kept, got=rhash)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> str:
        """Open the campaign (restoring checkpoints on ``resume``), bind
        and serve in background threads, and write
        ``coordinator.json``; returns the ``HOST:PORT`` workers join."""
        self.campaign.open()
        self.listen()
        address = f"{self.host}:{self.port}"
        store.write_json(
            os.path.join(self.out_dir, "coordinator.json"),
            {"address": address, "pid": os.getpid(),
             "protocol": PROTOCOL_VERSION,
             "lease_seconds": self.lease_seconds},
        )
        self._echo(
            f"[dist] coordinator serving {len(self.cells)} cell(s) at "
            f"{address} ({len(self.campaign.outcomes)} restored)"
        )
        return address

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the matrix completes (True) or ``timeout``."""
        return self.campaign.finished.wait(timeout)

    def linger(self, timeout: Optional[float] = None) -> None:
        """After completion, keep serving until every worker that ever
        leased has been told the matrix is done (a ``lease`` or
        ``heartbeat`` reply carries the ack), so workers exit 0 instead of
        mistaking the natural end of the campaign for a coordinator
        crash.  Capped at ``timeout`` (default: one lease duration) in
        case a worker died and will never ask again."""
        if timeout is None:
            timeout = self.lease_seconds
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if self._workers <= self._done_acked:
                    return
            time.sleep(0.05)

    def stop(self) -> None:
        """Stop serving (idempotent): every later worker call fails."""
        self.close()

    def collect(self) -> CampaignResult:
        """The campaign's merged result — the local runner's merge, so
        the deterministic artifacts are byte-identical to a serial
        run."""
        return self.campaign.collect()

    def run(self, wait_timeout: Optional[float] = None) -> CampaignResult:
        """Serve until the matrix completes, then merge and return."""
        self.start()
        try:
            if self.wait(wait_timeout):
                self.linger()
            else:
                self._echo(
                    f"[dist] coordinator timed out after {wait_timeout}s "
                    "with the matrix incomplete"
                )
        finally:
            self.stop()
        return self.collect()


class DistWorker:
    """N supervisors pointed at a remote queue (module docstring);
    ``coordinator`` is the ``HOST:PORT`` the coordinator serves on."""

    def __init__(
        self,
        coordinator: str,
        *,
        workers: int = 1,
        name: Optional[str] = None,
        poll_interval: float = 0.25,
        echo: Callable[[str], None] = _default_echo,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        host, _, port = coordinator.rpartition(":")
        if not host or "/" in host or not port.isdigit():
            raise ValueError(
                f"the coordinator address must be HOST:PORT, got "
                f"{coordinator!r}"
            )
        self.coordinator = coordinator
        self.address = (host, int(port))
        self.workers = workers
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.poll_interval = poll_interval
        self._echo = echo
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._done = False
        self._lost = False
        #: key -> cancel event of the in-flight cell (heartbeat thread
        #: fires the event when the coordinator reports the lease gone)
        self._held: Dict[str, threading.Event] = {}
        #: the coordinator's execution policy, set by the handshake
        self._policy = ExecutionPolicy()
        self.lease_seconds = DEFAULT_LEASE_S

    # -- plumbing ----------------------------------------------------------

    def _call(self, op: str, timeout: float = 10.0,
              **fields) -> Optional[Dict]:
        """One exchange on its own connection: connect, ``hello``,
        ``op``, close — so a stopped coordinator fails every later call.
        Returns the op's reply (the hello reply for ``op="hello"``), or
        None when the coordinator refused it (:data:`REFUSALS`; logged).
        Raises ``OSError`` or :class:`WireError` on a transport failure
        or a refused handshake."""
        with dial(self.address, timeout) as sock, \
                sock.makefile("rb") as rfile:
            def call(frame: Dict) -> Dict:
                sock.sendall(encode_frame(frame))
                reply = read_frame(rfile)
                if reply is None:
                    raise WireError("the coordinator closed the connection")
                return reply

            reply = handshake(call, PROTOCOL_VERSION)
            if op != "hello":
                reply = call({"op": op, "worker": self.name, **fields})
        if reply.get("ok"):
            return reply
        err = reply.get("error") or {}
        if err.get("code") in REFUSALS:
            self._echo(
                f"[worker {self.name}] {op} refused "
                f"({err['code']}: {err.get('detail')})"
            )
            return None
        raise WireError(f"{op} failed: {err}", code=err.get("code"))

    def _finish(self) -> None:
        """The matrix is done: stop every thread and cancel any
        in-flight cell (globally complete, so a local run still going
        is a stale duplicate).  One supervisor observing the ack is
        enough — the rest must not need their own round-trip, because
        the coordinator only lingers briefly after completion."""
        with self._lock:
            if self._done:
                return
            self._done = True
            held = list(self._held.values())
        for event in held:
            event.set()
        self._stop.set()

    def _coordinator_lost(self, why: str) -> None:
        with self._lock:
            # A vanished coordinator after the done ack is the natural
            # end of the campaign, not a crash.
            if self._lost or self._done:
                return
            self._lost = True
            held = list(self._held.values())
        self._echo(
            f"[worker {self.name}] coordinator lost ({why}); cancelling "
            f"{len(held)} in-flight cell(s) and exiting"
        )
        for event in held:
            event.set()
        self._stop.set()

    def _guarded(self, loop: Callable, *args) -> None:
        """Run one worker thread's loop.  A loop that ends while the
        worker still runs died on an exception (say, a reply it cannot
        read): without it the worker can no longer tell a lost
        coordinator from a slow one, so it stops rather than wedge or
        exit 0 with the matrix unfinished."""
        try:
            loop(*args)
        finally:
            if not self._stop.is_set():
                self._coordinator_lost(
                    f"{threading.current_thread().name} stopped"
                )

    def _heartbeat_loop(self, interval: float) -> None:
        misses = 0
        while not self._stop.wait(interval):
            with self._lock:
                keys = list(self._held)
            try:
                body = self._call(
                    "heartbeat", min(10.0, self.lease_seconds), keys=keys,
                )
            except (OSError, WireError) as exc:
                misses += 1
                if misses >= HEARTBEAT_MISS_BUDGET:
                    self._coordinator_lost(
                        f"{misses} consecutive heartbeat failures: {exc}"
                    )
                    return
                continue
            misses = 0
            if body is None:
                continue
            if body.get("done"):
                self._finish()
                return
            still_held = set(body.get("keys") or [])
            with self._lock:
                lost = [
                    (key, event) for key, event in self._held.items()
                    if key not in still_held
                ]
            for key, event in lost:
                self._echo(
                    f"[worker {self.name}] lease on {key} lost "
                    "(stolen after expiry); cancelling the in-flight run"
                )
                event.set()

    def _execute(self, cell: CampaignCell, adaptive: Optional[float],
                 cancel: threading.Event) -> CellOutcome:
        return execute_cell(cell, replace(
            self._policy, adaptive_timeout=adaptive, cancel=cancel,
        ))

    def _upload(self, outcome: CellOutcome) -> bool:
        checkpoint = store.build_checkpoint(outcome)
        for attempt in UPLOAD_RETRY.attempts():
            try:
                # A refusal is never retried: the coordinator logged why
                # and kept its canonical result.
                return self._call(
                    "upload", 30.0, checkpoint=checkpoint,
                    upload_attempt=attempt,
                ) is not None
            except (OSError, WireError) as exc:
                failure = exc
        self._coordinator_lost(
            f"upload failed {UPLOAD_RETRY.max_attempts}x: {failure}"
        )
        return False

    def _supervisor(self) -> None:
        while not self._stop.is_set():
            try:
                body = self._call("lease")
            except (OSError, WireError):
                body = None  # transient: the heartbeat loop owns loss
            if body is None or body.get("wait"):
                retry_after = (body or {}).get("retry_after")
                if self._stop.wait(float(retry_after or self.poll_interval)):
                    return
                continue
            if body.get("done"):
                self._finish()
                return
            try:
                cell = cell_from_wire(body.get("cell") or {})
            except WireError as exc:
                self._echo(f"[worker {self.name}] bad lease: {exc}")
                if self._stop.wait(self.poll_interval):
                    return
                continue
            cancel = threading.Event()
            with self._lock:
                self._held[cell.key] = cancel
            try:
                outcome = self._execute(
                    cell, body.get("adaptive_timeout"), cancel
                )
            finally:
                with self._lock:
                    self._held.pop(cell.key, None)
            if outcome.cancelled:
                self._echo(
                    f"[worker {self.name}] {cell.key}: cancelled "
                    "(not uploaded)"
                )
                continue
            self._upload(outcome)

    def run(self) -> int:
        """Work the queue until the coordinator reports the matrix done
        (exit 0) or becomes unreachable (exit 3); a coordinator that
        refuses the handshake, or answers it with something that is not
        a frame, exits 2."""
        info = None
        for _ in HANDSHAKE_RETRY.attempts():
            try:
                info = self._call("hello")
                break
            except WireError as exc:
                if exc.code is not None:
                    self._echo(f"[worker {self.name}] {exc}")
                    return EXIT_PROTOCOL
            except OSError:
                pass
        if info is None:
            self._echo(
                f"[worker {self.name}] no coordinator at {self.coordinator}"
            )
            return EXIT_COORDINATOR_LOST
        policy = info.get("policy") or {}
        self._policy = ExecutionPolicy(
            timeout=policy.get("timeout"),
            retry=RetryPolicy(
                max_attempts=int(policy.get("max_attempts", 3)),
                backoff_base=float(policy.get("backoff_base", 0.5)),
                backoff_cap=float(policy.get("backoff_cap", 30.0)),
            ),
        )
        self.lease_seconds = float(
            info.get("lease_seconds", DEFAULT_LEASE_S)
        )
        interval = max(0.2, self.lease_seconds / 3.0)
        self._echo(
            f"[worker {self.name}] joined {self.coordinator}: "
            f"{info.get('cells')} cell(s), "
            f"{self.workers} supervisor(s), lease {self.lease_seconds}s"
        )
        heart = threading.Thread(
            target=self._guarded, args=(self._heartbeat_loop, interval),
            name="dist-heartbeat", daemon=True,
        )
        heart.start()
        threads = [
            threading.Thread(target=self._guarded, args=(self._supervisor,),
                             name=f"dist-supervisor-{i}", daemon=True)
            for i in range(self.workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self._stop.set()
        heart.join(timeout=5.0)
        return EXIT_COORDINATOR_LOST if self._lost else EXIT_OK


def worker_env() -> Dict[str, str]:
    """A subprocess environment whose ``PYTHONPATH`` can import this
    package (workers are plain ``python -m repro.harness worker``
    processes)."""
    env = dict(os.environ)
    src = os.path.dirname(  # src/repro/harness -> src
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    parts = [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                     if p and p != src]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def spawn_worker(
    address: str,
    *,
    workers: int = 1,
    name: Optional[str] = None,
    extra_args: Sequence[str] = (),
) -> subprocess.Popen:
    """Launch one worker process against the coordinator at ``address``
    (``HOST:PORT``; loopback fleets: the dist benchmark, the CI smoke
    job, the tests)."""
    cmd = [
        sys.executable, "-m", "repro.harness", "worker",
        "--coordinator", address, "--workers", str(workers),
    ]
    if name:
        cmd += ["--name", name]
    cmd += list(extra_args)
    return subprocess.Popen(cmd, env=worker_env())

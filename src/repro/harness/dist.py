"""Distributed campaign execution: work-stealing coordinator + workers.

The local campaign runner drives a :class:`repro.harness.runner.Campaign`
from supervisor threads; this module drives the *same* campaign object
across machines while keeping every determinism guarantee:

**Coordinator** (:class:`CampaignCoordinator`).  A dumb HTTP server
(stdlib ``http.server``, JSON bodies — :mod:`repro.harness.distproto`)
in front of one ``Campaign``, which owns the cell matrix, the campaign
directory, the counters, resume and the merge.  The coordinator runs no
cells itself and keeps only what a fleet adds: the HTTP surface, lease
expiry (workers heartbeat to extend their leases; the campaign re-leases
— steals — a cell whose lease expired, so a wedged or dead worker delays
only its own cells), upload validation and result-hash dedup.  Because
booking, checkpointing and resume are the campaign's, the campaign
directory *is* the local runner's checkpoint store: ``--resume``
restores a half-finished distributed campaign (same torn-write
corroboration), a serial run can finish a campaign a fleet started, and
vice versa.

**Worker** (:class:`DistWorker`, ``python -m repro.harness worker
--coordinator URL``).  N of today's supervisors pointed at a remote
queue: each supervisor leases a cell, reconstructs it from the wire
recipe (import-by-name, config hash re-verified), runs it through the
exact :func:`repro.harness.runner.execute_cell` retry/backoff/reseed
loop the local runner uses, and uploads the exact checkpoint payload
the local runner would have written.  A shared heartbeat thread extends
leases; a cell missing from the heartbeat response was stolen and its
in-flight child is terminated via the crash-isolation cancel event.
When the coordinator stays unreachable past the miss budget the worker
cancels everything and exits with code 3 — losing the coordinator can
never wedge a fleet.

**Determinism.**  Cells are keyed by the existing config hash; uploads
are validated with the same :func:`repro.harness.store.validate_checkpoint`
the local resume path trusts, and a malformed request gets a 400
instead of a dropped connection; duplicate uploads after a lease steal
are deduplicated by :func:`repro.harness.store.result_hash` (status+table
only — durations legitimately differ), and a *mismatched* duplicate is
a determinism violation: counted (``harness.dist.upload_conflicts``),
rejected with 409, first write wins.  The merged ``tables.json`` and
``counters.json`` come from the campaign's own merge in canonical cell
order, so any worker count on any number of machines is byte-identical
to the serial runner (``ops_counters.json`` carries the run-shape
``harness.campaign.*``/``harness.dist.*`` counters that legitimately
differ).  See docs/ROBUSTNESS.md for the protocol and failure modes.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Sequence

from . import store
from .distproto import (
    PROTOCOL_VERSION,
    ProtocolError,
    cell_from_wire,
    cell_to_wire,
    check_version,
    get_json,
    post_json,
    read_request_json,
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

#: every ``harness.dist.*`` rollup the coordinator maintains
#: (docs/OBSERVABILITY.md documents each; tools/check_doc_links.py
#: parses this tuple)
DIST_COUNTER_LEAVES = (
    "leases", "steals", "lease_expiries", "uploads", "upload_retries",
    "upload_dedup", "upload_conflicts", "upload_rejected", "heartbeats",
    "workers",
)


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP adapter; all campaign logic lives on the coordinator."""

    protocol_version = "HTTP/1.1"

    @property
    def coord(self) -> "CampaignCoordinator":
        return self.server.coordinator  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # noqa: D102 - silence stderr spam
        pass

    def _reply(self, status: int, payload: Dict) -> None:
        blob = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def do_GET(self):  # noqa: N802 - http.server API
        if self.path == "/campaign":
            self._reply(200, self.coord.describe())
        elif self.path == "/status":
            self._reply(200, self.coord.status())
        else:
            self._reply(404, {"error": f"unknown path {self.path}"})

    def do_POST(self):  # noqa: N802 - http.server API
        body = read_request_json(self)
        if body is None:
            self._reply(400, {"error": "malformed JSON request body"})
            return
        worker = str(body.get("worker"))
        if self.path == "/lease":
            self._reply(200, self.coord.lease(worker))
        elif self.path == "/heartbeat":
            keys = body.get("keys") or []
            if isinstance(keys, list) and all(isinstance(k, str)
                                              for k in keys):
                self._reply(200, self.coord.heartbeat(worker, keys))
            else:
                self._reply(400, {"error": "keys must be a list of cell keys"})
        elif self.path == "/upload":
            self._reply(*self.coord.upload(
                worker, body.get("checkpoint"),
                body.get("upload_attempt", 1),
            ))
        else:
            self._reply(404, {"error": f"unknown path {self.path}"})


class CampaignCoordinator:
    """Serves one :class:`repro.harness.runner.Campaign` to remote
    workers (module docstring).  ``run()`` blocks until the matrix
    completes and returns the same :class:`CampaignResult` the local
    runner would."""

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
        self.host = host
        self.port = port
        self._echo = echo
        self._lock = threading.Lock()
        self._by_key = {cell.key: cell for cell in self.cells}
        self._workers: set = set()
        #: workers that have been *told* the matrix is done (via /lease
        #: or /heartbeat) — run() keeps serving until this covers
        #: _workers, so fleet workers exit 0 instead of mistaking the
        #: natural end of the campaign for a coordinator crash
        self._done_acked: set = set()
        self._server: Optional[ThreadingHTTPServer] = None
        self.url: Optional[str] = None

    # -- request handlers (called from server threads) ---------------------

    def describe(self) -> Dict:
        """``GET /campaign``: the handshake payload."""
        retry = self.policy.retry
        return {
            "protocol": PROTOCOL_VERSION,
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
        """``GET /status``: progress snapshot."""
        with self.campaign.lock:
            done = len(self.campaign.outcomes)
            leased = len(self.campaign.leases)
        return {
            "protocol": PROTOCOL_VERSION,
            "complete": self.campaign.finished.is_set(),
            "pending": len(self.cells) - done - leased,
            "leased": leased,
            "done": done,
        }

    def lease(self, worker: str) -> Dict:
        """``POST /lease``: hand out the next cell in canonical order —
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
                    return {"done": True}
                return {"wait": True, "retry_after": 0.5}
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
            "cell": cell_to_wire(cell),
            "lease_seconds": self.lease_seconds,
        }
        hint = self.campaign.timeouts.get(cell.key)
        if hint is not None:
            response["adaptive_timeout"] = hint
        return response

    def heartbeat(self, worker: str, keys: List[str]) -> Dict:
        """``POST /heartbeat``: extend the worker's live leases; the
        response lists the keys it still holds (a missing key was
        stolen — the worker cancels that cell)."""
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
        return {"keys": held, "done": done}

    def upload(self, worker, data, upload_attempt=1):
        """``POST /upload``: validate one finished cell and complete it
        on the campaign; returns ``(http_status, payload)``.  Duplicates
        after a steal dedupe by result hash; mismatched duplicates are
        determinism violations (409, first write wins)."""
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
            return 400, {"error": problem}
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
                return 200, {"ok": True, "dedup": False}
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
                return 200, {"ok": True, "dedup": True}
            self.counters.counter("harness.dist.upload_conflicts").add(1)
        self._echo(
            f"[dist] {key}: CONFLICTING duplicate upload from {worker!r} "
            "— determinism violation (kept the first result)"
        )
        return 409, {"error": "result hash conflict", "kept": kept,
                     "got": rhash}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> str:
        """Bind the server, open the campaign (restoring checkpoints on
        ``resume``), write ``coordinator.json`` and start serving in
        background threads; returns the coordinator URL."""
        server = ThreadingHTTPServer((self.host, self.port), _Handler)
        server.coordinator = self  # type: ignore[attr-defined]
        server.daemon_threads = True
        self._server = server
        self.port = server.server_address[1]
        self.url = f"http://{self.host}:{self.port}"
        self.campaign.open()
        store.write_json(
            os.path.join(self.out_dir, "coordinator.json"),
            {"url": self.url, "pid": os.getpid(),
             "protocol": PROTOCOL_VERSION,
             "lease_seconds": self.lease_seconds},
        )
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.1},
            name="dist-coordinator", daemon=True,
        )
        thread.start()
        self._echo(
            f"[dist] coordinator serving {len(self.cells)} cell(s) at "
            f"{self.url} ({len(self.campaign.outcomes)} restored)"
        )
        return self.url

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the matrix completes (True) or ``timeout``."""
        return self.campaign.finished.wait(timeout)

    def linger(self, timeout: Optional[float] = None) -> None:
        """After completion, keep serving until every worker that ever
        leased has been told the matrix is done (``/lease`` or
        ``/heartbeat`` carries the ack), so workers exit 0 instead of
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
        """Shut the HTTP server down (idempotent)."""
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()
            server.server_close()

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
    """N supervisors pointed at a remote queue (module docstring)."""

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
        self.url = coordinator.rstrip("/")
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

    def _heartbeat_loop(self, interval: float) -> None:
        misses = 0
        while not self._stop.wait(interval):
            with self._lock:
                keys = list(self._held)
            try:
                status, body = post_json(
                    f"{self.url}/heartbeat",
                    {"worker": self.name, "keys": keys},
                    timeout=min(10.0, self.lease_seconds),
                )
            except OSError as exc:
                misses += 1
                if misses >= HEARTBEAT_MISS_BUDGET:
                    self._coordinator_lost(
                        f"{misses} consecutive heartbeat failures: {exc}"
                    )
                    return
                continue
            misses = 0
            if status != 200:
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
        payload = {
            "worker": self.name,
            "checkpoint": store.build_checkpoint(outcome),
        }
        for attempt in UPLOAD_RETRY.attempts():
            payload["upload_attempt"] = attempt
            try:
                status, body = post_json(
                    f"{self.url}/upload", payload, timeout=30.0
                )
            except OSError as exc:
                error = exc
                continue
            if status == 200:
                return True
            # 400 (rejected) and 409 (conflict) are never retryable: the
            # coordinator logged why and kept its canonical result.
            self._echo(
                f"[worker {self.name}] upload of {outcome.cell.key} "
                f"refused ({status}: {body.get('error')})"
            )
            return False
        self._coordinator_lost(
            f"upload failed {UPLOAD_RETRY.max_attempts}x: {error}"
        )
        return False

    def _supervisor(self) -> None:
        while not self._stop.is_set():
            try:
                status, body = post_json(
                    f"{self.url}/lease", {"worker": self.name},
                    timeout=10.0,
                )
            except OSError:
                # Transient: the heartbeat loop owns loss detection.
                if self._stop.wait(self.poll_interval):
                    return
                continue
            if status != 200:
                if self._stop.wait(self.poll_interval):
                    return
                continue
            if body.get("done"):
                self._finish()
                return
            if body.get("wait"):
                if self._stop.wait(
                    float(body.get("retry_after", self.poll_interval))
                ):
                    return
                continue
            try:
                cell = cell_from_wire(body.get("cell") or {})
            except ProtocolError as exc:
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
        (exit 0) or becomes unreachable (exit 3)."""
        handshake = None
        for _ in HANDSHAKE_RETRY.attempts():
            try:
                handshake = get_json(f"{self.url}/campaign", timeout=10.0)
                break
            except OSError:
                continue
        if handshake is None:
            self._echo(
                f"[worker {self.name}] no coordinator at {self.url}"
            )
            return EXIT_COORDINATOR_LOST
        try:
            check_version(handshake, "coordinator")
        except ProtocolError as exc:
            self._echo(f"[worker {self.name}] {exc}")
            return EXIT_PROTOCOL
        policy = handshake.get("policy") or {}
        self._policy = ExecutionPolicy(
            timeout=policy.get("timeout"),
            retry=RetryPolicy(
                max_attempts=int(policy.get("max_attempts", 3)),
                backoff_base=float(policy.get("backoff_base", 0.5)),
                backoff_cap=float(policy.get("backoff_cap", 30.0)),
            ),
        )
        self.lease_seconds = float(
            handshake.get("lease_seconds", DEFAULT_LEASE_S)
        )
        interval = max(0.2, self.lease_seconds / 3.0)
        self._echo(
            f"[worker {self.name}] joined {self.url}: "
            f"{handshake.get('cells')} cell(s), "
            f"{self.workers} supervisor(s), lease {self.lease_seconds}s"
        )
        heart = threading.Thread(
            target=self._heartbeat_loop, args=(interval,),
            name="dist-heartbeat", daemon=True,
        )
        heart.start()
        threads = [
            threading.Thread(target=self._supervisor,
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
    url: str,
    *,
    workers: int = 1,
    name: Optional[str] = None,
    extra_args: Sequence[str] = (),
) -> subprocess.Popen:
    """Launch one worker process against ``url`` (loopback fleets: the
    dist benchmark, the CI smoke job, the tests)."""
    cmd = [
        sys.executable, "-m", "repro.harness", "worker",
        "--coordinator", url, "--workers", str(workers),
    ]
    if name:
        cmd += ["--name", name]
    cmd += list(extra_args)
    return subprocess.Popen(cmd, env=worker_env())

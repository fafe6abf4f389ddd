"""Distributed campaign execution: work-stealing coordinator + workers.

The PR 3 campaign runner shards a matrix across local supervisor
threads; this module generalizes the same supervisor/checkpoint
protocol across *machines* while keeping every determinism guarantee:

**Coordinator** (:class:`CampaignCoordinator`).  A dumb HTTP server
(stdlib ``http.server``, JSON bodies — :mod:`repro.harness.distproto`)
that owns the cell matrix and the campaign directory.  It runs no cells
itself; it leases cells to workers **in canonical cell order**, extends
leases on heartbeats, re-leases (steals) cells whose lease expired — a
wedged or dead worker delays only its own cells — and persists
validated checkpoint uploads through the same
:mod:`repro.harness.store` layer the local runner writes through.  The
campaign directory *is* the local runner's checkpoint store, so
``--resume`` restores a half-finished distributed campaign (same torn-
write corroboration), a serial run can finish a campaign a fleet
started, and vice versa.

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
the local resume path trusts; duplicate uploads after a lease steal are
deduplicated by :func:`repro.harness.store.result_hash` (status+table
only — durations legitimately differ), and a *mismatched* duplicate is
a determinism violation: counted (``harness.dist.upload_conflicts``),
rejected with 409, first write wins.  The merged ``tables.json`` and
``counters.json`` are assembled by the shared
:func:`repro.harness.runner.merge_outcomes` in canonical cell order, so
any worker count on any number of machines is byte-identical to the
serial runner (``ops_counters.json`` carries the run-shape
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
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Sequence

from repro.telemetry.counters import CounterRegistry, merge_dumps

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
from .isolation import ExperimentFailure
from .results import ExperimentTable
from .runner import (
    CAMPAIGN_COUNTER_LEAVES,
    CampaignCell,
    CampaignResult,
    CellOutcome,
    ExecutionPolicy,
    TimeoutHistory,
    _default_echo,
    derive_adaptive_timeouts,
    execute_cell,
    load_timeout_history,
    merge_outcomes,
    restore_outcome,
)

#: default lease duration; a worker heartbeats at a third of this, so a
#: dead worker's cells are re-leased after at most one lease period
DEFAULT_LEASE_S = 15.0

#: consecutive failed heartbeats before a worker declares the
#: coordinator lost, cancels its in-flight cells and exits (code 3)
HEARTBEAT_MISS_BUDGET = 3

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


def outcome_from_checkpoint(cell: CampaignCell, data: Dict) -> CellOutcome:
    """Rehydrate a validated checkpoint payload (an upload, or a file
    restored from disk) into the outcome the local runner would have
    produced."""
    if data["status"] == "ok":
        table: Optional[ExperimentTable] = (
            ExperimentTable.from_dict(data["table"])
        )
        failure: Optional[ExperimentFailure] = None
    else:
        table = None
        rec = data["failure"]
        failure = ExperimentFailure(
            name=cell.key,
            kind=rec.get("kind", "Unknown"),
            message=rec.get("message", ""),
            traceback_text=rec.get("traceback", "") or "",
            attempts=int(rec.get("attempts", 1)),
            kwargs=dict(cell.kwargs),
        )
    return CellOutcome(
        cell=cell,
        table=table,
        failure=failure,
        ledger=list(data.get("ledger", [])),
        duration_s=float(data.get("duration_s", 0.0)),
    )


class _CellState:
    """Coordinator-side bookkeeping for one cell."""

    __slots__ = ("cell", "status", "worker", "expiry", "result_hash")

    def __init__(self, cell: CampaignCell) -> None:
        self.cell = cell
        self.status = "pending"  # pending | leased | done
        self.worker: Optional[str] = None
        self.expiry: Optional[float] = None
        self.result_hash: Optional[str] = None


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
        if self.path == "/lease":
            self._reply(200, self.coord.lease(str(body.get("worker"))))
        elif self.path == "/heartbeat":
            self._reply(200, self.coord.heartbeat(
                str(body.get("worker")), list(body.get("keys") or [])
            ))
        elif self.path == "/upload":
            status, payload = self.coord.upload(
                str(body.get("worker")),
                body.get("checkpoint"),
                int(body.get("upload_attempt", 1)),
            )
            self._reply(status, payload)
        else:
            self._reply(404, {"error": f"unknown path {self.path}"})


class CampaignCoordinator:
    """Owns a campaign matrix and serves it to workers (module
    docstring).  ``run()`` blocks until the matrix completes and returns
    the same :class:`CampaignResult` the local runner would."""

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
        keys = [cell.key for cell in cells]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"duplicate cell keys: {dupes}")
        if out_dir is None:
            raise ValueError(
                "the coordinator requires an out_dir: the campaign "
                "directory is the checkpoint store workers upload into"
            )
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be > 0")
        self.cells = list(cells)
        self.out_dir = out_dir
        self.resume = resume
        self.timeout = timeout
        self.adaptive_timeout = adaptive_timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.lease_seconds = lease_seconds
        self.host = host
        self.port = port
        self._echo = echo
        self._lock = threading.Lock()
        self._complete = threading.Event()
        self._states: Dict[str, _CellState] = {
            cell.key: _CellState(cell) for cell in self.cells
        }
        self._outcomes: Dict[str, CellOutcome] = {}
        self._workers: set = set()
        #: workers that have been *told* the matrix is done (via /lease
        #: or /heartbeat) — run() keeps serving until this covers
        #: _workers, so fleet workers exit 0 instead of mistaking the
        #: natural end of the campaign for a coordinator crash
        self._done_acked: set = set()
        self._history = TimeoutHistory()
        self._cell_timeouts: Dict[str, float] = {}
        self._server: Optional[ThreadingHTTPServer] = None
        self.url: Optional[str] = None
        self.counters = CounterRegistry()
        self.counters.metadata.update(
            campaign="harness", workers="dist", resume=resume,
        )
        for leaf in CAMPAIGN_COUNTER_LEAVES:
            self.counters.counter(f"harness.campaign.{leaf}")
        for leaf in DIST_COUNTER_LEAVES:
            self.counters.counter(f"harness.dist.{leaf}")

    # -- request handlers (called from server threads) ---------------------

    def describe(self) -> Dict:
        """``GET /campaign``: the handshake payload."""
        with self._lock:
            return {
                "protocol": PROTOCOL_VERSION,
                "lease_seconds": self.lease_seconds,
                "policy": {
                    "timeout": self.timeout,
                    "max_attempts": self.max_attempts,
                    "backoff_base": self.backoff_base,
                    "backoff_cap": self.backoff_cap,
                },
                "cells": len(self.cells),
                "done": len(self._outcomes),
            }

    def status(self) -> Dict:
        """``GET /status``: progress snapshot."""
        with self._lock:
            by_status: Dict[str, int] = {
                "pending": 0, "leased": 0, "done": 0
            }
            for state in self._states.values():
                by_status[state.status] += 1
            return {
                "protocol": PROTOCOL_VERSION,
                "complete": self._complete.is_set(),
                **by_status,
            }

    def lease(self, worker: str) -> Dict:
        """``POST /lease``: hand out the next cell in canonical order —
        first pending cell, else the first leased cell whose lease
        expired (a steal)."""
        now = time.monotonic()
        with self._lock:
            if worker not in self._workers:
                self._workers.add(worker)
                self.counters.counter("harness.dist.workers").add(1)
            pending: Optional[_CellState] = None
            expired: Optional[_CellState] = None
            for cell in self.cells:
                state = self._states[cell.key]
                if state.status == "pending":
                    pending = state
                    break
                if (
                    state.status == "leased"
                    and state.expiry is not None
                    and now >= state.expiry
                    and expired is None
                ):
                    expired = state
                    # keep scanning: a pending cell still wins, so the
                    # steal is the *fallback* in canonical order
            chosen = pending if pending is not None else expired
            stolen = pending is None and expired is not None
            if chosen is None:
                if all(
                    s.status == "done" for s in self._states.values()
                ):
                    self._done_acked.add(worker)
                    return {"done": True}
                return {"wait": True, "retry_after": 0.5}
            if stolen:
                self.counters.counter("harness.dist.steals").add(1)
                self.counters.counter("harness.dist.lease_expiries").add(1)
                self._echo(
                    f"[dist] {chosen.cell.key}: lease expired on "
                    f"{chosen.worker!r}, re-leased to {worker!r}"
                )
            chosen.status = "leased"
            chosen.worker = worker
            chosen.expiry = now + self.lease_seconds
            self.counters.counter("harness.dist.leases").add(1)
            response = {
                "cell": cell_to_wire(chosen.cell),
                "lease_seconds": self.lease_seconds,
            }
            hint = self._cell_timeouts.get(chosen.cell.key)
            if hint is not None:
                response["adaptive_timeout"] = hint
            return response

    def heartbeat(self, worker: str, keys: List[str]) -> Dict:
        """``POST /heartbeat``: extend the worker's live leases; the
        response lists the keys it still holds (a missing key was
        stolen — the worker cancels that cell)."""
        now = time.monotonic()
        held: List[str] = []
        with self._lock:
            self.counters.counter("harness.dist.heartbeats").add(1)
            for key in keys:
                state = self._states.get(key)
                if (
                    state is not None
                    and state.status == "leased"
                    and state.worker == worker
                ):
                    state.expiry = now + self.lease_seconds
                    held.append(key)
            done = self._complete.is_set()
            if done:
                self._done_acked.add(worker)
            return {"keys": held, "done": done}

    def upload(self, worker, data, upload_attempt: int = 1):
        """``POST /upload``: validate and persist one finished cell;
        returns ``(http_status, payload)``.  Duplicates after a steal
        dedupe by result hash; mismatched duplicates are determinism
        violations (409, first write wins)."""
        if not isinstance(data, dict) or "key" not in data:
            with self._lock:
                self.counters.counter("harness.dist.upload_rejected").add(1)
            return 400, {"error": "malformed checkpoint payload"}
        key = data.get("key")
        state = self._states.get(key)
        if state is None:
            with self._lock:
                self.counters.counter("harness.dist.upload_rejected").add(1)
            return 400, {"error": f"unknown cell {key!r}"}
        cell = state.cell
        problem = store.validate_checkpoint(data, cell.key,
                                            cell.config_hash())
        if problem is not None:
            with self._lock:
                self.counters.counter("harness.dist.upload_rejected").add(1)
            self._echo(f"[dist] {key}: rejected upload from "
                       f"{worker!r} ({problem})")
            return 400, {"error": problem}
        rhash = store.result_hash(data)
        with self._lock:
            self.counters.counter("harness.dist.uploads").add(1)
            self.counters.counter("harness.dist.upload_retries").add(
                max(0, upload_attempt - 1)
            )
            if state.status == "done":
                if state.result_hash == rhash:
                    self.counters.counter("harness.dist.upload_dedup").add(1)
                    self._echo(
                        f"[dist] {key}: duplicate upload from {worker!r} "
                        "deduplicated (result hashes match)"
                    )
                    return 200, {"ok": True, "dedup": True}
                self.counters.counter(
                    "harness.dist.upload_conflicts"
                ).add(1)
                self._echo(
                    f"[dist] {key}: CONFLICTING duplicate upload from "
                    f"{worker!r} — determinism violation (kept the "
                    "first result)"
                )
                return 409, {"error": "result hash conflict",
                             "kept": state.result_hash, "got": rhash}
            outcome = outcome_from_checkpoint(cell, data)
            # Persist the upload verbatim through the shared store: the
            # file is byte-compatible with a locally written checkpoint
            # (resume works across machines and run modes).
            store.write_json(
                store.checkpoint_path(self.out_dir, cell.key,
                                      cell.config_hash()),
                data, compress=True,
            )
            state.status = "done"
            state.worker = worker
            state.result_hash = rhash
            self._outcomes[cell.key] = outcome
            self._book(outcome)
            if outcome.ok:
                self._history.record(cell, outcome.duration_s)
            self._write_manifest_locked()
            remaining = sum(
                1 for s in self._states.values() if s.status != "done"
            )
            self._echo(
                f"[dist] {key}: "
                + ("ok" if outcome.ok else
                   f"FAILED ({outcome.failure.kind})")
                + f" from {worker!r} ({remaining} cell(s) remaining)"
            )
            if remaining == 0:
                self._complete.set()
        return 200, {"ok": True, "dedup": False}

    def _book(self, outcome: CellOutcome) -> None:
        """Mirror the local runner's campaign counters (lock held)."""
        ctr = self.counters.counter
        ctr("harness.campaign.attempts").add(len(outcome.ledger))
        ctr("harness.campaign.retries").add(
            max(0, len(outcome.ledger) - 1)
        )
        ctr("harness.campaign.backoff_seconds").add(
            sum(e.get("backoff_s", 0.0) for e in outcome.ledger)
        )
        if outcome.restored:
            ctr("harness.campaign.skipped").add(1)
        elif outcome.ok:
            ctr("harness.campaign.completed").add(1)
        else:
            ctr("harness.campaign.failed").add(1)

    def _write_manifest_locked(self) -> Optional[str]:
        payload = store.manifest_payload(
            self.cells, self._outcomes, out_dir=self.out_dir,
            workers=f"dist:{len(self._workers)}", degraded=False,
            resume=self.resume,
            extra={"coordinator": {"url": self.url,
                                   "protocol": PROTOCOL_VERSION}},
        )
        path = store.manifest_path(self.out_dir)
        store.write_json(path, payload)
        return path

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> str:
        """Bind the server, restore checkpoints (``resume``), write
        ``coordinator.json`` and start serving in background threads;
        returns the coordinator URL."""
        self.counters.counter("harness.campaign.cells").add(len(self.cells))
        if self.adaptive_timeout:
            self._cell_timeouts = derive_adaptive_timeouts(
                self.cells, load_timeout_history(self.out_dir),
                timeout=self.timeout,
            )
            if self._cell_timeouts:
                self.counters.counter(
                    "harness.campaign.adaptive_timeouts"
                ).add(len(self._cell_timeouts))
        if self.resume:
            manifest = store.load_manifest_entries(self.out_dir)
            for cell in self.cells:
                outcome, torn = restore_outcome(
                    cell, self.out_dir, manifest
                )
                if torn:
                    self.counters.counter("harness.campaign.torn").add(1)
                    self._echo(
                        f"[dist] {cell.key}: checkpoint not corroborated "
                        "by the manifest (torn write); re-running"
                    )
                if outcome is None:
                    continue
                state = self._states[cell.key]
                state.status = "done"
                state.result_hash = store.result_hash(
                    store.build_checkpoint(outcome)
                )
                self._outcomes[cell.key] = outcome
                self._book(outcome)
                self._echo(f"[dist] {cell.key}: restored from checkpoint")
            if len(self._outcomes) == len(self.cells):
                self._complete.set()
        server = ThreadingHTTPServer((self.host, self.port), _Handler)
        server.coordinator = self  # type: ignore[attr-defined]
        server.daemon_threads = True
        self._server = server
        self.port = server.server_address[1]
        self.url = f"http://{self.host}:{self.port}"
        store.write_json(
            os.path.join(self.out_dir, "coordinator.json"),
            {"url": self.url, "pid": os.getpid(),
             "protocol": PROTOCOL_VERSION,
             "lease_seconds": self.lease_seconds},
        )
        with self._lock:
            self._write_manifest_locked()
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.1},
            name="dist-coordinator", daemon=True,
        )
        thread.start()
        self._echo(
            f"[dist] coordinator serving {len(self.cells)} cell(s) at "
            f"{self.url} ({len(self._outcomes)} restored)"
        )
        return self.url

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the matrix completes (True) or ``timeout``."""
        return self._complete.wait(timeout)

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
        """Assemble the final result exactly like the local runner's
        ``_collect`` — shared merge, shared artifact writer — so the
        deterministic artifacts are byte-identical to a serial run."""
        with self._lock:
            outcomes = dict(self._outcomes)
            manifest_path = self._write_manifest_locked()
            ops_dump = self.counters.to_dict()
        merged = merge_outcomes(self.cells, outcomes)
        cell_dumps = merged["cell_dumps"]
        counters = merge_dumps([ops_dump] + cell_dumps)
        self._history.flush(self.out_dir)
        paths = store.write_merge_artifacts(
            self.out_dir, merged["tables"], cell_dumps, [ops_dump]
        )
        return CampaignResult(
            tables=merged["tables"],
            failures=merged["failures"],
            completed=merged["completed"],
            skipped=merged["skipped"],
            failed=merged["failed"],
            not_run=merged["not_run"],
            group_seconds=merged["group_seconds"],
            degraded=False,
            counters=counters,
            failed_groups=merged["failed_groups"],
            manifest_path=manifest_path,
            counters_path=paths["counters"],
            ops_counters_path=paths["ops_counters"],
            tables_path=paths["tables"],
        )

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
        self._policy: Dict = {}
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
        policy = ExecutionPolicy(
            timeout=self._policy.get("timeout"),
            adaptive_timeout=adaptive,
            max_attempts=int(self._policy.get("max_attempts", 3)),
            backoff_base=float(self._policy.get("backoff_base", 0.5)),
            backoff_cap=float(self._policy.get("backoff_cap", 30.0)),
            cancel=cancel,
        )
        return execute_cell(cell, policy)

    def _upload(self, outcome: CellOutcome) -> bool:
        payload = {
            "worker": self.name,
            "checkpoint": store.build_checkpoint(outcome),
        }
        delay = 0.2
        for attempt in range(1, 4):
            payload["upload_attempt"] = attempt
            try:
                status, body = post_json(
                    f"{self.url}/upload", payload, timeout=30.0
                )
            except OSError as exc:
                if attempt == 3:
                    self._coordinator_lost(f"upload failed 3x: {exc}")
                    return False
                time.sleep(delay)
                delay *= 2
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
        delay = 0.2
        handshake = None
        for attempt in range(8):  # the coordinator may still be binding
            try:
                handshake = get_json(f"{self.url}/campaign", timeout=10.0)
                break
            except OSError:
                time.sleep(delay)
                delay = min(2.0, delay * 2)
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
        self._policy = dict(handshake.get("policy") or {})
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

"""Content-addressed storage of the campaign engine
(:class:`repro.harness.runner.Campaign`).

A campaign directory (``--out``) is a small durable store with four
kinds of artifacts, all written through this module, so the engine's
two drivers (the local ``CampaignRunner`` and the distributed
``CampaignCoordinator``) produce byte-identical layouts and each can
resume what the other started:

``cells/<key>.<config-hash>.json``
    one checkpoint per finished cell — the result table, the attempt
    ledger, the cell's counter dump.  Written **gzip-compressed** via
    atomic rename; readers sniff the two gzip magic bytes so plain-JSON
    checkpoints from older campaigns keep restoring (the filename never
    changes, so resume across the compression change is seamless).
``manifest.json``
    every cell's current status, rewritten as cells finish.  Plain JSON
    (it is the file humans and CI artifacts read first).
``timeout_history.json``
    per-cell wall-clock durations keyed by config hash, the source of
    the adaptive per-cell timeouts and ``--dry-run`` estimates.  Updated
    with an **atomic read-modify-write under a lock file**, so several
    campaign processes sharing one directory merge their histories
    instead of last-writer-wins clobbering each other.
``tables.json`` / ``counters.json`` / ``ops_counters.json``
    the merge artifacts (:func:`write_merge_artifacts`):
    ``tables.json`` and ``counters.json`` depend only on the cell matrix
    and its results (canonical cell order), so any worker count on any
    number of machines produces identical bytes; ``ops_counters.json``
    carries the run-shape counters (``harness.campaign.*``,
    ``harness.dist.*``) that legitimately differ between runs.

Checkpoint *identity* is the cell's config hash
(:meth:`repro.harness.runner.CampaignCell.config_hash`); checkpoint
*content* can additionally be summarized by :func:`result_hash`, which
hashes only the result-determining fields (status + table) — the
distributed coordinator uses it to deduplicate the same cell uploaded
by two workers after a lease steal, where volatile fields (durations)
differ but the result bytes must not.
"""

from __future__ import annotations

import gzip
import json
import os
import threading
import time
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.telemetry.counters import CounterRegistry

from .hashing import content_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runner import CampaignCell, CellOutcome

#: checkpoint/manifest schema version (bump on incompatible change;
#: gzip compression is *not* one — readers sniff the magic bytes)
CHECKPOINT_VERSION = 1

#: the two-byte gzip magic sniffed by :func:`read_json`
GZIP_MAGIC = b"\x1f\x8b"

#: lock-file staleness horizon for the timeout-history read-modify-write
#: (a crashed writer's lock older than this is broken and reclaimed)
HISTORY_LOCK_STALE_S = 10.0


# ---------------------------------------------------------------------------
# atomic JSON IO (gzip on write, magic-sniffed on read)
# ---------------------------------------------------------------------------

def _tmp_suffix() -> str:
    """Tmp-file suffix unique across processes *and* threads (several
    campaign processes may share one directory)."""
    return f".tmp.{os.getpid()}.{threading.get_ident()}"


def write_json(path: str, payload, *, compress: bool = False) -> None:
    """Write ``payload`` as canonical JSON via atomic rename; a SIGKILL
    mid-write can never leave a half-file under the final name."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + _tmp_suffix()
    blob = json.dumps(payload, indent=1, sort_keys=True).encode()
    if compress:
        # mtime=0 keeps the compressed bytes deterministic for equal
        # payloads (gzip embeds a timestamp otherwise)
        blob = gzip.compress(blob, mtime=0)
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


def read_json(path: str):
    """Read a JSON file written by :func:`write_json` — gzip-compressed
    or plain, decided by sniffing the magic bytes, so pre-compression
    campaign directories stay readable.  Raises ``OSError`` /
    ``ValueError`` like ``json.load`` would."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] == GZIP_MAGIC:
        blob = gzip.decompress(blob)
    return json.loads(blob.decode())


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def cells_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "cells")


def checkpoint_path(out_dir: str, key: str, config_hash: str) -> str:
    safe = key.replace(os.sep, "__").replace("/", "__")
    return os.path.join(cells_dir(out_dir), f"{safe}.{config_hash}.json")


def cell_counter_dump(outcome: "CellOutcome") -> Dict:
    """The cell's own counter dump — everything in it derives from the
    attempt ledger, so a restored cell dumps identically to the fresh
    run that produced its checkpoint (the deterministic-merge contract
    depends on this)."""
    cell = outcome.cell
    reg = CounterRegistry()
    reg.metadata.update(
        cell=cell.key,
        group=cell.group,
        config_hash=cell.config_hash(),
    )
    reg.counter("harness.cell.attempts").add(len(outcome.ledger))
    reg.counter("harness.cell.retries").add(max(0, len(outcome.ledger) - 1))
    reg.counter("harness.cell.failures").add(0 if outcome.ok else 1)
    backoff = sum(e.get("backoff_s", 0.0) for e in outcome.ledger)
    reg.counter("harness.cell.backoff_seconds").add(backoff)
    return reg.to_dict()


def build_checkpoint(outcome: "CellOutcome") -> Dict:
    """The checkpoint payload for one finished cell — the wire format of
    a distributed upload and the on-disk format under ``cells/``."""
    cell = outcome.cell
    return {
        "version": CHECKPOINT_VERSION,
        "key": cell.key,
        "group": cell.group,
        "config_hash": cell.config_hash(),
        "status": "ok" if outcome.ok else "failed",
        "table": outcome.table.to_dict() if outcome.ok else None,
        "failure": (
            None
            if outcome.failure is None
            else {
                "kind": outcome.failure.kind,
                "message": outcome.failure.message,
                "attempts": outcome.failure.attempts,
                "traceback": outcome.failure.traceback_text,
            }
        ),
        "ledger": outcome.ledger,
        "counters": cell_counter_dump(outcome),
        "duration_s": outcome.duration_s,
    }


def validate_checkpoint(data, key: str, config_hash: str) -> Optional[str]:
    """Why ``data`` is not an acceptable checkpoint for ``(key,
    config_hash)`` — ``None`` when it is.  Used both on ``--resume``
    restore and on distributed upload, so a worker can never persist a
    checkpoint the local runner would refuse to trust."""
    if not isinstance(data, dict):
        return "not a JSON object"
    if data.get("version") != CHECKPOINT_VERSION:
        return f"checkpoint version {data.get('version')!r} != {CHECKPOINT_VERSION}"
    if data.get("key") != key:
        return f"checkpoint key {data.get('key')!r} != {key!r}"
    if data.get("config_hash") != config_hash:
        return "config hash mismatch (stale checkpoint)"
    status = data.get("status")
    if status not in ("ok", "failed"):
        return f"unknown status {status!r}"
    if status == "ok":
        if not data.get("table"):
            return "ok checkpoint without a table"
        from .results import ExperimentTable

        try:
            table = ExperimentTable.from_dict(data["table"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            return f"table does not parse ({exc})"
        for label, values in table.rows.items():
            for value in values:
                # a bool is an int to isinstance, but no measurement
                if isinstance(value, bool) or not isinstance(value,
                                                             (int, float)):
                    return f"row {label!r} holds a non-number {value!r}"
    elif not isinstance(data.get("failure"), dict):
        return "failed checkpoint without a failure record"
    elif not isinstance(data["failure"].get("attempts", 1), int):
        return "failure attempts is not an integer"
    ledger = data.get("ledger")
    if not isinstance(ledger, list) or not all(isinstance(entry, dict) and (
            isinstance(entry.get("backoff_s", 0.0), (int, float)))
            for entry in ledger):
        return "missing or malformed attempt ledger"
    if not isinstance(data.get("duration_s", 0.0), (int, float)):
        return "duration_s is not a number"
    return None


def result_hash(data: Dict) -> str:
    """Content hash over the result-determining checkpoint fields only
    (status + table) — volatile fields like durations excluded, so two
    workers that ran the same cell (a lease steal) hash identically iff
    the determinism contract held."""
    return content_hash({"status": data.get("status"),
                         "table": data.get("table")})


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, "manifest.json")


def load_manifest_entries(out_dir: str) -> Dict[str, Dict]:
    """The previous run's ``manifest.json`` cells keyed by cell key
    (empty when no readable manifest exists).  Used on resume to
    corroborate checkpoints: a checkpoint the manifest never
    acknowledged is a *torn* write — the driver died between the
    checkpoint write and the manifest rewrite."""
    try:
        data = read_json(manifest_path(out_dir))
    except (OSError, ValueError):
        return {}
    return {
        entry["key"]: entry
        for entry in data.get("cells", [])
        if isinstance(entry, dict) and "key" in entry
    }


def manifest_payload(
    cells,
    outcomes: Dict[str, "CellOutcome"],
    *,
    out_dir: str,
    workers,
    degraded: bool,
    resume: bool,
) -> Dict:
    """The ``manifest.json`` payload reflecting every cell's current
    status (outcome present => ok/restored/failed; absent => not-run)."""
    entries = []
    totals = {"cells": len(cells), "completed": 0, "skipped": 0,
              "failed": 0, "not_run": 0}
    for cell in cells:
        outcome = outcomes.get(cell.key)
        if outcome is None:
            status = "not-run"
            totals["not_run"] += 1
        elif not outcome.ok:
            status = "failed"
            totals["failed"] += 1
        elif outcome.restored:
            status = "restored"
            totals["skipped"] += 1
        else:
            status = "ok"
            totals["completed"] += 1
        entry = {
            "key": cell.key,
            "group": cell.group,
            "config_hash": cell.config_hash(),
            "status": status,
            "checkpoint": os.path.relpath(
                checkpoint_path(out_dir, cell.key, cell.config_hash()),
                out_dir,
            ),
        }
        if outcome is not None:
            entry["attempts"] = len(outcome.ledger)
            entry["duration_s"] = round(outcome.duration_s, 3)
        entries.append(entry)
    return {
        "version": CHECKPOINT_VERSION,
        "workers": workers,
        "degraded": degraded,
        "resume": resume,
        "totals": totals,
        "cells": entries,
    }


# ---------------------------------------------------------------------------
# adaptive-timeout history
# ---------------------------------------------------------------------------

class TimeoutHistory:
    """Per-cell wall-clock durations shared across campaign processes.

    The history lives in ``<out_dir>/timeout_history.json`` as
    ``{"version": 1, "cells": {key: {"config_hash": h, "duration_s": d}}}``
    and feeds two consumers: the adaptive per-cell timeouts
    (``max(floor, duration * margin)``) and the ``--dry-run`` duration
    estimates.  :meth:`flush` performs an **atomic read-modify-write**
    under an ``O_EXCL`` lock file: concurrent campaign processes (the
    distributed coordinator, several local runners pointed at one soak
    directory) each merge their freshly measured durations into the
    shared file instead of overwriting each other's — the
    last-writer-wins hazard the old manifest-only scheme had.  A lock
    older than ``HISTORY_LOCK_STALE_S`` (a crashed writer) is broken.
    """

    def __init__(self) -> None:
        #: key -> {"config_hash", "duration_s"} pending merge
        self._pending: Dict[str, Dict] = {}
        self._lock = threading.Lock()

    # -- reading -----------------------------------------------------------

    @staticmethod
    def path(out_dir: str) -> str:
        return os.path.join(out_dir, "timeout_history.json")

    @staticmethod
    def load(out_dir: str) -> Dict[str, Dict]:
        """The shared history entries keyed by cell key (empty when the
        file is missing or unreadable)."""
        try:
            data = read_json(TimeoutHistory.path(out_dir))
        except (OSError, ValueError):
            return {}
        cells = data.get("cells")
        if not isinstance(cells, dict):
            return {}
        return {
            key: entry for key, entry in cells.items()
            if isinstance(entry, dict)
            and isinstance(entry.get("duration_s"), (int, float))
        }

    @staticmethod
    def estimate(entries: Dict[str, Dict], cell: "CampaignCell"):
        """The cell's known-good duration, or ``None`` without usable
        history (missing entry, unfinished run or stale config hash)."""
        entry = entries.get(cell.key)
        if (
            entry is None
            or entry.get("status") not in ("ok", "restored")
            or entry.get("config_hash") != cell.config_hash()
        ):
            return None
        duration = entry.get("duration_s")
        if not isinstance(duration, (int, float)) or duration <= 0:
            return None
        return float(duration)

    # -- writing -----------------------------------------------------------

    def record(self, cell: "CampaignCell", duration_s: float) -> None:
        """Queue one completed cell's duration for the next flush
        (thread-safe; durations are rounded so repeated merges of the
        same results keep the file bytes stable)."""
        if duration_s <= 0:
            return
        with self._lock:
            self._pending[cell.key] = {
                "config_hash": cell.config_hash(),
                "duration_s": round(float(duration_s), 3),
            }

    def flush(self, out_dir: str, *, sleep=time.sleep) -> bool:
        """Merge the pending durations into the shared file under the
        lock; returns False (pending kept) when the lock could not be
        acquired within the staleness horizon."""
        with self._lock:
            if not self._pending:
                return True
            pending, self._pending = self._pending, {}
        lock_path = self.path(out_dir) + ".lock"
        os.makedirs(out_dir, exist_ok=True)
        if not self._acquire(lock_path, sleep):
            with self._lock:  # keep the durations for a later flush
                for key, entry in pending.items():
                    self._pending.setdefault(key, entry)
            return False
        try:
            merged = dict(self.load(out_dir))
            merged.update(pending)
            write_json(
                self.path(out_dir),
                {"version": 1, "cells": dict(sorted(merged.items()))},
            )
        finally:
            try:
                os.unlink(lock_path)
            except OSError:
                pass
        return True

    @staticmethod
    def _acquire(lock_path: str, sleep) -> bool:
        deadline = time.monotonic() + HISTORY_LOCK_STALE_S
        while time.monotonic() < deadline:
            try:
                fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, str(os.getpid()).encode())
                os.close(fd)
                return True
            except FileExistsError:
                try:  # break a stale lock left by a crashed writer
                    age = time.time() - os.path.getmtime(lock_path)
                    if age > HISTORY_LOCK_STALE_S:
                        os.unlink(lock_path)
                        continue
                except OSError:
                    continue  # racer removed it: retry immediately
                sleep(0.02)
        return False


# ---------------------------------------------------------------------------
# deterministic merge artifacts
# ---------------------------------------------------------------------------

def tables_payload(tables: Dict) -> Dict:
    """``tables.json``: every merged group table, canonically encoded —
    the file two campaign runs compare byte-for-byte to prove the
    determinism contract."""
    return {group: table.to_dict() for group, table in tables.items()}


def write_merge_artifacts(
    out_dir: str,
    tables: Dict,
    cell_dumps: List[Dict],
    ops_dumps: List[Dict],
) -> Dict[str, str]:
    """Write the three merge artifacts; returns their paths.

    ``counters.json`` merges the per-cell dumps **only**, in canonical
    cell order — it depends on nothing but the matrix and its results,
    so serial, parallel and distributed runs of the same matrix produce
    identical bytes (the acceptance contract).  ``ops_counters.json``
    additionally folds in the run-shape dumps (``harness.campaign.*``,
    ``harness.dist.*``) that legitimately vary with worker count,
    resume state and placement.
    """
    from repro.telemetry.counters import merge_dumps

    paths = {
        "tables": os.path.join(out_dir, "tables.json"),
        "counters": os.path.join(out_dir, "counters.json"),
        "ops_counters": os.path.join(out_dir, "ops_counters.json"),
    }
    write_json(paths["tables"], tables_payload(tables))
    write_json(paths["counters"], merge_dumps(cell_dumps))
    write_json(paths["ops_counters"], merge_dumps(ops_dumps + cell_dumps))
    return paths

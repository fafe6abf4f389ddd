"""Fault-tolerant parallel campaign engine: one campaign, two drivers.

``python -m repro.harness all`` is a *campaign*: a cross-product of
independent experiment shards (one simulation sweep per workload per
figure).  This module executes such a campaign the way a production
fleet would — sharded, checkpointed, retried, and degradable — instead
of as one long serial loop that loses everything on the first wedge:

**One engine, two drivers.**  :class:`Campaign` owns the state of a run:
the cells in canonical order, their leases and outcomes, the
``harness.campaign.*`` counters, the manifest, resume, adaptive timeouts
and the merge.  A driver opens it, leases cells from it, runs each
through :func:`execute_cell`, completes the outcome and finally collects
the merged result.  :class:`CampaignRunner` drives it from local
supervisor threads; :class:`repro.harness.dist.CampaignCoordinator`
drives the same object from HTTP handlers on behalf of remote workers.
Both book, persist, resume and merge through this one code path.

**Sharding.**  :func:`build_all_cells` cuts every experiment along its
workload axis (see :func:`repro.harness.experiments.experiment_workloads`)
into :class:`CampaignCell`\\ s, and :class:`CampaignRunner` executes them
on ``workers`` supervisor threads.  Each attempt of a cell runs through
the crash-isolated machinery (:func:`repro.harness.isolation.run_experiment_isolated`:
child process, wall-clock timeout, structured failures), so the "pool"
is really N threads each baby-sitting one killable child at a time —
unlike a ``ProcessPoolExecutor``, a hung cell can be terminated without
tearing the whole pool down.

**Retry with backoff.**  :func:`execute_cell` takes its retry decisions
from the policy's :class:`~repro.harness.isolation.RetryPolicy`:
transient failure kinds (``Timeout``, ``SimulationHang``,
``ChildCrash``) are retried up to ``max_attempts`` with exponential
backoff (``backoff_base * 2**(attempt-1)``, capped at ``backoff_cap``),
and hangs are additionally reseeded (``seed + 1000*attempt``) when the
cell's kwargs carry an int ``seed``.  Deterministic failure kinds
(crashes, invariant violations) fail fast.  Every attempt lands in the
cell's *attempt ledger*, persisted with the checkpoint.

**Checkpoints and resume.**  With an ``out_dir``, every finished cell
writes a content-addressed checkpoint (``cells/<key>.<config-hash>.json``
holding the result table, the attempt ledger and the cell's counter
dump) via atomic rename — gzip-compressed, magic-sniffed on read so
older plain-JSON campaign directories keep restoring — plus a campaign
``manifest.json`` rewritten as cells finish.  All checkpoint IO goes
through :mod:`repro.harness.store`, so a checkpoint uploaded by a
remote worker is byte-compatible with a locally written one.
``resume=True`` restores cells whose checkpoint matches their current
config hash, succeeded, and is corroborated by the manifest; failed,
stale (hash-mismatched), truncated or torn checkpoints are re-executed.
A campaign SIGKILLed mid-run therefore resumes from its last completed
cell, whichever driver ran it.

**Deterministic merge.**  Shard tables merge per experiment group in
**cell order** — fixed by the spec, never by completion order — through
:func:`repro.harness.results.merge_tables`, so ``--workers N`` output is
bit-identical to the serial run for any N (and, via
:mod:`repro.harness.dist`, for any number of worker *machines*).  The
merge artifacts split along the determinism contract: ``tables.json``
and ``counters.json`` (the per-cell counter dumps merged in cell order
through :func:`repro.telemetry.merge_dumps`) depend only on the matrix
and its results and are byte-identical across run shapes, while
``ops_counters.json`` additionally folds in the run-shape counters
(``harness.campaign.*``, ``harness.dist.*``) that legitimately vary
with worker count and placement.

**Graceful degradation.**  A worker-pool setup failure degrades
:class:`CampaignRunner` to the serial single-supervisor path with a
logged warning — the campaign completes either way
(``harness.campaign.degraded`` records that it happened).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.telemetry.counters import CounterRegistry, merge_dumps

from . import store
from .experiments import (
    ALL_EXPERIMENTS,
    UNSHARDED_EXPERIMENTS,
    experiment_workloads,
)
from .hashing import content_hash
from .isolation import (  # noqa: F401 - TRANSIENT_KINDS is re-exported
    TRANSIENT_KINDS,
    ExperimentFailure,
    RetryPolicy,
    run_experiment_isolated,
)
from .results import ExperimentTable, merge_tables
from .store import CHECKPOINT_VERSION, TimeoutHistory

#: the failure kind of an attempt abandoned because the supervisor's
#: cancel event fired (distributed workers cancel in-flight cells when
#: their lease is lost or the coordinator disappears); never retried
#: and never checkpointed as a real failure
CANCELLED_KIND = "Cancelled"

#: upper clamp of ``workers="auto"`` — each worker thread babysits one
#: crash-isolated child process, and the bundled campaigns stop scaling
#: well before the core counts of large CI machines
AUTO_WORKERS_CAP = 8

#: adaptive per-cell timeouts: a cell whose previous run took ``d``
#: seconds (same config hash, completed) gets ``max(FLOOR, d * MARGIN)``
#: this run, so one wedged shard is killed after ~4x its known-good
#: duration instead of wasting the whole campaign-level timeout; each
#: timeout retry doubles the allowance, capped at the campaign timeout
ADAPTIVE_TIMEOUT_FLOOR = 10.0
ADAPTIVE_TIMEOUT_MARGIN = 4.0

#: every ``harness.campaign.*`` counter the local runner and the
#: distributed coordinator maintain (docs/OBSERVABILITY.md documents
#: each; tools/check_doc_links.py parses this tuple)
CAMPAIGN_COUNTER_LEAVES = (
    "cells", "completed", "skipped", "failed", "attempts", "retries",
    "backoff_seconds", "degraded", "torn", "adaptive_timeouts",
)


def _default_echo(message: str) -> None:
    """Default progress/warning sink: one line to stderr."""
    import sys

    print(message, file=sys.stderr)


def resolve_workers(
    workers: Union[int, str],
    echo: Callable[[str], None] = _default_echo,
) -> int:
    """Resolve a worker-count spec to a concrete count.

    An int passes through untouched; ``"auto"`` derives the count from
    ``os.cpu_count()`` clamped to ``[1, AUTO_WORKERS_CAP]`` and logs the
    decision (output is bit-identical for any worker count, so the
    resolution never affects results — only wall-clock)."""
    if isinstance(workers, str):
        if workers != "auto":
            raise ValueError(
                f"workers must be an int or 'auto', not {workers!r}"
            )
        cpus = os.cpu_count() or 1
        resolved = max(1, min(AUTO_WORKERS_CAP, cpus))
        echo(
            f"[campaign] workers=auto -> {resolved} "
            f"(cpu_count={cpus}, cap={AUTO_WORKERS_CAP})"
        )
        return resolved
    return workers


@dataclass(frozen=True)
class CampaignCell:
    """One independent unit of campaign work.

    ``key`` doubles as identity and merge position: the runner merges
    shard tables in cell order, so two runs over the same spec produce
    identical output no matter which workers finish first.  ``fn`` must
    be an importable module-level callable (it crosses a process
    boundary) returning an :class:`ExperimentTable`.
    """

    key: str
    fn: Callable
    kwargs: Dict = field(default_factory=dict)
    #: experiment name the cell's table merges into (e.g. ``fig10``)
    group: str = ""
    #: prefix applied to the shard's row labels at merge time (keeps
    #: rows distinct when every shard uses the same labels)
    row_prefix: str = ""

    def config_hash(self) -> str:
        """Content hash of everything that determines this cell's result;
        a checkpoint is valid for resume only while this hash matches."""
        payload = {
            "version": CHECKPOINT_VERSION,
            "key": self.key,
            "fn": f"{self.fn.__module__}.{self.fn.__qualname__}",
            "kwargs": self.kwargs,
            "group": self.group,
            "row_prefix": self.row_prefix,
        }
        return content_hash(payload)


@dataclass
class CellOutcome:
    """What one cell produced this campaign (fresh run or restored)."""

    cell: CampaignCell
    table: Optional[ExperimentTable]
    failure: Optional[ExperimentFailure]
    ledger: List[Dict]
    duration_s: float
    restored: bool = False

    @property
    def ok(self) -> bool:
        """True when the cell has a result table."""
        return self.table is not None

    @property
    def cancelled(self) -> bool:
        """True when the cell was abandoned mid-run (lease lost,
        shutdown) — neither a result nor a real failure."""
        return (
            self.failure is not None and self.failure.kind == CANCELLED_KIND
        )


@dataclass
class ExecutionPolicy:
    """Everything that governs how one cell is executed — the piece of
    the campaign runner a distributed worker reuses verbatim, so a cell
    run on a remote machine retries, reseeds and escalates exactly like
    a local one.

    ``timeout`` is the campaign-level wall-clock cap; ``adaptive_timeout``
    the history-derived starting allowance (doubled on each timeout
    retry, never past ``timeout``).  ``retry`` decides which failures
    retry, the backoff before each retry and the reseed.  ``cancel``,
    when set, abandons the in-flight attempt (child terminated) and
    returns a ``CANCELLED_KIND`` outcome instead of retrying.
    """

    timeout: Optional[float] = None
    adaptive_timeout: Optional[float] = None
    retry: RetryPolicy = RetryPolicy(
        max_attempts=3, backoff_base=0.5, backoff_cap=30.0
    )
    sleep: Callable[[float], None] = time.sleep
    cancel: Optional[threading.Event] = None


def execute_cell(cell: CampaignCell, policy: ExecutionPolicy) -> CellOutcome:
    """Run one cell to completion under ``policy``: crash-isolated
    attempts, transient retries with backoff, hang reseeding, adaptive
    timeout escalation.  Returns the outcome with its full attempt
    ledger (never raises)."""
    retry = policy.retry
    ledger: List[Dict] = []
    kwargs = dict(cell.kwargs)
    started = time.time()
    failure: Optional[ExperimentFailure] = None
    table: Optional[ExperimentTable] = None
    adaptive = policy.adaptive_timeout
    timeout = adaptive if adaptive is not None else policy.timeout
    attempt = 0
    while True:
        attempt += 1
        if policy.cancel is not None and policy.cancel.is_set():
            failure = ExperimentFailure(
                name=cell.key, kind=CANCELLED_KIND,
                message="cancelled before attempt", attempts=attempt - 1,
                kwargs=kwargs,
            )
            break
        outcome = run_experiment_isolated(
            name=cell.key, fn=cell.fn, kwargs=kwargs,
            timeout=timeout, cancel=policy.cancel,
        )
        if not isinstance(outcome, ExperimentFailure):
            ledger.append({"attempt": attempt, "status": "ok"})
            table = outcome
            failure = None
            break
        failure = outcome
        if outcome.kind == CANCELLED_KIND:
            break  # abandoned, not failed: no ledger entry, no retry
        final = not retry.retries(outcome.kind, attempt)
        delay = 0.0 if final else retry.delay(attempt)
        entry = {
            "attempt": attempt,
            "status": "failed",
            "kind": outcome.kind,
            "message": outcome.message,
            "backoff_s": delay,
        }
        if adaptive is not None:
            entry["timeout_s"] = round(timeout, 3)
        if final:
            ledger.append(entry)
            failure.attempts = attempt
            break
        if outcome.kind == "Timeout" and adaptive is not None:
            # An adaptive timeout that fired may simply have been too
            # tight (machine load, cold caches): double the allowance
            # for the retry, never past the campaign-level timeout.
            timeout = timeout * 2.0
            if policy.timeout is not None:
                timeout = min(timeout, policy.timeout)
        fresh = retry.next_kwargs(outcome.kind, attempt, kwargs)
        if fresh is not kwargs:
            kwargs = fresh
            entry["reseeded"] = kwargs["seed"]
        ledger.append(entry)
        if delay:
            policy.sleep(delay)
    return CellOutcome(
        cell=cell,
        table=table,
        failure=failure,
        ledger=ledger,
        duration_s=time.time() - started,
    )


def render_dry_run(
    cells: Sequence[CampaignCell],
    out_dir: Optional[str] = None,
) -> str:
    """The ``--dry-run`` report: the cell matrix in canonical (merge)
    order with per-cell duration estimates from the shared timeout
    history under ``out_dir`` — nothing is executed."""
    entries = load_timeout_history(out_dir)
    lines: List[str] = []
    known = 0
    total = 0.0
    width = max([len(c.key) for c in cells] or [4])
    for cell in cells:
        estimate = TimeoutHistory.estimate(entries, cell)
        if estimate is None:
            est = "?"
        else:
            known += 1
            total += estimate
            est = f"{estimate:.1f}s"
        lines.append(
            f"  {cell.key:<{width}}  group={cell.group:<12} "
            f"hash={cell.config_hash()}  est={est}"
        )
    header = (
        f"[dry-run] {len(cells)} cell(s), {known} with history "
        "estimates"
    )
    if known:
        header += (
            f"; known cells total ~{total:.1f}s serial"
            + (" (others unestimated)" if known < len(cells) else "")
        )
    return "\n".join([header] + lines)


def load_timeout_history(
    out_dir: Optional[str],
) -> Dict[str, Dict]:
    """Combined duration history under ``out_dir``: the previous
    manifest's entries overlaid with the shared ``timeout_history.json``
    (which concurrent workers merge into, so it wins when both know a
    cell).  The result feeds :meth:`Campaign.seed_timeouts` and
    ``--dry-run`` estimates — never checkpoint corroboration, which must
    use the manifest alone."""
    if out_dir is None:
        return {}
    history = dict(store.load_manifest_entries(out_dir))
    for key, entry in TimeoutHistory.load(out_dir).items():
        history[key] = {
            "status": "ok",
            "config_hash": entry.get("config_hash"),
            "duration_s": entry.get("duration_s"),
        }
    return history


def outcome_from_checkpoint(cell: CampaignCell, data: Dict) -> CellOutcome:
    """Rehydrate a validated checkpoint payload (an upload, or a file
    restored from disk) into the outcome the run that wrote it
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


def restore_outcome(
    cell: CampaignCell,
    out_dir: str,
    manifest: Dict[str, Dict],
) -> Tuple[Optional[CellOutcome], bool]:
    """Restore a cell from its checkpoint under ``out_dir``; returns
    ``(outcome, torn)``.  ``outcome`` is ``None`` when the cell must
    (re)run: no checkpoint, truncated/corrupt JSON, config-hash
    mismatch, or a recorded failure (failures always re-execute).
    ``torn`` is True for the special case of a *valid* checkpoint the
    manifest never corroborated — the driver died between the checkpoint
    write and the manifest rewrite — which :meth:`Campaign.open`
    surfaces loudly (counter + log line) instead of silently trusting."""
    path = store.checkpoint_path(out_dir, cell.key, cell.config_hash())
    try:
        data = store.read_json(path)
    except (OSError, ValueError):
        return None, False
    if store.validate_checkpoint(data, cell.key, cell.config_hash()):
        return None, False
    if data.get("status") != "ok":
        return None, False  # recorded failures always re-execute
    entry = manifest.get(cell.key)
    if (
        entry is None
        or entry.get("status") not in ("ok", "restored")
        or entry.get("config_hash") != cell.config_hash()
    ):
        return None, True
    outcome = outcome_from_checkpoint(cell, data)
    outcome.restored = True
    return outcome, False


def merge_outcomes(
    cells: Sequence[CampaignCell],
    outcomes: Dict[str, CellOutcome],
) -> Dict:
    """Deterministic merge of per-cell outcomes in canonical cell order
    — the result-assembly core shared by the local runner and the
    distributed coordinator, so N workers on M machines reduce to the
    same bytes as the serial loop.

    Returns a dict with ``tables`` (group -> merged
    :class:`ExperimentTable`), ``cell_dumps`` (per-cell counter dumps in
    cell order), ``group_seconds``, ``failures``, and the
    ``completed``/``skipped``/``failed``/``not_run``/``failed_groups``
    key lists."""
    tables: Dict[str, ExperimentTable] = {}
    group_shards: Dict[str, List[ExperimentTable]] = {}
    group_seconds: Dict[str, float] = {}
    failures: List[ExperimentFailure] = []
    completed: List[str] = []
    skipped: List[str] = []
    failed: List[str] = []
    not_run: List[str] = []
    failed_groups: List[str] = []
    cell_dumps: List[Dict] = []
    for cell in cells:  # cell order == merge order
        outcome = outcomes.get(cell.key)
        if outcome is None:
            not_run.append(cell.key)
            if cell.group not in failed_groups:
                failed_groups.append(cell.group)
            continue
        cell_dumps.append(store.cell_counter_dump(outcome))
        group_seconds[cell.group] = (
            group_seconds.get(cell.group, 0.0) + outcome.duration_s
        )
        if outcome.ok:
            (skipped if outcome.restored else completed).append(cell.key)
            group_shards.setdefault(cell.group, []).append(
                outcome.table.with_row_prefix(cell.row_prefix)
            )
        else:
            failed.append(cell.key)
            failures.append(outcome.failure)
            if cell.group not in failed_groups:
                failed_groups.append(cell.group)
    for cell in cells:
        shards = group_shards.get(cell.group)
        if shards and cell.group not in tables:
            tables[cell.group] = merge_tables(shards)
    return {
        "tables": tables,
        "cell_dumps": cell_dumps,
        "group_seconds": group_seconds,
        "failures": failures,
        "completed": completed,
        "skipped": skipped,
        "failed": failed,
        "not_run": not_run,
        "failed_groups": failed_groups,
    }


@dataclass
class CampaignResult:
    """Everything a campaign run produced, merged deterministically."""

    #: group -> merged table (partial if some of the group's cells failed)
    tables: Dict[str, ExperimentTable]
    failures: List[ExperimentFailure]
    completed: List[str]  #: cell keys executed successfully this run
    skipped: List[str]  #: cell keys restored from checkpoints
    failed: List[str]  #: cell keys that exhausted their attempts
    not_run: List[str]  #: cells never started (stop-on-failure abort)
    group_seconds: Dict[str, float]
    degraded: bool
    counters: Dict
    #: groups with a failed or never-started cell, in cell order
    failed_groups: List[str] = field(default_factory=list)
    manifest_path: Optional[str] = None
    #: deterministic per-cell counter merge (byte-identical across run
    #: shapes); the in-memory ``counters`` above is the *full* merge
    counters_path: Optional[str] = None
    #: run-shape counters (``harness.campaign.*`` + per-cell dumps)
    ops_counters_path: Optional[str] = None
    tables_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when every cell completed (fresh or restored)."""
        return not self.failures and not self.not_run


def build_all_cells(
    experiments: Optional[Dict[str, Callable]] = None,
    quick: bool = False,
    workloads: Optional[Sequence[str]] = None,
) -> List[CampaignCell]:
    """The campaign spec behind ``python -m repro.harness all``: one cell
    per (experiment, workload) shard, in the exact row order the serial
    runners produce, so the merged tables are bit-identical to theirs.
    Experiments without a workload axis become a single cell."""
    experiments = ALL_EXPERIMENTS if experiments is None else experiments
    cells: List[CampaignCell] = []
    for name in sorted(experiments):
        fn = experiments[name]
        axis = experiment_workloads(name, quick=quick, workloads=workloads)
        if axis is None:
            kwargs: Dict = {}
            if name not in UNSHARDED_EXPERIMENTS:
                kwargs["quick"] = quick
                if workloads:
                    kwargs["workloads"] = list(workloads)
            cells.append(
                CampaignCell(key=name, fn=fn, kwargs=kwargs, group=name)
            )
        else:
            for wl in axis:
                cells.append(
                    CampaignCell(
                        key=f"{name}/{wl}",
                        fn=fn,
                        kwargs={"workloads": [wl]},
                        group=name,
                    )
                )
    return cells


class Campaign:
    """The state of one campaign run, shared by both drivers: the cells
    in canonical order, their leases and outcomes, the
    ``harness.campaign.*`` counters, the manifest, resume with torn-write
    corroboration, adaptive timeouts and the merge.

    A driver calls :meth:`open` once, then repeatedly :meth:`lease` s a
    cell, runs it and :meth:`complete` s its outcome until nothing is
    left to lease, then :meth:`collect` s the merged result.  ``lease``,
    ``complete`` and ``collect`` take :attr:`lock`, so driver threads may
    call them concurrently; ``open`` runs before any driver thread.
    """

    def __init__(
        self,
        cells: Sequence[CampaignCell],
        *,
        out_dir: Optional[str] = None,
        resume: bool = False,
        timeout: Optional[float] = None,
        adaptive_timeout: bool = True,
        workers: Union[int, str] = 1,
        echo: Callable[[str], None] = _default_echo,
    ) -> None:
        keys = [cell.key for cell in cells]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"duplicate cell keys: {dupes}")
        if resume and out_dir is None:
            raise ValueError("resume requires an out_dir to resume from")
        self.cells = list(cells)
        self.out_dir = out_dir
        self.resume = resume
        self.timeout = timeout
        self.adaptive_timeout = adaptive_timeout
        self.workers = workers
        #: set by the local driver when it fell back to serial execution
        self.degraded = False
        #: cell key -> history-derived wall-clock timeout (seconds)
        self.timeouts: Dict[str, float] = {}
        #: cell key -> [worker, monotonic expiry, or None for no expiry]
        self.leases: Dict[str, List] = {}
        self.outcomes: Dict[str, CellOutcome] = {}
        #: set once every cell has an outcome
        self.finished = threading.Event()
        self.lock = threading.Lock()
        self._echo = echo
        self._history = TimeoutHistory()
        self.counters = CounterRegistry()
        self.counters.metadata.update(
            campaign="harness", workers=workers, resume=resume,
        )
        for leaf in CAMPAIGN_COUNTER_LEAVES:
            self.counters.counter(f"harness.campaign.{leaf}")

    def checkpoint_path(self, cell: CampaignCell) -> str:
        return store.checkpoint_path(
            self.out_dir, cell.key, cell.config_hash()
        )

    def seed_timeouts(self, history: Dict[str, Dict]) -> None:
        """Derive per-cell wall-clock timeouts from previous-run
        durations: a cell that completed before (same config hash) gets
        ``max(ADAPTIVE_TIMEOUT_FLOOR, duration * ADAPTIVE_TIMEOUT_MARGIN)``,
        never above the campaign-level timeout.  Cells without usable
        history keep the campaign-level timeout."""
        timeouts: Dict[str, float] = {}
        for cell in self.cells:
            duration = TimeoutHistory.estimate(history, cell)
            if duration is None:
                continue
            allowance = max(
                ADAPTIVE_TIMEOUT_FLOOR, duration * ADAPTIVE_TIMEOUT_MARGIN
            )
            if self.timeout is not None:
                allowance = min(allowance, self.timeout)
            timeouts[cell.key] = allowance
        self.timeouts = timeouts
        if timeouts:
            self.counters.counter(
                "harness.campaign.adaptive_timeouts"
            ).add(len(timeouts))
            self._echo(
                f"[campaign] adaptive timeouts derived for {len(timeouts)} "
                "cell(s) from the previous manifest"
            )

    def open(self) -> None:
        """Start the run: count the cells, seed the adaptive timeouts
        from the campaign directory's history and, on resume, restore
        every checkpoint the manifest corroborates.  A valid checkpoint
        the manifest never acknowledged is a torn write: counted, logged
        and re-run."""
        self.counters.counter("harness.campaign.cells").add(len(self.cells))
        if self.adaptive_timeout:
            self.seed_timeouts(load_timeout_history(self.out_dir))
        if self.resume:
            # Corroboration uses the manifest alone — a synthesized
            # timeout-history entry must never vouch for a torn
            # checkpoint.
            manifest = store.load_manifest_entries(self.out_dir)
            for cell in self.cells:
                outcome, torn = restore_outcome(cell, self.out_dir, manifest)
                if torn:
                    self.counters.counter("harness.campaign.torn").add(1)
                    self._echo(
                        f"[campaign] {cell.key}: checkpoint not corroborated "
                        "by the manifest (torn write: driver died between "
                        "checkpoint and manifest rewrite); treating as stale "
                        "and re-running"
                    )
                if outcome is not None:
                    self.complete(outcome)

    def lease(
        self, worker: str, lease_seconds: Optional[float] = None,
    ) -> Optional[Tuple[CampaignCell, Optional[str]]]:
        """Lease the next cell to ``worker`` in canonical order: the
        first pending cell, else the first cell whose lease expired.
        Returns ``(cell, stolen_from)`` — the worker whose expired lease
        was taken, ``None`` for a pending cell — or ``None`` when no cell
        can be leased.  Without ``lease_seconds`` the lease never
        expires."""
        now = time.monotonic()
        with self.lock:
            expired = None
            for cell in self.cells:
                if cell.key in self.outcomes:
                    continue
                held = self.leases.get(cell.key)
                if held is None:
                    chosen, stolen_from = cell, None
                    break
                if expired is None and held[1] is not None and now >= held[1]:
                    # keep scanning: a pending cell still wins, so a
                    # steal is the fallback in canonical order
                    expired = (cell, held[0])
            else:
                if expired is None:
                    return None
                chosen, stolen_from = expired
            self.leases[chosen.key] = [
                worker, None if lease_seconds is None else now + lease_seconds,
            ]
            return chosen, stolen_from

    def complete(
        self, outcome: CellOutcome, checkpoint: Optional[Dict] = None,
    ) -> bool:
        """Book one finished cell and release its lease: counters,
        checkpoint (``checkpoint`` verbatim when given, else built from
        the outcome; none for a restored cell), timeout history, manifest
        and a progress line.  Returns False, booking nothing, when the
        cell already has an outcome: the first write wins."""
        cell = outcome.cell
        attempts = len(outcome.ledger)
        with self.lock:
            if cell.key in self.outcomes:
                return False
            self.outcomes[cell.key] = outcome
            self.leases.pop(cell.key, None)
            ctr = self.counters.counter
            ctr("harness.campaign.attempts").add(attempts)
            ctr("harness.campaign.retries").add(max(0, attempts - 1))
            ctr("harness.campaign.backoff_seconds").add(
                sum(e.get("backoff_s", 0.0) for e in outcome.ledger)
            )
            if outcome.restored:
                ctr("harness.campaign.skipped").add(1)
            else:
                ctr("harness.campaign.completed" if outcome.ok
                    else "harness.campaign.failed").add(1)
                # Checkpoint before manifest: a driver killed in between
                # leaves a torn write that resume detects.
                if self.out_dir is not None:
                    if checkpoint is None:
                        checkpoint = store.build_checkpoint(outcome)
                    store.write_json(self.checkpoint_path(cell), checkpoint,
                                     compress=True)
                if outcome.ok:
                    self._history.record(cell, outcome.duration_s)
            self._write_manifest()
            if len(self.outcomes) == len(self.cells):
                self.finished.set()
        if outcome.restored:
            note = "restored from checkpoint"
        elif outcome.ok:
            note = f"ok ({outcome.duration_s:.1f}s, {attempts} attempt(s))"
        else:
            note = (f"FAILED ({outcome.failure.kind}) after {attempts} "
                    "attempt(s)")
        self._echo(f"[campaign] {cell.key}: {note}")
        return True

    def _write_manifest(self) -> Optional[str]:
        """(Re)write ``manifest.json`` with every cell's current status
        (lock held) — after every cell, so a killed campaign leaves an
        honest partial manifest behind."""
        if self.out_dir is None:
            return None
        path = store.manifest_path(self.out_dir)
        store.write_json(path, store.manifest_payload(
            self.cells, self.outcomes, out_dir=self.out_dir,
            workers=self.workers, degraded=self.degraded,
            resume=self.resume,
        ))
        return path

    def collect(self) -> CampaignResult:
        """Merge the outcomes in canonical cell order via
        :func:`merge_outcomes` and write the merge artifacts
        (``tables.json``/``counters.json`` deterministic,
        ``ops_counters.json`` run-shape — module docstring)."""
        with self.lock:
            outcomes = dict(self.outcomes)
            manifest_path = self._write_manifest()
            ops_dump = self.counters.to_dict()
        merged = merge_outcomes(self.cells, outcomes)
        cell_dumps = merged["cell_dumps"]
        paths: Dict[str, str] = {}
        if self.out_dir is not None:
            self._history.flush(self.out_dir)
            paths = store.write_merge_artifacts(
                self.out_dir, merged["tables"], cell_dumps, [ops_dump],
            )
        return CampaignResult(
            tables=merged["tables"],
            failures=merged["failures"],
            completed=merged["completed"],
            skipped=merged["skipped"],
            failed=merged["failed"],
            not_run=merged["not_run"],
            group_seconds=merged["group_seconds"],
            degraded=self.degraded,
            counters=merge_dumps([ops_dump] + cell_dumps),
            failed_groups=merged["failed_groups"],
            manifest_path=manifest_path,
            counters_path=paths.get("counters"),
            ops_counters_path=paths.get("ops_counters"),
            tables_path=paths.get("tables"),
        )


class CampaignRunner:
    """The local driver: ``workers`` supervisor threads that lease cells
    from one :class:`Campaign` and run each through :func:`execute_cell`,
    with stop-on-failure (``keep_going=False``) and the serial fallback
    (module docstring has the full story).

    ``sleep`` is injectable so tests can assert the backoff schedule
    without waiting it out; ``echo`` receives progress/warning lines
    (default: stderr).
    """

    def __init__(
        self,
        cells: Sequence[CampaignCell],
        *,
        workers: Union[int, str] = 1,
        out_dir: Optional[str] = None,
        resume: bool = False,
        timeout: Optional[float] = None,
        adaptive_timeout: bool = True,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        keep_going: bool = True,
        sleep: Callable[[float], None] = time.sleep,
        echo: Callable[[str], None] = _default_echo,
    ) -> None:
        retry = RetryPolicy(max_attempts, backoff_base, backoff_cap)
        workers = resolve_workers(workers, echo)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.campaign = Campaign(
            cells, out_dir=out_dir, resume=resume, timeout=timeout,
            adaptive_timeout=adaptive_timeout, workers=workers, echo=echo,
        )
        self.workers = workers
        self.policy = ExecutionPolicy(timeout=timeout, retry=retry,
                                      sleep=sleep)
        self.keep_going = keep_going
        self._echo = echo
        self._stop = threading.Event()

    def _run_cell(self, cell: CampaignCell) -> CellOutcome:
        """Run one cell via the shared :func:`execute_cell` loop (policy-
        driven, so distributed workers reuse it verbatim)."""
        return execute_cell(cell, replace(
            self.policy, adaptive_timeout=self.campaign.timeouts.get(cell.key),
        ))

    def _supervise(self, worker: str) -> None:
        """Supervisor loop: lease the next cell, run it, complete it;
        exits when nothing is left to lease or stop-on-failure
        triggers."""
        while not self._stop.is_set():
            leased = self.campaign.lease(worker)
            if leased is None:
                return
            outcome = self._run_cell(leased[0])
            self.campaign.complete(outcome)
            if not outcome.ok and not self.keep_going:
                self._stop.set()

    def _degrade(self, reason: str) -> None:
        """Fall back to serial execution, loudly."""
        if not self.campaign.degraded:
            self.campaign.degraded = True
            self.campaign.counters.counter("harness.campaign.degraded").add(1)
            self._echo(f"[campaign] warning: {reason}; "
                       "falling back to serial execution")

    def run(self) -> CampaignResult:
        """Execute the campaign; returns the merged
        :class:`CampaignResult` (never raises for cell failures — they
        are data, reported in ``failures``)."""
        self.campaign.open()
        pending = len(self.campaign.cells) - len(self.campaign.outcomes)
        if self.workers > 1 and pending:
            threads: List[threading.Thread] = []
            try:
                for i in range(min(self.workers, pending)):
                    thread = threading.Thread(
                        target=self._supervise,
                        args=(f"worker-{i}",),
                        name=f"campaign-worker-{i}",
                        daemon=True,
                    )
                    thread.start()
                    threads.append(thread)
            except (RuntimeError, OSError) as exc:
                self._degrade(f"worker pool setup failed ({exc})")
            # Lease alongside (or instead of) the pool: the serial
            # fallback is the same loop on the main thread.
            if self.campaign.degraded:
                self._supervise("main")
            for thread in threads:
                thread.join()
        else:
            self._supervise("main")
        return self.campaign.collect()

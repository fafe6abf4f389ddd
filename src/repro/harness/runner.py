"""Fault-tolerant parallel campaign runner.

``python -m repro.harness all`` is a *campaign*: a cross-product of
independent experiment shards (one simulation sweep per workload per
figure).  This module executes such a campaign the way a production
fleet would — sharded, checkpointed, retried, and degradable — instead
of as one long serial loop that loses everything on the first wedge:

**Sharding.**  :func:`build_all_cells` cuts every experiment along its
workload axis (see :func:`repro.harness.experiments.experiment_workloads`)
into :class:`CampaignCell`\\ s, and :class:`CampaignRunner` executes them
on ``workers`` supervisor threads.  Each cell still runs through PR 2's
crash-isolated machinery (:func:`repro.harness.isolation.run_experiment_isolated`:
child process, wall-clock timeout, structured failures), so the "pool"
is really N threads each baby-sitting one killable child at a time —
unlike a ``ProcessPoolExecutor``, a hung cell can be terminated without
tearing the whole pool down.

**Retry with backoff.**  Transient failure kinds (``Timeout``,
``SimulationHang``, ``ChildCrash`` — see ``TRANSIENT_KINDS``) are
retried up to ``max_attempts`` with exponential backoff
(``backoff_base * 2**(attempt-1)``, capped at ``backoff_cap``); hangs
are additionally reseeded (``seed + 1000*attempt``, the chaos CLI's
convention) when the cell's kwargs carry a ``seed``.  Deterministic
failure kinds (crashes, invariant violations) fail fast.  Every attempt
lands in the cell's *attempt ledger*, persisted with the checkpoint.

**Checkpoints and resume.**  With an ``out_dir``, every finished cell
writes a content-addressed checkpoint (``cells/<key>.<config-hash>.json``
holding the result table, the attempt ledger and the cell's counter
dump) via atomic rename — gzip-compressed, magic-sniffed on read so
older plain-JSON campaign directories keep restoring — plus a campaign
``manifest.json`` rewritten as cells finish.  All checkpoint IO goes
through :mod:`repro.harness.store`, which the distributed coordinator
(:mod:`repro.harness.dist`) shares, so a checkpoint uploaded by a
remote worker is byte-compatible with a locally written one.
``resume=True`` restores cells whose checkpoint matches their current
config hash and succeeded; failed, stale (hash-mismatched) or truncated
checkpoints are re-executed.  A campaign SIGKILLed mid-run therefore
resumes from its last completed cell.

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

**Graceful degradation.**  A platform without any multiprocessing start
method, or a worker-pool setup failure, degrades to the serial
single-supervisor path with a logged warning — the campaign completes
either way (``harness.campaign.degraded`` records that it happened).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.telemetry.counters import CounterRegistry, merge_dumps

from . import store
from .experiments import (
    ALL_EXPERIMENTS,
    UNSHARDED_EXPERIMENTS,
    experiment_workloads,
)
from .hashing import content_hash
from .isolation import (
    TRANSIENT_KINDS,
    ExperimentFailure,
    process_isolation_available,
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
    retry, never past ``timeout``).  ``cancel``, when set, abandons the
    in-flight attempt (child terminated) and returns a
    ``CANCELLED_KIND`` outcome instead of retrying.
    """

    timeout: Optional[float] = None
    adaptive_timeout: Optional[float] = None
    max_attempts: int = 3
    backoff_base: float = 0.5
    backoff_cap: float = 30.0
    sleep: Callable[[float], None] = time.sleep
    cancel: Optional[threading.Event] = None

    def backoff(self, attempt: int) -> float:
        """Delay before retry number ``attempt + 1`` (exponential,
        capped)."""
        return min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))


def execute_cell(cell: CampaignCell, policy: ExecutionPolicy) -> CellOutcome:
    """Run one cell to completion under ``policy``: crash-isolated
    attempts, transient retries with backoff, hang reseeding, adaptive
    timeout escalation.  Returns the outcome with its full attempt
    ledger (never raises)."""
    ledger: List[Dict] = []
    kwargs = dict(cell.kwargs)
    started = time.time()
    failure: Optional[ExperimentFailure] = None
    table: Optional[ExperimentTable] = None
    adaptive = policy.adaptive_timeout
    timeout = adaptive if adaptive is not None else policy.timeout
    for attempt in range(1, policy.max_attempts + 1):
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
        transient = outcome.kind in TRANSIENT_KINDS
        final = (attempt == policy.max_attempts) or not transient
        delay = 0.0 if final else policy.backoff(attempt)
        entry = {
            "attempt": attempt,
            "status": "failed",
            "kind": outcome.kind,
            "message": outcome.message,
            "backoff_s": delay,
        }
        if adaptive is not None:
            entry["timeout_s"] = round(timeout, 3)
        if (
            not final
            and outcome.kind == "Timeout"
            and adaptive is not None
        ):
            # An adaptive timeout that fired may simply have been too
            # tight (machine load, cold caches): double the allowance
            # for the retry, never past the campaign-level timeout.
            timeout = timeout * 2.0
            if policy.timeout is not None:
                timeout = min(timeout, policy.timeout)
        if not final and outcome.kind == "SimulationHang" and isinstance(
            kwargs.get("seed"), int
        ):
            kwargs = {**kwargs, "seed": kwargs["seed"] + 1000 * attempt}
            entry["reseeded"] = kwargs["seed"]
        ledger.append(entry)
        if final:
            failure.attempts = attempt
            break
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


def derive_adaptive_timeouts(
    cells: Sequence[CampaignCell],
    history: Dict[str, Dict],
    *,
    timeout: Optional[float],
) -> Dict[str, float]:
    """Per-cell wall-clock timeouts from previous-run durations: a cell
    that completed before (same config hash) gets ``max(floor, duration
    * margin)``, never above the campaign-level ``timeout``.  Shared by
    the local runner and the distributed coordinator (which hands the
    derived allowance to workers with each lease)."""
    derived: Dict[str, float] = {}
    for cell in cells:
        entry = history.get(cell.key)
        if (
            entry is None
            or entry.get("status") not in ("ok", "restored")
            or entry.get("config_hash") != cell.config_hash()
        ):
            continue
        duration = entry.get("duration_s")
        if not isinstance(duration, (int, float)) or duration <= 0:
            continue
        allowance = max(
            ADAPTIVE_TIMEOUT_FLOOR, duration * ADAPTIVE_TIMEOUT_MARGIN
        )
        if timeout is not None:
            allowance = min(allowance, timeout)
        derived[cell.key] = allowance
    return derived


def load_timeout_history(
    out_dir: Optional[str],
) -> Dict[str, Dict]:
    """Combined duration history under ``out_dir``: the previous
    manifest's entries overlaid with the shared ``timeout_history.json``
    (which concurrent workers merge into, so it wins when both know a
    cell).  The result feeds :func:`derive_adaptive_timeouts` and
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
    write and the manifest rewrite — which callers surface loudly
    (counter + log line) instead of silently trusting.  Shared by the
    local runner and the distributed coordinator so resume semantics
    cannot drift between them."""
    path = store.checkpoint_path(out_dir, cell.key, cell.config_hash())
    try:
        data = store.read_json(path)
    except (OSError, ValueError):
        return None, False
    if store.validate_checkpoint(data, cell.key, cell.config_hash()):
        return None, False
    if data.get("status") != "ok":
        return None, False  # recorded failures always re-execute
    try:
        table = ExperimentTable.from_dict(data["table"])
    except (KeyError, TypeError, ValueError):
        return None, False
    entry = manifest.get(cell.key)
    if (
        entry is None
        or entry.get("status") not in ("ok", "restored")
        or entry.get("config_hash") != cell.config_hash()
    ):
        return None, True
    return CellOutcome(
        cell=cell,
        table=table,
        failure=None,
        ledger=list(data.get("ledger", [])),
        duration_s=float(data.get("duration_s", 0.0)),
        restored=True,
    ), False


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


class CampaignRunner:
    """Executes a list of :class:`CampaignCell`\\ s with sharding,
    checkpoints, retry/backoff and graceful degradation (module
    docstring has the full story).

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
        keys = [cell.key for cell in cells]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"duplicate cell keys: {dupes}")
        if resume and out_dir is None:
            raise ValueError("resume requires an out_dir to resume from")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        workers = resolve_workers(workers, echo)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.cells = list(cells)
        self.workers = workers
        self.out_dir = out_dir
        self.resume = resume
        self.timeout = timeout
        self.adaptive_timeout = adaptive_timeout
        #: cell key -> history-derived wall-clock timeout (seconds),
        #: seeded from the previous manifest in :meth:`run`
        self._cell_timeouts: Dict[str, float] = {}
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.keep_going = keep_going
        self._sleep = sleep
        self._echo = echo
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._outcomes: Dict[str, CellOutcome] = {}
        self._history = TimeoutHistory()
        self._degraded = False
        self.counters = CounterRegistry()
        self.counters.metadata.update(
            campaign="harness", workers=workers, resume=resume,
        )
        for leaf in CAMPAIGN_COUNTER_LEAVES:
            self.counters.counter(f"harness.campaign.{leaf}")

    # ------------------------------------------------------------------
    # checkpoint plumbing
    # ------------------------------------------------------------------

    def _checkpoint_path(self, cell: CampaignCell) -> str:
        return store.checkpoint_path(
            self.out_dir, cell.key, cell.config_hash()
        )

    def _load_checkpoint(
        self, cell: CampaignCell, manifest: Dict[str, Dict]
    ) -> Optional[CellOutcome]:
        """Restore a cell via the shared :func:`restore_outcome`; a torn
        write (valid checkpoint the manifest never corroborated) is
        surfaced as stale-and-rerun instead of silently trusted."""
        outcome, torn = restore_outcome(cell, self.out_dir, manifest)
        if torn:
            self.counters.counter("harness.campaign.torn").add(1)
            self._echo(
                f"[campaign] {cell.key}: checkpoint not corroborated by "
                "the manifest (torn write: driver died between checkpoint "
                "and manifest rewrite); treating as stale and re-running"
            )
        return outcome

    def _write_checkpoint(self, outcome: CellOutcome) -> None:
        """Persist one finished cell atomically (tmp file + rename,
        gzip-compressed), so a SIGKILL mid-write can never leave a
        half-checkpoint that a later ``--resume`` would trust."""
        if self.out_dir is None:
            return
        store.write_json(
            self._checkpoint_path(outcome.cell),
            store.build_checkpoint(outcome),
            compress=True,
        )

    def _write_manifest(self) -> Optional[str]:
        """(Re)write ``manifest.json`` reflecting every cell's current
        status — called as cells finish, so a killed campaign leaves an
        honest partial manifest behind."""
        if self.out_dir is None:
            return None
        payload = store.manifest_payload(
            self.cells, self._outcomes, out_dir=self.out_dir,
            workers=self.workers, degraded=self._degraded,
            resume=self.resume,
        )
        path = store.manifest_path(self.out_dir)
        store.write_json(path, payload)
        return path

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _run_cell(self, cell: CampaignCell) -> CellOutcome:
        """Run one cell via the shared :func:`execute_cell` loop (policy-
        driven, so distributed workers reuse it verbatim)."""
        policy = ExecutionPolicy(
            timeout=self.timeout,
            adaptive_timeout=self._cell_timeouts.get(cell.key),
            max_attempts=self.max_attempts,
            backoff_base=self.backoff_base,
            backoff_cap=self.backoff_cap,
            sleep=self._sleep,
        )
        return execute_cell(cell, policy)

    def _record(self, outcome: CellOutcome) -> None:
        """Book one finished cell: shared state, counters, checkpoint,
        manifest, progress line (thread-safe)."""
        with self._lock:
            self._outcomes[outcome.cell.key] = outcome
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
            if not outcome.restored:
                self._write_checkpoint(outcome)
                if outcome.ok:
                    self._history.record(outcome.cell, outcome.duration_s)
            self._write_manifest()
            if outcome.restored:
                self._echo(f"[campaign] {outcome.cell.key}: restored "
                           "from checkpoint")
            elif outcome.ok:
                self._echo(
                    f"[campaign] {outcome.cell.key}: ok "
                    f"({outcome.duration_s:.1f}s, "
                    f"{len(outcome.ledger)} attempt(s))"
                )
            else:
                self._echo(
                    f"[campaign] {outcome.cell.key}: FAILED "
                    f"({outcome.failure.kind}) after "
                    f"{len(outcome.ledger)} attempt(s)"
                )
        if not outcome.ok and not self.keep_going:
            self._stop.set()

    def _worker(self, queue: List[CampaignCell]) -> None:
        """Supervisor loop: pop the next pending cell, run it, record it;
        exits when the queue drains or stop-on-failure triggers."""
        while True:
            if self._stop.is_set():
                return
            with self._lock:
                if not queue:
                    return
                cell = queue.pop(0)
            self._record(self._run_cell(cell))

    def _degrade(self, reason: str) -> None:
        """Fall back to serial execution, loudly."""
        if not self._degraded:
            self._degraded = True
            self.counters.counter("harness.campaign.degraded").add(1)
            self._echo(f"[campaign] warning: {reason}; "
                       "falling back to serial execution")

    def _seed_adaptive_timeouts(self, manifest: Dict[str, Dict]) -> None:
        """Derive per-cell wall-clock timeouts from the previous
        manifest's durations: a cell that completed before (same config
        hash) gets ``max(ADAPTIVE_TIMEOUT_FLOOR, duration *
        ADAPTIVE_TIMEOUT_MARGIN)``, never above the campaign-level
        timeout.  Cells without usable history keep the global timeout."""
        if not self.adaptive_timeout:
            return
        self._cell_timeouts = derive_adaptive_timeouts(
            self.cells, manifest, timeout=self.timeout
        )
        derived = len(self._cell_timeouts)
        if derived:
            self.counters.counter(
                "harness.campaign.adaptive_timeouts"
            ).add(derived)
            self._echo(
                f"[campaign] adaptive timeouts derived for {derived} "
                "cell(s) from the previous manifest"
            )

    def run(self) -> CampaignResult:
        """Execute the campaign; returns the merged
        :class:`CampaignResult` (never raises for cell failures — they
        are data, reported in ``failures``)."""
        self.counters.counter("harness.campaign.cells").add(len(self.cells))
        self._seed_adaptive_timeouts(load_timeout_history(self.out_dir))
        # Checkpoint corroboration on resume uses the manifest alone —
        # a synthesized timeout-history entry must never vouch for a
        # torn checkpoint.
        manifest = (
            store.load_manifest_entries(self.out_dir)
            if self.resume else {}
        )
        pending: List[CampaignCell] = []
        for cell in self.cells:
            restored = (
                self._load_checkpoint(cell, manifest) if self.resume
                else None
            )
            if restored is not None:
                self._record(restored)
            else:
                pending.append(cell)

        workers = self.workers
        if workers > 1 and not process_isolation_available():
            self._degrade(
                "no multiprocessing start method on this platform"
            )
            workers = 1
        if workers > 1 and pending:
            threads: List[threading.Thread] = []
            try:
                for i in range(min(workers, len(pending))):
                    thread = threading.Thread(
                        target=self._worker,
                        args=(pending,),
                        name=f"campaign-worker-{i}",
                        daemon=True,
                    )
                    thread.start()
                    threads.append(thread)
            except (RuntimeError, OSError) as exc:
                self._degrade(f"worker pool setup failed ({exc})")
            # Drain alongside (or instead of) the pool: the shared queue
            # makes the serial fallback the same loop on the main thread.
            if self._degraded:
                self._worker(pending)
            for thread in threads:
                thread.join()
        else:
            self._worker(pending)

        return self._collect()

    # ------------------------------------------------------------------
    # merge + report
    # ------------------------------------------------------------------

    def _collect(self) -> CampaignResult:
        """Merge outcomes deterministically via the shared
        :func:`merge_outcomes` and write the merge artifacts
        (``tables.json``/``counters.json`` deterministic,
        ``ops_counters.json`` run-shape — module docstring)."""
        merged = merge_outcomes(self.cells, self._outcomes)
        cell_dumps = merged["cell_dumps"]
        counters = merge_dumps([self.counters.to_dict()] + cell_dumps)
        manifest_path = self._write_manifest()
        counters_path = ops_counters_path = tables_path = None
        if self.out_dir is not None:
            self._history.flush(self.out_dir)
            paths = store.write_merge_artifacts(
                self.out_dir, merged["tables"], cell_dumps,
                [self.counters.to_dict()],
            )
            tables_path = paths["tables"]
            counters_path = paths["counters"]
            ops_counters_path = paths["ops_counters"]
        return CampaignResult(
            tables=merged["tables"],
            failures=merged["failures"],
            completed=merged["completed"],
            skipped=merged["skipped"],
            failed=merged["failed"],
            not_run=merged["not_run"],
            group_seconds=merged["group_seconds"],
            degraded=self._degraded,
            counters=counters,
            failed_groups=merged["failed_groups"],
            manifest_path=manifest_path,
            counters_path=counters_path,
            ops_counters_path=ops_counters_path,
            tables_path=tables_path,
        )

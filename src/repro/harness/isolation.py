"""Crash isolation for harness experiments.

``python -m repro.harness all`` runs many independent simulations; one
wedged or crashing experiment must not take the whole campaign down.
:func:`run_experiment_isolated` executes one experiment function in a
forked child process with

- a **wall-clock timeout**: a child that outlives it is terminated and
  reported as a timeout instead of hanging the harness forever;
- **structured failure capture**: any exception in the child (including
  :class:`repro.chaos.SimulationHang` and
  :class:`repro.chaos.InvariantViolation`) comes back as a picklable
  :class:`ExperimentFailure` carrying the exception type, message and
  traceback text;
- **bounded retry with a fresh seed**: when the child failed with a
  watchdog trip (``SimulationHang``) and the caller supplied a
  ``reseed`` hook, the experiment is retried up to ``retries`` times
  with reseeded keyword arguments — the chaos campaign's escape hatch
  from a seed that genuinely wedges the simulation.

Results cross the process boundary over a ``multiprocessing`` pipe, so
experiment functions must return picklable values
(:class:`~repro.harness.results.ExperimentTable` is).  On platforms
without the ``fork`` start method the child uses ``spawn`` instead —
slower to start, but timeouts stay enforceable by killing the child
(the experiment function must then be an importable module-level
callable, which every harness experiment is).  Only when *neither*
start method exists does the experiment run in-process, where failures
are still captured but a timeout cannot be enforced.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

#: pipe-poll slice when a supervisor supplied a cancel event: the child
#: stays killable within this latency even mid-timeout
POLL_SLICE_S = 0.05

#: failure kinds worth retrying — this module's ``Timeout`` and
#: ``ChildCrash`` and the watchdog's ``SimulationHang``: they depend on
#: scheduling/load, not on the inputs (a crash or invariant violation
#: is deterministic under the same inputs and retrying it only burns
#: time).  The campaign runner and the serve shell both retry on it.
TRANSIENT_KINDS = frozenset({"Timeout", "SimulationHang", "ChildCrash"})


@dataclass
class ExperimentFailure:
    """A structured record of one failed experiment attempt."""

    name: str
    kind: str  #: exception type name, or "Timeout"
    message: str
    traceback_text: str = ""
    attempts: int = 1
    #: kwargs of the failing attempt (after any reseeding)
    kwargs: Dict = field(default_factory=dict)

    def render(self) -> str:
        """One-paragraph human-readable report."""
        out = [
            f"experiment {self.name!r} FAILED after "
            f"{self.attempts} attempt(s): {self.kind}: {self.message}"
        ]
        if self.traceback_text:
            out.append(self.traceback_text.rstrip())
        return "\n".join(out)


def _child_main(conn, fn, args, kwargs):
    """Child-process entry: run ``fn`` and ship the outcome up the pipe."""
    try:
        result = fn(*args, **kwargs)
        conn.send(("ok", result))
    except BaseException as exc:  # noqa: BLE001 - isolation boundary
        conn.send(
            ("error", type(exc).__name__, str(exc), traceback.format_exc())
        )
    finally:
        conn.close()


def _exec_context():
    """The best multiprocessing context for crash isolation: ``fork``
    where available (cheap, inherits loaded state), else ``spawn`` — so a
    wall-clock timeout is still enforceable by terminating the child.
    ``None`` only when the platform offers neither start method."""
    for method in ("fork", "spawn"):
        try:
            return multiprocessing.get_context(method)
        except ValueError:
            continue
    return None  # pragma: no cover - no start method at all


def process_isolation_available() -> bool:
    """True when experiments can run in a killable child process (some
    multiprocessing start method exists).  The campaign runner degrades
    to serial in-process execution when this is False."""
    return _exec_context() is not None


def _run_once(
    fn: Callable,
    args: Tuple,
    kwargs: Dict,
    timeout: Optional[float],
    cancel: Optional[threading.Event] = None,
) -> Tuple[str, object, str, str]:
    """One attempt; returns ``(status, result, message, tb)`` where status
    is ``"ok"``, ``"error"``, ``"timeout"`` or ``"cancelled"`` (result
    holds the error's type name for ``"error"``)."""
    ctx = _exec_context()
    if ctx is None:  # pragma: no cover - no start method: in-process
        try:
            return ("ok", fn(*args, **kwargs), "", "")
        except BaseException as exc:  # noqa: BLE001
            return ("error", type(exc).__name__, str(exc),
                    traceback.format_exc())
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_child_main, args=(child_conn, fn, args, kwargs), daemon=True
    )
    proc.start()
    child_conn.close()
    if cancel is None:
        ready = parent_conn.poll(timeout)
    else:
        # Slice the wait so a fired cancel event (lease lost, worker
        # shutdown) terminates the child within ~POLL_SLICE_S instead of
        # riding out the full timeout.
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        ready = False
        while True:
            if cancel.is_set():
                proc.terminate()
                proc.join()
                parent_conn.close()
                return (
                    "cancelled", "Cancelled",
                    "cancelled by supervisor (lease lost or shutdown)", "",
                )
            remaining = (
                POLL_SLICE_S if deadline is None
                else min(POLL_SLICE_S, deadline - time.monotonic())
            )
            if remaining > 0 and parent_conn.poll(remaining):
                ready = True
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
    if not ready:
        proc.terminate()
        proc.join()
        parent_conn.close()
        return (
            "timeout", "Timeout",
            f"exceeded {timeout:g}s wall-clock timeout", "",
        )
    try:
        payload = parent_conn.recv()
    except EOFError:
        proc.join()
        parent_conn.close()
        code = proc.exitcode
        return (
            "error", "ChildCrash",
            f"experiment process died with exit code {code}", "",
        )
    proc.join()
    parent_conn.close()
    if payload[0] == "ok":
        return ("ok", payload[1], "", "")
    _, kind, message, tb = payload
    return ("error", kind, message, tb)


def run_experiment_isolated(
    name: str,
    fn: Callable,
    args: Tuple = (),
    kwargs: Optional[Dict] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    reseed: Optional[Callable[[int, Dict], Dict]] = None,
    cancel: Optional[threading.Event] = None,
):
    """Run ``fn(*args, **kwargs)`` crash-isolated; returns the result or
    an :class:`ExperimentFailure`.

    ``retries`` bounds *additional* attempts after a ``SimulationHang``
    failure; each retry's kwargs come from ``reseed(attempt, kwargs)``
    (typically bumping a ``seed`` argument).  Other failure kinds —
    crashes, invariant violations, timeouts — are never retried: they are
    deterministic under the same inputs or indicate a harness-level
    problem a fresh seed cannot fix.

    ``cancel``, when supplied, is polled while the child runs: a fired
    event terminates the child and returns a ``Cancelled`` failure
    immediately (distributed workers cancel in-flight cells whose lease
    was lost).  ``Cancelled`` is never retried.
    """
    kwargs = dict(kwargs or {})
    attempts = 0
    while True:
        attempts += 1
        status, result, message, tb = _run_once(
            fn, args, kwargs, timeout, cancel
        )
        if status == "ok":
            return result
        retryable = (
            status == "error"
            and result == "SimulationHang"
            and reseed is not None
            and attempts <= retries
        )
        if not retryable:
            if status == "error":
                kind = result
            elif status == "cancelled":
                kind = "Cancelled"
            else:
                kind = "Timeout"
            return ExperimentFailure(
                name=name,
                kind=kind,
                message=message,
                traceback_text=tb,
                attempts=attempts,
                kwargs=kwargs,
            )
        kwargs = reseed(attempts, kwargs)

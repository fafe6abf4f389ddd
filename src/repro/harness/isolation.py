"""Crash isolation for harness experiments, and the retry rule its
callers share.

``python -m repro.harness all`` runs many independent simulations; one
wedged or crashing experiment must not take the whole campaign down.
:func:`run_experiment_isolated` executes one attempt of an experiment
function in a forked child process with

- a **wall-clock timeout**: a child that outlives it is terminated and
  reported as a timeout instead of hanging the harness forever;
- **structured failure capture**: any exception in the child (including
  :class:`repro.chaos.SimulationHang` and
  :class:`repro.chaos.InvariantViolation`) comes back as a picklable
  :class:`ExperimentFailure` carrying the exception type, message and
  traceback text.

Whether a failed attempt is tried again is the caller's loop, and every
such loop takes its decisions from a :class:`RetryPolicy`: which failure
kinds retry (:data:`TRANSIENT_KINDS`), how long to wait before the next
attempt, and which seed the next attempt runs with.  The campaign
runner, the fleet worker and both serve shells each build one.

Results cross the process boundary over a ``multiprocessing`` pipe, so
experiment functions must return picklable values
(:class:`~repro.harness.results.ExperimentTable` is).  On platforms
without the ``fork`` start method the child uses ``spawn`` instead —
slower to start, but timeouts stay enforceable by killing the child
(the experiment function must then be an importable module-level
callable, which every harness experiment is).
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Tuple

#: pipe-poll slice when a supervisor supplied a cancel event: the child
#: stays killable within this latency even mid-timeout
POLL_SLICE_S = 0.05

#: failure kinds worth retrying — this module's ``Timeout`` and
#: ``ChildCrash`` and the watchdog's ``SimulationHang``: they depend on
#: scheduling/load, not on the inputs (a crash or invariant violation
#: is deterministic under the same inputs and retrying it only burns
#: time).  :meth:`RetryPolicy.retries` is the one reader.
TRANSIENT_KINDS = frozenset({"Timeout", "SimulationHang", "ChildCrash"})


@dataclass(frozen=True)
class RetryPolicy:
    """The one retry rule of the harness and serve layers.

    A failed attempt gets another one when its kind is transient
    (:data:`TRANSIENT_KINDS`) and fewer than ``max_attempts`` attempts
    have run.  The wait before attempt ``n + 1`` is
    ``min(backoff_cap, backoff_base * 2**(n - 1))`` (no cap when
    ``backoff_cap`` is None), in whatever unit the owner keeps time:
    seconds, or simulated cycles in the virtual-time serve shell.
    Only a ``SimulationHang`` changes the next attempt's inputs: a hang
    is usually specific to one injection schedule, so an int ``seed``
    is bumped by ``1000 * n``.  Every other retry reruns the same
    inputs, so its result is the one the caller asked for.
    """

    max_attempts: int
    backoff_base: float
    backoff_cap: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def retries(self, kind: str, attempt: int) -> bool:
        """True when attempt ``attempt``, failed with ``kind``, gets
        another attempt."""
        return kind in TRANSIENT_KINDS and attempt < self.max_attempts

    def delay(self, attempt: int) -> float:
        """The wait between attempt ``attempt`` and the next one."""
        delay = self.backoff_base * 2 ** (attempt - 1)
        if self.backoff_cap is None:
            return delay
        return min(self.backoff_cap, delay)

    def next_kwargs(self, kind: str, attempt: int, kwargs: Dict) -> Dict:
        """The inputs of the attempt after attempt ``attempt`` failed
        with ``kind``: reseeded after a hang, else ``kwargs`` itself."""
        seed = kwargs.get("seed")
        if kind == "SimulationHang" and isinstance(seed, int):
            return {**kwargs, "seed": seed + 1000 * attempt}
        return kwargs

    def attempts(self) -> Iterator[int]:
        """Attempt numbers ``1..max_attempts``, sleeping :meth:`delay`
        seconds between two of them — for a caller that retries every
        failure it catches (the fleet worker's network calls); after
        the last attempt it does not sleep."""
        for attempt in range(1, self.max_attempts + 1):
            if attempt > 1:
                time.sleep(self.delay(attempt - 1))
            yield attempt


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
    """The multiprocessing context for crash isolation: ``fork`` where
    available (cheap, inherits loaded state), else ``spawn``, which
    every platform CPython supports — so a wall-clock timeout is always
    enforceable by terminating the child."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context("spawn")


def run_experiment_isolated(
    name: str,
    fn: Callable,
    args: Tuple = (),
    kwargs: Optional[Dict] = None,
    timeout: Optional[float] = None,
    cancel: Optional[threading.Event] = None,
):
    """Run one attempt of ``fn(*args, **kwargs)`` crash-isolated;
    returns the result or an :class:`ExperimentFailure`.

    ``cancel``, when supplied, is polled while the child runs: a fired
    event terminates the child and returns a ``Cancelled`` failure
    immediately (distributed workers cancel in-flight cells whose lease
    was lost).
    """
    kwargs = dict(kwargs or {})
    ctx = _exec_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_child_main, args=(child_conn, fn, args, kwargs), daemon=True
    )
    proc.start()
    child_conn.close()

    def failure(kind: str, message: str, tb: str = "") -> ExperimentFailure:
        return ExperimentFailure(
            name=name, kind=kind, message=message, traceback_text=tb,
            kwargs=kwargs,
        )

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
                return failure(
                    "Cancelled",
                    "cancelled by supervisor (lease lost or shutdown)",
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
        return failure("Timeout", f"exceeded {timeout:g}s wall-clock timeout")
    try:
        payload = parent_conn.recv()
    except EOFError:
        proc.join()
        parent_conn.close()
        return failure(
            "ChildCrash",
            f"experiment process died with exit code {proc.exitcode}",
        )
    proc.join()
    parent_conn.close()
    if payload[0] == "ok":
        return payload[1]
    _, kind, message, tb = payload
    return failure(kind, message, tb)

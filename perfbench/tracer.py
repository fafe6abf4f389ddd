"""Boundary timers for the traced benchmark run.

The traced run wraps layer entry points of the program from the
benchmark's own files; nothing in ``src/`` knows about it.  Two kinds of
boundary exist:

* **hot** boundaries keep only a call count, total time and self time
  (the per-instruction and per-event entry points);
* **span** boundaries additionally record one span per call — name,
  layer, start, end, self time, parent span, process, thread and the
  id of the request being served — kept in memory and written out at
  the end (:func:`chrome_trace`).

Self time is a boundary's duration minus the time of the boundaries it
called.  Nesting is tracked on a per-thread stack; a forked child
inherits the stack of the forking thread, so the child's root span names
its parent (the isolated call that forked it) and the analysis subtracts
child-process time from that parent.  Coroutine boundaries do not use
the stack: their duration includes awaiting, and the request id they set
reaches the synchronous calls, worker threads and forked children that
serve the request through a context variable.

A boundary whose target no longer exists (a refactor renamed it) is
listed in ``missing`` and not installed: its time then falls into the
caller's self time or into ``unattributed_s``, and the run goes on.
"""

from __future__ import annotations

import contextvars
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

now = time.monotonic  # CLOCK_MONOTONIC: comparable across processes

#: id of the serve request whose work is running (set by async spans)
REQUEST = contextvars.ContextVar("perfbench_request", default=None)


@dataclass(frozen=True)
class Boundary:
    """One timed entry point: ``target`` is ``module:Attr.path``."""

    target: str
    layer: str
    #: hot | span | unit (a span whose id tags every span of the case
    #: or cell it runs) | async (a request coroutine) | await (a
    #: coroutine a request awaits) | callbacks
    kind: str = "hot"
    #: sum the call's integer return value (instructions issued, ...)
    sum_result: bool = False
    #: ``hook(tracer, args, kwargs, result) -> dict`` merged into the span
    hook: Optional[Callable] = None

    @property
    def name(self) -> str:
        return self.target.split(":", 1)[1]


def _resolve(target: str):
    module_name, path = target.split(":", 1)
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _like(wrapper, fn):
    for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
        try:
            setattr(wrapper, attr, getattr(fn, attr))
        except (AttributeError, TypeError):
            pass
    wrapper.__wrapped__ = fn
    return wrapper


class Tracer:
    """Per-process boundary accumulators, span list and nesting stack."""

    def __init__(self, module_layers: Optional[Dict[str, str]] = None):
        self.local = threading.local()
        #: boundary name -> [calls, total_s, self_s, result_sum]
        self.hot: Dict[str, List] = {}
        self.layer_of: Dict[str, str] = {}
        self.spans: List[Dict] = []
        #: named counts read from public result objects
        self.counts: Dict[str, float] = {}
        self.missing: List[str] = []
        #: thread id -> [first root start, last root end]: each thread's
        #: busy window
        self.threads: Dict[int, List[float]] = {}
        #: module prefix -> layer, for event callbacks
        self.module_layers = dict(module_layers or {})
        self._seq = itertools.count(1)
        self._installed: List = []
        self._lock = threading.Lock()
        self.pid = os.getpid()

    def _stack(self) -> List:
        try:
            return self.local.stack
        except AttributeError:
            stack = self.local.stack = []
            return stack

    def _stats(self, name: str, layer: str) -> List:
        self.layer_of[name] = layer
        return self.hot.setdefault(name, [0, 0.0, 0.0, 0])

    def _root(self, t0: float, t1: float) -> None:
        """A depth-0 boundary call ended: extend its thread's window."""
        rec = self.threads.get(threading.get_ident())
        if rec is None:
            self.threads[threading.get_ident()] = [t0, t1]
        else:
            rec[1] = t1

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def reset_after_fork(self) -> None:
        """Forget what the parent accumulated (the fork copied it); keep
        the stack so the child's root span names its parent."""
        self.pid = os.getpid()
        self._lock = threading.Lock()  # another thread may have held it
        for stats in self.hot.values():
            stats[:] = [0, 0.0, 0.0, 0]
        self.spans = []
        self.counts = {}
        self.threads = {}

    # -- installation ----------------------------------------------------

    def install(self, boundaries: List[Boundary]) -> None:
        for b in boundaries:
            try:
                owner, attr, original = _resolve(b.target)
            except (ImportError, AttributeError):
                self.missing.append(b.name)
                continue
            if b.kind == "callbacks":
                wrapped = self._callbacks(original)
            elif b.kind in ("async", "await"):
                wrapped = self.async_span(b.name, b.layer, original, b.hook,
                                          root=b.kind == "async")
            elif b.kind in ("span", "unit") or b.hook is not None:
                wrapped = self.span(b.name, b.layer, original, b.hook,
                                    unit=b.kind == "unit")
            else:
                wrapped = self._hot(b.name, b.layer, original, b.sum_result)
            self._set(owner, attr, wrapped)

    def _set(self, owner, attr: str, wrapped) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed = []

    # -- wrappers --------------------------------------------------------

    def _hot(self, name: str, layer: str, fn, sum_result: bool = False):
        st = self._stats(name, layer)
        local = self.local
        tracer = self

        def timed(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            frame = [0.0, stack[-1][1] if stack else None]
            stack.append(frame)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = now() - t0
                stack.pop()
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    tracer._root(t0, t0 + dt)
            if sum_result:
                st[3] += result
            return result

        return _like(timed, fn)

    def span(self, name: str, layer: str, fn, hook=None, unit=False):
        """``fn`` wrapped as a span boundary; a ``unit`` span's id becomes
        the request id of everything it calls."""
        st = self._stats(name, layer)
        tracer = self

        def timed(*args, **kwargs):
            stack = tracer._stack()
            sid = f"{tracer.pid}:{next(tracer._seq)}"
            parent = stack[-1][1] if stack else None
            frame = [0.0, sid]
            stack.append(frame)
            result = None
            ok = False
            token = REQUEST.set(sid) if unit else None
            t0 = now()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = now()
                dt = t1 - t0
                if token is not None:
                    REQUEST.reset(token)
                stack.pop()
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    tracer._root(t0, t1)
                rec = {
                    "id": sid, "name": name, "layer": layer,
                    "start": t0, "end": t1, "self": dt - frame[0],
                    "parent": parent, "pid": tracer.pid,
                    "tid": threading.get_ident(),
                    "req": sid if unit else REQUEST.get(),
                }
                if hook is not None and ok:
                    rec.update(hook(tracer, args, kwargs, result) or {})
                tracer.spans.append(rec)

        return _like(timed, fn)

    def async_span(self, name: str, layer: str, fn, hook=None, root=True):
        """Coroutine ``fn`` wrapped as a span (not on the stack: its
        duration includes awaiting).  A ``root`` span's id becomes the
        request id of everything it runs; any other is tagged with the
        request that awaits it."""
        st = self._stats(name, layer)
        tracer = self

        async def timed(*args, **kwargs):
            sid = f"{tracer.pid}:{next(tracer._seq)}"
            token = REQUEST.set(sid) if root else None
            t0 = now()
            try:
                return await fn(*args, **kwargs)
            finally:
                t1 = now()
                if token is not None:
                    REQUEST.reset(token)
                st[0] += 1
                st[1] += t1 - t0
                rec = {
                    "id": sid, "name": name, "layer": layer,
                    "start": t0, "end": t1, "self": 0.0, "parent": None,
                    "pid": tracer.pid, "tid": threading.get_ident(),
                    "req": sid if root else REQUEST.get(),
                }
                if hook is not None:
                    rec.update(hook(tracer, args, kwargs, None) or {})
                tracer.spans.append(rec)

        return _like(timed, fn)

    def _callbacks(self, schedule):
        """Wrap ``EventQueue.schedule``/``call`` so every event callback
        is timed under the layer of the module that defined it — the
        engine's own self time is then heap work and dispatch only."""
        tracer = self
        local = self.local
        by_func: Dict[object, List] = {}

        def stats_for(fn) -> List:
            func = getattr(fn, "func", fn)  # functools.partial
            func = getattr(func, "__func__", func)  # bound method
            st = by_func.get(func)
            if st is None:
                layer = tracer.layer_for_module(
                    getattr(func, "__module__", "") or ""
                )
                st = by_func[func] = tracer._stats(f"event:{layer}", layer)
            return st

        def scheduled(queue, when, fn):
            st = stats_for(fn)

            def timed_event(t):
                try:
                    stack = local.stack
                except AttributeError:
                    stack = local.stack = []
                frame = [0.0, stack[-1][1] if stack else None]
                stack.append(frame)
                t0 = now()
                try:
                    return fn(t)
                finally:
                    dt = now() - t0
                    stack.pop()
                    st[0] += 1
                    st[1] += dt
                    st[2] += dt - frame[0]
                    if stack:
                        stack[-1][0] += dt
                    else:
                        tracer._root(t0, t0 + dt)

            return schedule(queue, when, timed_event)

        return _like(scheduled, schedule)

    def layer_for_module(self, module: str) -> str:
        for prefix, layer in self.module_layers.items():
            if module == prefix or module.startswith(prefix + "."):
                return layer
        return ".".join(module.split(".")[1:3]) or "unknown"

    # -- output ----------------------------------------------------------

    def dump(self) -> Dict:
        return {
            "pid": self.pid,
            "hot": {k: v for k, v in self.hot.items() if v[0]},
            "layer_of": self.layer_of,
            "spans": self.spans,
            "counts": self.counts,
            "missing": self.missing,
            "threads": self.threads,
        }

    def append_to(self, path: str) -> None:
        """Append this process's state as one JSON line (one ``write``
        on an ``O_APPEND`` descriptor, so concurrent children do not
        interleave)."""
        line = (json.dumps(self.dump()) + "\n").encode()
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)


class ChildRoot:
    """Wraps the function an isolated call runs in its forked child: the
    child resets the inherited accumulators, times the call as its root
    span, and appends its state to the side file before the result goes
    back up the pipe."""

    def __init__(self, tracer: Tracer, fn, side_file: str, layer: str):
        self.tracer = tracer
        self.fn = fn
        self.side_file = side_file
        self.layer = layer

    def __call__(self, *args, **kwargs):
        tracer = self.tracer
        tracer.reset_after_fork()
        name = "child:" + getattr(self.fn, "__qualname__", "call")
        root = tracer.span(name, self.layer, self.fn)
        try:
            return root(*args, **kwargs)
        finally:
            tracer.append_to(self.side_file)


def load_dumps(path: str) -> List[Dict]:
    """Every process dump appended to ``path`` (missing file: none)."""
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def chrome_trace(dumps: List[Dict], t0: float) -> Dict:
    """The spans of every process in Chrome ``trace_event`` form (the
    format the program's own tracer exports), microseconds from ``t0``."""
    events = []
    for dump in dumps:
        for s in dump["spans"]:
            events.append({
                "name": s["name"], "cat": s["layer"], "ph": "X",
                "ts": round((s["start"] - t0) * 1e6, 3),
                "dur": round((s["end"] - s["start"]) * 1e6, 3),
                "pid": s["pid"], "tid": s["tid"] % 1000003,
                "args": {"id": s["id"], "parent": s["parent"],
                         "req": s["req"]},
            })
    events.sort(key=lambda e: e["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}

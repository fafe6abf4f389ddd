"""Hierarchical counter registry with per-interval sampling.

Counters are named by dot-separated paths following the convention
``gpu.<unit>[<index>].<group>.<leaf>`` — e.g. ``gpu.sm[3].warp_stall.fault``
or ``gpu.tlb.l2.miss`` (see docs/OBSERVABILITY.md for the full taxonomy).
Two kinds of metrics share one namespace:

``Counter``
    a mutable integer incremented on the simulator's hot paths (only when
    telemetry is enabled, so disabled runs pay nothing);
``gauge``
    a zero-overhead binding to an existing stats field — a callable read
    lazily at snapshot/sample time, so instrumenting a hot structure costs
    the hot path nothing at all.

``sample(now)`` appends a timestamped snapshot of every metric, giving a
time series (``series(path)``) suitable for plotting stall or miss rates
over the run.  ``rollup()`` folds the flat namespace into a nested tree
whose interior nodes carry subtree sums, and ``aggregate(pattern)`` sums a
glob over paths (``gpu.sm[*].warp_stall.fault``).

:func:`merge_dumps` combines the JSON dumps of several registries (the
shards of a parallel campaign) into one aggregated dump — values summed
per path, rollup recomputed — deterministically in the order given.
"""

from __future__ import annotations

import json
from fnmatch import fnmatchcase
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def _match(path: str, pattern: str) -> bool:
    """Glob match where ``[``/``]`` are literal (they are index brackets in
    the counter naming convention, not character classes), so
    ``gpu.sm[*].warp_stall.fault`` matches every SM's fault-stall counter."""
    return fnmatchcase(path, pattern.replace("[", "[[]"))


def rollup_flat(flat: Dict[str, float]) -> Dict:
    """Fold a flat ``{path: value}`` mapping into the nested rollup tree
    (interior nodes carry subtree sums in ``_total``) — the pure function
    behind :meth:`CounterRegistry.rollup`, reused when merging dumps."""
    tree: Dict = {}
    for path, value in flat.items():
        parts = path.split(".")
        node = tree
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            node["_total"] = node.get("_total", 0) + value
        node[parts[-1]] = value
    return tree


def merge_dumps(dumps: Sequence[Dict]) -> Dict:
    """Deterministically merge counter dumps (:meth:`CounterRegistry.to_dict`
    format): counter values are **summed** per path, metadata keys merge
    first-writer-wins (plus a ``merged_dumps`` count), samples concatenate
    in the order given — so the caller controls merge order (the campaign
    runner fixes it by cell key, never completion order) and two merges of
    the same dumps are identical.  The rollup tree is recomputed from the
    summed values."""
    counters: Dict[str, float] = {}
    metadata: Dict[str, object] = {}
    samples: List[Dict] = []
    for dump in dumps:
        for path, value in dump.get("counters", {}).items():
            counters[path] = counters.get(path, 0) + value
        for key, value in dump.get("metadata", {}).items():
            metadata.setdefault(key, value)
        samples.extend(dump.get("samples", []))
    metadata["merged_dumps"] = len(dumps)
    ordered = dict(sorted(counters.items()))
    return {
        "metadata": metadata,
        "counters": ordered,
        "rollup": rollup_flat(ordered),
        "samples": samples,
    }


class Counter:
    """One mutable integer metric, registered under a hierarchical path."""

    __slots__ = ("path", "value")

    def __init__(self, path: str) -> None:
        self.path = path
        self.value = 0

    def add(self, n: int = 1) -> None:
        """Increment by ``n`` (the only hot-path operation)."""
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.path}={self.value}>"


class CounterRegistry:
    """Flat path -> metric registry with hierarchical views and sampling."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Callable[[], float]] = {}
        self.samples: List[Tuple[float, Dict[str, float]]] = []
        self.metadata: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def counter(self, path: str) -> Counter:
        """Get (or create) the mutable counter registered at ``path``."""
        ctr = self._counters.get(path)
        if ctr is None:
            if path in self._gauges:
                raise ValueError(f"{path} is already registered as a gauge")
            ctr = self._counters[path] = Counter(path)
        return ctr

    def gauge(self, path: str, fn: Callable[[], float]) -> None:
        """Bind ``path`` to ``fn``, read lazily at snapshot/sample time."""
        if path in self._counters:
            raise ValueError(f"{path} is already registered as a counter")
        self._gauges[path] = fn

    def bind_stats(self, prefix: str, stats: object) -> None:
        """Register one gauge per public numeric field of a stats object
        (dataclass-style), named ``<prefix>.<field>``."""
        for name in vars(stats):
            if name.startswith("_"):
                continue
            value = getattr(stats, name)
            if isinstance(value, (int, float)):
                self.gauge(
                    f"{prefix}.{name}",
                    (lambda s=stats, n=name: getattr(s, n)),
                )

    def freeze(self) -> None:
        """Pin every gauge at its current value.  A finished run calls
        this: its gauges then hold numbers instead of the simulator parts
        they read, so the registry no longer keeps those alive."""
        for path, fn in self._gauges.items():
            self._gauges[path] = lambda value=fn(): value

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def value(self, path: str) -> float:
        """Current value of the metric at ``path`` (counter or gauge)."""
        ctr = self._counters.get(path)
        if ctr is not None:
            return ctr.value
        return self._gauges[path]()

    def paths(self) -> List[str]:
        """All registered paths, sorted."""
        return sorted(list(self._counters) + list(self._gauges))

    def snapshot(self) -> Dict[str, float]:
        """Flat ``{path: value}`` view of every metric, right now."""
        snap = {p: c.value for p, c in self._counters.items()}
        for path, fn in self._gauges.items():
            snap[path] = fn()
        return snap

    def aggregate(self, pattern: str) -> float:
        """Sum every metric whose path glob-matches ``pattern``."""
        return sum(
            v for p, v in self.snapshot().items() if _match(p, pattern)
        )

    def rollup(self) -> Dict:
        """Nested dict view; interior nodes hold subtree sums in ``_total``."""
        return rollup_flat(self.snapshot())

    # ------------------------------------------------------------------
    # time series
    # ------------------------------------------------------------------

    def sample(self, now: float) -> None:
        """Append a timestamped snapshot (one point of every time series)."""
        self.samples.append((now, self.snapshot()))

    def series(self, path: str) -> List[Tuple[float, float]]:
        """The sampled ``(time, value)`` series of one metric."""
        return [(t, snap.get(path, 0.0)) for t, snap in self.samples]

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-serializable dump: metadata, flat values, rollup, samples."""
        return {
            "metadata": dict(self.metadata),
            "counters": self.snapshot(),
            "rollup": self.rollup(),
            "samples": [
                {"time": t, "values": snap} for t, snap in self.samples
            ],
        }

    def write_json(self, path: str) -> str:
        """Write :meth:`to_dict` to ``path``; returns the path."""
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
        return path

    def render(self, pattern: Optional[str] = None, width: int = 48) -> str:
        """Human-readable flat dump (optionally filtered by a path glob)."""
        lines = []
        for p, v in sorted(self.snapshot().items()):
            if pattern is not None and not _match(p, pattern):
                continue
            val = f"{v:g}" if isinstance(v, float) else str(v)
            lines.append(f"{p:<{width}} {val}")
        return "\n".join(lines)

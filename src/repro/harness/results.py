"""Result tables for the experiment harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of the positive entries of ``values`` (0.0 if none).

    Uses :func:`math.fsum` so the result depends only on the *multiset*
    of values, never their order: campaign row order may legally differ
    between a freshly computed table and one rehydrated from a
    checkpoint (serialization sorts row labels), and the byte-identical
    merge contract requires the geomean to agree to the last bit anyway.
    """
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(math.fsum(math.log(v) for v in vals) / len(vals))


@dataclass
class ExperimentTable:
    """A named table of per-benchmark series (one column per variant)."""

    name: str
    description: str
    columns: List[str]
    rows: Dict[str, List[float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: files written alongside the table (telemetry traces, counter dumps)
    artifacts: Dict[str, str] = field(default_factory=dict)
    #: False for tables whose rows are raw tallies (event histograms),
    #: where a geomean row would be meaningless
    show_geomean: bool = True

    def add_row(self, label: str, values: Sequence[float]) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"{self.name}: row {label!r} has {len(values)} values for "
                f"{len(self.columns)} columns"
            )
        self.rows[label] = list(values)

    def column(self, name: str) -> List[float]:
        idx = self.columns.index(name)
        return [vals[idx] for vals in self.rows.values()]

    def geomeans(self) -> List[float]:
        return [geomean(self.column(c)) for c in self.columns]

    def render(self, fmt: str = "{:.3f}", label_width: int = 14) -> str:
        col_w = max(9, max(len(c) for c in self.columns) + 1)
        out = [f"== {self.name}: {self.description} =="]
        header = " " * label_width + "".join(f"{c:>{col_w}}" for c in self.columns)
        out.append(header)
        for label, vals in self.rows.items():
            cells = "".join(f"{fmt.format(v):>{col_w}}" for v in vals)
            out.append(f"{label:<{label_width}}{cells}")
        if self.show_geomean:
            gm = self.geomeans()
            cells = "".join(f"{fmt.format(v):>{col_w}}" for v in gm)
            out.append(f"{'GEOMEAN':<{label_width}}{cells}")
        for note in self.notes:
            out.append(f"  note: {note}")
        for kind, path in self.artifacts.items():
            out.append(f"  artifact: {kind} -> {path}")
        return "\n".join(out)

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "description": self.description,
            "columns": self.columns,
            "rows": self.rows,
            "geomeans": self.geomeans(),
            "notes": self.notes,
            "artifacts": self.artifacts,
            "show_geomean": self.show_geomean,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentTable":
        """Rebuild a table from :meth:`to_dict` output (the campaign
        runner's checkpoint format); geomeans are recomputed, not read."""
        table = cls(
            name=data["name"],
            description=data["description"],
            columns=list(data["columns"]),
            notes=list(data.get("notes", [])),
            artifacts=dict(data.get("artifacts", {})),
            show_geomean=bool(data.get("show_geomean", True)),
        )
        for label, values in data["rows"].items():
            table.add_row(label, values)
        return table

    def with_row_prefix(self, prefix: str) -> "ExperimentTable":
        """A copy whose row labels carry ``prefix`` — how campaign shards
        that would otherwise collide (e.g. per-workload chaos tables all
        keyed by scheme) stay distinct when merged."""
        if not prefix:
            return self
        data = self.to_dict()
        data["rows"] = {
            f"{prefix}{label}": values
            for label, values in self.rows.items()
        }
        return type(self).from_dict(data)


def merge_tables(shards: Sequence[ExperimentTable]) -> ExperimentTable:
    """Merge shard tables of one experiment into a single table.

    Rows are concatenated **in shard order** (the caller fixes that order
    by cell key, never by completion order, so a parallel campaign merges
    deterministically); columns must agree; notes are deduplicated
    preserving first occurrence; artifacts merge with first-writer-wins.
    Duplicate row labels are an error — shards must partition the rows.
    """
    if not shards:
        raise ValueError("merge_tables needs at least one shard")
    first = shards[0]
    merged = ExperimentTable(
        name=first.name,
        description=first.description,
        columns=list(first.columns),
        show_geomean=first.show_geomean,
    )
    for shard in shards:
        if shard.columns != first.columns:
            raise ValueError(
                f"{first.name}: shard {shard.name!r} columns "
                f"{shard.columns} != {first.columns}"
            )
        for label, values in shard.rows.items():
            if label in merged.rows:
                raise ValueError(
                    f"{first.name}: duplicate row {label!r} across shards"
                )
            merged.add_row(label, values)
        for note in shard.notes:
            if note not in merged.notes:
                merged.notes.append(note)
        for kind, path in shard.artifacts.items():
            merged.artifacts.setdefault(kind, path)
    return merged

"""Sweep specifications for the batch campaign backend.

A :class:`SweepSpec` names a *batch*: N configurations of the same
workload that differ only along cheap model axes — pipeline scheme,
fault-latency seed, and fault-latency scale.  The spec is pure data
(hashable, JSON-serializable) so it can cross the campaign runner's
process boundary, key checkpoint hashes, and seed the deterministic
validation sampling of docs/VECTORIZATION.md.

Eligibility for the vectorized backend is decided here
(:func:`classify` on a spec, :func:`classify_cell` on a campaign cell's
``fn``/``kwargs``) from the spec or cell alone, so the campaign runner
can route cells before any engine runs.  The paging modes are the
simulator's own (:data:`repro.system.PAGING_MODES`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.system import PAGING_MODES

#: schemes with a vectorized cost kernel; anything else (operand-log's
#: sequential log-occupancy walk) is scalar-only by construction
VECTORIZABLE_SCHEMES = (
    "baseline",
    "wd-commit",
    "wd-lastcheck",
    "replay-queue",
)


@dataclass(frozen=True)
class SweepConfig:
    """One point of a sweep: a (scheme, seed, latency-scale) triple.

    ``latency_scale`` is an integer percentage of the model's base
    fault-resolution latency (100 = nominal) so every derived quantity
    stays in exact integer arithmetic across both backends.
    """

    scheme: str
    seed: int
    latency_scale: int

    @property
    def label(self) -> str:
        """The row label this config contributes to the sweep table."""
        return f"{self.scheme}/s{self.seed}/x{self.latency_scale}"


@dataclass(frozen=True)
class SweepSpec:
    """A batch of same-workload configurations (the sweep cross-product).

    Axis order is fixed — scheme-major, then seed, then latency scale —
    so both backends enumerate configurations (and therefore table rows)
    identically.
    """

    workload: str
    schemes: Tuple[str, ...] = VECTORIZABLE_SCHEMES
    seeds: Tuple[int, ...] = (0,)
    latency_scales: Tuple[int, ...] = (100,)
    paging: str = "demand"
    chaos: bool = False

    def __post_init__(self) -> None:
        if self.paging not in PAGING_MODES:
            raise ValueError(
                f"unknown paging mode {self.paging!r}; "
                f"known: {list(PAGING_MODES)}"
            )
        if not (self.schemes and self.seeds and self.latency_scales):
            raise ValueError("every sweep axis needs at least one value")
        if any(int(s) <= 0 for s in self.latency_scales):
            raise ValueError("latency scales are positive integer percent")

    def configs(self) -> List[SweepConfig]:
        """The batch's configurations in canonical (row) order."""
        return [
            SweepConfig(scheme=s, seed=int(seed), latency_scale=int(scale))
            for s in self.schemes
            for seed in self.seeds
            for scale in self.latency_scales
        ]

    def key(self) -> str:
        """Canonical JSON identity (keys the validation sampling)."""
        return json.dumps(
            {
                "workload": self.workload,
                "schemes": list(self.schemes),
                "seeds": [int(s) for s in self.seeds],
                "latency_scales": [int(s) for s in self.latency_scales],
                "paging": self.paging,
                "chaos": bool(self.chaos),
            },
            sort_keys=True,
        )

    def digest(self) -> str:
        """Short content hash of the spec (manifest/log identity)."""
        return hashlib.sha256(self.key().encode()).hexdigest()[:16]


def classify(spec: SweepSpec) -> Tuple[bool, str]:
    """Is this spec eligible for the vectorized backend?

    Returns ``(True, "")`` or ``(False, reason)``.  The rules (documented
    in docs/VECTORIZATION.md) are: no chaos hooks (their latency factors
    are a sequentially-dependent RNG walk) and every scheme must have a
    vectorized cost kernel (operand-log's log-occupancy walk is a
    sequential per-record recurrence).
    """
    if spec.chaos:
        return False, "chaos hooks enabled"
    for scheme in spec.schemes:
        if scheme not in VECTORIZABLE_SCHEMES:
            return False, f"unsupported scheme {scheme!r}"
    return True, ""


def classify_cell(fn, kwargs: Dict) -> Tuple[bool, str]:
    """Eligibility of one campaign cell for the vectorized backend.

    ``fn`` must be a batch sweep cell (marked ``_batch_sweep``, i.e.
    :func:`repro.batch.run_sweep_cell`); its kwargs are then checked with
    the same rules as :func:`classify`.  Anything else — figure
    experiments, chaos soak shards, stream scenarios — reports
    ``(False, reason)`` and keeps the scalar engine.
    """
    if not getattr(fn, "_batch_sweep", False):
        return False, "not a batch sweep cell"
    if kwargs.get("chaos"):
        return False, "chaos hooks enabled"
    for scheme in kwargs.get("schemes", ()):
        if scheme not in VECTORIZABLE_SCHEMES:
            return False, f"unsupported scheme {scheme!r}"
    return True, ""


def rows_digest(labels: Sequence[str], rows: Sequence[Sequence[int]]) -> str:
    """Digest of a sweep's result rows (the equivalence currency).

    Canonical JSON over ``[label, values...]`` pairs, hashed; both
    backends must produce the same digest for the same spec — the
    sampled-validation contract of docs/VECTORIZATION.md spot-checks
    exactly this.
    """
    payload = [[label, list(map(int, row))] for label, row in
               zip(labels, rows)]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]

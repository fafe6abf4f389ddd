"""Golden end-state digests: the timing simulator's bit-identity contract.

Performance work on the timing hot loop (the issue scan, decode and
coalesce memoization, batched event dispatch — see docs/PERFORMANCE.md) is
only admissible when it is *provably bit-identical* to the model it
replaces.  This module pins that contract as data: a digest of everything a
simulation run architecturally produces —

* the cycle count and dynamic instruction count,
* every per-SM :class:`~repro.timing.sm.SmStats` field (issue, commit,
  sleep-entry, block-switch and handler counters),
* every :class:`~repro.system.faults.FaultStats` field,
* the final GPU page table (``vpn -> ppn`` plus dirty bits).

The committed fixture ``tests/golden_digests.json`` holds the digest of a
curated workload x scheme x paging matrix, generated *before* an
optimization lands.  ``tests/test_golden_digests.py`` recomputes the fast
subset on every tier-1 run (and the full matrix under
``REPRO_GOLDEN_FULL=1``), so a change that perturbs timing by even one
cycle — or miscounts one stall — fails loudly without rerunning the full
paper sweep.

Regenerate (only when an *intentional* model change lands, never to make a
perf PR pass) with::

    PYTHONPATH=src python -m repro.harness golden --update

Unlike :func:`repro.system.architectural_digest` (which tolerates timing
perturbation by design), this digest is exact: two runs match iff they
are bit-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Dict, List, Optional

from repro.core import make_scheme
from repro.system import DEFAULT_TIME_SCALE, GPUConfig, GpuSimulator
from repro.workloads import MICRO_NAMES


def state_digest(sim: GpuSimulator, result) -> Dict:
    """Exact digest of one finished run (see module docstring).

    Returns a JSON-able record whose ``digest`` field is the sha256 of the
    canonical payload; the payload itself is kept alongside so a mismatch
    can be diagnosed field by field rather than hash against hash.
    """
    page_state = sim.address_space.page_state
    pages = [
        [vpn, entry.ppn, 1 if entry.dirty else 0]
        for vpn, entry in sorted(page_state.gpu_table.items())
    ]
    page_blob = json.dumps(pages, separators=(",", ":"))
    payload = {
        "kernel": result.kernel_name,
        "scheme": result.scheme,
        "cycles": result.cycles,
        "dynamic_instructions": result.dynamic_instructions,
        "blocks": result.blocks,
        "occupancy_blocks": result.occupancy_blocks,
        "sm_stats": [asdict(s) for s in result.sm_stats],
        "fault_stats": (
            asdict(result.fault_stats) if result.fault_stats else None
        ),
        "gpu_pages": hashlib.sha256(page_blob.encode()).hexdigest(),
        "gpu_pages_mapped": len(pages),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    payload["digest"] = hashlib.sha256(blob.encode()).hexdigest()
    return payload


def make_simulator(case: Dict, **kwargs) -> GpuSimulator:
    """Build the simulator for one golden case spec; ``kwargs`` (e.g.
    ``telemetry``, ``reference_issue``) go to :class:`GpuSimulator`."""
    kwargs.update(
        paging=case.get("paging", "demand"),
        local_handling=case.get("local_handling", False),
        block_switching=case.get("block_switching", False),
    )
    scheme = make_scheme(case["scheme"], **case.get("scheme_kwargs", {}))
    if "interconnect" in case:
        return GpuSimulator.for_workload(
            case["workload"], scheme, time_scale=DEFAULT_TIME_SCALE,
            interconnect=case["interconnect"], **kwargs,
        )
    # A case without an interconnect scales only the GPU's handler
    # constants and runs the unscaled NVLink, as the fixture has pinned
    # since before the experiments scaled both (DESIGN.md, "Time-scale
    # substitution").
    return GpuSimulator.for_workload(
        case["workload"], scheme,
        config=GPUConfig().time_scaled(DEFAULT_TIME_SCALE), **kwargs,
    )


def run_case(case: Dict, telemetry: bool = False) -> Dict:
    """Execute one golden case spec and return its digest record."""
    tel = None
    if telemetry:
        from repro.telemetry import Telemetry

        tel = Telemetry()
    sim = make_simulator(case, telemetry=tel)
    result = sim.run()
    return state_digest(sim, result)


# The cases of _micro_matrix, _preemption_matrix and _slow_matrix carry no
# interconnect: make_simulator runs them with the GPU's handler constants
# time scaled and the NVLink costs unscaled, the configuration their
# fixture entries pin.  _linked_matrix scales both, as the experiments do.

def _micro_matrix() -> List[Dict]:
    """Fast cases: every micro workload x scheme x paging mode."""
    cases = []
    for wl in MICRO_NAMES:
        for scheme in ("baseline", "wd-commit", "wd-lastcheck",
                       "replay-queue", "operand-log"):
            for paging in ("premapped", "demand"):
                cases.append(
                    {"workload": wl, "scheme": scheme, "paging": paging}
                )
    return cases


def _slow_matrix() -> List[Dict]:
    """Full-contract cases: parboil rows of the paper sweep plus the
    preemption machinery (block switching squashes and replays in-flight
    faulted instructions; local handling runs warp-level handlers)."""
    cases = []
    for scheme in ("baseline", "wd-commit", "replay-queue", "operand-log"):
        cases.append({"workload": "lbm", "scheme": scheme, "paging": "demand"})
    for wl in ("sgemm", "histo", "spmv"):
        cases.append({"workload": wl, "scheme": "baseline", "paging": "demand"})
        cases.append(
            {"workload": wl, "scheme": "replay-queue", "paging": "demand"}
        )
    # Block switching under the replay-queue pipeline on the unscaled
    # link; _linked_matrix has these cells as the experiments run them.
    for wl in ("histo", "lbm"):
        cases.append(
            {"workload": wl, "scheme": "replay-queue", "paging": "demand",
             "block_switching": True}
        )
    return cases


def _preemption_matrix() -> List[Dict]:
    """Cases exercising squash/replay + context switching (use cases 1/2)."""
    cases = []
    for wl in ("tlb-thrash", "saxpy"):
        cases.append(
            {"workload": wl, "scheme": "wd-commit", "paging": "demand",
             "block_switching": True}
        )
        cases.append(
            {"workload": wl, "scheme": "replay-queue", "paging": "demand",
             "local_handling": True}
        )
    cases.append(
        {"workload": "tlb-thrash", "scheme": "operand-log",
         "paging": "demand", "block_switching": True}
    )
    # Heap faults (Fig. 13): halloc workloads under demand-heap paging,
    # handled by the CPU and locally.
    cases.append(
        {"workload": "alloc-cycle", "scheme": "replay-queue",
         "paging": "demand-heap"}
    )
    for wl in ("alloc-cycle", "quad-tree"):
        cases.append(
            {"workload": wl, "scheme": "replay-queue",
             "paging": "demand-heap", "local_handling": True}
        )
    return cases


def _linked_matrix(full: bool) -> List[Dict]:
    """Cases whose link is time scaled together with the GPU, as every
    experiment runs: Figs. 12-14, serve requests, chaos cells and the
    repository benchmark's ``campaign-demand`` cells."""
    cases = [
        {"workload": "saxpy", "scheme": "replay-queue", "paging": "demand",
         "interconnect": "nvlink"},
        {"workload": "tlb-thrash", "scheme": "replay-queue",
         "paging": "demand", "local_handling": True,
         "interconnect": "nvlink"},
    ]
    if full:
        for wl, ic in (("histo", "nvlink"), ("lbm", "nvlink"),
                       ("histo", "pcie")):
            cases.append(
                {"workload": wl, "scheme": "replay-queue", "paging": "demand",
                 "block_switching": True, "interconnect": ic}
            )
        for wl in ("alloc-cycle", "quad-tree"):
            cases.append(
                {"workload": wl, "scheme": "replay-queue",
                 "paging": "demand-heap", "local_handling": True,
                 "interconnect": "nvlink"}
            )
    return cases


def case_key(case: Dict) -> str:
    """Stable fixture key for one case spec."""
    parts = [case["workload"], case["scheme"], case.get("paging", "demand")]
    if case.get("block_switching"):
        parts.append("switch")
    if case.get("local_handling"):
        parts.append("local")
    if case.get("scheme_kwargs"):
        parts.append(
            ",".join(f"{k}={v}" for k, v in sorted(case["scheme_kwargs"].items()))
        )
    if case.get("interconnect"):
        parts.append(case["interconnect"])
    return "|".join(parts)


def golden_cases(full: bool = True) -> List[Dict]:
    """The contract matrix; ``full=False`` returns only the fast subset
    tier-1 recomputes on every run."""
    cases = _micro_matrix() + _preemption_matrix()
    if full:
        cases += _slow_matrix()
    return cases + _linked_matrix(full)


def generate(full: bool = True, telemetry_probe: bool = True) -> Dict:
    """Compute the fixture content for :func:`golden_cases`.

    ``telemetry_probe`` additionally re-runs one case per workload family
    with telemetry enabled and asserts the digest is unchanged — pinning
    the "bit-identical with telemetry on or off" half of the contract at
    generation time.
    """
    fixture: Dict = {
        "schema": 1, "time_scale": DEFAULT_TIME_SCALE, "cases": {},
    }
    for case in golden_cases(full):
        record = run_case(case)
        key = case_key(case)
        fixture["cases"][key] = {"spec": case, **record}
    if telemetry_probe:
        for case in (
            {"workload": "saxpy", "scheme": "replay-queue", "paging": "demand"},
            {"workload": "tlb-thrash", "scheme": "wd-commit",
             "paging": "demand", "block_switching": True},
        ):
            plain = fixture["cases"][case_key(case)]["digest"]
            with_tel = run_case(case, telemetry=True)["digest"]
            if with_tel != plain:
                raise AssertionError(
                    f"telemetry changed timing for {case_key(case)}: "
                    f"{plain} != {with_tel}"
                )
    return fixture


def verify(fixture: Dict, full: bool = False) -> List[str]:
    """Recompute digests against ``fixture``; returns mismatch messages."""
    problems = []
    for case in golden_cases(full):
        key = case_key(case)
        want = fixture["cases"].get(key)
        if want is None:
            problems.append(f"{key}: missing from fixture")
            continue
        got = run_case(case)
        if got["digest"] != want["digest"]:
            detail = [
                f"  {f}: fixture={want.get(f)!r} run={got.get(f)!r}"
                for f in ("cycles", "dynamic_instructions", "sm_stats",
                          "fault_stats", "gpu_pages")
                if want.get(f) != got.get(f)
            ]
            problems.append(
                f"{key}: digest mismatch\n" + "\n".join(detail)
            )
    return problems


def fixture_path() -> str:
    """Default fixture location (tests/golden_digests.json at repo root)."""
    import os

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "tests", "golden_digests.json")


def load_fixture(path: Optional[str] = None) -> Dict:
    with open(path or fixture_path()) as fh:
        return json.load(fh)


def save_fixture(fixture: Dict, path: Optional[str] = None) -> str:
    path = path or fixture_path()
    with open(path, "w") as fh:
        json.dump(fixture, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path

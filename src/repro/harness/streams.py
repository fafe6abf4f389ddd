"""The ``streams`` experiment: serial vs overlapped multi-kernel runs.

For each stream scenario (:mod:`repro.workloads.multi`) this runs the same
kernel set twice on identically configured devices:

``serial``
    each kernel launched synchronously, back to back, on one device —
    total cost is the *sum* of the per-launch cycle counts;
``overlapped``
    one stream per kernel, a single :meth:`GpuDevice.synchronize` — all
    kernels resident concurrently on the shared GPU, contending on the
    global pending-fault queue and interconnect; total cost is the
    *makespan* of the merged run.

For fault-bound kernels the overlapped makespan lands strictly below the
serial sum: a kernel parked on migrate faults leaves its SM partition's
issue slots idle, and the co-resident kernel soaks them up — even though
its own faults now queue behind the neighbour's (visible in the per-kernel
fault tallies).  That is the paper's multi-tenant motivation measured.

Determinism: both runs are pure functions of the scenario, so the whole
experiment is bit-reproducible — ``verify_reproducible=True`` replays the
overlapped run and asserts the end-state digests match, recording the
digest in the table notes.

CLI: ``python -m repro.harness streams`` (see ``--help``); the table is
pasted into EXPERIMENTS.md ("Multi-stream contention").
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Dict, Optional, Sequence

from repro.runtime import GpuDevice
from repro.system import DEFAULT_TIME_SCALE
from repro.workloads import STREAM_SCENARIO_NAMES, get_stream_scenario

from .results import ExperimentTable

STREAM_COLUMNS = [
    "serial", "overlapped", "speedup", "faults-ser", "faults-ovl",
]


def _make_device(scheme, interconnect, time_scale, block_switching):
    return GpuDevice(
        scheme=scheme,
        interconnect=interconnect,
        block_switching=block_switching,
        time_scale=time_scale,
    )


def overlap_digest(result) -> str:
    """A sha256 over the overlapped run's observable end state: makespan,
    per-kernel completions and fault tallies, fault stats, per-SM stats.
    Two runs of the same scenario must produce the same digest
    (docs/CONCURRENCY.md determinism contract)."""
    payload = {
        "cycles": result.cycles,
        "stolen": result.stolen_blocks,
        "kernels": [
            [k.kernel_name, k.stream, k.cycles, k.faults_raised,
             k.fault_groups]
            for k in result.kernels
        ],
        "faults": asdict(result.fault_stats),
        "sms": [asdict(s) for s in result.sm_stats],
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def run_streams_scenario(
    name: str,
    scheme: str = "replay-queue",
    interconnect: str = "nvlink",
    time_scale: float = DEFAULT_TIME_SCALE,
    policy: str = "partition",
    block_switching: bool = False,
    verify_reproducible: bool = True,
) -> Dict:
    """Run one scenario serial and overlapped; returns the raw numbers
    (``rows`` per kernel + ``totals``) for :func:`run_streams` to tabulate."""
    scenario = get_stream_scenario(name)

    # -- serial: synchronous launches, one after the other ---------------
    dev = _make_device(scheme, interconnect, time_scale, block_switching)
    specs = scenario.build(dev)
    serial_rows = []
    for spec in specs:
        res = dev.launch(spec.kernel, grid=spec.grid, block=spec.block,
                         args=spec.args)
        # Each synchronous launch runs on a fresh fault controller, so the
        # fault stats are already per launch.
        serial_rows.append(
            {"cycles": res.cycles,
             "faults": res.sim.fault_stats.faults_raised}
        )
    serial_sum = sum(r["cycles"] for r in serial_rows)

    # -- overlapped: one stream per kernel, one synchronize --------------
    dev2 = _make_device(scheme, interconnect, time_scale, block_switching)
    specs2 = scenario.build(dev2)
    for spec in specs2:
        stream = dev2.create_stream()
        dev2.launch(spec.kernel, grid=spec.grid, block=spec.block,
                    args=spec.args, stream=stream)
    overlap = dev2.synchronize(policy=policy)
    digest = overlap_digest(overlap)

    if verify_reproducible:
        dev3 = _make_device(scheme, interconnect, time_scale,
                            block_switching)
        specs3 = scenario.build(dev3)
        for spec in specs3:
            dev3.launch(spec.kernel, grid=spec.grid, block=spec.block,
                        args=spec.args, stream=dev3.create_stream())
        replay = dev3.synchronize(policy=policy)
        if overlap_digest(replay) != digest:
            raise AssertionError(
                f"streams:{name}: overlapped run is not bit-reproducible"
            )

    rows = []
    for serial, kres in zip(serial_rows, overlap.kernels):
        rows.append({
            "label": f"{name}/s{kres.stream}:{kres.kernel_name}",
            "serial": serial["cycles"],
            "overlapped": kres.cycles,
            "faults_serial": serial["faults"],
            "faults_overlap": kres.faults_raised,
        })
    return {
        "scenario": name,
        "description": scenario.description,
        "rows": rows,
        "serial_sum": serial_sum,
        "makespan": overlap.cycles,
        "stolen": overlap.stolen_blocks,
        "digest": digest,
    }


def run_streams(
    scenarios: Optional[Sequence[str]] = None,
    scheme: str = "replay-queue",
    interconnect: str = "nvlink",
    time_scale: float = DEFAULT_TIME_SCALE,
    policy: str = "partition",
    block_switching: bool = False,
    verify_reproducible: bool = True,
) -> ExperimentTable:
    """The ``streams`` experiment: a serial-vs-overlapped table across the
    stream scenarios (default: all).  Per-kernel rows show each kernel's
    standalone cycles vs its completion cycle inside the merged run; each
    scenario's TOTAL row compares the serial sum to the overlapped
    makespan (``speedup`` > 1 means overlapping won)."""
    names = list(scenarios) if scenarios else list(STREAM_SCENARIO_NAMES)
    table = ExperimentTable(
        name="streams",
        description=(
            "multi-stream contention: serial sum vs overlapped makespan "
            f"(cycles, scheme={scheme}, policy={policy})"
        ),
        columns=list(STREAM_COLUMNS),
        show_geomean=False,
    )
    for name in names:
        data = run_streams_scenario(
            name,
            scheme=scheme,
            interconnect=interconnect,
            time_scale=time_scale,
            policy=policy,
            block_switching=block_switching,
            verify_reproducible=verify_reproducible,
        )
        for row in data["rows"]:
            table.add_row(row["label"], [
                row["serial"],
                row["overlapped"],
                row["serial"] / row["overlapped"] if row["overlapped"] else 0,
                row["faults_serial"],
                row["faults_overlap"],
            ])
        table.add_row(f"{name}/TOTAL", [
            data["serial_sum"],
            data["makespan"],
            (data["serial_sum"] / data["makespan"]
             if data["makespan"] else 0.0),
            sum(r["faults_serial"] for r in data["rows"]),
            sum(r["faults_overlap"] for r in data["rows"]),
        ])
        note = (
            f"{name}: {data['description']}; stolen blocks: "
            f"{data['stolen']}; overlap digest {data['digest'][:16]}"
        )
        if verify_reproducible:
            note += " (replayed: bit-identical)"
        table.notes.append(note)
    table.notes.append(
        "per-kernel 'overlapped' is the completion cycle inside the merged "
        "run; TOTAL compares serial sum vs overlapped makespan"
    )
    return table

"""Shared configuration for the per-figure benchmark harness.

Each benchmark regenerates one of the paper's tables/figures and prints the
rows the paper reports.  By default a representative benchmark subset is
used so the whole harness completes in minutes; set ``REPRO_FULL_BENCH=1``
to sweep the full suites (as EXPERIMENTS.md does).

The perf gates of the three ``BENCH_*`` records share :func:`perf_gate`.
"""

import os

import pytest

from repro.harness import bench

FULL = os.environ.get("REPRO_FULL_BENCH", "") == "1"


@pytest.fixture(scope="session")
def quick() -> bool:
    return not FULL


def show(table) -> None:
    print()
    print(table.render())


def check_gate(record, measured, command, scores) -> None:
    """Write ``{"committed", "measured"}`` to ``REPRO_PERF_GATE_OUT``
    when it is set (the CI artifact), then require every
    ``(label, got, committed)`` of ``scores`` to lie within
    :func:`repro.harness.bench.band` of its committed value."""
    out = os.environ.get("REPRO_PERF_GATE_OUT")
    if out:
        bench.save_record({"committed": record, "measured": measured}, out)
    for label, got, committed in scores:
        lo, hi = bench.band(committed)
        assert lo <= got <= hi, (
            f"{label} {got:.3f} outside [{lo:.3f}, {hi:.3f}] (committed "
            f"{committed:.3f} ±{bench.GATE_TOLERANCE:.0%}); a real "
            f"regression must be fixed, a real improvement re-recorded "
            f"with `python -m repro.harness {command} --update`"
        )


@pytest.fixture
def perf_gate():
    """:func:`check_gate`, for a test that re-measures this machine.

    Skips the test unless ``REPRO_PERF_GATE=1`` (the CI perf-guard job
    sets it): a measurement costs tens of seconds and a loaded developer
    machine would make it flaky in a default run."""
    if os.environ.get("REPRO_PERF_GATE", "") != "1":
        pytest.skip("set REPRO_PERF_GATE=1 (CI perf-guard)")
    return check_gate

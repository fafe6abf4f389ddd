"""Bit-identity contract tests (docs/PERFORMANCE.md).

The committed fixture ``tests/golden_digests.json`` was generated before
the hot-loop optimizations landed; these tests recompute the digests with
the current code and require exact matches.  The fast subset (micro
workloads x schemes x paging, plus the block-switching, local-handling
and heap-fault cases) runs on every tier-1 invocation; set
``REPRO_GOLDEN_FULL=1`` to also sweep the parboil rows, as the CI
``perf-guard`` job does on every pull request.

Regenerate (only for an intentional model change)::

    PYTHONPATH=src python -m repro.harness golden --update
"""

import os

import pytest

from repro.harness import golden

FULL = os.environ.get("REPRO_GOLDEN_FULL", "") == "1"

FIXTURE = golden.load_fixture()

_FAST = [(golden.case_key(c), c) for c in golden.golden_cases(full=False)]
_SLOW = [
    (k, c)
    for k, c in ((golden.case_key(c), c) for c in golden.golden_cases(full=True))
    if k not in dict(_FAST)
]


def _check(key, case):
    want = FIXTURE["cases"].get(key)
    assert want is not None, f"{key} missing from fixture; regenerate"
    got = golden.run_case(case)
    if got["digest"] != want["digest"]:
        detail = {
            f: (want.get(f), got.get(f))
            for f in ("cycles", "dynamic_instructions", "sm_stats",
                      "fault_stats", "gpu_pages", "gpu_pages_mapped")
            if want.get(f) != got.get(f)
        }
        pytest.fail(f"{key}: end state diverged from golden fixture: {detail}")


@pytest.mark.parametrize("key,case", _FAST, ids=[k for k, _ in _FAST])
def test_fast_matrix_bit_identical(key, case):
    _check(key, case)


@pytest.mark.skipif(not FULL, reason="set REPRO_GOLDEN_FULL=1 for parboil rows")
@pytest.mark.parametrize("key,case", _SLOW, ids=[k for k, _ in _SLOW])
def test_full_matrix_bit_identical(key, case):
    _check(key, case)


def test_telemetry_does_not_change_timing():
    """The contract's second half: telemetry on => same digest."""
    case = {"workload": "saxpy", "scheme": "replay-queue", "paging": "demand"}
    plain = FIXTURE["cases"][golden.case_key(case)]["digest"]
    assert golden.run_case(case, telemetry=True)["digest"] == plain


def test_fixture_covers_fast_matrix():
    missing = [k for k, _ in _FAST if k not in FIXTURE["cases"]]
    assert not missing

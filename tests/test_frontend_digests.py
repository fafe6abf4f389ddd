"""Bit-identity of the functional front end (docs/PERFORMANCE.md).

The committed fixture ``tests/frontend_digests.json`` holds, per workload,
a digest over every dynamic trace record (block, warp, pc, active lanes
and lane addresses) and a digest over each segment's final memory
contents after the functional run.  A non-heap segment is hashed as its
dense float64 words at 4-byte stride plus any unaligned words it holds;
the heap, whose touches are sparse, by its touched words.  The fixture
was generated before the front end's storage changed, so the digests pin
what the interpreter computes, not how it stores it.

The micro and halloc workloads run on every tier-1 invocation; set
``REPRO_GOLDEN_FULL=1`` to add the Parboil rows, as CI's perf-guard job
does.  Regenerate (only for an intentional model change) with::

    PYTHONPATH=src python -m tests.test_frontend_digests --update
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.workloads import HALLOC_NAMES, MICRO_NAMES, PARBOIL_NAMES
from repro.workloads.parboil import PARBOIL
from repro.workloads.halloc import HALLOC
from repro.workloads.micro import MICRO

FULL = os.environ.get("REPRO_GOLDEN_FULL", "") == "1"
FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "frontend_digests.json")


def _fresh(name):
    for registry in (PARBOIL, HALLOC, MICRO):
        if name in registry.names():
            return registry.fresh(name)
    raise KeyError(name)


def trace_digest(trace) -> str:
    """sha256 over every record: ``null`` for no addresses, else the list."""
    h = hashlib.sha256()
    for block in trace.blocks:
        for warp in block.warps:
            recs = []
            for rec in range(len(warp)):
                addrs = warp.addresses(rec)
                recs.append([warp.pcs[warp.start + rec],
                             warp.active[warp.start + rec],
                             list(addrs) if len(addrs) else None])
            h.update(json.dumps([block.block_id, warp.warp_id, recs],
                                separators=(",", ":")).encode())
    return h.hexdigest()


def _words_digest(items) -> str:
    addrs = np.array([a for a, _ in items], dtype=np.int64)
    vals = np.array([v for _, v in items], dtype=np.float64)
    return hashlib.sha256(addrs.tobytes() + vals.tobytes()).hexdigest()


def segment_digests(memory, aspace) -> dict:
    """Per-segment digest of ``memory``'s contents, plus ``"(other)"``
    for words outside every segment."""
    words = memory._words  # the word dict: heap, unaligned and stray words
    out = {}
    inside = set()
    for seg in aspace.segments():
        loose = sorted(
            (a, v) for a, v in words.items()
            if seg.base <= a < seg.end
            and (seg.kind == "heap" or a & 3)
        )
        inside.update(a for a, _ in loose)
        if seg.kind == "heap":
            out[seg.name] = _words_digest(loose)
            continue
        dense = np.array(memory.read_array(seg.base, seg.size // 4, 4),
                         dtype=np.float64)
        h = hashlib.sha256(dense.tobytes())
        h.update(_words_digest(loose).encode())
        out[seg.name] = h.hexdigest()
    stray = [
        (a, v) for a, v in words.items()
        if a not in inside and aspace.segment_of(a) is None
    ]
    out["(other)"] = _words_digest(sorted(stray))
    return out


def run_digests(name: str) -> dict:
    """Trace and segment digests of workload ``name`` (fresh instance)."""
    wl = _fresh(name)
    trace = wl.trace()
    # run_functional repeats the run on a fresh address space and memory
    aspace = wl.make_address_space()
    memory = wl.run_functional()
    return {
        "trace": trace_digest(trace),
        "records": trace.dynamic_instructions(),
        "segments": segment_digests(memory, aspace),
    }


def _load_fixture() -> dict:
    with open(FIXTURE_PATH) as fh:
        return json.load(fh)


FAST = sorted(MICRO_NAMES + HALLOC_NAMES)
SLOW = sorted(PARBOIL_NAMES)


def _check(name):
    want = _load_fixture()["workloads"].get(name)
    assert want is not None, f"{name} missing from fixture; regenerate"
    got = run_digests(name)
    assert got["records"] == want["records"]
    assert got["trace"] == want["trace"], f"{name}: trace records diverged"
    assert got["segments"] == want["segments"], (
        f"{name}: final memory diverged in "
        f"{sorted(k for k in want['segments'] if got['segments'].get(k) != want['segments'][k])}"
    )


@pytest.mark.parametrize("name", FAST)
def test_fast_frontend_bit_identical(name):
    _check(name)


@pytest.mark.skipif(not FULL, reason="set REPRO_GOLDEN_FULL=1 for parboil rows")
@pytest.mark.parametrize("name", SLOW)
def test_full_frontend_bit_identical(name):
    _check(name)


def test_fixture_covers_every_workload():
    assert sorted(_load_fixture()["workloads"]) == sorted(FAST + SLOW)


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python -m tests.test_frontend_digests --update")
    doc = {"schema": 1,
           "workloads": {n: run_digests(n) for n in sorted(FAST + SLOW)}}
    with open(FIXTURE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")

"""Property tests: the fast issue path vs. the reference issue scan.

`SmPipeline.try_issue` (the hot-loop fast path) and
`SmPipeline._try_issue_reference` (the original full round-robin scan, kept
as the executable specification) must be indistinguishable: same
instructions issued, by the same warps, at the same cycles, with the same
`SmStats` (sleep entries included) and the same stall attribution, for
*any* trace under any pipeline scheme.  Hypothesis drives randomized warp
programs — hazard chains over registers and predicates, memory
instructions that may fault and clog the LD/ST pipe, matched barriers —
through both paths under four schemes; a second group replays
golden-digest cases with ``REPRO_REFERENCE_ISSUE=1`` so the equivalence
also holds end-to-end through the full simulator, stall counters included
(docs/PERFORMANCE.md).
"""

from dataclasses import asdict
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_scheme
from repro.harness import golden
from repro.isa import Instruction, Opcode, P, R
from repro.system import GPUConfig
from repro.telemetry import Telemetry

from tests.test_timing_sm import (
    StubMemSys,
    _record_issues,
    make_sm,
    run_to_completion,
    t_alu,
    t_bar,
    t_exit,
    t_inst,
    t_load,
    t_store,
)

SCHEMES = ("baseline", "wd-commit", "replay-queue", "operand-log")

# ---------------------------------------------------------------------------
# random warp-program strategies
# ---------------------------------------------------------------------------

_reg = st.integers(min_value=0, max_value=7).map(R)
_pred = st.integers(min_value=0, max_value=1).map(P)
#: two pages of lines: accesses to page 1 fault when faults are enabled
_line = st.integers(min_value=0, max_value=63)


@st.composite
def _instruction(draw):
    kind = draw(st.sampled_from(
        ["alu", "alu", "alu", "setp", "guarded", "fdiv", "load", "store"]
    ))
    if kind == "alu":
        # one or two sources, possibly the same register twice
        srcs = draw(st.lists(_reg, min_size=1, max_size=2))
        return t_alu(draw(_reg), *srcs)
    if kind == "setp":
        return t_inst(Instruction(Opcode.ISETP, dest=draw(_pred),
                              srcs=(draw(_reg), draw(_reg)), cmp="lt"))
    if kind == "guarded":
        return t_inst(Instruction(Opcode.FADD, dest=draw(_reg),
                              srcs=(draw(_reg),), guard=draw(_pred)))
    if kind == "fdiv":
        return t_inst(Instruction(Opcode.FDIV, dest=draw(_reg),
                              srcs=(draw(_reg), draw(_reg))))
    addrs = [
        ln * 128 + off
        for ln, off in zip(
            draw(st.lists(_line, min_size=1, max_size=4)),
            draw(st.lists(st.integers(0, 31), min_size=4, max_size=4)),
        )
    ]
    if kind == "load":
        return t_load(draw(_reg), draw(_reg), addrs)
    return t_store(draw(_reg), draw(_reg), addrs)


@st.composite
def _warp_programs(draw):
    """1-4 warps, 1-2 segments separated by matched barriers.

    Every warp gets a BAR at each segment boundary (a block-wide barrier
    must be reached by all warps or the block deadlocks), then EXIT."""
    n_warps = draw(st.integers(min_value=1, max_value=4))
    n_segments = draw(st.integers(min_value=1, max_value=2))
    programs = []
    for _ in range(n_warps):
        prog = []
        for seg in range(n_segments):
            prog.extend(
                draw(st.lists(_instruction(), min_size=0, max_size=5))
            )
            if seg + 1 < n_segments:
                prog.append(t_bar())
        prog.append(t_exit())
        programs.append(prog)
    return programs


@st.composite
def _setups(draw):
    """A program plus its pipeline: page faults on or off (with a small
    ``pending_fault_limit`` so parked faults clog the LD/ST pipe), and
    telemetry on or off."""
    faults = draw(st.booleans())
    return SimpleNamespace(
        programs=draw(_warp_programs()),
        fault_latency=draw(st.integers(20, 200)) if faults else 0,
        pending_limit=draw(st.integers(1, 2)) if faults else None,
        telemetry=draw(st.booleans()),
    )


class StubFaultCtl:
    """Resolves every fault a fixed latency after its detection."""

    def __init__(self, latency):
        self.latency = latency

    def on_fault(self, vpn, detect_time, sm_id, kernel_id):
        return SimpleNamespace(
            group=vpn, resolved_time=detect_time + self.latency,
            position=0, handled_locally=False,
        )


def _stall_counters(tel):
    return {
        path: value
        for path, value in tel.counters.snapshot().items()
        if ".warp_stall." in path
    }


def _run(setup, scheme, reference):
    kwargs = {}
    if setup.fault_latency:
        kwargs = dict(
            memsys=StubMemSys(faults=(1,)),
            fault_ctl=StubFaultCtl(setup.fault_latency),
            config=GPUConfig().with_(pending_fault_limit=setup.pending_limit),
        )
    tel = Telemetry() if setup.telemetry else None
    sm, events, _ = make_sm(
        setup.programs, scheme=make_scheme(scheme), telemetry=tel,
        **kwargs,
    )
    if reference:
        sm.try_issue = sm._try_issue_reference
    log = _record_issues(sm)
    cycles = run_to_completion(sm, events)
    stalls = _stall_counters(tel) if tel is not None else None
    return log, cycles, asdict(sm.stats), stalls


class TestIssuePathEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(_setups())
    def test_fast_path_matches_reference_scan(self, setup):
        """Each program runs under every scheme: (issue log, cycles,
        SmStats, stall counters) must be equal on both paths."""
        for scheme in SCHEMES:
            fast = _run(setup, scheme, reference=False)
            ref = _run(setup, scheme, reference=True)
            assert fast == ref, f"{scheme}: fast path diverged"

    @settings(max_examples=25, deadline=None)
    @given(_setups())
    def test_fast_path_is_deterministic(self, setup):
        """Same program twice through the fast path -> same log (guards
        against accidental dict/set iteration-order dependence)."""
        scheme = "replay-queue"
        assert _run(setup, scheme, False) == _run(setup, scheme, False)


_GOLDEN_CASES = [
    {"workload": "saxpy", "scheme": "baseline", "paging": "demand"},
    {"workload": "saxpy", "scheme": "replay-queue", "paging": "demand"},
    {"workload": "tlb-thrash", "scheme": "wd-lastcheck", "paging": "demand"},
    # page faults, a clogged LD/ST pipe and replay-queue's late release
    {"workload": "alloc-cycle", "scheme": "replay-queue",
     "paging": "demand-heap"},
]

_TELEMETRY_CASES = [
    {"workload": "saxpy", "scheme": "replay-queue", "paging": "demand"},
    {"workload": "tlb-thrash", "scheme": "wd-lastcheck", "paging": "demand"},
    {"workload": "tlb-thrash", "scheme": "operand-log", "paging": "demand",
     "block_switching": True},
    {"workload": "alloc-cycle", "scheme": "replay-queue",
     "paging": "demand-heap", "local_handling": True},
]


class TestEndToEndEquivalence:
    """The reference scan must reproduce the committed golden digests that
    pin the fast path — closing the loop: fast == golden == reference."""

    def test_reference_issue_matches_golden_digests(self, monkeypatch):
        monkeypatch.setenv("REPRO_REFERENCE_ISSUE", "1")
        fixture = golden.load_fixture()
        for case in _GOLDEN_CASES:
            key = golden.case_key(case)
            want = fixture["cases"][key]
            got = golden.run_case(case)
            assert got["digest"] == want["digest"], (
                f"{key}: reference issue path diverged from golden digest"
            )

    @pytest.mark.parametrize("case", _TELEMETRY_CASES, ids=golden.case_key)
    def test_stall_attribution_matches_reference(self, case):
        """docs/PERFORMANCE.md promises exact stall attribution: the
        ``gpu.sm[*].warp_stall.*`` counters of both paths are equal."""
        counters = []
        for reference in (False, True):
            tel = Telemetry()
            golden.make_simulator(
                case, telemetry=tel, reference_issue=reference
            ).run()
            counters.append(_stall_counters(tel))
        fast, ref = counters
        assert any(fast.values())
        assert fast == ref

"""SM pipeline timing tests: scoreboards, dual issue, unit conflicts,
barriers, scheme hooks — driven with hand-built traces and a stub memory
subsystem so each behaviour is isolated."""

from array import array

import pytest

from repro.core import (
    BaselineStallOnFault,
    OperandLog,
    ReplayQueue,
    WarpDisableCommit,
    WarpDisableLastCheck,
)
from repro.functional.trace import BlockTrace, WarpTrace
from repro.isa import Imm, Instruction, Opcode, P, R
from repro.mem.hierarchy import TranslationOutcome
from repro.system import GPUConfig
from repro.timing import EventQueue, SmPipeline, decode
from repro.vm import CACHE_LINE_SIZE, PAGE_SHIFT


class StubMemSys:
    """Deterministic memory subsystem: fixed translate/complete latencies."""

    def __init__(self, check_latency=5.0, data_latency=40.0, faults=()):
        self.check_latency = check_latency
        self.data_latency = data_latency
        self.fault_vpns = set(faults)

    def translate_access_coalesced(self, sm_id, lines, is_store, now):
        from repro.mem.hierarchy import FaultInfo

        line_vpns = [(line * CACHE_LINE_SIZE) >> PAGE_SHIFT for line in lines]
        faults = [
            FaultInfo(vpn=v, detect_time=now + self.check_latency, sm_id=sm_id)
            for v in sorted(set(line_vpns) & self.fault_vpns)
        ]
        ready = sorted(
            line for line, vpn in zip(lines, line_vpns)
            if vpn not in self.fault_vpns
        )
        return TranslationOutcome(
            translation_done=now + self.check_latency,
            ready_lines=ready,
            faults=faults,
            num_requests=len(ready) + len(faults),
        )

    def data_access(self, sm_id, lines, is_store, now, is_atomic=False):
        if is_store and not is_atomic:
            return now + 5.0
        return now + self.data_latency

    def replay_after_fault_coalesced(self, sm_id, lines, resolved_time):
        from repro.mem.hierarchy import AccessResult

        return AccessResult(
            translation_done=resolved_time + 10,
            completion=resolved_time + 50,
            faults=[],
            num_requests=1,
        )


class StubBlockSource:
    pending = 0

    def next_block(self, sm_id):
        return None


def t_inst(inst, addresses=None):
    """A hand-built record: its instruction and lane addresses (None for
    a record that touches no memory); :func:`build_block` gives each
    record's instruction its own pc."""
    return inst, None if addresses is None else array("q", addresses).tobytes()


def t_alu(dest, *srcs):
    return t_inst(Instruction(Opcode.FADD, dest=dest, srcs=srcs))


def t_load(dest, addr_reg, addresses):
    inst = Instruction(Opcode.LD_GLOBAL, dest=dest, srcs=(addr_reg,))
    return t_inst(inst, addresses)


def t_store(addr_reg, val_reg, addresses):
    inst = Instruction(Opcode.ST_GLOBAL, srcs=(addr_reg, val_reg))
    return t_inst(inst, addresses)


def t_bar():
    return t_inst(Instruction(Opcode.BAR))


def t_exit():
    return t_inst(Instruction(Opcode.EXIT))


def build_block(warp_records, block_id=0):
    """``(BlockTrace, decode table)`` of hand-built records, one list per
    warp: the records' instructions form the kernel, one pc each."""
    program = []
    btrace = BlockTrace(block_id=block_id)
    for warp_id, records in enumerate(warp_records):
        wtrace = WarpTrace(warp_id)
        for inst, addresses in records:
            wtrace.append(len(program), 32, addresses)
            program.append(inst)
        btrace.warps.append(wtrace)
    return btrace, [decode(inst) for inst in program]


def make_sm(warp_traces, scheme=None, memsys=None, config=None, occupancy=4,
            fault_ctl=None, **kwargs):
    """One SM with one launched block; ``kwargs`` (``telemetry``,
    ``sanitizer``, ...) go to :class:`SmPipeline`."""
    config = config or GPUConfig()
    events = EventQueue()
    btrace, table = build_block(warp_traces)
    sm = SmPipeline(
        sm_id=0,
        config=config,
        events=events,
        memsys=memsys or StubMemSys(),
        fault_ctl=fault_ctl,
        scheme=scheme or BaselineStallOnFault(),
        block_source=StubBlockSource(),
        occupancy=occupancy,
        kernel_context_bytes={0: 1024},
        kernel_decode={0: table},
        **kwargs,
    )
    block = sm.launch_block(btrace, 0.0)
    return sm, events, block


def run_to_completion(sm, events, max_cycles=100_000):
    import math

    cycle = 0.0
    while True:
        events.run_until(cycle)
        if all(w.done for b in sm.blocks for w in b.warps) and not sm.blocks:
            break
        if not sm.blocks:
            break
        if all(w.done for b in sm.blocks for w in b.warps):
            break
        if not sm.sleeping or sm.next_ready_cycle <= cycle:
            sm.try_issue(cycle)
        if not sm.sleeping:
            cycle += 1
        else:
            nxt = events.next_time
            wake = sm.next_ready_cycle
            if nxt is None and wake == math.inf:
                raise AssertionError(f"deadlock at cycle {cycle}")
            if nxt is None or wake < nxt:
                nxt = wake
            cycle = max(cycle + 1, math.ceil(nxt))
        if cycle > max_cycles:
            raise AssertionError("did not finish")
    return cycle


class TestScoreboards:
    def test_raw_blocks_consumer(self):
        """fadd consuming a load's dest cannot issue before the load's data
        returns."""
        trace = [t_load(R(1), R(0), [0]), t_alu(R(2), R(1)), t_exit()]
        sm, events, block = make_sm([trace])
        sm.try_issue(0.0)  # load issues
        sm.try_issue(1.0)
        # fadd is RAW-blocked on R1 until the load commits (~47 cycles)
        assert sm.stats.issued == 1
        run_to_completion(sm, events)
        assert sm.stats.issued == 3

    def test_war_blocks_overwriter_until_operand_read(self):
        """An instruction writing a register still pending-read stalls
        (baseline: until the reader's operand-read stage)."""
        trace = [t_load(R(1), R(4), [0]), t_alu(R(4), R(5)), t_exit()]
        sm, events, block = make_sm([trace])
        sm.try_issue(0.0)
        issued_at = None
        for cycle in range(1, 20):
            events.run_until(float(cycle))
            if not sm.sleeping:
                before = sm.stats.issued
                sm.try_issue(float(cycle))
                if sm.stats.issued > before and issued_at is None:
                    issued_at = cycle
        # baseline releases sources at operand read (issue + 2)
        assert issued_at == pytest.approx(2, abs=1)

    def test_waw_blocks_second_writer(self):
        trace = [t_load(R(1), R(0), [0]), t_alu(R(1), R(5)), t_exit()]
        sm, events, block = make_sm([trace])
        sm.try_issue(0.0)
        sm.try_issue(1.0)
        sm.try_issue(2.0)
        assert sm.stats.issued == 1  # WAW on R1 holds until load commits

    def test_independent_instructions_flow(self):
        trace = [t_load(R(1), R(0), [0]), t_alu(R(2), R(3)), t_exit()]
        sm, events, block = make_sm([trace])
        sm.try_issue(0.0)
        sm.try_issue(1.0)
        assert sm.stats.issued == 2  # dual issue across cycles, no hazard


class TestIssueWidthAndUnits:
    def test_issue_width_two_per_cycle(self):
        traces = [[t_alu(R(1), R(0)), t_exit()] for _ in range(4)]
        sm, events, _ = make_sm(traces)
        issued = sm.try_issue(0.0)
        assert issued == 2  # Table 1: 2 instructions per cycle

    def test_ldst_unit_single_issue(self):
        traces = [[t_load(R(1), R(0), [0]), t_exit()] for _ in range(2)]
        sm, events, _ = make_sm(traces)
        sm.try_issue(0.0)
        assert sm.stats.issued_mem == 1  # one ld/st unit

    def test_math_units_two_per_cycle(self):
        traces = [[t_alu(R(1), R(0)), t_exit()] for _ in range(3)]
        sm, events, _ = make_sm(traces)
        sm.try_issue(0.0)
        assert sm.stats.issued == 2


class TestBarriers:
    def test_barrier_waits_for_all_warps(self):
        traces = [
            [t_bar(), t_alu(R(1), R(0)), t_exit()],
            [t_alu(R(2), R(0)), t_alu(R(3), R(2)), t_bar(),
             t_alu(R(1), R(0)), t_exit()],
        ]
        sm, events, block = make_sm(traces)
        cycles = run_to_completion(sm, events)
        assert sm.stats.blocks_completed == 1

    def test_single_warp_barrier_releases_immediately(self):
        trace = [t_bar(), t_alu(R(1), R(0)), t_exit()]
        sm, events, _ = make_sm([trace])
        run_to_completion(sm, events)
        assert sm.stats.blocks_completed == 1


class TestSchemeHooks:
    def _completion_cycles(self, scheme, trace_builder=None):
        trace = trace_builder() if trace_builder else [
            t_load(R(1), R(0), [0]),
            t_alu(R(2), R(3)),
            t_alu(R(4), R(5)),
            t_exit(),
        ]
        sm, events, _ = make_sm([trace], scheme=scheme)
        return run_to_completion(sm, events)

    def test_wd_commit_slowest(self):
        base = self._completion_cycles(BaselineStallOnFault())
        wd = self._completion_cycles(WarpDisableCommit())
        lastcheck = self._completion_cycles(WarpDisableLastCheck())
        assert wd > lastcheck >= base

    def test_wd_lastcheck_shorter_window_than_commit(self):
        wd = self._completion_cycles(WarpDisableCommit())
        lastcheck = self._completion_cycles(WarpDisableLastCheck())
        assert lastcheck < wd

    def _war_issue_cycle(self, scheme, check_latency):
        """Cycle at which the WAR-dependent ALU issues after a load."""
        trace = [
            t_load(R(1), R(4), [0]),  # reads R4
            t_alu(R(4), R(5)),  # WAR on R4
            t_exit(),
        ]
        memsys = StubMemSys(check_latency=check_latency)
        sm, events, _ = make_sm([trace], scheme=scheme, memsys=memsys)
        sm.try_issue(0.0)
        for cycle in range(1, 200):
            events.run_until(float(cycle))
            before = sm.stats.issued
            sm.try_issue(float(cycle))
            if sm.stats.issued > before:
                return cycle
        raise AssertionError("ALU never issued")

    def test_replay_queue_delays_war_until_last_check(self):
        base = self._war_issue_cycle(BaselineStallOnFault(), check_latency=30)
        rq = self._war_issue_cycle(ReplayQueue(), check_latency=30)
        assert base == pytest.approx(3, abs=1)  # released at operand read
        assert rq >= 30  # released only after the last TLB check

    def test_replay_queue_transparent_without_war(self):
        def indep():
            return [t_load(R(1), R(4), [0]), t_alu(R(6), R(5)), t_exit()]

        assert self._completion_cycles(ReplayQueue(), indep) == (
            self._completion_cycles(BaselineStallOnFault(), indep)
        )

    def test_operand_log_capacity_throttles(self):
        def trace():
            # 8 independent loads in flight
            return [
                t_load(R(i + 1), R(0), [128 * i]) for i in range(8)
            ] + [t_exit()]

        # Tiny log: single 256B entry per block (partition is clamped to
        # 512B = 2 loads) — loads must trickle.
        small = OperandLog(1)
        sm, events, block = make_sm([trace()], scheme=small, occupancy=2)
        assert block.log_capacity == 512
        run_to_completion(sm, events)
        big = OperandLog(64)
        sm2, events2, _ = make_sm([trace()], scheme=big, occupancy=2)
        run_to_completion(sm2, events2)
        # both finish; the small log must not deadlock (and is not faster)
        assert sm.stats.issued == sm2.stats.issued == 9

    def test_log_accounting_returns_to_zero(self):
        trace = [t_load(R(1), R(0), [0]), t_store(R(2), R(3), [128]), t_exit()]
        sm, events, block = make_sm([trace], scheme=OperandLog(16))
        run_to_completion(sm, events)
        assert block.log_used == 0


class TestControlFlow:
    def test_control_instruction_disables_fetch_until_commit(self):
        bra = t_inst(Instruction(Opcode.BRA, target=0))
        trace = [bra, t_alu(R(1), R(0)), t_exit()]
        sm, events, _ = make_sm([trace])
        sm.try_issue(0.0)
        sm.try_issue(1.0)
        assert sm.stats.issued == 1  # fetch held until the branch commits
        run_to_completion(sm, events)
        assert sm.stats.issued == 3


class TestStats:
    def test_commit_counts_match_issue(self):
        trace = [t_alu(R(1), R(0)), t_alu(R(2), R(1)), t_exit()]
        sm, events, _ = make_sm([trace])
        run_to_completion(sm, events)
        assert sm.stats.issued == sm.stats.committed == 3


def _record_issues(sm):
    """Instrument an SM to log (cycle, warp index, opcode) per issue.

    Warps are identified by position in the SM's master warp list — the
    ordering the round-robin pointer is defined over."""
    log = []
    orig = sm._issue

    def spy(warp, rec, dec, cycle):
        log.append((cycle, sm.warps.index(warp), dec[11].name))
        return orig(warp, rec, dec, cycle)

    sm._issue = spy
    return log


def _run_logged(warp_traces, reference=False, **kw):
    sm, events, _ = make_sm(warp_traces, **kw)
    if reference:
        sm.try_issue = sm._try_issue_reference
    log = _record_issues(sm)
    cycles = run_to_completion(sm, events)
    return log, cycles, sm


class TestRoundRobinOrderPinning:
    """Pin the exact issue order of the ready-list fast path: it must equal
    the reference full-scan (`_try_issue_reference`) instruction for
    instruction, including across sleep/wake, barrier releases, and warps
    draining out of the scan."""

    def test_rr_rotation_across_alu_warps(self):
        """4 independent ALU warps, width 2: strict rotation 01/23/01..."""
        traces = [
            [t_alu(R(1), R(0)), t_alu(R(2), R(0)), t_exit()]
            for _ in range(4)
        ]
        log, _, _ = _run_logged(traces)
        per_cycle = {}
        for cycle, slot, _op in log:
            per_cycle.setdefault(cycle, []).append(slot)
        first_cycles = sorted(per_cycle)[:2]
        assert per_cycle[first_cycles[0]] == [0, 1]
        assert per_cycle[first_cycles[1]] == [2, 3]

    def test_fast_path_equals_reference_alu_mix(self):
        traces = [
            [t_alu(R(1), R(0)), t_alu(R(2), R(1)), t_alu(R(3), R(2)), t_exit()],
            [t_alu(R(1), R(0)), t_exit()],
            [t_alu(R(2), R(0)), t_alu(R(3), R(2)), t_exit()],
        ]
        fast, fc, fsm = _run_logged(traces)
        ref, rc, rsm = _run_logged(traces, reference=True)
        assert fast == ref
        assert fc == rc
        assert fsm.stats.issued == rsm.stats.issued

    def test_fast_path_equals_reference_across_sleep_wake(self):
        """Loads put warps to sleep on scoreboard hazards; wake order after
        the data returns must match the reference scan exactly."""
        traces = [
            [t_load(R(1), R(0), [i * 128]), t_alu(R(2), R(1)), t_exit()]
            for i in range(3)
        ] + [[t_alu(R(5), R(4)), t_alu(R(6), R(5)), t_exit()]]
        fast, fc, _ = _run_logged(traces)
        ref, rc, _ = _run_logged(traces, reference=True)
        assert fast == ref
        assert fc == rc

    def test_fast_path_equals_reference_barrier_release(self):
        """Warps reach BAR at different times (skewed by hazard chains);
        post-release issue order must match the reference."""
        traces = [
            [t_alu(R(1), R(0)), t_bar(), t_alu(R(2), R(1)), t_exit()],
            [
                t_alu(R(1), R(0)),
                t_alu(R(2), R(1)),
                t_alu(R(3), R(2)),
                t_bar(),
                t_alu(R(4), R(3)),
                t_exit(),
            ],
            [t_bar(), t_alu(R(7), R(6)), t_exit()],
        ]
        fast, fc, _ = _run_logged(traces)
        ref, rc, _ = _run_logged(traces, reference=True)
        assert fast == ref
        assert fc == rc
        bar_issues = [e for e in fast if e[2] == "BAR"]
        assert len(bar_issues) == 3

    def test_fast_path_equals_reference_when_warps_drain(self):
        """Warps finish at different times; the scan must keep the same RR
        positions for the survivors as the reference (stale-entry skips)."""
        traces = [
            [t_alu(R(1), R(0)), t_exit()],
            [
                t_alu(R(1), R(0)),
                t_alu(R(2), R(1)),
                t_alu(R(3), R(2)),
                t_alu(R(4), R(3)),
                t_exit(),
            ],
            [t_alu(R(1), R(0)), t_alu(R(2), R(1)), t_exit()],
        ]
        fast, fc, _ = _run_logged(traces)
        ref, rc, _ = _run_logged(traces, reference=True)
        assert fast == ref
        assert fc == rc

    def test_fast_path_equals_reference_memory_mix(self):
        """Loads + stores + ALU across warps: exercises the fault-capable
        decode branch, replay-free memory path, and structural LD/ST limits."""
        traces = [
            [
                t_load(R(1), R(0), [0, 128]),
                t_store(R(0), R(1), [256]),
                t_exit(),
            ],
            [t_load(R(2), R(0), [512]), t_alu(R(3), R(2)), t_exit()],
            [t_alu(R(1), R(0)), t_alu(R(2), R(1)), t_exit()],
        ]
        fast, fc, _ = _run_logged(traces)
        ref, rc, _ = _run_logged(traces, reference=True)
        assert fast == ref
        assert fc == rc

"""Low-level warp/block runtime-state tests (repro.timing.sm data types)."""

import pytest

from repro.functional.trace import BlockTrace, WarpTrace
from repro.isa import Instruction, Opcode, R
from repro.timing import decode
from repro.timing.sm import BlockRT, WarpRT

#: the decode table of the hand-built records' kernel: one FADD at pc 0
TABLE = [decode(Instruction(Opcode.FADD, dest=R(1), srcs=(R(0),)))]


def make_warp(n_insts=3):
    """A warp of ``n_insts`` FADD records."""
    block = BlockRT(BlockTrace(block_id=0), context_bytes=100, log_capacity=0)
    trace = WarpTrace(0)
    for _ in range(n_insts):
        trace.append(0, 32)
    warp = WarpRT(0, trace, block, TABLE)
    block.warps.append(warp)
    return warp, block


class TestWarpRT:
    def test_next_and_advance(self):
        warp, _ = make_warp(2)
        first = warp.next_inst()
        warp.advance()
        second = warp.next_inst()
        assert (first, second) == (0, 1)
        warp.advance()
        assert warp.next_inst() is None

    def test_replay_list_takes_priority(self):
        warp, _ = make_warp(2)
        warp.idx = 1  # record 0 issued, then squashed
        warp.replay_list.append(0)
        assert warp.next_inst() == 0
        warp.advance()  # pops the replay entry, not the trace
        assert warp.idx == 1
        assert warp.next_inst() == 1

    def test_maybe_done_requires_everything_drained(self):
        warp, _ = make_warp(1)
        assert not warp.maybe_done()
        warp.advance()
        warp.inflight = 1
        assert not warp.maybe_done()  # still committing
        warp.inflight = 0
        warp.replay_list.append(0)
        assert not warp.maybe_done()  # replay work pending
        warp.replay_list.clear()
        assert warp.maybe_done()
        assert warp.done

    def test_scoreboard_tables_start_empty(self):
        warp, _ = make_warp()
        assert not warp.pw and not warp.pr and not warp.prm
        assert warp.fetch_holds == 0


class TestBlockRT:
    def test_unresolved_at(self):
        _, block = make_warp()
        block.pending_groups[7] = 1000.0
        assert block.unresolved_at(500.0)
        assert not block.unresolved_at(1500.0)

    def test_is_done_tracks_warps(self):
        warp, block = make_warp(1)
        assert not block.is_done()
        warp.done = True
        assert block.is_done()

    def test_states(self):
        _, block = make_warp()
        assert block.state == BlockRT.ACTIVE
        for state in (BlockRT.SAVING, BlockRT.OFFCHIP, BlockRT.RESTORING,
                      BlockRT.DONE):
            block.state = state
            assert block.state == state

    def test_block_id_from_trace(self):
        block = BlockRT(BlockTrace(block_id=42), context_bytes=0,
                        log_capacity=0)
        assert block.block_id == 42

"""Execution-driven SIMT functional simulator.

Executes kernels of the mini ISA with full register/memory values, 32-lane
warps, a per-warp SIMT divergence (reconvergence) stack, predication, shared
memory, block barriers, global atomics, and device-side ``malloc`` backed by
the :class:`~repro.vm.heap.DeviceHeap`.  While executing it emits the dynamic
per-warp traces that drive the timing simulator.

The divergence model is the classic PDOM stack: each entry is
``(pc, reconvergence_pc, active_mask)``; a divergent branch converts the
current entry into the reconvergence entry and pushes one entry per path;
an entry whose pc reaches its reconvergence pc is popped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.isa import Instruction, Kernel, Opcode, Param, Pred, Reg, Special, SReg
from repro.vm import AddressSpace, DeviceHeap, SparseMemory

from .trace import BlockTrace, KernelTrace, WarpTrace

WARP_SIZE = 32

#: the all-lanes-active mask, shared read-only by every undiverged warp.
#: Masks are never mutated in place (consumers rebind), so aliasing one
#: array is safe, and ``mask is _FULL_MASK`` gives the interpreter an O(1)
#: "no divergence, no guard" test that skips masked numpy blends entirely.
_FULL_MASK = np.ones(WARP_SIZE, dtype=bool)
_FULL_MASK.setflags(write=False)


class FunctionalError(Exception):
    """Raised on malformed programs or runtime errors (e.g. bad free)."""


class TrapRaised(Exception):
    """Raised when a kernel executes TRAP with any active lane."""


@dataclass
class Launch:
    """A kernel launch: grid/block geometry plus parameter values."""

    kernel: Kernel
    grid_dim: int
    block_dim: int
    params: Sequence[float] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.block_dim <= 0 or self.block_dim % WARP_SIZE:
            raise ValueError("block_dim must be a positive multiple of 32")
        if self.grid_dim <= 0:
            raise ValueError("grid_dim must be positive")

    @property
    def warps_per_block(self) -> int:
        return self.block_dim // WARP_SIZE


class _StackEntry:
    __slots__ = ("pc", "rpc", "mask", "alive")

    def __init__(self, pc: int, rpc: Optional[int], mask: np.ndarray) -> None:
        self.pc = pc
        self.rpc = rpc
        self.mask = mask
        # cached ``mask.any()`` — masks only change at EXIT, which refreshes
        # this; saves a numpy reduction per dynamic instruction in ``_step``
        self.alive = bool(mask.any())


class WarpState:
    """Architectural state of one warp (registers, predicates, SIMT stack)."""

    def __init__(self, warp_id: int, block_id: int, launch: Launch) -> None:
        self.warp_id = warp_id
        self.block_id = block_id
        self.launch = launch
        kernel = launch.kernel
        self.regs = np.zeros((WARP_SIZE, max(kernel.regs_per_thread, 1)), dtype=float)
        self.preds = np.zeros((WARP_SIZE, 8), dtype=bool)
        first_thread = warp_id * WARP_SIZE
        live = min(WARP_SIZE, launch.block_dim - first_thread)
        if live >= WARP_SIZE:  # always, given block_dim % WARP_SIZE == 0
            mask = _FULL_MASK
        else:  # pragma: no cover - unreachable under Launch validation
            mask = np.zeros(WARP_SIZE, dtype=bool)
            mask[:live] = True
        self.stack: List[_StackEntry] = [_StackEntry(0, None, mask)]
        self.at_barrier = False
        self.done = False
        self.tid = np.arange(first_thread, first_thread + WARP_SIZE)
        self.lane = np.arange(WARP_SIZE)

    @property
    def global_warp_id(self) -> int:
        return self.block_id * self.launch.warps_per_block + self.warp_id


class Interpreter:
    """Executes launches and collects :class:`KernelTrace` objects."""

    def __init__(
        self,
        memory: Optional[SparseMemory] = None,
        address_space: Optional[AddressSpace] = None,
        heap: Optional[DeviceHeap] = None,
        collect_trace: bool = True,
        max_dynamic_instructions: int = 50_000_000,
    ) -> None:
        self.memory = memory if memory is not None else SparseMemory()
        self.address_space = address_space
        self.heap = heap
        self.collect_trace = collect_trace
        self.max_dynamic_instructions = max_dynamic_instructions
        self._executed = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self, launch: Launch) -> KernelTrace:
        """Execute every block of ``launch`` and return its trace."""
        launch.kernel.validate()
        trace = KernelTrace(
            kernel_name=launch.kernel.name,
            grid_dim=launch.grid_dim,
            block_dim=launch.block_dim,
        )
        for block_id in range(launch.grid_dim):
            trace.blocks.append(self.run_block(launch, block_id))
        return trace

    def run_block(self, launch: Launch, block_id: int) -> BlockTrace:
        """Execute one thread block (all its warps, honouring barriers)."""
        warps = [
            WarpState(w, block_id, launch) for w in range(launch.warps_per_block)
        ]
        shared = SparseMemory()
        block_trace = BlockTrace(block_id=block_id)
        wtraces = [WarpTrace(warp_id=w.warp_id) for w in warps]

        while not all(w.done for w in warps):
            progressed = False
            for warp, wtrace in zip(warps, wtraces):
                if warp.done or warp.at_barrier:
                    continue
                progressed = True
                # Run the warp until it blocks (barrier) or finishes.
                while not warp.done and not warp.at_barrier:
                    self._step(warp, shared, wtrace)
            if all(w.at_barrier for w in warps if not w.done):
                for w in warps:
                    w.at_barrier = False
            elif not progressed:  # pragma: no cover - deadlock guard
                raise FunctionalError(
                    f"block {block_id}: deadlock (barrier divergence?)"
                )
        block_trace.warps = wtraces
        return block_trace

    # ------------------------------------------------------------------
    # single-step execution (also used directly by replay-semantics tests)
    # ------------------------------------------------------------------

    def _step(self, warp: WarpState, shared: SparseMemory, wtrace: WarpTrace) -> None:
        stack = warp.stack
        # Pop reconverged / emptied entries.
        while stack and (
            not stack[-1].alive or stack[-1].pc == stack[-1].rpc
        ):
            stack.pop()
        if not stack:
            warp.done = True
            return
        top = stack[-1]
        program = warp.launch.kernel.instructions
        if not 0 <= top.pc < len(program):
            raise FunctionalError(f"pc {top.pc} out of range")
        inst = program[top.pc]

        # Masks are never mutated in place (every consumer rebinds), so the
        # unguarded common case can alias the stack mask instead of copying.
        if inst.guard is None:
            exec_mask = top.mask
        else:
            guard_vals = warp.preds[:, inst.guard.index]
            if inst.guard_negate:
                guard_vals = ~guard_vals
            exec_mask = top.mask & guard_vals

        self._executed += 1
        if self._executed > self.max_dynamic_instructions:
            raise FunctionalError("dynamic instruction budget exceeded")

        addresses = self.execute(inst, warp, exec_mask, shared)

        op = inst.op
        if self.collect_trace and op is not Opcode.NOP:
            wtrace.append(
                top.pc,
                WARP_SIZE
                if exec_mask is _FULL_MASK
                else int(np.count_nonzero(exec_mask)),
                addresses,
            )

        # Inlined _advance common case: plain fall-through instructions.
        if op is Opcode.EXIT or op is Opcode.BAR or op is Opcode.BRA:
            self._advance(inst, warp, top, exec_mask)
        else:
            top.pc += 1

    def _advance(
        self,
        inst: Instruction,
        warp: WarpState,
        top: _StackEntry,
        exec_mask: np.ndarray,
    ) -> None:
        if inst.op is Opcode.EXIT:
            if exec_mask.any():
                for entry in warp.stack:
                    entry.mask = entry.mask & ~exec_mask
                    entry.alive = bool(entry.mask.any())
            if not any(e.alive for e in warp.stack):
                warp.done = True
                return
            top.pc += 1
            return
        if inst.op is Opcode.BAR:
            warp.at_barrier = True
            top.pc += 1
            return
        if inst.op is Opcode.BRA:
            taken = exec_mask  # guard already applied: guarded lanes take it
            active = top.mask
            not_taken = active & ~taken
            if not taken.any():
                top.pc += 1
            elif not not_taken.any():
                top.pc = inst.target
            else:
                if inst.reconv is None:
                    raise FunctionalError(
                        f"divergent branch at pc {top.pc} without reconvergence"
                    )
                fall_pc = top.pc + 1
                top.pc = inst.reconv  # current entry becomes the join point
                warp.stack.append(_StackEntry(fall_pc, inst.reconv, not_taken))
                warp.stack.append(_StackEntry(inst.target, inst.reconv, taken))
            return
        top.pc += 1

    # ------------------------------------------------------------------
    # instruction semantics
    # ------------------------------------------------------------------

    def _read(self, operand, warp: WarpState):
        if isinstance(operand, Reg):
            return warp.regs[:, operand.index]
        if isinstance(operand, Pred):
            return warp.preds[:, operand.index]
        if isinstance(operand, SReg):
            launch = warp.launch
            kind = operand.kind
            if kind is Special.TID:
                return warp.tid
            if kind is Special.CTAID:
                return warp.block_id
            if kind is Special.NTID:
                return launch.block_dim
            if kind is Special.NCTAID:
                return launch.grid_dim
            if kind is Special.LANE:
                return warp.lane
            if kind is Special.WARPID:
                return warp.warp_id
            raise FunctionalError(f"unknown special register {kind}")
        if isinstance(operand, Param):
            try:
                return warp.launch.params[operand.index]
            except IndexError:
                raise FunctionalError(
                    f"kernel reads param[{operand.index}] but launch has "
                    f"{len(warp.launch.params)} params"
                ) from None
        # Imm
        return operand.value

    def _write_reg(self, dest: Reg, warp: WarpState, mask: np.ndarray, value) -> None:
        if mask is _FULL_MASK:  # no blend needed: every lane writes
            warp.regs[:, dest.index] = value
            return
        col = warp.regs[:, dest.index]
        warp.regs[:, dest.index] = np.where(mask, value, col)

    def _write_pred(self, dest: Pred, warp: WarpState, mask: np.ndarray, value) -> None:
        if mask is _FULL_MASK:
            warp.preds[:, dest.index] = value
            return
        col = warp.preds[:, dest.index]
        warp.preds[:, dest.index] = np.where(mask, value, col)

    _CMP = {
        "lt": np.less,
        "le": np.less_equal,
        "gt": np.greater,
        "ge": np.greater_equal,
        "eq": np.equal,
        "ne": np.not_equal,
    }

    def execute(
        self,
        inst: Instruction,
        warp: WarpState,
        mask: np.ndarray,
        shared: SparseMemory,
    ):
        """Apply ``inst``'s semantics for lanes in ``mask``.

        Returns the byte addresses accessed, one per active lane, as the
        bytes of an int64 vector (memory instructions with at least one
        active lane) or ``None``: the trace appends them to its flat
        address column without building an object per record.

        Dispatch runs on a per-static-instruction execution plan
        (:func:`_plan`: a small kind integer plus the resolved ufunc),
        computed once and cached on the instruction — the same memoization
        idea as the timing decode cache (docs/PERFORMANCE.md)."""
        srcs = inst.srcs
        kind, fn = _plan(inst)

        # The dispatch chain is ordered by dynamic frequency (arithmetic,
        # then memory); register source operands — the overwhelmingly common
        # kind — read inline instead of through ``_read``.
        regs = warp.regs
        if kind == _K_BINOP:
            o = srcs[0]
            a = regs[:, o.index] if type(o) is Reg else self._read(o, warp)
            o = srcs[1]
            b = regs[:, o.index] if type(o) is Reg else self._read(o, warp)
            self._write_reg(inst.dest, warp, mask, fn(a, b))
            return None
        if kind == _K_MAD:
            o = srcs[0]
            a = regs[:, o.index] if type(o) is Reg else self._read(o, warp)
            o = srcs[1]
            b = regs[:, o.index] if type(o) is Reg else self._read(o, warp)
            o = srcs[2]
            c = regs[:, o.index] if type(o) is Reg else self._read(o, warp)
            val = a * b + c
            if inst.op is Opcode.IMAD:
                val = np.floor(val + 0.5 * np.sign(val))
            self._write_reg(inst.dest, warp, mask, val)
            return None
        if kind == _K_LD:
            mem = self.memory if inst.op is Opcode.LD_GLOBAL else shared
            addrs = self._lane_addresses(self._read(srcs[0], warp), inst, mask)
            if addrs.size:
                vals = mem.load_many(addrs, inst.width)
                if mask is _FULL_MASK:
                    regs[:, inst.dest.index] = vals
                else:
                    regs[mask, inst.dest.index] = vals
                return addrs.tobytes()
            return None
        if kind == _K_ST:
            mem = self.memory if inst.op is Opcode.ST_GLOBAL else shared
            base = self._read(srcs[0], warp)
            value = _warp_f64(self._read(srcs[1], warp))
            addrs = self._lane_addresses(base, inst, mask)
            if addrs.size:
                mem.store_many(
                    addrs, value if mask is _FULL_MASK else value[mask],
                    inst.width,
                )
                return addrs.tobytes()
            return None
        if kind == _K_SFU:
            a = self._read(srcs[0], warp)
            if fn is None:  # FDIV: the only two-source SFU op
                b = self._read(srcs[1], warp)
                with np.errstate(divide="ignore", invalid="ignore"):
                    val = np.where(np.asarray(b) != 0, a / np.where(b == 0, 1, b), 0.0)
            else:
                val = fn(np.asarray(a, dtype=float))
            self._write_reg(inst.dest, warp, mask, val)
            return None
        if kind == _K_MOV:
            val = self._read(srcs[0], warp)
            if isinstance(inst.dest, Pred):
                self._write_pred(inst.dest, warp, mask, val)
            else:
                self._write_reg(inst.dest, warp, mask, val)
            return None
        if kind == _K_CVT:
            val = self._read(srcs[0], warp)
            if inst.op is Opcode.F2I:
                val = np.trunc(val)
            self._write_reg(inst.dest, warp, mask, val)
            return None
        if kind == _K_SEL:
            p = self._read(srcs[0], warp)
            a = self._read(srcs[1], warp)
            b = self._read(srcs[2], warp)
            self._write_reg(inst.dest, warp, mask, np.where(p, a, b))
            return None
        if kind == _K_SETP:
            a = self._read(srcs[0], warp)
            b = self._read(srcs[1], warp)
            if inst.cmp not in self._CMP:
                raise FunctionalError(f"bad comparison {inst.cmp!r}")
            self._write_pred(inst.dest, warp, mask, self._CMP[inst.cmp](a, b))
            return None
        if kind == _K_ATOM:
            base = self._read(srcs[0], warp)
            value = self._read(srcs[1], warp)
            addrs = self._lane_addresses(base, inst, mask)
            if not addrs.size:
                return None
            olds = self.memory.atomic_many(
                addrs, inst.atom or "add",
                _lane_floats(value, mask, addrs.size),
            )
            if inst.dest is not None:
                if mask is _FULL_MASK:
                    regs[:, inst.dest.index] = olds
                else:
                    regs[mask, inst.dest.index] = olds
            return addrs.tobytes()
        if kind == _K_MALLOC:
            if self.heap is None:
                raise FunctionalError("MALLOC executed but no device heap attached")
            lanes = np.flatnonzero(mask)
            sizes = _lane_floats(self._read(srcs[0], warp), mask, lanes.size)
            regs[lanes, inst.dest.index] = self.heap.malloc_many(
                warp.global_warp_id, [int(s) for s in sizes]
            )
            return None
        if kind == _K_FREE:
            if self.heap is None:
                raise FunctionalError("FREE executed but no device heap attached")
            ptrs = _lane_floats(
                self._read(srcs[0], warp), mask, int(np.count_nonzero(mask))
            )
            self.heap.free_many(warp.global_warp_id, [int(p) for p in ptrs])
            return None
        if kind == _K_TRAP:
            if mask.any():
                raise TrapRaised(
                    f"trap in block {warp.block_id} warp {warp.warp_id}"
                )
            return None
        if kind == _K_CTRL:
            return None
        raise FunctionalError(f"unimplemented opcode {inst.op}")

    def _lane_addresses(self, base, inst: Instruction,
                        mask: np.ndarray) -> np.ndarray:
        """The active lanes' byte addresses as an int64 vector.

        Truncation toward zero, exactly like the per-lane ``int()`` it
        replaced."""
        arr = _warp_f64(base)
        if mask is not _FULL_MASK:
            arr = arr[mask]
        addrs = arr.astype(np.int64)
        return addrs + inst.offset if inst.offset else addrs


_INT_BINOPS = {
    Opcode.IADD: np.add,
    Opcode.ISUB: np.subtract,
    Opcode.IMUL: np.multiply,
    Opcode.IMIN: np.minimum,
    Opcode.IMAX: np.maximum,
    Opcode.SHL: lambda a, b: np.asarray(a, dtype=np.int64) << np.asarray(b, dtype=np.int64),
    Opcode.SHR: lambda a, b: np.asarray(a, dtype=np.int64) >> np.asarray(b, dtype=np.int64),
    Opcode.AND: lambda a, b: np.asarray(a, dtype=np.int64) & np.asarray(b, dtype=np.int64),
    Opcode.OR: lambda a, b: np.asarray(a, dtype=np.int64) | np.asarray(b, dtype=np.int64),
    Opcode.XOR: lambda a, b: np.asarray(a, dtype=np.int64) ^ np.asarray(b, dtype=np.int64),
}

_FLOAT_BINOPS = {
    Opcode.FADD: np.add,
    Opcode.FSUB: np.subtract,
    Opcode.FMUL: np.multiply,
    Opcode.FMIN: np.minimum,
    Opcode.FMAX: np.maximum,
}

_SFU_OPS = {
    Opcode.FDIV: None,  # handled inline (two sources)
    Opcode.FSQRT: lambda a: np.sqrt(np.abs(a)),
    Opcode.FRSQRT: lambda a: 1.0 / np.sqrt(np.maximum(np.abs(a), 1e-30)),
    Opcode.FSIN: np.sin,
    Opcode.FCOS: np.cos,
    Opcode.FEXP: lambda a: np.exp(np.clip(a, -80, 80)),
    Opcode.FLOG: lambda a: np.log(np.maximum(np.abs(a), 1e-30)),
}

_F64 = np.dtype(np.float64)
_WSHAPE = (WARP_SIZE,)


def _warp_f64(val) -> np.ndarray:
    """A ``(WARP_SIZE,)`` float64 vector of ``val``.

    Register-column reads already have that exact shape and dtype — the
    common case — so they pass through untouched; scalars and predicate
    vectors take the original asarray+broadcast path (same values)."""
    if type(val) is np.ndarray and val.dtype == _F64 and val.shape == _WSHAPE:
        return val
    return np.broadcast_to(np.asarray(val, dtype=float), _WSHAPE)


def _lane_floats(val, mask: np.ndarray, lanes: int) -> list:
    """The active lanes' values of operand ``val`` as Python floats.

    A scalar operand (an immediate, a parameter) repeats without the
    numpy broadcast :func:`_warp_f64` pays for; the values are the same."""
    if type(val) is not np.ndarray:
        return [float(val)] * lanes
    vec = _warp_f64(val)
    return (vec if mask is _FULL_MASK else vec[mask]).tolist()


# Execution-plan kinds.  ``_plan`` classifies a static instruction once —
# resolving the opcode's category and its ufunc — and caches the result on
# the instruction object, so the hot ``execute`` path dispatches on a small
# integer instead of re-testing enum-dict membership per dynamic record.
_K_BINOP = 0
_K_MAD = 1
_K_SFU = 2
_K_MOV = 3
_K_CVT = 4
_K_SEL = 5
_K_SETP = 6
_K_LD = 7
_K_ST = 8
_K_ATOM = 9
_K_MALLOC = 10
_K_FREE = 11
_K_TRAP = 12
_K_CTRL = 13
_K_UNKNOWN = 14


def _classify(op) -> tuple:
    # Same category order as the original chained membership tests (no
    # opcode appears in more than one table, so order is cosmetic).
    if op in _INT_BINOPS:
        return (_K_BINOP, _INT_BINOPS[op])
    if op in _FLOAT_BINOPS:
        return (_K_BINOP, _FLOAT_BINOPS[op])
    if op is Opcode.IMAD or op is Opcode.FFMA:
        return (_K_MAD, None)
    if op in _SFU_OPS:
        return (_K_SFU, _SFU_OPS[op])
    if op is Opcode.MOV:
        return (_K_MOV, None)
    if op is Opcode.I2F or op is Opcode.F2I:
        return (_K_CVT, None)
    if op is Opcode.SEL:
        return (_K_SEL, None)
    if op is Opcode.ISETP or op is Opcode.FSETP:
        return (_K_SETP, None)
    if op is Opcode.LD_GLOBAL or op is Opcode.LD_SHARED:
        return (_K_LD, None)
    if op is Opcode.ST_GLOBAL or op is Opcode.ST_SHARED:
        return (_K_ST, None)
    if op is Opcode.ATOM_GLOBAL:
        return (_K_ATOM, None)
    if op is Opcode.MALLOC:
        return (_K_MALLOC, None)
    if op is Opcode.FREE:
        return (_K_FREE, None)
    if op is Opcode.TRAP:
        return (_K_TRAP, None)
    if op in (Opcode.BRA, Opcode.BAR, Opcode.EXIT, Opcode.NOP):
        return (_K_CTRL, None)
    return (_K_UNKNOWN, None)


def _plan(inst: Instruction) -> tuple:
    """Memoized ``(kind, fn)`` execution plan for a static instruction.

    Safe to cache on the instruction: opcodes are immutable after kernel
    construction (same contract as the timing-side ``inst._dec`` cache).
    """
    try:
        return inst._ek
    except AttributeError:
        ek = _classify(inst.op)
        inst._ek = ek
        return ek

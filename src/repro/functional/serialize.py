"""Trace serialization: save/load dynamic kernel traces to disk.

Functional simulation is the expensive front end of the methodology; a
saved trace can be replayed through the timing simulator (any scheme, any
configuration) without re-executing the kernel.  The format is a compact
JSON container: the static kernel instructions are encoded once and the
per-warp dynamic streams reference them by pc.
"""

from __future__ import annotations

import json
from array import array
from typing import IO, Dict, Union

from repro.isa import Imm, Instruction, Kernel, Opcode, Param, Pred, Reg, Special, SReg

from .trace import BlockTrace, KernelTrace, TraceInst, WarpTrace

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# operand / instruction codecs
# ---------------------------------------------------------------------------

def _encode_operand(op) -> Dict:
    if isinstance(op, Reg):
        return {"k": "r", "i": op.index}
    if isinstance(op, Pred):
        return {"k": "p", "i": op.index}
    if isinstance(op, Imm):
        return {"k": "i", "v": op.value}
    if isinstance(op, SReg):
        return {"k": "s", "v": op.kind.value}
    if isinstance(op, Param):
        return {"k": "a", "i": op.index}
    raise TypeError(f"cannot encode operand {op!r}")


def _decode_operand(data: Dict):
    kind = data["k"]
    if kind == "r":
        return Reg(data["i"])
    if kind == "p":
        return Pred(data["i"])
    if kind == "i":
        return Imm(data["v"])
    if kind == "s":
        return SReg(Special(data["v"]))
    if kind == "a":
        return Param(data["i"])
    raise ValueError(f"unknown operand kind {kind!r}")


def _encode_instruction(inst: Instruction) -> Dict:
    out: Dict = {"op": inst.op.value}
    if inst.dest is not None:
        out["d"] = _encode_operand(inst.dest)
    if inst.srcs:
        out["s"] = [_encode_operand(s) for s in inst.srcs]
    if inst.guard is not None:
        out["g"] = inst.guard.index
        if inst.guard_negate:
            out["gn"] = True
    for attr, key in (
        ("target", "t"), ("reconv", "rc"), ("offset", "o"), ("cmp", "c"),
        ("atom", "at"),
    ):
        value = getattr(inst, attr)
        if value not in (None, 0):
            out[key] = value
    if inst.width != 4:
        out["w"] = inst.width
    return out


def _decode_instruction(data: Dict) -> Instruction:
    return Instruction(
        op=Opcode(data["op"]),
        dest=_decode_operand(data["d"]) if "d" in data else None,
        srcs=tuple(_decode_operand(s) for s in data.get("s", ())),
        guard=Pred(data["g"]) if "g" in data else None,
        guard_negate=data.get("gn", False),
        target=data.get("t"),
        reconv=data.get("rc"),
        offset=data.get("o", 0),
        width=data.get("w", 4),
        cmp=data.get("c"),
        atom=data.get("at"),
    )


# ---------------------------------------------------------------------------
# kernel + trace containers
# ---------------------------------------------------------------------------

def encode_kernel(kernel: Kernel) -> Dict:
    return {
        "name": kernel.name,
        "regs_per_thread": kernel.regs_per_thread,
        "smem_bytes_per_block": kernel.smem_bytes_per_block,
        "instructions": [
            _encode_instruction(i) for i in kernel.instructions
        ],
    }


def decode_kernel(data: Dict) -> Kernel:
    kernel = Kernel(
        name=data["name"],
        instructions=[_decode_instruction(i) for i in data["instructions"]],
        regs_per_thread=data["regs_per_thread"],
        smem_bytes_per_block=data["smem_bytes_per_block"],
    )
    kernel.validate()
    return kernel


def save_trace(trace: KernelTrace, kernel: Kernel, fp: Union[str, IO]) -> None:
    """Write ``trace`` (with its kernel) to a path or file object."""
    doc = {
        "version": FORMAT_VERSION,
        "kernel": encode_kernel(kernel),
        "grid_dim": trace.grid_dim,
        "block_dim": trace.block_dim,
        "blocks": [
            {
                "id": block.block_id,
                "warps": [
                    {
                        "id": warp.warp_id,
                        "insts": [
                            [t.pc, t.active,
                             [] if t.addresses is None
                             else t.addresses.tolist()]
                            for t in warp.instructions
                        ],
                    }
                    for warp in block.warps
                ],
            }
            for block in trace.blocks
        ],
    }
    # one json.dumps call runs the C encoder; json.dump's chunked
    # encoder is pure Python and several times slower (same bytes)
    text = json.dumps(doc)
    if isinstance(fp, str):
        with open(fp, "w") as f:
            f.write(text)
    else:
        fp.write(text)


def load_trace(fp: Union[str, IO]):
    """Load ``(kernel, trace)`` previously written by :func:`save_trace`.

    Raises :class:`ValueError` for a record whose pc is not an instruction
    of the kernel or whose addresses are not int64 integers."""
    if isinstance(fp, str):
        with open(fp) as f:
            doc = json.load(f)
    else:
        doc = json.load(fp)
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported trace format {doc.get('version')!r}")
    kernel = decode_kernel(doc["kernel"])
    trace = KernelTrace(
        kernel_name=kernel.name,
        grid_dim=doc["grid_dim"],
        block_dim=doc["block_dim"],
    )
    # keyed by pc, so a pc outside the kernel fails the lookup instead of
    # wrapping around the end of the list as a negative index would
    program = dict(enumerate(kernel.instructions))
    for bdoc in doc["blocks"]:
        block = BlockTrace(block_id=bdoc["id"])
        for wdoc in bdoc["warps"]:
            try:
                insts = [
                    TraceInst(pc, program[pc], active,
                              array("q", addrs) if addrs else None)
                    for pc, active, addrs in wdoc["insts"]
                ]
            except KeyError as exc:
                raise ValueError(
                    f"block {bdoc['id']} warp {wdoc['id']}: pc {exc.args[0]!r}"
                    f" is not an instruction of {kernel.name!r}"
                ) from None
            except (TypeError, OverflowError) as exc:
                # array('q') takes only integers that fit in 64 bits
                raise ValueError(
                    f"block {bdoc['id']} warp {wdoc['id']}: malformed record"
                    f" ({exc})"
                ) from None
            block.warps.append(WarpTrace(wdoc["id"], insts))
        trace.blocks.append(block)
    return kernel, trace

"""Trace serialization: save/load dynamic kernel traces as a binary
container.

Functional simulation is the expensive front end of the methodology; a
saved trace can be replayed through the timing simulator (any scheme, any
configuration) without re-executing the kernel.  The container holds the
trace's columns (:mod:`repro.functional.trace`) as raw little-endian
arrays behind a small JSON header, so a loader views them in place:

``MAGIC``            8 bytes
version              uint32, :data:`FORMAT_VERSION`
header length        uint32
header               JSON: the kernel (instructions encoded once), the
                     grid and block dims, the address count, and per
                     block its id and each warp's id and record count;
                     space-padded to a multiple of 8 bytes
offsets              int64 x (records + 1), into the address column
addresses            int64 x addresses
pcs                  int32 x records
active lanes         uint8 x records

The records of all warps sit end to end, in header order, so a warp is
a ``(start, count)`` range of the trace-wide columns.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from typing import IO, Dict, Optional, Union

import numpy as np

from repro.isa import Imm, Instruction, Kernel, Opcode, Param, Pred, Reg, Special, SReg

from .trace import BlockTrace, KernelTrace, WarpTrace

FORMAT_VERSION = 2
MAGIC = b"REPROTRC"
_PREAMBLE = struct.Struct("<8sII")


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


def _raw(column, lo: int, hi: int) -> memoryview:
    """Items ``lo:hi`` of a trace column as its native bytes."""
    return memoryview(column)[lo:hi].cast("B")


def _little_endian_host() -> None:
    """Columns are written and viewed in native order, which the format
    fixes as little-endian."""
    if sys.byteorder != "little":  # pragma: no cover - no such host here
        raise ValueError("trace containers need a little-endian host")


def save_trace(trace: KernelTrace, kernel: Kernel, fp: Union[str, IO]) -> None:
    """Write ``trace`` (with its kernel) to a path or binary file object."""
    _little_endian_host()
    blocks = []
    offsets = bytearray(array("q", (0,)).tobytes())
    addrs, pcs, active = bytearray(), bytearray(), bytearray()
    n_addrs = 0
    for block in trace.blocks:
        warps = []
        for warp in block.warps:
            start, stop = warp.start, warp.start + warp.count
            offs = np.frombuffer(warp.offsets, dtype=np.int64)
            lo, hi = int(offs[start]), int(offs[stop])
            offsets += (offs[start + 1:stop + 1] + (n_addrs - lo)).tobytes()
            addrs += _raw(warp.addrs, lo, hi)
            pcs += _raw(warp.pcs, start, stop)
            active += _raw(warp.active, start, stop)
            n_addrs += hi - lo
            warps += (warp.warp_id, warp.count)
        blocks.append([block.block_id, warps])
    header = json.dumps({
        "kernel": encode_kernel(kernel),
        "grid_dim": trace.grid_dim,
        "block_dim": trace.block_dim,
        "addresses": n_addrs,
        "blocks": blocks,
    }, separators=(",", ":")).encode()
    header += b" " * (-(_PREAMBLE.size + len(header)) % 8)
    data = bytearray(_PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(header)))
    data += header
    data += offsets + addrs + pcs + active
    if isinstance(fp, str):
        with open(fp, "wb") as f:
            f.write(data)
    else:
        fp.write(data)


def load_trace(source: Union[str, bytes, bytearray, memoryview, IO],
               kernel: Optional[Kernel] = None):
    """Load ``(kernel, trace)`` from a container written by
    :func:`save_trace`: a path, the container's bytes, or a binary file
    object.

    Without ``kernel`` the header's kernel is decoded.  With it, the
    container must have been saved with that kernel (the header encodes
    it exactly), and it is the kernel returned: a run on it replays
    what was recorded, and no copy is decoded.

    Every pc is checked against the kernel and every offset against the
    address column; a malformed container raises :class:`ValueError`.
    The trace's columns are then zero-copy views of the container's
    bytes (a file is read once), so loading allocates nothing per
    record."""
    _little_endian_host()
    if isinstance(source, str):
        with open(source, "rb") as f:
            source = f.read()
    elif not isinstance(source, (bytes, bytearray, memoryview)):
        source = source.read()
    mv = memoryview(source).cast("B")
    if len(mv) < _PREAMBLE.size:
        raise ValueError(f"trace container truncated at {len(mv)} bytes")
    magic, version, hlen = _PREAMBLE.unpack_from(mv)
    if magic != MAGIC:
        raise ValueError(f"not a trace container (magic {magic!r})")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported trace format {version!r}")
    pos = _PREAMBLE.size + hlen
    if pos % 8 or pos > len(mv):
        raise ValueError(f"trace header length {hlen} does not fit")
    try:
        header = json.loads(bytes(mv[_PREAMBLE.size:pos]))
        saved = header["kernel"]
        if kernel is None:
            kernel = decode_kernel(saved)
        elif saved != encode_kernel(kernel):
            raise ValueError(
                f"the container was saved with another kernel than"
                f" {kernel.name!r}"
            )
        n_addrs = header["addresses"]
        blocks = header["blocks"]
        n_recs = 0
        for _, warps in blocks:
            counts = warps[1::2]
            if len(warps) % 2 or not all(
                type(c) is int and c >= 0 for c in counts
            ):
                raise ValueError("each warp needs an id and a count >= 0")
            n_recs += sum(counts)
        if type(n_addrs) is not int or n_addrs < 0:
            raise ValueError(f"address count {n_addrs!r}")
        trace = KernelTrace(kernel_name=kernel.name,
                            grid_dim=header["grid_dim"],
                            block_dim=header["block_dim"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"malformed trace header: {exc}") from None
    size = pos + 8 * (n_recs + 1) + 8 * n_addrs + 5 * n_recs
    if size != len(mv):
        raise ValueError(
            f"trace container is {len(mv)} bytes; its header describes"
            f" {size}"
        )
    columns = []
    for typecode, items in (("q", n_recs + 1), ("q", n_addrs),
                            ("i", n_recs), ("B", n_recs)):
        end = pos + items * array(typecode).itemsize
        columns.append(mv[pos:end].cast(typecode))
        pos = end
    offsets, addrs, pcs, active = columns
    _check_columns(kernel, offsets, pcs, n_addrs)
    start = 0
    for block_id, warps in blocks:
        block = BlockTrace(block_id)
        for warp_id, count in zip(warps[::2], warps[1::2]):
            block.warps.append(
                WarpTrace(warp_id, pcs, active, offsets, addrs, start, count)
            )
            start += count
        trace.blocks.append(block)
    return kernel, trace


def _check_columns(kernel: Kernel, offsets, pcs, n_addrs: int) -> None:
    """Raise :class:`ValueError` unless every pc names an instruction of
    ``kernel`` and the offsets rise from 0 to ``n_addrs``."""
    if len(pcs):
        col = np.frombuffer(pcs, dtype=np.int32)
        low, high = int(col.min()), int(col.max())
        if low < 0 or high >= len(kernel):
            bad = low if low < 0 else high
            raise ValueError(
                f"pc {bad} is not an instruction of {kernel.name!r}"
            )
    offs = np.frombuffer(offsets, dtype=np.int64)
    if offs[0] != 0 or offs[-1] != n_addrs:
        raise ValueError(
            f"offsets run from {offs[0]} to {offs[-1]}, not 0 to {n_addrs}"
        )
    if (offs[1:] < offs[:-1]).any():
        raise ValueError("offsets decrease")

"""Hash functions computed through a core.

The paper's test corpus includes "interesting libraries (e.g.,
compression, hash, math, cryptography, copying, locking, ...)" (§2).
These hashes are implemented from scratch with every arithmetic step
routed through the core, so a defective ALU or multiplier corrupts the
digest — the classic way checksum mismatches surfaced CEEs in
production storage systems.

:func:`crc64` opens with :func:`repro.silicon.core.credit_whole`: on a
defect-free core it credits 4 ops per byte and returns
:func:`host_crc64`, which is exactly what the per-op loop below it
would produce.
"""

from __future__ import annotations

from repro.workloads.base import CoreLike, WorkloadResult, digest_ints
from repro.silicon.core import credit_whole
from repro.silicon.units import Op

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_CRC64_POLY = 0x42F0E1EBA9EA3693
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a(core: CoreLike, data: bytes) -> int:
    """FNV-1a 64-bit: xor then multiply, both on the core."""
    h = FNV_OFFSET
    for byte in data:
        h = core.execute(Op.XOR, h, byte)
        h = core.execute(Op.MUL, h, FNV_PRIME)
    return h


def _crc64_table() -> tuple[int, ...]:
    """Host-side CRC-64 table (the ROM; not subject to core defects)."""
    table = []
    for i in range(256):
        crc = i << 56
        for _ in range(8):
            if crc & (1 << 63):
                crc = ((crc << 1) ^ _CRC64_POLY) & 0xFFFFFFFFFFFFFFFF
            else:
                crc = (crc << 1) & 0xFFFFFFFFFFFFFFFF
        table.append(crc)
    return tuple(table)


CRC64_TABLE = _crc64_table()


def host_crc64(data: bytes) -> int:
    """CRC-64 computed host-side: the golden value of :func:`crc64`."""
    crc = 0
    table = CRC64_TABLE
    for byte in data:
        crc = ((crc << 8) & _MASK64) ^ table[((crc >> 56) ^ byte) & 0xFF]
    return crc


def crc64(core: CoreLike, data: bytes) -> int:
    """Table-driven CRC-64; the per-byte combine runs on the core."""
    if credit_whole(core, 4 * len(data)):
        return host_crc64(data)
    crc = 0
    for byte in data:
        index = core.execute(Op.XOR, core.execute(Op.SHR, crc, 56), byte)
        crc = core.execute(
            Op.XOR, core.execute(Op.SHL, crc, 8), CRC64_TABLE[index & 0xFF]
        )
    return crc


def mix64(core: CoreLike, x: int) -> int:
    """A splitmix-style finalizer: shifts, xors and multiplies."""
    x = core.execute(Op.XOR, x, core.execute(Op.SHR, x, 30))
    x = core.execute(Op.MUL, x, 0xBF58476D1CE4E5B9)
    x = core.execute(Op.XOR, x, core.execute(Op.SHR, x, 27))
    x = core.execute(Op.MUL, x, 0x94D049BB133111EB)
    x = core.execute(Op.XOR, x, core.execute(Op.SHR, x, 31))
    return x


def hash_stream(core: CoreLike, seeds: list[int]) -> list[int]:
    """Mix a list of seeds; the vectorizable form of :func:`mix64`."""
    return [mix64(core, seed) for seed in seeds]


def hashing_workload(core: CoreLike, data: bytes) -> WorkloadResult:
    """One unit of hash work with an internal cross-check.

    Computes FNV-1a twice and compares — a cheap application-level
    self-check of the kind §6 describes ("many of our applications
    already checked for SDCs").  A *deterministic* defect passes this
    check (both runs corrupt identically); an intermittent one is
    caught with useful probability.
    """
    first = fnv1a(core, data)
    second = fnv1a(core, data)
    crc = crc64(core, data)
    return WorkloadResult(
        name="hashing",
        output_digest=digest_ints([first, crc]),
        app_detected=first != second,
        units=len(data),
    )

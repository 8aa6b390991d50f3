"""Per-bit reference codec: the test oracle for :class:`repro.util.bits.Layout`.

Reads and writes one bit at a time, most-significant bit first, the way
a PISA parser walks a header. It is deliberately naive so the compiled
word-level codec can be checked against it field by field.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import ReproError


class BitReader:
    def __init__(self, data: bytes):
        self.data = data
        self.bitpos = 0

    @property
    def bits_left(self) -> int:
        return len(self.data) * 8 - self.bitpos

    def read(self, nbits: int) -> int:
        if nbits > self.bits_left:
            raise ReproError(
                f"buffer too short: need {nbits} bits, have {self.bits_left}"
            )
        value = 0
        for _ in range(nbits):
            byte = self.data[self.bitpos // 8]
            bit = (byte >> (7 - (self.bitpos % 8))) & 1
            value = (value << 1) | bit
            self.bitpos += 1
        return value

    def rest(self) -> bytes:
        if self.bitpos % 8 != 0:
            raise ReproError("read stopped mid-byte")
        return self.data[self.bitpos // 8 :]


class BitWriter:
    def __init__(self) -> None:
        self._bits: List[int] = []

    def write(self, value: int, nbits: int) -> None:
        for shift in range(nbits - 1, -1, -1):
            self._bits.append((value >> shift) & 1)

    def to_bytes(self) -> bytes:
        if len(self._bits) % 8 != 0:
            raise ReproError("non-byte-aligned bit stream")
        out = bytearray()
        for i in range(0, len(self._bits), 8):
            byte = 0
            for bit in self._bits[i : i + 8]:
                byte = (byte << 1) | bit
            out.append(byte)
        return bytes(out)


def pack_fields(fields: Sequence[Tuple[str, int]], values: dict) -> bytes:
    """Pack ``values`` (by field name) per a (name, bits) layout."""
    writer = BitWriter()
    for name, bits in fields:
        writer.write(int(values.get(name, 0)) & ((1 << bits) - 1), bits)
    return writer.to_bytes()


def unpack_fields(fields: Sequence[Tuple[str, int]], data: bytes) -> Tuple[dict, bytes]:
    """Unpack a (name, bits) layout from the front of ``data``.

    Returns (values, remaining_bytes).
    """
    reader = BitReader(data)
    values = {name: reader.read(bits) for name, bits in fields}
    return values, reader.rest()

"""Compiled header layouts (network order, MSB first).

A :class:`Layout` is built once from a ``(name, bits)`` table and is the
one codec for it: the NCP wire codec, fragmentation, INT trailers and the
PISA parser/deparser all pack and unpack through one, so hosts and the
switch agree on the layout by construction. Construction precomputes
each field's shift, mask and bit offset and the total byte length;
``unpack`` is then one ``int.from_bytes`` plus a shift and mask per
field, and ``pack`` one accumulate plus ``to_bytes``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import ReproError


class Layout:
    """A fixed-width header layout; its fields are packed MSB first and
    its total width must be a whole number of bytes."""

    __slots__ = ("fields", "names", "nbytes", "bit_offsets", "_spans")

    def __init__(self, fields: Sequence[Tuple[str, int]]):
        self.fields: List[Tuple[str, int]] = [(name, bits) for name, bits in fields]
        total = sum(bits for _, bits in self.fields)
        if total % 8:
            raise ReproError(f"layout is {total} bits, not a whole number of bytes")
        self.nbytes = total // 8
        self.names = tuple(name for name, _ in self.fields)
        self.bit_offsets: Dict[str, int] = {}
        #: (shift, mask) per field, in field order
        self._spans: List[Tuple[int, int]] = []
        pos = 0
        for name, bits in self.fields:
            self.bit_offsets[name] = pos
            pos += bits
            self._spans.append((total - pos, (1 << bits) - 1))

    def byte_slice(self, name: str) -> slice:
        """Where a byte-aligned field sits in a packed buffer."""
        start = self.bit_offsets[name]
        bits = dict(self.fields)[name]
        if start % 8 or bits % 8:
            raise ReproError(f"field {name!r} is not byte-aligned")
        return slice(start // 8, (start + bits) // 8)

    def unpack_values(self, data: bytes, offset: int = 0) -> List[int]:
        """Field values in layout order, read from ``data[offset:]``."""
        end = offset + self.nbytes
        if len(data) < end:
            raise ReproError(
                f"buffer too short: need {self.nbytes} bytes at offset "
                f"{offset}, have {max(len(data) - offset, 0)}"
            )
        word = int.from_bytes(data[offset:end], "big")
        return [(word >> shift) & mask for shift, mask in self._spans]

    def unpack(self, data: bytes, offset: int = 0) -> Dict[str, int]:
        """Field values by name, read from ``data[offset:]``."""
        return dict(zip(self.names, self.unpack_values(data, offset)))

    def pack_values(self, values: Sequence[int]) -> bytes:
        """Pack values given in layout order; each is masked to its width."""
        word = 0
        for (shift, mask), value in zip(self._spans, values):
            word |= (int(value) & mask) << shift
        return word.to_bytes(self.nbytes, "big")

    def pack(self, values: Dict[str, int]) -> bytes:
        """Pack values by name; a missing field packs as 0."""
        return self.pack_values([values.get(name, 0) for name in self.names])

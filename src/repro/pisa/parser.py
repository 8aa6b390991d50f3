"""The programmable packet parser and deparser.

Bit-accurate: header fields are extracted most-significant-bit first from
the byte stream (network order), exactly as a PISA parser TCAM would, and
the deparser re-serializes every valid header followed by any unparsed
payload bytes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import PisaError
from repro.p4.model import P4Program, ParseState
from repro.pisa.phv import Phv
from repro.util.bits import Layout


def _instance_codecs(program: P4Program) -> Dict[str, Tuple[Layout, List[str]]]:
    """Per header instance: its compiled layout and the PHV names
    (``"<instance>.<field>"``) of its fields, in layout order."""
    codecs = {}
    for instance in program.instances:
        layout = program.instance_type(instance).layout
        codecs[instance] = (layout, [f"{instance}.{name}" for name in layout.names])
    return codecs


class PacketParser:
    """Executes the program's parse graph over raw bytes into a PHV."""

    MAX_STATES = 64  # guards against parse-graph cycles

    def __init__(self, program: P4Program):
        self.program = program
        self._states = {s.name: s for s in program.parser}
        self._codecs = _instance_codecs(program)
        if program.parser and "start" not in self._states:
            raise PisaError("parse graph has no 'start' state")

    def parse(self, data: bytes) -> Phv:
        phv = Phv(self.program)
        if not self.program.parser:
            phv.payload_rest = data
            return phv
        pos = 0
        state: Optional[ParseState] = self._states["start"]
        steps = 0
        while state is not None:
            steps += 1
            if steps > self.MAX_STATES:
                raise PisaError("parse graph did not terminate")
            for instance in state.extracts:
                pos = self._extract(phv, data, pos, instance)
            next_name = state.default_next
            if state.select_field is not None:
                key = phv.read(state.select_field)
                for value, target in state.transitions:
                    if key == value:
                        next_name = target
                        break
            if next_name in ("accept", "reject"):
                if next_name == "reject":
                    raise PisaError("parser rejected packet")
                break
            state = self._states.get(next_name)
            if state is None:
                raise PisaError(f"parser: unknown state {next_name!r}")
        phv.payload_rest = data[pos:]
        return phv

    def _extract(self, phv: Phv, data: bytes, pos: int, instance: str) -> int:
        """Fill one header instance from ``data[pos:]``; returns the byte
        position after it."""
        codec = self._codecs.get(instance)
        if codec is None:
            raise PisaError(f"unknown header instance {instance!r}")
        layout, refs = codec
        if len(data) - pos < layout.nbytes:
            raise PisaError(
                f"packet too short for header {instance!r}: need "
                f"{layout.nbytes * 8} bits, have {(len(data) - pos) * 8}"
            )
        phv.valid[instance] = True
        phv.fields.update(zip(refs, layout.unpack_values(data, pos)))
        return pos + layout.nbytes


class Deparser:
    """Re-serializes valid headers (program deparser order) + payload."""

    def __init__(self, program: P4Program):
        self.program = program
        self._codecs = _instance_codecs(program)

    def deparse(self, phv: Phv) -> bytes:
        fields = phv.fields
        out = []
        for instance in self.program.deparser:
            if not phv.is_valid(instance):
                continue
            layout, refs = self._codecs[instance]
            out.append(layout.pack_values([fields.get(ref, 0) for ref in refs]))
        out.append(phv.payload_rest)
        return b"".join(out)

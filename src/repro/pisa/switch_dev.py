"""A complete PISA switch device: parser -> pipeline -> deparser, with a
control-plane interface.

This is the per-switch runtime object the network simulator hosts. It
owns the register state and table entries (both persist across packets)
and exposes the control-plane operations libncrt's controller uses:
writing ``_ctrl_`` registers, and inserting/removing ``ncl::Map`` and
routing entries.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import PisaError
from repro.p4.model import (
    FWD_PASS,
    META_FWD,
    META_FWD_LABEL,
    NO_LABEL,
    P4Program,
    TableEntry,
)
from repro.pisa.parser import Deparser, PacketParser
from repro.pisa.phv import Phv
from repro.pisa.pipeline import Pipeline, RegisterState

#: Forwarding verdict names, index-aligned with the META_FWD encoding.
FWD_NAMES = ("pass", "drop", "bcast", "reflect")


class SwitchResult:
    """Outcome of processing one packet."""

    __slots__ = ("verdict", "label_id", "data", "phv", "tables_matched")

    def __init__(
        self,
        verdict: str,
        label_id: Optional[int],
        data: bytes,
        phv: Phv,
        tables_matched: int = 0,
    ):
        self.verdict = verdict  # 'pass' | 'drop' | 'bcast' | 'reflect'
        self.label_id = label_id  # AND node id for labelled _pass, else None
        self.data = data  # deparsed output packet
        self.phv = phv
        #: tables hit during the pipeline run (stamped into INT records)
        self.tables_matched = tables_matched

    def __repr__(self) -> str:
        label = f"->{self.label_id}" if self.label_id is not None else ""
        return f"SwitchResult({self.verdict}{label}, {len(self.data)}B)"


class PisaSwitch:
    def __init__(self, program: P4Program, name: str = "switch"):
        program.validate()
        self.name = name
        self.program = program
        self.registers = RegisterState(program)
        self.pipeline = Pipeline(program, self.registers)
        self.parser = PacketParser(program)
        self.deparser = Deparser(program)

    # -- data plane -----------------------------------------------------------

    def process(
        self, data: bytes, ingress_port: int = 0, observer=None
    ) -> SwitchResult:
        if observer is not None:
            observer.parse(len(data))
        phv = self.parser.parse(data)
        phv.ingress_port = ingress_port
        phv.write(META_FWD, FWD_PASS)
        phv.write(META_FWD_LABEL, NO_LABEL)
        self.pipeline.observer = observer
        try:
            self.pipeline.run(phv)
        finally:
            self.pipeline.observer = None
        verdict_code = phv.read(META_FWD)
        if verdict_code >= len(FWD_NAMES):
            raise PisaError(f"corrupt forwarding decision {verdict_code}")
        label = phv.read(META_FWD_LABEL)
        out = self.deparser.deparse(phv)
        return SwitchResult(
            FWD_NAMES[verdict_code],
            None if label == NO_LABEL else label,
            out,
            phv,
            tables_matched=self.pipeline.last_tables_matched,
        )

    # -- control plane -----------------------------------------------------------

    def ctrl_register_write(
        self, register: str, value: int, index: int = 0
    ) -> None:
        """Control-plane write into a register array (``_ctrl_`` backing)."""
        self.registers.write(register, index, value)

    def ctrl_register_read(self, register: str, index: int = 0) -> int:
        return self.registers.read(register, index)

    def table_insert(
        self,
        table: str,
        match: Sequence,
        action: str,
        args: Sequence[int] = (),
        priority: int = 0,
    ) -> None:
        tbl = self.program.tables.get(table)
        if tbl is None:
            raise PisaError(f"unknown table {table!r}")
        if action not in tbl.actions:
            raise PisaError(f"table {table}: action {action!r} not allowed")
        tbl.remove_match(match)  # replaces an entry with the same key
        tbl.add_entry(TableEntry(list(match), action, list(args), priority))

    def table_delete(self, table: str, match: Sequence) -> int:
        tbl = self.program.tables.get(table)
        if tbl is None:
            raise PisaError(f"unknown table {table!r}")
        return tbl.remove_match(match)

    def table_entries(self, table: str) -> List[TableEntry]:
        tbl = self.program.tables.get(table)
        if tbl is None:
            raise PisaError(f"unknown table {table!r}")
        return list(tbl.entries)

    @property
    def stats(self):
        return self.pipeline.stats

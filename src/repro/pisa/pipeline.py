"""The match-action pipeline.

Executes a :class:`P4Program`'s control block over a PHV, bmv2-style:
expressions are evaluated by the ALU model with fixed-width wrapping,
tables match exact/ternary keys, actions run primitives in order, and
register arrays provide stateful memory. Collects per-table/per-action
statistics for the benchmarks.

:meth:`Pipeline.run` executes the control block as Python generated from
it on the first packet (:mod:`repro.pisa.compile`).
:meth:`Pipeline.reference_run` and its helpers (``apply_table``,
``run_action``, ``eval_expr``) walk the program node by node; they are the
oracle the generated code is tested against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import PisaError
from repro.p4.model import (
    Apply,
    ControlNode,
    Do,
    IfNode,
    P4Program,
    PAssign,
    PBin,
    PConst,
    PExpr,
    PField,
    PMux,
    PParam,
    PRegRead,
    PRegWrite,
    PUn,
    Table,
    TableEntry,
)
from repro.pisa.compile import compile_control
from repro.pisa.phv import Phv
from repro.util import intops


class RegisterState:
    """Backing store for all register arrays of one program instance."""

    def __init__(self, program: P4Program):
        self.program = program
        self.arrays: Dict[str, List[int]] = {}
        for name, reg in program.registers.items():
            initial = getattr(reg, "initial", None)
            values = [0] * reg.size
            if initial:
                for i, v in enumerate(initial[: reg.size]):
                    values[i] = intops.wrap_unsigned(int(v), reg.bits)
            self.arrays[name] = values

    def read(self, name: str, index: int) -> int:
        array = self._array(name, index)
        return array[index]

    def write(self, name: str, index: int, value: int) -> None:
        array = self._array(name, index)
        reg = self.program.registers[name]
        array[index] = intops.wrap_unsigned(int(value), reg.bits)

    def _array(self, name: str, index: int) -> List[int]:
        if name not in self.arrays:
            raise PisaError(f"unknown register array {name!r}")
        array = self.arrays[name]
        if not 0 <= index < len(array):
            raise PisaError(
                f"register {name}: index {index} out of range [0, {len(array)})"
            )
        return array


class PipelineStats:
    def __init__(self) -> None:
        self.packets = 0
        self.table_hits: Dict[str, int] = {}
        self.table_misses: Dict[str, int] = {}
        self.action_runs: Dict[str, int] = {}
        self.register_reads = 0
        self.register_writes = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "packets": self.packets,
            "table_hits": dict(self.table_hits),
            "table_misses": dict(self.table_misses),
            "action_runs": dict(self.action_runs),
            "register_reads": self.register_reads,
            "register_writes": self.register_writes,
        }


class Pipeline:
    def __init__(self, program: P4Program, registers: Optional[RegisterState] = None):
        self.program = program
        self.registers = registers or RegisterState(program)
        self.stats = PipelineStats()
        #: per-packet trace observer (e.g. repro.obs.SwitchPacketTrace),
        #: set around one run() by the switch device; None -> no tracing
        self.observer = None
        #: tables matched (hit) by the most recent run() -- the per-hop
        #: "tables" field of an INT record (repro.obs.int)
        self.last_tables_matched = 0
        self._compiled = None  # run()'s code, built on the first packet

    # -- expression evaluation ------------------------------------------------

    def eval_expr(self, expr: PExpr, phv: Phv, args: Dict[str, int]) -> int:
        if isinstance(expr, PConst):
            return intops.wrap_unsigned(expr.value, expr.bits)
        if isinstance(expr, PField):
            return phv.read(expr.ref)
        if isinstance(expr, PParam):
            if expr.name not in args:
                raise PisaError(f"unbound action parameter {expr.name!r}")
            return intops.wrap_unsigned(args[expr.name], expr.bits)
        if isinstance(expr, PBin):
            # PHV fields hold unsigned bit patterns; the op reads them as such.
            return intops.BINOPS[expr.op](
                self.eval_expr(expr.lhs, phv, args),
                self.eval_expr(expr.rhs, phv, args),
                expr.bits,
                False,
            )
        if isinstance(expr, PMux):
            if self.eval_expr(expr.cond, phv, args):
                return intops.wrap_unsigned(self.eval_expr(expr.a, phv, args), expr.bits)
            return intops.wrap_unsigned(self.eval_expr(expr.b, phv, args), expr.bits)
        if isinstance(expr, PUn):
            operand = self.eval_expr(expr.operand, phv, args)
            return intops.UNOPS[expr.op](operand, expr.bits, False)
        raise PisaError(f"cannot evaluate {expr!r}")

    # -- actions ---------------------------------------------------------------

    def run_action(self, name: str, phv: Phv, args: Sequence[int] = ()) -> None:
        action = self.program.actions.get(name)
        if action is None:
            raise PisaError(f"unknown action {name!r}")
        if len(args) != len(action.params):
            raise PisaError(
                f"action {name}: expected {len(action.params)} args, "
                f"got {len(args)}"
            )
        bound = {pname: value for (pname, _), value in zip(action.params, args)}
        self.stats.action_runs[name] = self.stats.action_runs.get(name, 0) + 1
        for prim in action.primitives:
            if isinstance(prim, PAssign):
                phv.write(prim.dst, self.eval_expr(prim.expr, phv, bound))
            elif isinstance(prim, PRegRead):
                index = self.eval_expr(prim.index, phv, bound)
                phv.write(prim.dst, self.registers.read(prim.reg, index))
                self.stats.register_reads += 1
            elif isinstance(prim, PRegWrite):
                index = self.eval_expr(prim.index, phv, bound)
                value = self.eval_expr(prim.expr, phv, bound)
                self.registers.write(prim.reg, index, value)
                self.stats.register_writes += 1
            else:
                raise PisaError(f"unknown primitive {prim!r}")

    # -- tables ------------------------------------------------------------------

    def apply_table(self, name: str, phv: Phv) -> bool:
        """Apply a table; returns True on hit."""
        table = self.program.tables.get(name)
        if table is None:
            raise PisaError(f"unknown table {name!r}")
        key = [phv.read(ref) for ref, _ in table.keys]
        entry = self._match(table, key)
        if entry is not None:
            self.stats.table_hits[name] = self.stats.table_hits.get(name, 0) + 1
            self.last_tables_matched += 1
            if self.observer is not None:
                self.observer.table(name, True, entry.action)
            self.run_action(entry.action, phv, entry.args)
            return True
        self.stats.table_misses[name] = self.stats.table_misses.get(name, 0) + 1
        if self.observer is not None:
            self.observer.table(name, False, table.default_action)
        self.run_action(table.default_action, phv, table.default_args)
        return False

    @staticmethod
    def _match(table: Table, key: List[int]) -> Optional[TableEntry]:
        best: Optional[TableEntry] = None
        for entry in table.entries:
            hit = True
            for (ref_kind, pattern, value) in zip(table.keys, entry.match, key):
                kind = ref_kind[1]
                if kind == "exact":
                    if pattern != value:
                        hit = False
                        break
                else:  # ternary
                    pvalue, pmask = pattern if isinstance(pattern, tuple) else (pattern, -1)
                    if (value & pmask) != (pvalue & pmask):
                        hit = False
                        break
            if hit and (best is None or entry.priority > best.priority):
                best = entry
        return best

    # -- control -------------------------------------------------------------------

    def run(self, phv: Phv) -> None:
        code = self._compiled
        if code is None:
            code = self._compiled = compile_control(self.program)
        code(self, phv)

    def reference_run(self, phv: Phv) -> None:
        self.stats.packets += 1
        self.last_tables_matched = 0
        self._run_nodes(self.program.control, phv)

    def _run_nodes(self, nodes: Sequence[ControlNode], phv: Phv) -> None:
        for node in nodes:
            if isinstance(node, Apply):
                self.apply_table(node.table, phv)
            elif isinstance(node, Do):
                if self.observer is not None:
                    self.observer.action(node.action)
                self.run_action(node.action, phv)
            elif isinstance(node, IfNode):
                if self.eval_expr(node.cond, phv, {}):
                    self._run_nodes(node.then_nodes, phv)
                else:
                    self._run_nodes(node.else_nodes, phv)
            else:
                raise PisaError(f"unknown control node {node!r}")

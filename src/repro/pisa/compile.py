"""Compiled execution of a P4 program's control block.

:func:`compile_control` turns ``program.control`` and the program's
actions into one Python function ``run(pipeline, phv)``, generated as
source and run through ``compile()`` once; :meth:`Pipeline.run
<repro.pisa.pipeline.Pipeline.run>` builds it on its first packet.

What the program fixes is baked in as constants: field widths and masks,
register sizes and widths, action parameter bindings, and which table,
action or default action each control node names. What the control plane
changes is read at run time: table entries (an all-exact table through
its exact-match index, any other by the reference's priority scan),
default-action arguments, and register contents. Actions the program
names statically are emitted inline; a table hit dispatches on the
entry's action name.

The generated code keeps every counter and check of the reference
(:meth:`Pipeline.reference_run <repro.pisa.pipeline.Pipeline.reference_run>`):
``PipelineStats``, ``last_tables_matched`` and the observer's
``table``/``action`` callbacks happen in the same order, and a read of a
field of an invalid header, an unknown register, a register index out of
range or an action given the wrong number of arguments raises the same
``PisaError``. Field reads are cached in locals along straight-line code;
the cache is dropped at branches and after table applies.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Set

from repro.errors import PisaError, ReproError
from repro.p4.model import (
    Action,
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
)
from repro.util import intops
from repro.util.pysrc import PySource

#: locals of the generated ``run``, passed on to the action functions
_STATE = "pipe, fields, valid, arrays, stats"


def compile_control(program: P4Program) -> Callable:
    """``run(pipeline, phv)`` for *program* (see the module docstring)."""
    return _ControlCompiler(program).build()


def _key_error(pipe, phv, exc: KeyError, reads: Set[str], registers: Set[str]) -> None:
    """Re-raise a failed field or register lookup as the reference's error."""
    key = exc.args[0] if len(exc.args) == 1 else None
    if isinstance(key, str):
        if key in reads and key not in phv.fields:
            phv.read(key)  # raises: invalid header or unknown field
        if key in registers and key not in pipe.registers.arrays:
            raise PisaError(f"unknown register array {key!r}") from None
    raise exc


class _ControlCompiler:
    def __init__(self, program: P4Program):
        self.program = program
        self.src = PySource(f"<p4 {program.name}>")
        self.reads: Set[str] = set()  # field refs read through fields[...]
        self.registers: Set[str] = set()  # register names read through arrays[...]
        #: field ref / "register <name>" -> local holding its value / array,
        #: valid along the straight-line code being emitted
        self.cache: Dict[str, str] = {}

    def build(self) -> Callable:
        src = self.src
        actions = {}
        for name, action in self.program.actions.items():
            fn = actions[name] = src.fresh("action")
            with src.block(f"def {fn}({_STATE}, args):"):
                self.cache = {}
                self.emit_action(action, "args", name)
        with src.block("def run(pipe, phv):"):
            src.line("stats = pipe.stats")
            src.line("stats.packets += 1")
            src.line("pipe.last_tables_matched = 0")
            src.line("fields = phv.fields")
            src.line("valid = phv.valid")
            src.line("arrays = pipe.registers.arrays")
            src.line("obs = pipe.observer")
            with src.block("try:"):
                self.cache = {}
                self.emit_nodes(self.program.control)
                src.line("pass")
            with src.block("except KeyError as exc:"):
                src.line(
                    f"{self.src.const(_key_error)}(pipe, phv, exc, "
                    f"{src.const(self.reads, 'reads')}, {src.const(self.registers, 'registers')})"
                )
        entries = ", ".join(f"{name!r}: {fn}" for name, fn in actions.items())
        src.line(f"_actions = {{{entries}}}")
        return src.build("run")

    # -- control -------------------------------------------------------------------

    def emit_nodes(self, nodes: Sequence[ControlNode]) -> None:
        for node in nodes:
            if isinstance(node, Apply):
                self.emit_apply(node.table)
                self.cache = {}  # the hit action is only known at run time
            elif isinstance(node, Do):
                with self.src.block("if obs is not None:"):
                    self.src.line(f"obs.action({node.action!r})")
                self.emit_action(self.program.actions.get(node.action), None, node.action)
            elif isinstance(node, IfNode):
                with self.src.block(f"if {self.expr(node.cond, {})}:"):
                    cache = dict(self.cache)
                    self.emit_nodes(node.then_nodes)
                    self.src.line("pass")
                with self.src.block("else:"):
                    self.cache = cache
                    self.emit_nodes(node.else_nodes)
                    self.src.line("pass")
                self.cache = {}
            else:
                self.src.raise_(PisaError, f"unknown control node {node!r}")

    def emit_apply(self, name: str) -> None:
        src = self.src
        table: Optional[Table] = self.program.tables.get(name)
        if table is None:
            src.raise_(PisaError, f"unknown table {name!r}")
            return
        keys = [self.read(ref) for ref, _ in table.keys]
        entry = src.fresh("entry")
        if table.exact_index is not None:
            # A key's entries, best first: [] never stays in the index.
            group = src.fresh("group")
            index = src.const(table.exact_index, "index")
            src.line(f"{group} = {index}.get(({''.join(k + ', ' for k in keys)}))")
            hit = group
        else:
            from repro.pisa.pipeline import Pipeline  # which imports this module

            match = src.const(Pipeline._match)
            src.line(f"{entry} = {match}({src.const(table, 'table')}, [{', '.join(keys)}])")
            hit = f"{entry} is not None"
        with src.block(f"if {hit}:"):
            if table.exact_index is not None:
                src.line(f"{entry} = {group}[0]")
            src.line(f"stats.table_hits[{name!r}] = stats.table_hits.get({name!r}, 0) + 1")
            src.line("pipe.last_tables_matched += 1")
            with src.block("if obs is not None:"):
                src.line(f"obs.table({name!r}, True, {entry}.action)")
            action = src.fresh("action")
            src.line(f"{action} = _actions.get({entry}.action)")
            with src.block(f"if {action} is None:"):
                src.raise_(PisaError, "unknown action {!r}", f"{entry}.action")
            src.line(f"{action}({_STATE}, {entry}.args)")
        with src.block("else:"):
            src.line(f"stats.table_misses[{name!r}] = stats.table_misses.get({name!r}, 0) + 1")
            with src.block("if obs is not None:"):
                src.line(f"obs.table({name!r}, False, {table.default_action!r})")
            default = self.program.actions.get(table.default_action)
            args = f"{src.const(table, 'table')}.default_args"
            self.emit_action(default, args, table.default_action)

    # -- actions -------------------------------------------------------------------

    def emit_action(self, action: Optional[Action], args: Optional[str], name: str) -> None:
        """The body of ``run_action(name, phv, args)``: *args* is an
        expression for the arguments, None for none."""
        src = self.src
        if action is None:
            src.raise_(PisaError, f"unknown action {name!r}")
            return
        nparams = len(action.params)
        if args is None:
            if nparams:
                message = f"action {action.name}: expected {nparams} args, got 0"
                src.raise_(PisaError, message)
                return
        else:
            args = src.temp(args)
            with src.block(f"if len({args}) != {nparams}:"):
                src.raise_(
                    PisaError,
                    f"action {action.name}: expected {nparams} args, got {{}}",
                    f"len({args})",
                )
        runs = "stats.action_runs"
        src.line(f"{runs}[{action.name!r}] = {runs}.get({action.name!r}, 0) + 1")
        params: Dict[str, str] = {}
        for i, (pname, _) in enumerate(action.params):
            params[pname] = var = src.fresh("p")
            src.line(f"{var} = {args}[{i}]")
        for prim in action.primitives:
            if isinstance(prim, PAssign):
                self.write(prim.dst, self.expr(prim.expr, params))
            elif isinstance(prim, PRegRead):
                index = src.temp(self.expr(prim.index, params))
                value = self.register_access(prim.reg, index)
                self.write(prim.dst, value)
                src.line("stats.register_reads += 1")
            elif isinstance(prim, PRegWrite):
                index = src.temp(self.expr(prim.index, params))
                value = src.temp(self.expr(prim.expr, params))
                self.register_access(prim.reg, index, value)
                src.line("stats.register_writes += 1")
            else:
                src.raise_(PisaError, f"unknown primitive {prim!r}")
                return

    def register_access(self, reg: str, index: str, value: Optional[str] = None) -> str:
        """Read ``reg[index]`` (returns the expression) or write *value* to it."""
        spec = self.program.registers.get(reg)
        if spec is None:  # the reference's RegisterState raises for it
            if value is None:
                return f"pipe.registers.read({reg!r}, {index})"
            self.src.line(f"pipe.registers.write({reg!r}, {index}, {value})")
            return ""
        array = self.cache.get(f"register {reg}")
        if array is None:
            self.registers.add(reg)
            array = self.cache[f"register {reg}"] = self.src.fresh("reg")
            self.src.line(f"{array} = arrays[{reg!r}]")
        with self.src.block(f"if not 0 <= {index} < {spec.size}:"):
            message = f"register {reg}: index {{}} out of range [0, {spec.size})"
            self.src.raise_(PisaError, message, index)
        if value is None:
            return f"{array}[{index}]"
        try:
            self.src.line(f"{array}[{index}] = {value} & {intops.mask(spec.bits)}")
        except ReproError as exc:
            self.src.line(self.src.fail(exc))
        return ""

    def write(self, ref: str, value: str) -> None:
        """``phv.write(ref, value)``."""
        try:
            mask = intops.mask(self.program.field_bits(ref))
        except ReproError as exc:
            self.src.line(self.src.fail(exc, value))
            return
        var = self.src.fresh("f")
        self.src.line(f"fields[{ref!r}] = {var} = {value} & {mask}")
        self.cache[ref] = var

    # -- expressions ---------------------------------------------------------------

    def read(self, ref: str, conditional: bool = False) -> str:
        """``phv.read(ref)``; cached unless it sits in a branch of a mux."""
        if ref.startswith("valid."):
            return f"int(valid.get({ref.split('.', 1)[1]!r}, False))"
        var = self.cache.get(ref)
        if var is not None:
            return var
        self.reads.add(ref)
        if conditional:
            return f"fields[{ref!r}]"
        var = self.cache[ref] = self.src.fresh("f")
        return f"({var} := fields[{ref!r}])"

    def expr(self, e: PExpr, params: Dict[str, str], conditional: bool = False) -> str:
        """``eval_expr(e)`` with the action's parameters bound to *params*."""
        if isinstance(e, PConst):
            try:
                return str(intops.wrap_unsigned(e.value, e.bits))
            except ReproError as exc:
                return self.src.fail(exc)
        if isinstance(e, PField):
            return self.read(e.ref, conditional)
        if isinstance(e, PParam):
            if e.name not in params:
                return self.src.fail(PisaError(f"unbound action parameter {e.name!r}"))
            try:
                return f"({params[e.name]} & {intops.mask(e.bits)})"
            except ReproError as exc:
                return self.src.fail(exc)
        if isinstance(e, PBin):
            op = intops.BINOPS.get(e.op)
            if op is None:  # looked up before the operands are evaluated
                return self.src.fail(KeyError(e.op))
            lhs = self.expr(e.lhs, params, conditional)
            rhs = self.expr(e.rhs, params, conditional)
            # PHV fields hold unsigned bit patterns; the op reads them as such.
            return f"{self.src.const(op)}({lhs}, {rhs}, {e.bits}, False)"
        if isinstance(e, PMux):
            cond = self.expr(e.cond, params, conditional)
            a = self.expr(e.a, params, True)
            b = self.expr(e.b, params, True)
            try:
                return f"((({a}) if {cond} else ({b})) & {intops.mask(e.bits)})"
            except ReproError as exc:
                return self.src.fail(exc, f"({a}) if {cond} else ({b})")
        if isinstance(e, PUn):
            operand = self.expr(e.operand, params, conditional)
            op = intops.UNOPS.get(e.op)
            if op is None:  # looked up after the operand is evaluated
                return self.src.fail(KeyError(e.op), operand)
            return f"{self.src.const(op)}({operand}, {e.bits}, False)"
        return self.src.fail(PisaError(f"cannot evaluate {e!r}"))

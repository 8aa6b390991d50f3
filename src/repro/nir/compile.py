"""Compiled execution of NIR functions.

:func:`compiled` turns an :class:`ir.Function` into one Python function,
generated as source and run through ``compile()`` once per function
object; :meth:`repro.nir.interp.Interpreter.run` calls it. The code is
cached weakly per function, so every host of one deployment shares one
compile. It reflects the function as it was first run: a function
rewritten in place afterwards (an optimization pass under translation
validation) is run with ``Interpreter.reference_run`` instead.

The generated function has the signature ``(state, meta, args,
location_id, labels) -> (fwd, fwd_label, ret)`` and is laid out as

* one local per SSA value (``v<id>``), parameter (``a<index>``) and
  pre-mem2reg stack slot (``s<id>``);
* a ``while`` loop dispatching on the current block; a block reached
  over exactly one edge is emitted inline at that edge instead;
* phis as parallel assignments on each incoming edge;
* arithmetic as calls of the ``repro.util.intops`` op table with the
  width and signedness as constants.

It keeps every check of the reference interpreter
(:meth:`~repro.nir.interp.Interpreter.reference_run`) and raises the same
errors: the step budget (counted per block), integer operands, bounds of
element and parameter accesses, unbound window fields and absent device
state, and uses of values not yet computed.
"""

from __future__ import annotations

import re
import weakref
from typing import Callable, Dict, List, Optional, Set

from repro.errors import PisaError, ReproError
from repro.ncl.types import PointerType, Type, is_signed, scalar_bits
from repro.nir import ir
from repro.util import intops
from repro.util.pysrc import PySource

_CACHE: "weakref.WeakKeyDictionary[ir.Function, Callable]" = weakref.WeakKeyDictionary()

#: instructions whose result is always a Python int
_INT_RESULTS = (ir.BinOp, ir.UnOp, ir.Cast, ir.MapFound, ir.LoadParam)

#: how many blocks deep inlining may go before a block is dispatched
#: (bounds the indentation of the generated code and the recursion here)
_MAX_INLINE_DEPTH = 32


def compiled(fn: ir.Function) -> Callable:
    """The compiled form of *fn*, generated on first use."""
    code = _CACHE.get(fn)
    if code is None:
        code = _CACHE[fn] = _FunctionCompiler(fn).build()
    return code


# -- run-time helpers the generated code calls ------------------------------------


_NAME = re.compile(r"'v(\d+)'")


def _unevaluated(exc: NameError, instrs: Dict[int, ir.Instr]) -> None:
    """Re-raise a read of an unassigned ``v<id>`` local as the reference's error."""
    match = _NAME.search(str(exc))
    instr = instrs.get(int(match.group(1))) if match else None
    if instr is None:
        raise exc
    raise PisaError(f"use of unevaluated %{instr.id} ({instr.render()})") from None


def _call(callee: ir.Function, state, meta, args, location_id, labels):
    return compiled(callee)(state, meta, args, location_id, labels)


# -- code generation ----------------------------------------------------------------


class _FunctionCompiler:
    def __init__(self, fn: ir.Function):
        from repro.nir import interp  # which imports this module

        self.interp = interp
        self.fn = fn
        self.src = PySource(f"<nir {fn.name}>")
        self.instrs: Dict[int, ir.Instr] = {}
        self.params: Set[int] = set()
        self.slots: Set[int] = set()
        self.arrays: Dict[str, str] = {}  # global name -> local holding its array
        self.blocks = self._reachable_blocks()
        self.index = {id(b): i for i, b in enumerate(self.blocks)}
        self.pred_edges = self._count_pred_edges()
        self.known_int = self._known_int()
        self.dispatched: List[ir.Block] = []

    # -- analysis ----------------------------------------------------------------

    def _reachable_blocks(self) -> List[ir.Block]:
        if not self.fn.blocks:
            return []
        order = [self.fn.entry]
        seen = {id(self.fn.entry)}
        for block in order:  # grows while iterating
            term = _terminator(block)
            for succ in term.successors() if isinstance(term, (ir.Br, ir.CondBr)) else ():
                if id(succ) not in seen:
                    seen.add(id(succ))
                    order.append(succ)
        return order

    def _count_pred_edges(self) -> Dict[int, int]:
        counts = {id(b): 0 for b in self.blocks}
        for block in self.blocks:
            term = _terminator(block)
            if isinstance(term, (ir.Br, ir.CondBr)):
                for succ in term.successors():
                    counts[id(succ)] += 1
        return counts

    def _known_int(self) -> Set[int]:
        """Ids of instructions whose value is an int whenever it is defined."""
        known: Set[int] = set()
        merges: List[ir.Instr] = []
        for block in self.blocks:
            for instr in block.instrs:
                if isinstance(instr, _INT_RESULTS) or (
                    isinstance(instr, ir.BloomOp) and instr.op == "query"
                ):
                    known.add(instr.id)
                elif isinstance(instr, (ir.Phi, ir.Select)):
                    merges.append(instr)
                    known.add(instr.id)  # optimistic; refuted below
        changed = True
        while changed:
            changed = False
            for instr in merges:
                if instr.id not in known:
                    continue
                sources = instr.operands[1:] if isinstance(instr, ir.Select) else instr.operands
                if not all(self._is_int(v, known) for v in sources):
                    known.discard(instr.id)
                    changed = True
        return known

    @staticmethod
    def _is_int(value: ir.Value, known: Set[int]) -> bool:
        if isinstance(value, (ir.Const, ir.Undef)):
            return True
        if isinstance(value, ir.Instr):
            return value.id in known
        return False

    # -- operands -----------------------------------------------------------------

    def val(self, value: ir.Value) -> str:
        """Expression for the value of *value* (no type check)."""
        if isinstance(value, ir.Const):
            return f"({value.value})"
        if isinstance(value, ir.Param):
            self.params.add(value.index)
            return f"a{value.index}"
        if isinstance(value, ir.Undef):
            return "0"
        if isinstance(value, ir.Instr):
            self.instrs[value.id] = value
            return f"v{value.id}"
        return self.src.fail(PisaError(f"cannot evaluate {value!r}"))

    def num(self, value: ir.Value) -> str:
        """Expression for the value of *value*, which must be an int."""
        expr = self.val(value)
        if self._is_int(value, self.known_int) or not expr.isidentifier():
            return expr
        return f"({expr} if {expr}.__class__ is int else {self.src.const(self.interp.int_value)}({expr}))"

    def wrap(self, expr: str, ty: Type) -> str:
        """*expr* wrapped to scalar type *ty*, as the reference stores it."""
        if not ty.is_scalar:
            return expr
        try:
            bits, signed = scalar_bits(ty), is_signed(ty)
        except ReproError as exc:
            return self.src.fail(exc, expr)
        return f"{self.src.const(intops.wrap)}({expr}, {bits}, {signed})"

    def array(self, ref: ir.GlobalRef) -> str:
        name = self.arrays.get(ref.name)
        if name is None:
            name = self.arrays[ref.name] = self.src.fresh("g")
        return name

    # -- emission -----------------------------------------------------------------

    def build(self) -> Callable:
        src = self.src
        with src.block("def run(state, meta, args, location_id, labels):"):
            head = len(src.lines)
            src.line("fwd = " + src.const(ir.FwdKind.PASS))
            src.line("label = None")
            src.line("steps = 0")
            src.line("b = 0")
            with src.block("try:"):
                with src.block("while True:"):
                    if not self.blocks:
                        src.line(src.fail(_entry_error(self.fn)))
                    else:
                        self.dispatched.append(self.blocks[0])
                        for i, block in enumerate(self.dispatched):  # grows
                            with src.block(f"{'if' if i == 0 else 'elif'} b == {self.index[id(block)]}:"):
                                self.emit_block(block, depth=0)
            with src.block("except NameError as exc:"):
                src.line(f"{src.const(_unevaluated)}(exc, {src.const(self.instrs, 'instrs')})")
            # The prologue binds what the body turned out to use.
            prologue = [
                *(f"a{i} = args[{i}]" for i in sorted(self.params)),
                *(["arrays = state.arrays"] if self.arrays else []),
                *(f"{var} = arrays.get({name!r})" for name, var in self.arrays.items()),
                *(f"s{i} = 0" for i in sorted(self.slots)),
                *(f"v{phi.id} = 0" for phi in (self.blocks[0].phis() if self.blocks else ())),
            ]
            src.lines[head:head] = ["    " + line for line in prologue]
        return src.build("run")

    def emit_block(self, block: ir.Block, depth: int) -> None:
        executed = []
        for instr in block.non_phis():
            executed.append(instr)
            if instr.is_terminator:
                break
        max_steps = self.interp._MAX_STEPS
        self.src.line(f"steps += {len(executed)}")
        with self.src.block(f"if steps > {max_steps}:"):
            self.src.raise_(PisaError, f"{self.fn.name}: step budget exceeded")
        for instr in executed:
            if isinstance(instr, ir.Br):
                self.edge(block, instr.target, depth)
            elif isinstance(instr, ir.CondBr):
                with self.src.block(f"if {self.num(instr.cond)}:"):
                    self.edge(block, instr.then, depth)
                with self.src.block("else:"):
                    self.edge(block, instr.other, depth)
            elif isinstance(instr, ir.Ret):
                value = self.num(instr.value) if instr.value is not None else "None"
                self.src.line(f"return fwd, label, {value}")
            else:
                self.emit(instr)
        if not executed or not executed[-1].is_terminator:
            self.src.raise_(PisaError, f"{self.fn.name}/{block.label}: fell off block end")

    def edge(self, pred: ir.Block, target: ir.Block, depth: int) -> None:
        phis = target.phis()
        if phis:
            values = []
            for phi in phis:
                self.instrs[phi.id] = phi
                for value, from_block in phi.incoming:
                    if from_block is pred:
                        values.append(self.val(value))
                        break
                else:
                    values.append(self.src.fail(
                        PisaError(f"phi %{phi.id} has no incoming for {pred.label}")
                    ))
            targets = ", ".join(f"v{phi.id}" for phi in phis)
            self.src.line(f"{targets}, = {', '.join(values)},")
        inline = (
            self.pred_edges[id(target)] == 1
            and target is not self.blocks[0]
            and depth < _MAX_INLINE_DEPTH
        )
        if inline:
            self.emit_block(target, depth + 1)
            return
        if target not in self.dispatched:
            self.dispatched.append(target)
        self.src.line(f"b = {self.index[id(target)]}")
        self.src.line("continue")

    def emit(self, instr: ir.Instr) -> None:
        line = self.src.line
        dst = f"v{instr.id}"
        if isinstance(instr, ir.BinOp):
            lhs, rhs = self.num(instr.lhs), self.num(instr.rhs)
            try:
                ty = instr.operands[0].ty
                op = self.src.const(intops.BINOPS[instr.op])
                line(f"{dst} = {op}({lhs}, {rhs}, {scalar_bits(ty)}, {is_signed(ty)})")
            except (ReproError, KeyError) as exc:
                line(f"{dst} = {self.src.fail(exc, lhs, rhs)}")
        elif isinstance(instr, ir.UnOp):
            operand = self.num(instr.operands[0])
            try:
                op = self.src.const(intops.UNOPS[instr.op])
                line(f"{dst} = {op}({operand}, {scalar_bits(instr.ty)}, {is_signed(instr.ty)})")
            except (ReproError, KeyError) as exc:
                line(f"{dst} = {self.src.fail(exc, operand)}")
        elif isinstance(instr, ir.Cast):
            operand = self.num(instr.operands[0])
            try:
                src_ty = instr.operands[0].ty
                src_bits = scalar_bits(src_ty) if src_ty.is_scalar else 64
                op = self.src.const(intops.CASTS[instr.kind])
                line(
                    f"{dst} = {op}({operand}, {src_bits}, "
                    f"{scalar_bits(instr.ty)}, {is_signed(instr.ty)})"
                )
            except (ReproError, KeyError) as exc:
                line(f"{dst} = {self.src.fail(exc, operand)}")
        elif isinstance(instr, ir.Select):
            cond = self.num(instr.operands[0])
            a, b = self.val(instr.operands[1]), self.val(instr.operands[2])
            line(f"{dst} = {a} if {cond} else {b}")
        elif isinstance(instr, (ir.Load, ir.Store, ir.Alloca)):
            self.emit_slot(instr)
        elif isinstance(instr, ir.LoadElem):
            idx = self.element_index(instr.ref, instr.index)
            line(f"{dst} = {self.array(instr.ref)}[{idx}]")
        elif isinstance(instr, ir.StoreElem):
            idx = self.element_index(instr.ref, instr.index)
            value = self.wrap(self.num(instr.value), instr.ref.elem_type)
            line(f"{self.array(instr.ref)}[{idx}] = {value}")
        elif isinstance(instr, ir.LoadParam):
            buf, idx = self.val(instr.param), self.src.temp(self.num(instr.index))
            with self.src.block("try:"):
                line(f"{dst} = int({buf}[{idx}])")
            with self.src.block("except (IndexError, TypeError):"):
                load = self.src.const(self.interp.load_param)
                line(f"{dst} = {load}({buf}, {idx}, {instr.param.name!r})")
        elif isinstance(instr, ir.StoreParam):
            buf, idx = self.val(instr.param), self.src.temp(self.num(instr.index))
            ty = instr.param.ty
            elem_ty = ty.pointee if isinstance(ty, PointerType) else ty
            value = self.wrap(self.num(instr.value), elem_ty)
            with self.src.block("try:"):
                line(f"{buf}[{idx}] = {value}")
            with self.src.block("except (IndexError, TypeError):"):
                self.src.raise_(PisaError, f"cannot store to {instr.param.name}[{{}}]", idx)
        elif isinstance(instr, ir.WinField):
            self.emit_lookup(dst, "meta", instr.field, f"window field {instr.field!r} not bound")
        elif isinstance(instr, ir.LocField):
            if instr.field != "id":
                self.src.raise_(PisaError, f"unknown location field {instr.field!r}")
            else:
                line(f"{dst} = location_id")
        elif isinstance(instr, ir.LocLabel):
            self.emit_lookup(
                dst, "labels", instr.label, f"unresolved location label {instr.label!r}"
            )
        elif isinstance(instr, ir.CtrlRead):
            name = instr.ref.name
            value = self.src.fresh("c")
            self.emit_lookup(
                value, "state.ctrl", name, f"control variable {name!r} not on device"
            )
            index = f"[{self.num(instr.index)}]" if instr.index is not None else ""
            line(f"{dst} = {value}{index}")
        elif isinstance(instr, ir.MapLookup):
            table = self.device_object(
                "maps", instr.ref.name, f"Map {instr.ref.name!r} not present on device"
            )
            found, value = self.src.fresh("found"), self.src.fresh("value")
            line(f"{found}, {value} = {table}.lookup({self.num(instr.key)})")
            line(f"{dst} = ('maptok', {found}, {value})")
        elif isinstance(instr, (ir.MapFound, ir.MapValue)):
            token = f"{self.src.const(self.interp.map_token)}({self.val(instr.operands[0])})"
            if isinstance(instr, ir.MapFound):
                line(f"{dst} = int({token}[1])")
            else:
                line(f"{dst} = {token}[2]")
        elif isinstance(instr, ir.BloomOp):
            bloom = self.device_object(
                "blooms", instr.ref.name, f"BloomFilter {instr.ref.name!r} not on device"
            )
            key = self.num(instr.operands[0])
            if instr.op == "insert":
                line(f"{bloom}.insert({key})")
            else:
                line(f"{dst} = int({bloom}.query({key}))")
        elif isinstance(instr, ir.Memcpy):
            bufs = [
                self.val(region.param) if region.kind == "param" else "None"  # type: ignore[arg-type]
                for region in (instr.dst, instr.src)
            ]
            operands = [self.val(op) for op in (instr.nbytes, instr.dst_off, instr.src_off)]
            line(
                f"{self.src.const(self.interp.memcpy)}(state, {self.src.const(instr, 'memcpy')}, "
                f"{', '.join(operands + bufs)})"
            )
        elif isinstance(instr, ir.Fwd):
            line(f"fwd, label = {self.src.const(instr.kind)}, {instr.label!r}")
        elif isinstance(instr, ir.CallFn):
            args = ", ".join(self.val(op) for op in instr.operands)
            sub_fwd, sub_label = self.src.fresh("fwd"), self.src.fresh("label")
            line(
                f"{sub_fwd}, {sub_label}, {dst} = {self.src.const(_call)}("
                f"{self.src.const(instr.callee, 'callee')}, state, meta, [{args}], "
                "location_id, labels)"
            )
            # Forwarding decisions made in helpers propagate to the caller.
            passed = self.src.const(ir.FwdKind.PASS)
            with self.src.block(f"if {sub_fwd} is not {passed} or {sub_label}:"):
                line(f"fwd, label = {sub_fwd}, {sub_label}")
        else:
            self.src.raise_(PisaError, f"cannot interpret {instr.render()}")

    def emit_slot(self, instr: ir.Instr) -> None:
        # Pre-mem2reg IR: a stack slot is a local that reads 0 until stored.
        if isinstance(instr, ir.Alloca):
            self.slots.add(instr.id)
            return
        slot = instr.operands[0]
        if not isinstance(slot, ir.Alloca):
            self.src.line(self.src.fail(AssertionError()))
            return
        self.slots.add(slot.id)
        if isinstance(instr, ir.Load):
            self.src.line(f"v{instr.id} = s{slot.id}")
        else:
            self.src.line(f"s{slot.id} = {self.val(instr.operands[1])}")

    def element_index(self, ref: ir.GlobalRef, index: ir.Value) -> str:
        """Check that global *ref* is present and *index* in bounds; the
        index expression."""
        array = self.array(ref)
        with self.src.block(f"if {array} is None:"):
            self.src.raise_(PisaError, f"global {ref.name!r} not present on device")
        idx = self.src.temp(self.num(index))
        if isinstance(index, ir.Const) and 0 <= index.value < ref.total_elements:
            return idx
        with self.src.block(f"if not 0 <= {idx} < {ref.total_elements}:"):
            error = self.src.const(self.interp.bounds_error)
            self.src.line(f"raise {error}({self.src.const(ref, 'ref')}, {idx})")
        return idx

    def emit_lookup(self, dst: str, mapping: str, key: str, error: str) -> None:
        with self.src.block("try:"):
            self.src.line(f"{dst} = {mapping}[{key!r}]")
        with self.src.block("except KeyError:"):
            self.src.raise_(PisaError, error)

    def device_object(self, kind: str, name: str, error: str) -> str:
        local = self.src.fresh(kind)
        self.src.line(f"{local} = state.{kind}.get({name!r})")
        with self.src.block(f"if {local} is None:"):
            self.src.raise_(PisaError, error)
        return local


def _terminator(block: ir.Block) -> Optional[ir.Instr]:
    """The terminator the reference executes: the first non-phi one."""
    for instr in block.non_phis():
        if instr.is_terminator:
            return instr
    return None


def _entry_error(fn: ir.Function) -> Exception:
    try:
        fn.entry
    except ReproError as exc:
        return exc
    raise AssertionError("function has blocks")

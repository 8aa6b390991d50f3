"""One integer semantics: every executor agrees with the op table.

``repro.util.intops`` defines each NIR operation once. This suite runs
every (op, signedness) pair that ``nir/lower.py`` emits through each
executor and requires the table's answer (or its trap) from all of them:

* the NIR interpreter (``Interpreter.run`` on a one-instruction function);
* constant folding (``fold_constants`` on constant operands);
* the PISA ALU (``Pipeline.eval_expr`` on the expression the P4 backend
  generates; PHV fields hold unsigned patterns);
* host ``main()`` (``HostProgram`` evaluating the AST).

Operands are exhaustive at 4 bits. At 8 bits unary ops and casts from
8-bit operands are exhaustive; binary ops take every left operand against
a boundary set of right operands, and truncation from 16 bits a boundary
grid. NCL has no 4-bit type, so the tests build one; every executor reads
only its width and signedness.
"""

import itertools

import pytest

from repro.errors import ReproError
from repro.ncl import ast
from repro.ncl.types import BOOL, IntType, is_signed, scalar_bits
from repro.nclc import Compiler, WindowConfig
from repro.nclc.codegen import KernelCodegen
from repro.nir import ir
from repro.nir.interp import DeviceState, Interpreter, WindowContext
from repro.nir.passes.constfold import fold_constants
from repro.p4.model import PConst, PUn
from repro.pisa.pipeline import Pipeline
from repro.runtime import Cluster, HostProgram
from repro.util import intops

C_BINARY = ["+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
            "==", "!=", "<", "<=", ">", ">="]
C_COMPARES = {"==", "!=", "<", "<=", ">", ">="}
DIVISIONS = {"udiv", "sdiv", "urem", "srem"}

# Right operands for the 8-bit binary sweep, as unsigned patterns: zero,
# shift amounts below, at and above the width, and both sides of each sign
# boundary.
B8 = [0, 1, 7, 8, 9, 127, 128, 255]


def int_type(bits, signed):
    if bits in (8, 16, 32, 64):
        return IntType(bits, signed)
    ty = object.__new__(IntType)
    ty.bits, ty.signed = bits, signed
    return ty


def type_values(bits, signed):
    lo = -(1 << (bits - 1)) if signed else 0
    return range(lo, lo + (1 << bits))


def outcome(fn, *args):
    """Result of *fn*, or the trap it raised."""
    try:
        return fn(*args)
    except ZeroDivisionError:
        return "trap"


# -- executors -------------------------------------------------------------------


def nir_function(make_instr, *types):
    """``f(a, ...) { return make_instr(a, ...); }`` and a runner for it."""
    params = [ir.Param(i, f"p{i}", ty) for i, ty in enumerate(types)]
    instr = make_instr(*params)
    fn = ir.Function("f", ir.FunctionKind.HELPER, params, instr.ty)
    entry = fn.new_block("entry")
    entry.append(instr)
    entry.append(ir.Ret(instr))
    interp = Interpreter(None, DeviceState())
    return lambda *values: interp.run(fn, WindowContext({}, values)).ret


def run_constfold(instr):
    fn = ir.Function("f", ir.FunctionKind.HELPER, [], instr.ty)
    entry = fn.new_block("entry")
    entry.append(instr)
    ret = entry.append(ir.Ret(instr))
    fold_constants(fn)
    if not isinstance(ret.value, ir.Const):
        assert ret.value is instr  # a trap stays in place
        return "trap"
    return ret.value.value


CODEGEN = object.__new__(KernelCodegen)  # expr_of/_binop_expr/_cast_expr on constants
PIPELINE = object.__new__(Pipeline)


def run_pisa(pexpr, ty):
    """Evaluate on the PISA ALU and read the PHV pattern back as *ty*."""
    pattern = PIPELINE.eval_expr(pexpr, None, {})
    return intops.wrap(pattern, ty.bits, ty.signed) if isinstance(ty, IntType) else pattern


@pytest.fixture(scope="module")
def host():
    program = Compiler().compile(
        "_net_ _out_ void dummy(int *d) { }", windows={"dummy": WindowConfig(mask=(1,))}
    )
    return HostProgram(Cluster.from_program(program), "h0")


def ident(name, ty):
    node = ast.Ident(None, name)
    node.ty = ty
    return node


def run_host(host, expr, env):
    return host._eval(expr, dict(env))


# -- binary ops ------------------------------------------------------------------


def binary_cases(bits):
    for c_op, signed in itertools.product(C_BINARY, (False, True)):
        ty = int_type(bits, signed)
        values = type_values(bits, signed)
        rhs = values if bits == 4 else [intops.wrap(b, bits, signed) for b in B8]
        yield c_op, intops.c_binop(c_op, signed), ty, itertools.product(values, rhs)


@pytest.mark.parametrize("bits", [4, 8])
def test_binary_ops_agree(host, bits):
    checked = set()
    for c_op, op, ty, pairs in binary_cases(bits):
        checked.add((op, ty.signed))
        run_nir = nir_function(lambda a, b: ir.BinOp(op, a, b, ty), ty, ty)
        x, y = ident("x", ty), ident("y", ty)
        if c_op in C_COMPARES:
            host_expr = ast.Binary(None, c_op, x, y)
        else:
            # compound assignment: NCL computes it at the target type
            host_expr = ast.Assign(None, c_op + "=", x, y)
        for a, b in pairs:
            if op in ("shl", "lshr", "ashr") and b < 0:
                continue  # negative amounts trap in software, not on the ALU
            want = outcome(intops.BINOPS[op], a, b, bits, ty.signed)
            instr = ir.BinOp(op, ir.Const(ty, a), ir.Const(ty, b), ty)
            got = {
                "nir": outcome(run_nir, a, b),
                "host": outcome(run_host, host, host_expr, {"x": a, "y": b}),
            }
            if op not in DIVISIONS:  # the PISA ALU has no divider
                got["pisa"] = run_pisa(CODEGEN._binop_expr(instr), instr.ty)
            got["constfold"] = run_constfold(instr)
            for leg, value in got.items():
                assert value == want, f"{leg}: {a} {op}/{bits}/{ty.signed} {b}"
    # lowering emits every pair through intops.c_binop, so these are all of them
    assert len(checked) == 32


def test_negative_shift_traps_in_software(host):
    ty = int_type(8, True)
    run_nir = nir_function(lambda a, b: ir.BinOp("shl", a, b, ty), ty, ty)
    with pytest.raises(ReproError, match="negative shift"):
        run_nir(1, -1)
    with pytest.raises(ReproError, match="negative shift"):
        run_host(host, ast.Assign(None, "<<=", ident("x", ty), ident("y", ty)),
                 {"x": 1, "y": -1})


# -- unary ops -------------------------------------------------------------------


@pytest.mark.parametrize("bits", [4, 8])
@pytest.mark.parametrize(
    # lowering applies ``lnot`` (C's ``!``) to bool operands only
    "c_op,signed", [("-", False), ("-", True), ("~", False), ("~", True), ("!", False)]
)
def test_unary_ops_agree(host, bits, c_op, signed):
    ty = int_type(bits, signed)
    op = "lnot" if c_op == "!" else intops.C_UNOPS[c_op]
    x = ident("x", ty)
    host_expr = ast.Unary(None, c_op, x)
    host_expr.ty = BOOL if op == "lnot" else ty
    run_nir = nir_function(lambda a: ir.UnOp(op, a, ty), ty)
    for a in type_values(bits, ty.signed):
        want = intops.UNOPS[op](a, bits, ty.signed)
        instr = ir.UnOp(op, ir.Const(ty, a), ty)
        got = {
            "nir": run_nir(a),
            # the P4 backend emits PUn at the instruction's width
            "pisa": run_pisa(
                PUn(op, PConst(intops.to_unsigned(a, bits), bits), scalar_bits(instr.ty)),
                instr.ty,
            ),
            "host": run_host(host, host_expr, {"x": a}),
            "constfold": run_constfold(instr),
        }
        for leg, value in got.items():
            assert value == want, f"{leg}: {op}/{bits}/{ty.signed} {a}"


# -- casts -----------------------------------------------------------------------


def cast_cases(bits):
    """(src, dst, operand values): widening, re-signing and ``bool`` from
    every *bits*-wide value, truncation to *bits* from the double width."""
    for signed in (False, True):
        src = int_type(bits, signed)
        for dst in (int_type(bits, not signed), int_type(2 * bits, False),
                    int_type(2 * bits, True), BOOL):
            yield src, dst, type_values(bits, signed)
        wide = int_type(2 * bits, signed)
        if bits == 4:
            values = type_values(8, signed)
        else:
            values = [intops.wrap(hi << 8 | lo, 16, signed) for hi in B8 for lo in B8]
        for dst_signed in (False, True):
            yield wide, int_type(bits, dst_signed), values


@pytest.mark.parametrize("bits", [4, 8])
def test_casts_agree(host, bits):
    kinds = set()
    for src, dst, values in cast_cases(bits):
        dst_bits, dst_signed = scalar_bits(dst), is_signed(dst)
        kind = intops.cast_kind(src.bits, src.signed, dst_bits, dst == BOOL)
        kinds.add(kind)
        run_nir = nir_function(lambda a: ir.Cast(kind, a, dst), src)
        host_expr = ast.Cast(None, dst, ident("x", src))
        for a in values:
            want = intops.CASTS[kind](a, src.bits, dst_bits, dst_signed)
            instr = ir.Cast(kind, ir.Const(src, a), dst)
            got = {
                "nir": run_nir(a),
                "pisa": run_pisa(CODEGEN._cast_expr(instr), dst),
                "host": run_host(host, host_expr, {"x": a}),
                "constfold": run_constfold(instr),
            }
            for leg, value in got.items():
                assert value == want, f"{leg}: {kind} {src!r}->{dst!r} {a}"
    assert kinds == set(intops.CASTS)

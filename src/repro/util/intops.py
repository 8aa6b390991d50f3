"""Fixed-width integer semantics.

NCL follows C semantics on fixed-width machine integers, and the PISA data
plane operates on fixed-width PHV fields. Python integers are unbounded, so
every arithmetic result is normalized through these helpers.

The op table at the end (``BINOPS``, ``UNOPS``, ``CASTS``) is the one
definition of every NIR operation, and ``c_binop``/``C_UNOPS``/
``cast_kind`` the one mapping from C operators and conversions onto it.
NIR execution (compiled and reference), the PISA ALU model (compiled
and reference), constant folding, loop unrolling, the parser's constant
evaluator and host ``main()`` all execute through it; the abstract interpreter's transfer functions are
tested against it.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict

from repro.errors import ReproError


def mask(bits: int) -> int:
    """All-ones mask of the given width."""
    if bits <= 0:
        raise ReproError(f"invalid bit width {bits}")
    return (1 << bits) - 1


def wrap_unsigned(value: int, bits: int) -> int:
    """Reduce *value* modulo 2**bits into [0, 2**bits)."""
    return value & mask(bits)


def wrap_signed(value: int, bits: int) -> int:
    """Reduce *value* into two's-complement range [-2**(bits-1), 2**(bits-1))."""
    value &= mask(bits)
    sign_bit = 1 << (bits - 1)
    if value & sign_bit:
        return value - (1 << bits)
    return value


def wrap(value: int, bits: int, signed: bool) -> int:
    """Wrap to width, respecting signedness."""
    value &= mask(bits)
    if signed and value >> (bits - 1):
        value -= 1 << bits
    return value


def to_unsigned(value: int, bits: int) -> int:
    """Reinterpret a possibly-negative value as its unsigned bit pattern."""
    return value & mask(bits)


def sign_extend(value: int, from_bits: int, to_bits: int) -> int:
    """Sign-extend the low *from_bits* of value to *to_bits* (unsigned repr)."""
    v = wrap_signed(value, from_bits)
    return to_unsigned(v, to_bits)


def shift_amount(amount: int, bits: int) -> int:
    """Clamp a shift amount the way hardware barrel shifters do (mod width)."""
    if amount < 0:
        raise ReproError(f"negative shift amount {amount}")
    return amount % bits if amount >= bits else amount


def checked_udiv(a: int, b: int) -> int:
    """Unsigned division; raises on divide-by-zero like a trap would."""
    if b == 0:
        raise ZeroDivisionError("division by zero in data-plane arithmetic")
    return a // b


def checked_sdiv(a: int, b: int) -> int:
    """Signed division with C truncation-toward-zero semantics."""
    if b == 0:
        raise ZeroDivisionError("division by zero in data-plane arithmetic")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def checked_srem(a: int, b: int) -> int:
    """Signed remainder matching C: sign of the dividend."""
    return a - b * checked_sdiv(a, b)


def bit_length_fits(value: int, bits: int, signed: bool) -> bool:
    """True if *value* is representable at the given width/signedness."""
    if signed:
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    else:
        lo, hi = 0, (1 << bits) - 1
    return lo <= value <= hi


# -- the op table -------------------------------------------------------------
#
# Binary ops take ``(a, b, bits, signed)``: two operands of one integer
# type, whose width and signedness C's usual arithmetic conversions have
# already decided. Only the low ``bits`` bits of an operand are read, so
# either representation (signed or unsigned) may be passed. Arithmetic
# results come back wrapped to the operand type; compares return 0 or 1.
# Division by zero raises ZeroDivisionError and a negative shift amount
# raises ReproError, as the trap would on hardware.

OpFn = Callable[[int, int, int, bool], int]


def _exact(fn: Callable[[int, int], int]) -> OpFn:
    """*fn* on the operands as given (exact modulo 2**bits), then wrapped."""

    def op(a: int, b: int, bits: int, signed: bool) -> int:
        return wrap(fn(a, b), bits, signed)

    return op


def _reading(read: Callable[[int, int], int], fn: Callable[[int, int], int]) -> OpFn:
    """*fn* on both operands read as *read* (unsigned or signed), then wrapped."""

    def op(a: int, b: int, bits: int, signed: bool) -> int:
        return wrap(fn(read(a, bits), read(b, bits)), bits, signed)

    return op


def _amount(b: int, bits: int, signed: bool) -> int:
    """Shift amount *b* read as a (bits, signed) operand."""
    return shift_amount(wrap(b, bits, signed), bits)


def _shl(a: int, b: int, bits: int, signed: bool) -> int:
    return wrap(a << _amount(b, bits, signed), bits, signed)


def _lshr(a: int, b: int, bits: int, signed: bool) -> int:
    return wrap(to_unsigned(a, bits) >> _amount(b, bits, signed), bits, signed)


def _ashr(a: int, b: int, bits: int, signed: bool) -> int:
    return wrap(wrap_signed(a, bits) >> _amount(b, bits, signed), bits, signed)


def _compare(read: Callable[[int, int], int], rel: Callable[[int, int], bool]) -> OpFn:
    """0 or 1: *rel* on both operands read as *read*."""

    def op(a: int, b: int, bits: int, signed: bool) -> int:
        return int(rel(read(a, bits), read(b, bits)))

    return op


BINOPS: Dict[str, OpFn] = {
    "add": _exact(operator.add),
    "sub": _exact(operator.sub),
    "mul": _exact(operator.mul),
    "udiv": _reading(to_unsigned, checked_udiv),
    "sdiv": _reading(wrap_signed, checked_sdiv),
    "urem": _reading(to_unsigned, operator.mod),
    "srem": _reading(wrap_signed, checked_srem),
    "shl": _shl,
    "lshr": _lshr,
    "ashr": _ashr,
    "and": _exact(operator.and_),
    "or": _exact(operator.or_),
    "xor": _exact(operator.xor),
    "eq": _compare(to_unsigned, operator.eq),
    "ne": _compare(to_unsigned, operator.ne),
    "ult": _compare(to_unsigned, operator.lt),
    "ule": _compare(to_unsigned, operator.le),
    "ugt": _compare(to_unsigned, operator.gt),
    "uge": _compare(to_unsigned, operator.ge),
    "slt": _compare(wrap_signed, operator.lt),
    "sle": _compare(wrap_signed, operator.le),
    "sgt": _compare(wrap_signed, operator.gt),
    "sge": _compare(wrap_signed, operator.ge),
}

COMPARES = frozenset("eq ne ult ule ugt uge slt sle sgt sge".split())

#: Unary ops, ``(a, bits, signed)`` as for BINOPS; ``lnot`` yields 0 or 1.
UNOPS: Dict[str, Callable[[int, int, bool], int]] = {
    "neg": lambda a, bits, signed: wrap(-a, bits, signed),
    "not": lambda a, bits, signed: wrap(~a, bits, signed),
    "lnot": lambda a, bits, signed: int(not a & mask(bits)),
}

#: Casts, ``(a, src_bits, bits, signed)``: the operand's width, then the
#: destination type. ``bool`` yields 0 or 1.
CASTS: Dict[str, Callable[[int, int, int, bool], int]] = {
    "zext": lambda a, src_bits, bits, signed: wrap(to_unsigned(a, src_bits), bits, signed),
    "sext": lambda a, src_bits, bits, signed: wrap(wrap_signed(a, src_bits), bits, signed),
    "trunc": lambda a, src_bits, bits, signed: wrap(a, bits, signed),
    "bool": lambda a, src_bits, bits, signed: int(to_unsigned(a, src_bits) != 0),
}


def cast_kind(src_bits: int, src_signed: bool, bits: int, to_bool: bool) -> str:
    """The cast converting a (src_bits, src_signed) integer to a *bits*-wide
    one (or to ``bool``), as C converts: widening extends by the source's
    signedness, a same-width re-signing keeps the bit pattern."""
    if to_bool:
        return "bool"
    if src_bits < bits:
        return "sext" if src_signed else "zext"
    return "zext" if src_bits == bits else "trunc"


# C operator -> (unsigned op, signed op), picked by the common type.
_C_BINOPS = {
    "+": ("add", "add"),
    "-": ("sub", "sub"),
    "*": ("mul", "mul"),
    "/": ("udiv", "sdiv"),
    "%": ("urem", "srem"),
    "<<": ("shl", "shl"),
    ">>": ("lshr", "ashr"),
    "&": ("and", "and"),
    "|": ("or", "or"),
    "^": ("xor", "xor"),
    "==": ("eq", "eq"),
    "!=": ("ne", "ne"),
    "<": ("ult", "slt"),
    "<=": ("ule", "sle"),
    ">": ("ugt", "sgt"),
    ">=": ("uge", "sge"),
}

#: C arithmetic unary operator -> op name (``!`` tests truthiness first).
C_UNOPS = {"-": "neg", "~": "not"}


def c_binop(op: str, signed: bool) -> str:
    """The op name for C binary operator *op* on operands of a common type
    with the given signedness. Raises KeyError for other operators."""
    return _C_BINOPS[op][signed]

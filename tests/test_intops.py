"""Fixed-width integer semantics (repro.util.intops)."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ReproError
from repro.util import intops


class TestMask:
    def test_mask_widths(self):
        assert intops.mask(8) == 0xFF
        assert intops.mask(16) == 0xFFFF
        assert intops.mask(32) == 0xFFFFFFFF
        assert intops.mask(64) == 0xFFFFFFFFFFFFFFFF

    def test_mask_rejects_nonpositive(self):
        with pytest.raises(ReproError):
            intops.mask(0)
        with pytest.raises(ReproError):
            intops.mask(-3)


class TestWrap:
    def test_unsigned_wraps_modulo(self):
        assert intops.wrap_unsigned(256, 8) == 0
        assert intops.wrap_unsigned(257, 8) == 1
        assert intops.wrap_unsigned(-1, 8) == 255

    def test_signed_wraps_twos_complement(self):
        assert intops.wrap_signed(127, 8) == 127
        assert intops.wrap_signed(128, 8) == -128
        assert intops.wrap_signed(255, 8) == -1
        assert intops.wrap_signed(-129, 8) == 127

    def test_wrap_dispatches_on_signedness(self):
        assert intops.wrap(200, 8, signed=True) == -56
        assert intops.wrap(200, 8, signed=False) == 200

    @given(st.integers(), st.sampled_from([8, 16, 32, 64]))
    def test_unsigned_always_in_range(self, value, bits):
        wrapped = intops.wrap_unsigned(value, bits)
        assert 0 <= wrapped < (1 << bits)

    @given(st.integers(), st.sampled_from([8, 16, 32, 64]))
    def test_signed_always_in_range(self, value, bits):
        wrapped = intops.wrap_signed(value, bits)
        assert -(1 << (bits - 1)) <= wrapped < (1 << (bits - 1))

    @given(st.integers(), st.sampled_from([8, 16, 32, 64]))
    def test_signed_unsigned_same_bit_pattern(self, value, bits):
        assert intops.to_unsigned(
            intops.wrap_signed(value, bits), bits
        ) == intops.wrap_unsigned(value, bits)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_wrap_identity_in_range(self, value):
        assert intops.wrap_unsigned(value, 32) == value


class TestSignExtend:
    def test_extends_negative(self):
        assert intops.sign_extend(0xFF, 8, 16) == 0xFFFF
        assert intops.sign_extend(0x80, 8, 32) == 0xFFFFFF80

    def test_positive_unchanged(self):
        assert intops.sign_extend(0x7F, 8, 32) == 0x7F

    @given(st.integers(min_value=-128, max_value=127))
    def test_roundtrip_through_wider(self, v):
        pattern = intops.to_unsigned(v, 8)
        assert intops.wrap_signed(intops.sign_extend(pattern, 8, 32), 32) == v


class TestDivision:
    def test_udiv(self):
        assert intops.checked_udiv(7, 2) == 3

    def test_sdiv_truncates_toward_zero(self):
        assert intops.checked_sdiv(7, 2) == 3
        assert intops.checked_sdiv(-7, 2) == -3
        assert intops.checked_sdiv(7, -2) == -3
        assert intops.checked_sdiv(-7, -2) == 3

    def test_srem_sign_of_dividend(self):
        assert intops.checked_srem(7, 2) == 1
        assert intops.checked_srem(-7, 2) == -1
        assert intops.checked_srem(7, -2) == 1

    def test_divide_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            intops.checked_udiv(1, 0)
        with pytest.raises(ZeroDivisionError):
            intops.checked_sdiv(1, 0)

    @given(
        st.integers(min_value=-(2**31), max_value=2**31 - 1),
        st.integers(min_value=-(2**31), max_value=2**31 - 1).filter(lambda x: x != 0),
    )
    def test_c_division_identity(self, a, b):
        q = intops.checked_sdiv(a, b)
        r = intops.checked_srem(a, b)
        assert q * b + r == a
        assert abs(r) < abs(b)


class TestShift:
    def test_shift_amount_mod_width(self):
        assert intops.shift_amount(33, 32) == 1
        assert intops.shift_amount(5, 32) == 5

    def test_negative_shift_raises(self):
        with pytest.raises(ReproError):
            intops.shift_amount(-1, 32)


class TestFits:
    def test_unsigned_range(self):
        assert intops.bit_length_fits(255, 8, signed=False)
        assert not intops.bit_length_fits(256, 8, signed=False)
        assert not intops.bit_length_fits(-1, 8, signed=False)

    def test_signed_range(self):
        assert intops.bit_length_fits(-128, 8, signed=True)
        assert intops.bit_length_fits(127, 8, signed=True)
        assert not intops.bit_length_fits(128, 8, signed=True)


# Reference definitions of the op table on mathematical integers: *u* and
# *s* are an operand's unsigned and signed readings, the result is reduced
# to the operand type afterwards. Independent of intops' own helpers.
def _trunc_div(x, y):
    return math.trunc(x / y)  # exact for the small widths swept here


_REFERENCE = {
    "add": lambda ua, sa, ub, sb, bits: ua + ub,
    "sub": lambda ua, sa, ub, sb, bits: ua - ub,
    "mul": lambda ua, sa, ub, sb, bits: ua * ub,
    "udiv": lambda ua, sa, ub, sb, bits: ua // ub,
    "urem": lambda ua, sa, ub, sb, bits: ua % ub,
    "sdiv": lambda ua, sa, ub, sb, bits: _trunc_div(sa, sb),
    "srem": lambda ua, sa, ub, sb, bits: sa - sb * _trunc_div(sa, sb),
    "shl": lambda ua, sa, ub, sb, bits: ua * 2 ** (ub % bits),
    "lshr": lambda ua, sa, ub, sb, bits: ua // 2 ** (ub % bits),
    "ashr": lambda ua, sa, ub, sb, bits: math.floor(sa / 2 ** (ub % bits)),
    "and": lambda ua, sa, ub, sb, bits: ua & ub,
    "or": lambda ua, sa, ub, sb, bits: ua | ub,
    "xor": lambda ua, sa, ub, sb, bits: ua ^ ub,
    "eq": lambda ua, sa, ub, sb, bits: ua == ub,
    "ne": lambda ua, sa, ub, sb, bits: ua != ub,
    "ult": lambda ua, sa, ub, sb, bits: ua < ub,
    "ule": lambda ua, sa, ub, sb, bits: ua <= ub,
    "ugt": lambda ua, sa, ub, sb, bits: ua > ub,
    "uge": lambda ua, sa, ub, sb, bits: ua >= ub,
    "slt": lambda ua, sa, ub, sb, bits: sa < sb,
    "sle": lambda ua, sa, ub, sb, bits: sa <= sb,
    "sgt": lambda ua, sa, ub, sb, bits: sa > sb,
    "sge": lambda ua, sa, ub, sb, bits: sa >= sb,
}


def _readings(bits):
    """(operand as passed, unsigned reading, signed reading), both
    representations of every pattern."""
    for pattern in range(1 << bits):
        signed = pattern - (1 << bits) if pattern >> (bits - 1) else pattern
        for operand in {pattern, signed}:
            yield operand, pattern, signed


class TestOpTable:
    @pytest.mark.parametrize("op", sorted(_REFERENCE))
    @pytest.mark.parametrize("signed", [False, True])
    def test_binops_match_integer_definitions(self, op, signed):
        bits = 4
        for (a, ua, sa), (b, ub, sb) in itertools.product(_readings(bits), repeat=2):
            if op in ("udiv", "urem", "sdiv", "srem") and ub == 0:
                with pytest.raises(ZeroDivisionError):
                    intops.BINOPS[op](a, b, bits, signed)
                continue
            if op in ("shl", "lshr", "ashr") and signed and sb < 0:
                with pytest.raises(ReproError):
                    intops.BINOPS[op](a, b, bits, signed)
                continue
            want = _REFERENCE[op](ua, sa, ub, sb, bits)
            if op not in intops.COMPARES:
                want = intops.wrap(want, bits, signed)
            assert intops.BINOPS[op](a, b, bits, signed) == want, (op, a, b)

    @pytest.mark.parametrize("signed", [False, True])
    def test_unops_and_casts(self, signed):
        bits = 4
        for a, ua, sa in _readings(bits):
            assert intops.UNOPS["neg"](a, bits, signed) == intops.wrap(-ua, bits, signed)
            assert intops.UNOPS["not"](a, bits, signed) == intops.wrap(15 - ua, bits, signed)
            assert intops.UNOPS["lnot"](a, bits, signed) == int(ua == 0)
            assert intops.CASTS["zext"](a, bits, 8, signed) == intops.wrap(ua, 8, signed)
            assert intops.CASTS["sext"](a, bits, 8, signed) == intops.wrap(sa, 8, signed)
            assert intops.CASTS["trunc"](a, bits, 2, signed) == intops.wrap(ua % 4, 2, signed)
            assert intops.CASTS["bool"](a, bits, 8, False) == int(ua != 0)

    @pytest.mark.parametrize(
        "src_bits,src_signed,bits,to_bool,kind",
        [
            (8, True, 32, False, "sext"),
            (8, False, 32, False, "zext"),
            (32, True, 32, False, "zext"),
            (32, False, 8, False, "trunc"),
            (32, True, 8, True, "bool"),
        ],
    )
    def test_cast_kind(self, src_bits, src_signed, bits, to_bool, kind):
        assert intops.cast_kind(src_bits, src_signed, bits, to_bool) == kind

    def test_c_operators(self):
        assert intops.c_binop("/", False) == "udiv"
        assert intops.c_binop("/", True) == "sdiv"
        assert intops.c_binop(">>", False) == "lshr"
        assert intops.c_binop(">>", True) == "ashr"
        assert intops.c_binop("<", False) == "ult"
        assert intops.c_binop("==", True) == "eq"
        with pytest.raises(KeyError):
            intops.c_binop("&&", True)

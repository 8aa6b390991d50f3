"""Unit + golden tests for the NIR abstract interpreter.

Three layers:

* domain algebra -- AbsVal join/widen/wrap/known-bits laws, checked
  directly and against exhaustive concrete enumeration at small widths;
* whole-function facts -- ranges, proved branches, trap statuses on
  hand-built and compiled kernels;
* golden dump -- ``nclc build --emit absint`` output for
  examples/parity.ncl is byte-stable across compiles and matches
  tests/golden/parity_absint.txt.
"""

import itertools
import random
from pathlib import Path

import pytest

from repro.analysis.absint import (
    AbsVal,
    analyze_module,
    compare_verdict,
    exact_range,
)
from repro.nclc import Compiler
from repro.nir import ir

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def interval(lo, hi, bits=8, signed=False):
    return AbsVal(bits, signed, lo, hi).reduced()


class TestDomainAlgebra:
    def test_const_is_singleton_with_full_pattern(self):
        v = AbsVal.const(9, 8, False)
        assert v.singleton == 9
        assert v.pattern() == "00001001"

    def test_join_covers_both_operands(self):
        a = interval(1, 3)
        b = interval(10, 12)
        j = a.join(b)
        assert j.lo == 1 and j.hi == 12
        # known bits survive a join only where both sides agree
        assert j.ones & ~(a.ones & b.ones) == 0

    def test_join_with_bottom_is_identity(self):
        a = interval(4, 7)
        bot = AbsVal.bottom(8, False)
        assert a.join(bot).lo == a.lo and a.join(bot).hi == a.hi
        assert bot.join(a).lo == a.lo and bot.join(a).hi == a.hi

    def test_widen_jumps_unstable_bounds_to_type_range(self):
        a = interval(0, 200)
        grown = interval(0, 201)
        w = a.widened(grown)
        assert w.lo == 0 and w.hi == 255  # hi unstable -> type max

    def test_widen_respects_shared_known_bits(self):
        # both sides know the top five bits are zero, so the widened
        # bound lands on 7, not the type max -- the bit domain still
        # converges because repeated widening clears unstable bits too
        w = interval(0, 3).widened(interval(0, 5))
        assert w.hi == 7

    def test_widen_keeps_stable_bounds(self):
        a = interval(2, 10)
        shrunk = interval(3, 10)
        w = a.widened(shrunk)
        assert w.lo == 2 and w.hi == 10

    def test_reduced_exchanges_bounds_and_bits(self):
        # bounds 40..47 share their top five bits -> pattern learns them
        v = interval(40, 47)
        assert v.pattern().startswith("00101")
        # conversely, a known low bit tightens parity-impossible bounds
        forced = AbsVal(8, False, 0, 255, zeros=0, ones=1).reduced()
        assert forced.lo >= 1

    def test_informative_gate(self):
        assert not AbsVal.top(8, False).informative()
        assert interval(0, 200).informative()
        assert AbsVal.top(8, True).informative() is False

    @pytest.mark.parametrize("signed", [False, True])
    def test_unsigned_range_matches_patterns(self, signed):
        v = AbsVal.const(-3 if signed else 250, 8, signed)
        lo, hi = v.unsigned_range()
        assert lo == hi == (253 if signed else 250)


class TestTransferSoundness:
    """Exhaustive 4-bit soundness: every concrete result of an operation
    on members of the abstract inputs lies inside the abstract output."""

    # Every (op, signedness) pair nir/lower.py emits: signedness picks
    # udiv/urem/lshr and the u-compares for unsigned operands, their
    # s-twins for signed ones. ``ashr`` on an unsigned operand is never
    # emitted (``>>`` on unsigned lowers to ``lshr``) and is left out: the
    # interpreter shifts the signed reading ([14,15] ashr 1 -> 15) where
    # the interval transfer assumes the unsigned one ([7,7]).
    BOTH = ["add", "sub", "mul", "and", "or", "xor", "shl", "eq", "ne"]
    UNSIGNED = ["udiv", "urem", "lshr", "ult", "ule", "ugt", "uge"]
    SIGNED = ["sdiv", "srem", "ashr", "slt", "sle", "sgt", "sge"]
    PAIRS = (
        [(s, op) for op in BOTH for s in (False, True)]
        + [(False, op) for op in UNSIGNED]
        + [(True, op) for op in SIGNED]
    )

    @pytest.mark.parametrize("signed,op", PAIRS)
    def test_exhaustive_small_width(self, op, signed):
        from repro.analysis.absint import _binop_arith, _compare
        from repro.util import intops

        bits = 4
        rng = random.Random(f"{op}:{signed}")
        concrete = intops.BINOPS[op]
        tlo, thi = (-8, 7) if signed else (0, 15)
        for _ in range(40):
            alo = rng.randint(tlo, thi)
            ahi = rng.randint(alo, thi)
            blo = rng.randint(tlo, thi)
            bhi = rng.randint(blo, thi)
            a = AbsVal(bits, signed, alo, ahi).reduced()
            b = AbsVal(bits, signed, blo, bhi).reduced()
            if op in ir.BinOp.COMPARES:
                out = _compare(op, a, b)
            else:
                out = _binop_arith(op, a, b, bits, signed)
            for ca, cb in itertools.product(
                range(alo, ahi + 1), range(blo, bhi + 1)
            ):
                if cb == 0 and op in ("udiv", "urem", "sdiv", "srem"):
                    continue  # traps: no result to contain
                if cb < 0 and op in ("shl", "lshr", "ashr"):
                    continue  # traps
                result = concrete(ca, cb, bits, signed)
                assert out.contains(result), (
                    f"{op} [{alo},{ahi}] x [{blo},{bhi}]: concrete "
                    f"{ca}?{cb}={result} escapes {out!r}"
                )
                pat = result & intops.mask(out.bits)
                assert pat & out.zeros == 0 and (~pat) & out.ones == 0

    def test_exact_range_is_unwrapped(self):
        a = interval(200, 255)
        b = interval(200, 255)
        lo, hi = exact_range("add", a, b)
        assert lo == 400 and hi == 510  # deliberately NOT wrapped to 8 bits

    def test_compare_verdicts(self):
        lo = interval(0, 7)
        nine = AbsVal.const(9, 8, False)
        assert compare_verdict("ugt", lo, nine) is False
        assert compare_verdict("ult", lo, nine) is True
        assert compare_verdict("eq", lo, nine) is False
        assert compare_verdict("eq", lo, AbsVal.const(3, 8, False)) is None
        # known-bits contradiction: even vs odd can never be equal
        even = AbsVal(8, False, 0, 255, zeros=1, ones=0).reduced()
        odd = AbsVal(8, False, 0, 255, zeros=0, ones=1).reduced()
        assert compare_verdict("eq", even, odd) is False


def _analyze_example(name, **compile_kw):
    source = (REPO / "examples" / name).read_text()
    program = Compiler(**compile_kw).compile(source, filename=name)
    return program


class TestFunctionFacts:
    def test_parity_tag_proved_constant(self):
        program = _analyze_example("parity.ncl", opt_level=0)
        [(label, module)] = program.switch_modules.items()
        facts = analyze_module(module, label_ids=program.label_ids)
        fn_facts = facts["parity"]
        # the (v | 9) & 1 result is a proved singleton 1
        ands = [
            i for i in fn_facts.fn.instructions()
            if isinstance(i, ir.BinOp) and i.op == "and"
        ]
        assert any(
            fn_facts.values.get(i) is not None
            and fn_facts.values[i].singleton == 1
            for i in ands
        )

    def test_stats_facts_cover_all_reachable_values(self):
        program = _analyze_example("stats.ncl", opt_level=1)
        for label, module in program.switch_modules.items():
            facts = analyze_module(module, label_ids=program.label_ids)
            for name, fn_facts in facts.items():
                assert fn_facts.reachable, name
                assert fn_facts.rounds >= 1


class TestGoldenDump:
    """``--emit absint`` output is byte-deterministic and golden-pinned.

    Regenerate (after an intentional analysis change) with::

        PYTHONPATH=src python -c "
        from pathlib import Path
        from repro.nclc import Compiler
        src = Path('examples/parity.ncl').read_text()
        p = Compiler(opt_level=2).compile(src, filename='examples/parity.ncl')
        Path('tests/golden/parity_absint.txt').write_text(p.render_absint())
        "
    """

    def test_dump_matches_golden(self):
        program = _analyze_example("parity.ncl", opt_level=2)
        expected = (GOLDEN / "parity_absint.txt").read_text()
        assert program.render_absint() == expected

    def test_dump_is_deterministic_across_compiles(self):
        first = _analyze_example("parity.ncl", opt_level=2).render_absint()
        second = _analyze_example("parity.ncl", opt_level=2).render_absint()
        assert first == second


class TestRangeSimplify:
    def test_parity_shrinks_at_o2_via_ranges(self):
        """rangesimplify is what removes the or/and: -O1 (everything but
        rangesimplify) keeps them, -O2 drops them."""

        def count(program):
            return sum(
                sum(1 for _ in fn.instructions())
                for module in program.switch_modules.values()
                for fn in module.functions.values()
            )

        at_o1 = _analyze_example("parity.ncl", opt_level=1)
        at_o2 = _analyze_example("parity.ncl", opt_level=2)
        assert count(at_o2) < count(at_o1)

    def test_simplify_ranges_reports_replacements(self):
        from repro.nir.passes.clone import clone_function
        from repro.nir.passes.rangesimplify import simplify_ranges

        program = _analyze_example("parity.ncl", opt_level=1)
        [(label, module)] = program.switch_modules.items()
        fn = clone_function(module.functions["parity"])
        assert simplify_ranges(fn) > 0

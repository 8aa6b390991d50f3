"""PISA simulator: parser/deparser bit accuracy, pipeline, tables, registers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PisaError
from repro.p4.model import (
    Action,
    Apply,
    Do,
    HeaderType,
    IfNode,
    P4Program,
    ParseState,
    PAssign,
    PBin,
    PConst,
    PField,
    PMux,
    PParam,
    PRegRead,
    PRegWrite,
    PUn,
    RegisterArray,
    Table,
    TableEntry,
)
from repro.pisa.parser import Deparser, PacketParser
from repro.pisa.phv import Phv
from repro.pisa.pipeline import Pipeline, RegisterState
from repro.pisa.switch_dev import PisaSwitch


def tiny_program():
    p = P4Program("tiny")
    p.add_header(HeaderType("h_t", [("a", 8), ("b", 16), ("c", 8)]), "h")
    p.parser = [ParseState("start", ["h"])]
    p.deparser = ["h"]
    return p


class TestParserDeparser:
    def test_extracts_fields(self):
        p = tiny_program()
        phv = PacketParser(p).parse(b"\x01\x02\x03\x04")
        assert phv.read("h.a") == 1
        assert phv.read("h.b") == 0x0203
        assert phv.read("h.c") == 4

    def test_payload_preserved(self):
        p = tiny_program()
        phv = PacketParser(p).parse(b"\x01\x02\x03\x04extra")
        assert phv.payload_rest == b"extra"
        assert Deparser(p).deparse(phv) == b"\x01\x02\x03\x04extra"

    def test_short_packet_raises(self):
        with pytest.raises(PisaError, match="too short"):
            PacketParser(tiny_program()).parse(b"\x01")

    def test_select_transitions(self):
        p = P4Program("sel")
        p.add_header(HeaderType("a_t", [("kind", 8)]), "a")
        p.add_header(HeaderType("b_t", [("x", 8)]), "b")
        p.parser = [
            ParseState("start", ["a"], "a.kind", [(1, "parse_b")]),
            ParseState("parse_b", ["b"]),
        ]
        p.deparser = ["a", "b"]
        phv = PacketParser(p).parse(b"\x01\x42")
        assert phv.is_valid("b") and phv.read("b.x") == 0x42
        phv2 = PacketParser(p).parse(b"\x02\x42")
        assert not phv2.is_valid("b")
        assert phv2.payload_rest == b"\x42"

    def test_no_parser_means_opaque_payload(self):
        p = P4Program("none")
        phv = PacketParser(p).parse(b"anything")
        assert phv.payload_rest == b"anything"

    @given(st.binary(min_size=4, max_size=32))
    @settings(max_examples=30, deadline=None)
    def test_parse_deparse_identity(self, data):
        p = tiny_program()
        phv = PacketParser(p).parse(data)
        assert Deparser(p).deparse(phv) == data

    def test_sub_byte_fields(self):
        p = P4Program("nib")
        p.add_header(HeaderType("n_t", [("hi", 4), ("lo", 4)]), "n")
        p.parser = [ParseState("start", ["n"])]
        p.deparser = ["n"]
        phv = PacketParser(p).parse(b"\xab")
        assert phv.read("n.hi") == 0xA and phv.read("n.lo") == 0xB
        assert Deparser(p).deparse(phv) == b"\xab"


class TestPipelineExpr:
    def make(self):
        p = tiny_program()
        p.add_metadata("t", 32)
        return p, Pipeline(p)

    def eval(self, expr):
        p, pipe = self.make()
        phv = Phv(p)
        return pipe.eval_expr(expr, phv, {})

    def test_arith_wrapping(self):
        assert self.eval(PBin("add", PConst(255, 8), PConst(1, 8), 8)) == 0
        assert self.eval(PBin("sub", PConst(0, 8), PConst(1, 8), 8)) == 255

    def test_compares(self):
        assert self.eval(PBin("ult", PConst(3, 8), PConst(5, 8), 8)) == 1
        # 0xFF is -1 signed: less than 0
        assert self.eval(PBin("slt", PConst(0xFF, 8), PConst(0, 8), 8)) == 1
        assert self.eval(PBin("ugt", PConst(0xFF, 8), PConst(0, 8), 8)) == 1

    def test_shifts(self):
        assert self.eval(PBin("shl", PConst(1, 8), PConst(3, 8), 8)) == 8
        assert self.eval(PBin("ashr", PConst(0x80, 8), PConst(1, 8), 8)) == 0xC0

    def test_unary(self):
        assert self.eval(PUn("neg", PConst(1, 8), 8)) == 255
        assert self.eval(PUn("not", PConst(0, 8), 8)) == 255
        assert self.eval(PUn("lnot", PConst(0, 8), 8)) == 1

    def test_unbound_param_raises(self):
        with pytest.raises(PisaError, match="unbound"):
            self.eval(PParam("x", 8))


class TestActionsAndRegisters:
    def make(self):
        p = tiny_program()
        p.add_metadata("t", 32)
        p.add_register(RegisterArray("r", 32, 4))
        p.add_action(
            Action(
                "bump",
                [
                    PRegRead("meta.t", "r", PConst(0, 32)),
                    PAssign("meta.t", PBin("add", PField("meta.t"), PConst(1, 32), 32)),
                    PRegWrite("r", PConst(0, 32), PField("meta.t")),
                ],
            )
        )
        return p, Pipeline(p)

    def test_register_rmw(self):
        p, pipe = self.make()
        phv = Phv(p)
        for _ in range(3):
            pipe.run_action("bump", phv)
        assert pipe.registers.read("r", 0) == 3
        assert pipe.stats.register_reads == 3
        assert pipe.stats.register_writes == 3

    def test_register_bounds(self):
        p, pipe = self.make()
        with pytest.raises(PisaError, match="out of range"):
            pipe.registers.read("r", 4)

    def test_register_width_wrap(self):
        p, pipe = self.make()
        pipe.registers.write("r", 0, 2**32 + 5)
        assert pipe.registers.read("r", 0) == 5

    def test_initial_values(self):
        p = tiny_program()
        reg = RegisterArray("r", 32, 4)
        reg.initial = [7, 8]
        p.add_register(reg)
        state = RegisterState(p)
        assert state.arrays["r"] == [7, 8, 0, 0]

    def test_action_arity_check(self):
        p = tiny_program()
        p.add_action(Action("takes1", [PAssign("h.a", PParam("v", 8))], params=[("v", 8)]))
        pipe = Pipeline(p)
        phv = Phv(p)
        phv.set_valid("h")
        with pytest.raises(PisaError, match="expected 1"):
            pipe.run_action("takes1", phv)


class TestTables:
    def make(self, kind="exact"):
        p = tiny_program()
        p.add_metadata("out", 8)
        p.add_action(
            Action("set_out", [PAssign("meta.out", PParam("v", 8))], params=[("v", 8)])
        )
        p.add_action(Action("miss", [PAssign("meta.out", PConst(0xEE, 8))]))
        p.add_table(
            Table(
                "t",
                keys=[("h.a", kind)],
                actions=["set_out"],
                default_action="miss",
            )
        )
        return p, Pipeline(p)

    def phv_with_a(self, p, a):
        phv = Phv(p)
        phv.set_valid("h")
        phv.write("h.a", a)
        return phv

    def test_exact_hit_and_miss(self):
        p, pipe = self.make()
        p.tables["t"].add_entry(TableEntry([5], "set_out", [0x11]))
        phv = self.phv_with_a(p, 5)
        assert pipe.apply_table("t", phv)
        assert phv.read("meta.out") == 0x11
        phv = self.phv_with_a(p, 6)
        assert not pipe.apply_table("t", phv)
        assert phv.read("meta.out") == 0xEE

    def test_ternary_priority(self):
        p, pipe = self.make("ternary")
        p.tables["t"].add_entry(TableEntry([(0x00, 0x0F)], "set_out", [1], priority=1))
        p.tables["t"].add_entry(TableEntry([(0x00, 0x00)], "set_out", [2], priority=0))
        phv = self.phv_with_a(p, 0xF0)  # matches both (low nibble 0; wildcard)
        pipe.apply_table("t", phv)
        assert phv.read("meta.out") == 1

    def test_table_size_limit(self):
        p, _ = self.make()
        p.tables["t"].size = 1
        p.tables["t"].add_entry(TableEntry([1], "set_out", [1]))
        with pytest.raises(PisaError, match="full"):
            p.tables["t"].add_entry(TableEntry([2], "set_out", [2]))

    def test_stats_counters(self):
        p, pipe = self.make()
        p.tables["t"].add_entry(TableEntry([5], "set_out", [1]))
        pipe.apply_table("t", self.phv_with_a(p, 5))
        pipe.apply_table("t", self.phv_with_a(p, 9))
        assert pipe.stats.table_hits["t"] == 1
        assert pipe.stats.table_misses["t"] == 1


class TestControlFlow:
    def test_if_node_branches(self):
        p = tiny_program()
        p.add_metadata("r", 8)
        p.add_action(Action("yes", [PAssign("meta.r", PConst(1, 8))]))
        p.add_action(Action("no", [PAssign("meta.r", PConst(2, 8))]))
        p.control = [
            IfNode(
                PBin("ugt", PField("h.a"), PConst(10, 8), 8),
                [Do("yes")],
                [Do("no")],
            )
        ]
        pipe = Pipeline(p)
        phv = Phv(p)
        phv.set_valid("h")
        phv.write("h.a", 20)
        pipe.run(phv)
        assert phv.read("meta.r") == 1
        phv.write("h.a", 5)
        pipe.run(phv)
        assert phv.read("meta.r") == 2

    def test_validity_condition(self):
        p = tiny_program()
        p.add_metadata("r", 8)
        p.add_action(Action("seen", [PAssign("meta.r", PConst(1, 8))]))
        p.control = [IfNode(PField("valid.h"), [Do("seen")])]
        pipe = Pipeline(p)
        phv = Phv(p)  # h not valid
        pipe.run(phv)
        assert phv.read("meta.r") == 0


class TestSwitchDevice:
    def test_program_validated_on_construction(self):
        p = tiny_program()
        p.control = [Apply("nonexistent")]
        with pytest.raises(PisaError, match="unknown table"):
            PisaSwitch(p)

    def test_control_plane_table_ops(self):
        p = tiny_program()
        p.add_metadata("out", 8)
        p.add_action(
            Action("set_out", [PAssign("meta.out", PParam("v", 8))], params=[("v", 8)])
        )
        p.add_action(Action("nop", []))
        p.add_table(
            Table("t", [("h.a", "exact")], ["set_out"], "nop", managed_by="control-plane")
        )
        sw = PisaSwitch(p)
        sw.table_insert("t", [1], "set_out", [5])
        sw.table_insert("t", [1], "set_out", [6])  # replaces
        assert len(sw.table_entries("t")) == 1
        assert sw.table_entries("t")[0].args == [6]
        assert sw.table_delete("t", [1]) == 1
        assert sw.table_entries("t") == []

    def test_rejects_disallowed_action(self):
        p = tiny_program()
        p.add_action(Action("a1", []))
        p.add_action(Action("a2", []))
        p.add_table(Table("t", [("h.a", "exact")], ["a1"], "a1"))
        sw = PisaSwitch(p)
        with pytest.raises(PisaError, match="not allowed"):
            sw.table_insert("t", [1], "a2")


class TestExactIndex:
    """``Table.exact_index`` is what the compiled pipeline looks up for an
    all-exact table; it must pick what the reference priority scan picks."""

    KEY = st.tuples(st.integers(0, 2), st.integers(0, 2))
    OPS = st.lists(
        st.one_of(
            st.tuples(st.just("add"), KEY, st.integers(0, 2)),
            st.tuples(st.just("remove_match"), KEY),
            st.tuples(st.just("remove_priority"), st.integers(0, 2)),
        ),
        max_size=40,
    )

    @given(OPS)
    @settings(max_examples=150, deadline=None)
    def test_index_lookup_equals_priority_scan(self, ops):
        table = Table("t", [("h.a", "exact"), ("h.b", "exact")], ["a"], "a", size=100)
        for n, op in enumerate(ops):
            if op[0] == "add":  # duplicate keys and priority ties included
                table.add_entry(TableEntry(list(op[1]), "a", [n], priority=op[2]))
            elif op[0] == "remove_match":
                table.remove_match(op[1])
            else:
                table.remove_entries(lambda e: e.priority == op[1])
            for a in range(3):
                for b in range(3):
                    group = table.exact_index.get((a, b))
                    best = group[0] if group else None
                    assert best is Pipeline._match(table, [a, b])
            indexed = [e for group in table.exact_index.values() for e in group]
            assert sorted(map(id, indexed)) == sorted(map(id, table.entries))

    def test_only_all_exact_tables_are_indexed(self):
        assert Table("t", [("h.a", "exact"), ("h.b", "ternary")], [], "a").exact_index is None
        assert Table("t", [], [], "a").exact_index == {}

    @pytest.mark.parametrize("kind", ["exact", "ternary"])
    def test_malformed_entry_rejected_at_insert(self, kind):
        table = Table("t", [("h.a", kind)], ["a"], "a")
        with pytest.raises(PisaError, match="malformed entry"):
            table.add_entry(TableEntry([1, 2], "a"))
        with pytest.raises(PisaError, match="malformed entry"):
            Table("t", [("h.a", kind)], ["a"], "a", entries=[TableEntry([], "a")])
        assert table.entries == ()

    def test_switch_replaces_exact_entries_through_the_index(self, monkeypatch):
        p = tiny_program()
        p.add_action(Action("a1", [], params=[("v", 8)]))
        p.add_table(Table("t", [("h.a", "exact")], ["a1"], "a1", default_args=[0]))
        sw = PisaSwitch(p)

        def scan(self, predicate):
            raise AssertionError("full-list predicate scan")

        monkeypatch.setattr(Table, "remove_entries", scan)
        sw.table_insert("t", [1], "a1", [5])
        sw.table_insert("t", [2], "a1", [6])
        sw.table_insert("t", [1], "a1", [7])
        assert [(e.match, e.args) for e in sw.table_entries("t")] == [([2], [6]), ([1], [7])]
        assert sw.table_delete("t", [2]) == 1
        assert p.tables["t"].exact_index == {(1,): sw.table_entries("t")}


class _Recorder:
    """An observer recording the callbacks the pipeline makes."""

    def __init__(self):
        self.calls = []

    def table(self, name, hit, action):
        self.calls.append(("table", name, hit, action))

    def action(self, name):
        self.calls.append(("action", name))


class TestCompiledControl:
    """``Pipeline.run`` (generated code) against ``Pipeline.reference_run``
    on random control blocks and packets: the same error or none, and the
    same PHV, registers, stats, tables matched and observer calls."""

    FIELDS = {"h.a": 8, "h.b": 16, "h.c": 8, "g.x": 32, "meta.m8": 8, "meta.m16": 16, "meta.m32": 32}
    BINOPS = ["add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr",
              "udiv", "urem", "eq", "ne", "ult", "ule", "ugt", "uge", "slt", "sge"]

    def program(self, rng):
        p = tiny_program()
        p.add_header(HeaderType("g_t", [("x", 32)]), "g")
        for name in ("m8", "m16", "m32"):
            p.add_metadata(name, int(name[1:]))
        p.add_register(RegisterArray("r16", 16, 4))
        p.add_register(RegisterArray("r32", 32, 8))
        for i in range(4):
            params = [("v", 16)] if i % 2 else []
            p.add_action(Action(f"a{i}", self.primitives(rng, params), params=params))
        p.add_table(Table("te", [("h.a", "exact")], ["a1", "a3"], "a0"))
        p.add_table(Table("tt", [("h.b", "ternary"), ("h.c", "exact")], ["a1", "a3"], "a3",
                          default_args=[rng.randrange(1 << 16)]))
        for _ in range(4):
            p.tables["te"].add_entry(TableEntry([rng.randrange(4)], rng.choice(["a1", "a3"]),
                                                [rng.randrange(1 << 16)], rng.randrange(2)))
            p.tables["tt"].add_entry(TableEntry([(rng.randrange(4), rng.randrange(4)), rng.randrange(4)],
                                                rng.choice(["a1", "a3"]), [rng.randrange(1 << 16)],
                                                rng.randrange(2)))
        p.control = self.nodes(rng, depth=2)
        return p

    def nodes(self, rng, depth):
        out = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(4 if depth else 2)
            if kind == 0:
                out.append(Apply(rng.choice(["te", "tt"])))
            elif kind == 1:
                out.append(Do(rng.choice(["a0", "a2"])))
            else:
                out.append(IfNode(self.expr(rng, 2, []), self.nodes(rng, depth - 1),
                                  self.nodes(rng, depth - 1)))
        return out

    def primitives(self, rng, params):
        prims = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(3)
            dst = rng.choice(["h.b", "meta.m8", "meta.m16", "meta.m32"])
            if kind == 0:
                prims.append(PAssign(dst, self.expr(rng, 2, params)))
            elif kind == 1:
                prims.append(PRegRead(dst, rng.choice(["r16", "r32"]), self.index(rng, params)))
            else:
                prims.append(PRegWrite(rng.choice(["r16", "r32"]), self.index(rng, params),
                                       self.expr(rng, 2, params)))
        return prims

    def index(self, rng, params):
        """A register index, in range [0, 4) but now and then."""
        index = self.expr(rng, 1, params)
        return index if rng.random() < 0.1 else PBin("and", index, PConst(3, 8), 8)

    def expr(self, rng, depth, params):
        kind = rng.randrange(6 if depth else 3)
        bits = rng.choice([8, 16, 32])
        if kind == 0:
            return PConst(rng.randrange(-4, 1 << 9), bits)
        if kind == 1:
            return PField(rng.choice(list(self.FIELDS) + ["valid.h", "valid.g"]))
        if kind == 2:
            return PParam(params[0][0], 16) if params else PConst(rng.randrange(8), 8)
        if kind == 3:
            return PBin(rng.choice(self.BINOPS), self.expr(rng, depth - 1, params),
                        self.expr(rng, depth - 1, params), bits)
        if kind == 4:
            return PMux(self.expr(rng, depth - 1, params), self.expr(rng, depth - 1, params),
                        self.expr(rng, depth - 1, params), bits)
        return PUn(rng.choice(["neg", "not", "lnot"]), self.expr(rng, depth - 1, params), bits)

    @staticmethod
    def outcome(run, pipe, phv):
        observer = _Recorder()
        pipe.observer = observer
        try:
            run(phv)
            error = None
        except (PisaError, ZeroDivisionError) as exc:
            error = (type(exc), str(exc))
        # Both stop at the same point on an error, so even then the state agrees.
        return (error, phv.fields, pipe.registers.arrays, pipe.stats.as_dict(),
                pipe.last_tables_matched, observer.calls)

    @pytest.mark.parametrize("seed", range(40))
    def test_compiled_equals_reference(self, seed):
        rng = random.Random(seed)
        p = self.program(rng)
        compiled, reference = Pipeline(p), Pipeline(p)
        for _ in range(12):
            phv = Phv(p)
            phv.set_valid("h")
            phv.set_valid("g", rng.random() < 0.8)
            for ref in ("h.a", "h.b", "h.c"):
                phv.write(ref, rng.randrange(4) if rng.random() < 0.7 else rng.randrange(1 << 16))
            expected = self.outcome(reference.reference_run, reference, phv.clone())
            assert self.outcome(compiled.run, compiled, phv) == expected

"""NIR execution: the semantics of NCL kernels.

Every case runs through both executors -- the compiled ``Interpreter.run``
and the step interpreter ``Interpreter.reference_run`` -- via
:func:`tests.diffutil.run_both`, which requires the same result, window
data and device state, or the same error."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PisaError
from repro.nir import ir
from repro.ncl.types import BOOL, U32
from repro.nir.interp import DeviceState
from repro.util import intops

from tests.diffutil import kernel_module, run_both


def run(source, kernel="k", meta=None, args=(), state=None, defines=None, **kw):
    mod = kernel_module(source, defines)
    state = state if state is not None else DeviceState.from_module(mod)
    result = run_both(mod, kernel, state, meta or {}, list(args), **kw)
    return result, state


class TestArithmetic:
    def test_wrapping_add_i32(self):
        buf = [2**31 - 1]
        run("_net_ _out_ void k(int *d) { d[0] = d[0] + 1; }", args=[buf])
        assert buf[0] == -(2**31)

    def test_unsigned_wrap(self):
        buf = [0]
        run("_net_ _out_ void k(unsigned *d) { d[0] = d[0] - 1; }", args=[buf])
        assert buf[0] == 2**32 - 1

    def test_u8_truncation_on_store(self):
        buf = [300]
        run("_net_ _out_ void k(uint8_t *d) { d[0] = d[0] + 0; }", args=[buf])
        assert buf[0] == 300 & 0xFF or buf[0] == 44  # 300 wraps to 44

    def test_stores_wrap_to_the_element_type(self):
        # Out-of-range window data is copied without arithmetic: only the
        # stores wrap it.
        mod = kernel_module(
            "_net_ uint8_t a[2];\n"
            "_net_ _out_ void k(uint8_t *d) { d[1] = d[0]; a[0] = d[0]; }"
        )
        state = DeviceState.from_module(mod)
        buf = [300, 0]
        run_both(mod, "k", state, {}, [buf])
        assert buf == [300, 44] and state.arrays["a"][0] == 44

    def test_signed_division_truncates(self):
        buf = [-7, 2, 0]
        run("_net_ _out_ void k(int *d) { d[2] = d[0] / d[1]; }", args=[buf])
        assert buf[2] == -3

    def test_division_by_zero_traps(self):
        with pytest.raises(ZeroDivisionError):
            run("_net_ _out_ void k(int *d) { d[0] = d[0] / d[1]; }", args=[[1, 0]])

    def test_shifts(self):
        buf = [-8, 0, 0]
        run(
            "_net_ _out_ void k(int *d) { d[1] = d[0] >> 1; d[2] = d[0] << 1; }",
            args=[buf],
        )
        assert buf[1] == -4 and buf[2] == -16

    def test_unsigned_shift_logical(self):
        buf = [0x80000000, 0]
        run("_net_ _out_ void k(unsigned *d) { d[1] = d[0] >> 31; }", args=[buf])
        assert buf[1] == 1

    def test_compare_signedness(self):
        buf = [-1, 0, 0]
        run(
            "_net_ _out_ void k(int *d, unsigned *u) {"
            " d[2] = d[0] < 1;"                      # signed: -1 < 1
            " u[0] = (unsigned)d[0] < 1u; }",        # unsigned: huge > 1
            args=[buf, [9]],
        )
        assert buf[2] == 1

    @given(st.integers(-(2**31), 2**31 - 1), st.integers(-(2**31), 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_add_matches_c(self, a, b):
        buf = [a, b, 0]
        run("_net_ _out_ void k(int *d) { d[2] = d[0] + d[1]; }", args=[buf])
        assert buf[2] == intops.wrap_signed(a + b, 32)


class TestControlFlow:
    SRC = (
        "_net_ _out_ void k(int *d) {"
        " if (d[0] > 10) d[1] = 1;"
        " else if (d[0] > 0) d[1] = 2;"
        " else d[1] = 3; }"
    )

    @pytest.mark.parametrize("x,want", [(20, 1), (5, 2), (0, 3), (-1, 3)])
    def test_if_chain(self, x, want):
        buf = [x, 0]
        run(self.SRC, args=[buf])
        assert buf[1] == want

    def test_loop_sum(self):
        buf = list(range(8))
        src = (
            "struct window { unsigned len; };\n"
            "_net_ _out_ void k(int *d) {"
            " int s = 0;"
            " for (unsigned i = 0; i < window.len; ++i) s += d[i];"
            " d[0] = s; }"
        )
        run(src, meta={"len": 8}, args=[buf])
        assert buf[0] == sum(range(8))

    def test_while_with_break(self):
        buf = [0]
        src = (
            "_net_ _out_ void k(int *d) {"
            " unsigned i = 0;"
            " while (1) { if (i == 5) break; ++i; }"
            " d[0] = i; }"
        )
        run(src, args=[buf])
        assert buf[0] == 5

    def test_continue(self):
        buf = [0]
        src = (
            "_net_ _out_ void k(int *d) {"
            " for (unsigned i = 0; i < 10; ++i) {"
            "   if (i & 1) continue;"
            "   d[0] += 1; } }"
        )
        run(src, args=[buf])
        assert buf[0] == 5

    def test_long_else_if_chain(self):
        # Deeper than the compiled code inlines conditional blocks.
        chain = " else ".join(f"if (d[0] == {i}) d[1] = {3 * i};" for i in range(80))
        for x in (0, 40, 79, 80):
            buf = [x, -1]
            run(f"_net_ _out_ void k(int *d) {{ {chain} }}", args=[buf])
            assert buf[1] == (3 * x if x < 80 else -1)

    def test_ternary(self):
        buf = [7, 0]
        run("_net_ _out_ void k(int *d) { d[1] = d[0] > 5 ? 100 : 200; }", args=[buf])
        assert buf[1] == 100


class TestForwarding:
    def test_default_is_pass(self):
        result, _ = run("_net_ _out_ void k(int *d) { }", args=[[0]])
        assert result.fwd is ir.FwdKind.PASS

    def test_last_decision_wins(self):
        result, _ = run(
            "_net_ _out_ void k(int *d) { _drop(); _bcast(); }", args=[[0]]
        )
        assert result.fwd is ir.FwdKind.BCAST

    def test_pass_label(self):
        result, _ = run(
            '_net_ _out_ void k(int *d) { _pass("s2"); }', args=[[0]]
        )
        assert result.fwd is ir.FwdKind.PASS and result.fwd_label == "s2"


class TestState:
    def test_net_array_persists_across_windows(self):
        mod = kernel_module(
            "_net_ unsigned total[1] = {0};\n"
            "_net_ _out_ void k(unsigned *d) { total[0] += d[0]; }"
        )
        state = DeviceState.from_module(mod)
        for v in (5, 6, 7):
            run_both(mod, "k", state, {}, [[v]])
        assert state.arrays["total"][0] == 18

    def test_out_of_bounds_raises(self):
        with pytest.raises(PisaError, match="out of range"):
            run(
                "_net_ int a[4];\n_net_ _out_ void k(int *d) { a[d[0]] = 1; }",
                args=[[10]],
            )

    def test_ctrl_read(self):
        mod = kernel_module(
            '_net_ _at_("s1") _ctrl_ unsigned n;\n'
            "_net_ _out_ void k(unsigned *d) { d[0] = n; }"
        )
        state = DeviceState.from_module(mod)
        state.ctrl_write("n", 42)
        buf = [0]
        run_both(mod, "k", state, {}, [buf])
        assert buf[0] == 42

    def test_initializers_loaded(self):
        mod = kernel_module(
            "_net_ int a[4] = {10, 20};\n"
            "_net_ _out_ void k(int *d) { d[0] = a[0] + a[1] + a[3]; }"
        )
        state = DeviceState.from_module(mod)
        buf = [0]
        run_both(mod, "k", state, {}, [buf])
        assert buf[0] == 30

    def test_location_scoping(self):
        mod = kernel_module(
            '_net_ _at_("s1") int a[2];\n_net_ _at_("s2") int b[2];\n'
            "_net_ _out_ void k(int *d) { }"
        )
        state = DeviceState.from_module(mod, location="s1")
        assert "a" in state.arrays and "b" not in state.arrays


class TestMaps:
    SRC = (
        '_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 4> M;\n'
        "_net_ _out_ void k(uint64_t key, unsigned *out) {"
        " if (auto *v = M[key]) { out[0] = 1; out[1] = *v; }"
        " else { out[0] = 0; } }"
    )

    def test_hit_and_miss(self):
        mod = kernel_module(self.SRC)
        state = DeviceState.from_module(mod)
        state.maps["M"].insert(99, 7)
        out = [0, 0]
        run_both(mod, "k", state, {}, [99, out])
        assert out == [1, 7]
        out = [0, 0]
        run_both(mod, "k", state, {}, [100, out])
        assert out[0] == 0

    def test_capacity_enforced(self):
        mod = kernel_module(self.SRC)
        state = DeviceState.from_module(mod)
        for i in range(4):
            state.maps["M"].insert(i, i)
        with pytest.raises(PisaError, match="capacity"):
            state.maps["M"].insert(5, 5)

    def test_erase(self):
        mod = kernel_module(self.SRC)
        state = DeviceState.from_module(mod)
        state.maps["M"].insert(1, 1)
        state.maps["M"].erase(1)
        assert state.maps["M"].lookup(1) == (False, 0)


class TestBloom:
    SRC = (
        '_net_ _at_("s1") ncl::BloomFilter<1024, 3> B;\n'
        "_net_ _out_ void k(uint64_t key, unsigned *out) {"
        " out[0] = ncl::bf_query(B, key);"
        " ncl::bf_insert(B, key); }"
    )

    def test_insert_then_query(self):
        mod = kernel_module(self.SRC)
        state = DeviceState.from_module(mod)
        out = [9]
        run_both(mod, "k", state, {}, [1234, out])
        assert out[0] == 0  # not yet inserted
        run_both(mod, "k", state, {}, [1234, out])
        assert out[0] == 1  # inserted by the first window

    def test_no_false_negatives(self):
        mod = kernel_module(self.SRC)
        state = DeviceState.from_module(mod)
        keys = [k * 7919 for k in range(50)]
        for key in keys:
            run_both(mod, "k", state, {}, [key, [0]])
        for key in keys:
            out = [0]
            run_both(mod, "k", state, {}, [key, out])
            assert out[0] == 1


class TestMemcpy:
    def test_param_to_global_and_back(self):
        mod = kernel_module(
            "_net_ int stash[8];\n"
            "_net_ _out_ void k(int *d) {"
            " memcpy(&stash[2], d, 16);"
            " memcpy(d, &stash[2], 16); }"
        )
        state = DeviceState.from_module(mod)
        buf = [1, 2, 3, 4]
        run_both(mod, "k", state, {}, [buf])
        assert state.arrays["stash"][2:6] == [1, 2, 3, 4]
        assert buf == [1, 2, 3, 4]

    def test_row_copy_2d(self):
        mod = kernel_module(
            "_net_ unsigned m[4][2];\n"
            "_net_ _out_ void k(unsigned *d, unsigned row) {"
            " memcpy(m[row], d, 8); }"
        )
        state = DeviceState.from_module(mod)
        run_both(mod, "k", state, {}, [[7, 8], 3])
        assert state.arrays["m"][6:8] == [7, 8]

    def test_overrun_raises(self):
        mod = kernel_module(
            "_net_ int a[2];\n_net_ _out_ void k(int *d) { memcpy(a, d, 16); }"
        )
        state = DeviceState.from_module(mod)
        with pytest.raises(PisaError):
            run_both(mod, "k", state, {}, [[1, 2, 3, 4]])


class TestHelpers:
    def test_helper_inlined_semantics(self):
        buf = [250, 0]
        run(
            "int clamp(int v) { return v > 100 ? 100 : v; }\n"
            "_net_ _out_ void k(int *d) { d[1] = clamp(d[0]); }",
            args=[buf],
        )
        assert buf[1] == 100

    def test_helper_fwd_propagates(self):
        result, _ = run(
            "void decide(int v) { if (v) _drop(); }\n"
            "_net_ _out_ void k(int *d) { decide(d[0]); }",
            args=[[1]],
        )
        assert result.fwd is ir.FwdKind.DROP


class TestWindowMeta:
    def test_builtin_fields(self):
        buf = [0, 0, 0]
        run(
            "_net_ _out_ void k(unsigned *d) {"
            " d[0] = window.seq; d[1] = window.from; d[2] = window.last; }",
            meta={"seq": 9, "from": 3, "last": 1},
            args=[buf],
        )
        assert buf == [9, 3, 1]

    def test_missing_field_raises(self):
        with pytest.raises(PisaError, match="not bound"):
            run(
                "struct window { unsigned len; };\n"
                "_net_ _out_ void k(unsigned *d) { d[0] = window.len; }",
                meta={"seq": 0},
                args=[[0]],
            )

    def test_location_id(self):
        buf = [0]
        run(
            "_net_ _out_ void k(unsigned *d) { d[0] = location.id; }",
            args=[buf],
            location_id=7,
        )
        assert buf[0] == 7

    def test_locid_labels(self):
        result, _ = run(
            '_net_ _out_ void k(unsigned *d) {'
            ' if (location.id == _locid("s2")) _drop(); }',
            args=[[0]],
            location_id=5,
            location_labels={"s2": 5},
        )
        assert result.fwd is ir.FwdKind.DROP


class TestErrorsAgree:
    """Error paths: ``run_both`` requires the compiled executor to raise
    the reference's error, type and message."""

    def test_step_budget(self, monkeypatch):
        from repro.nir import interp

        monkeypatch.setattr(interp, "_MAX_STEPS", 500)
        with pytest.raises(PisaError, match="k: step budget exceeded"):
            run("_net_ _out_ void k(int *d) { while (1) { d[0] += 1; } }", args=[[0]])

    def test_non_integer_operand(self):
        with pytest.raises(PisaError, match="expected integer, got list"):
            run(
                "_net_ _out_ void k(unsigned x, unsigned *d) { d[0] = x + 1; }",
                args=[[1, 2], [0]],
            )

    def test_indexing_a_scalar_parameter(self):
        with pytest.raises(PisaError, match="indexing a scalar parameter"):
            run("_net_ _out_ void k(unsigned *d) { d[0] = d[1]; }", args=[5])

    def test_store_to_a_scalar_parameter(self):
        with pytest.raises(PisaError, match=r"cannot store to d\[0\]"):
            run("_net_ _out_ void k(unsigned *d) { d[0] = 1; }", args=[5])

    def test_window_data_index_out_of_range(self):
        with pytest.raises(PisaError, match="window-data index 5 out of range for d"):
            run("_net_ _out_ void k(unsigned *d) { d[0] = d[5]; }", args=[[1, 2]])

    def test_load_out_of_bounds(self):
        with pytest.raises(PisaError, match=r"index 4294967295 out of range for a \[4 elements\]"):
            run(
                "_net_ int a[4];\n_net_ _out_ void k(int *d) { d[0] = a[d[0]]; }",
                args=[[-1]],
            )

    @pytest.mark.parametrize(
        "decl, use, drop, message",
        [
            ("_net_ int a[4];", "d[0] = a[1];", ("arrays", "a"), "global 'a' not present"),
            ('_net_ _at_("s1") _ctrl_ unsigned n;', "d[0] = n;", ("ctrl", "n"), "control variable 'n'"),
            (
                '_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 4> M;',
                "if (auto *v = M[d[0]]) d[0] = *v;",
                ("maps", "M"),
                "Map 'M' not present",
            ),
            (
                "_net_ ncl::BloomFilter<64, 2> B;",
                "d[0] = ncl::bf_query(B, d[0]);",
                ("blooms", "B"),
                "BloomFilter 'B' not on device",
            ),
        ],
    )
    def test_state_absent_from_device(self, decl, use, drop, message):
        mod = kernel_module(f"{decl}\n_net_ _out_ void k(unsigned *d) {{ {use} }}")
        state = DeviceState.from_module(mod)
        del getattr(state, drop[0])[drop[1]]
        with pytest.raises(PisaError, match=message):
            run_both(mod, "k", state, {}, [[1]])

    def test_unresolved_location_label(self):
        with pytest.raises(PisaError, match="unresolved location label 's9'"):
            run('_net_ _out_ void k(unsigned *d) { d[0] = _locid("s9"); }', args=[[0]])


def _handmade(build):
    """A one-kernel module whose function *build(fn)* fills in."""
    fn = ir.Function("k", ir.FunctionKind.HELPER, [], U32)
    build(fn)
    mod = ir.Module("m")
    mod.add_function(fn)
    return mod


class TestHandmadeIr:
    """IR the lowerer does not produce, run through ``run_both``."""

    def test_use_of_unevaluated_value(self):
        def build(fn):
            entry, dead, tail = fn.new_block("entry"), fn.new_block("dead"), fn.new_block("tail")
            entry.append(ir.Br(tail))
            value = dead.append(ir.BinOp("add", ir.Const(U32, 1), ir.Const(U32, 2), U32))
            dead.append(ir.Br(tail))
            tail.append(ir.Ret(tail.append(ir.BinOp("add", value, ir.Const(U32, 1), U32))))

        with pytest.raises(PisaError, match=r"use of unevaluated %\d+ \(%\d+ = add"):
            run_both(_handmade(build), "k", DeviceState(), {}, [])

    def test_phi_without_incoming_edge(self):
        def build(fn):
            entry, other, join = fn.new_block("entry"), fn.new_block("other"), fn.new_block("join")
            entry.append(ir.Br(join))
            other.append(ir.Br(join))
            phi = ir.Phi(U32)
            phi.add_incoming(ir.Const(U32, 7), other)
            join.append(phi)
            join.append(ir.Ret(phi))

        with pytest.raises(PisaError, match=r"phi %\d+ has no incoming for entry0"):
            run_both(_handmade(build), "k", DeviceState(), {}, [])

    def test_fell_off_block_end(self):
        def build(fn):
            fn.new_block("entry").append(ir.Fwd(ir.FwdKind.DROP))

        with pytest.raises(PisaError, match="k/entry0: fell off block end"):
            run_both(_handmade(build), "k", DeviceState(), {}, [])

    def test_stack_slots_and_select(self):
        def build(fn):
            entry = fn.new_block("entry")
            slot = entry.append(ir.Alloca(U32, "x"))
            unread = entry.append(ir.Load(slot))  # an unstored slot reads 0
            entry.append(ir.Store(slot, ir.Const(U32, 40)))
            loaded = entry.append(ir.Load(slot))
            total = entry.append(ir.BinOp("add", loaded, unread, U32))
            # The untaken arm of a select is never evaluated.
            dead = ir.BinOp("add", ir.Const(U32, 0), ir.Const(U32, 0), U32)
            pick = entry.append(ir.Select(ir.Const(BOOL, 1), total, dead, U32))
            entry.append(ir.Ret(entry.append(ir.BinOp("add", pick, ir.Const(U32, 2), U32))))

        assert run_both(_handmade(build), "k", DeviceState(), {}, []).ret == 42

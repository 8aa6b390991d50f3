"""HostProgram: executing NCL host code (main) against a live cluster."""

import pytest

from repro.errors import RuntimeApiError
from repro.nclc import Compiler, WindowConfig
from repro.runtime import Cluster, HostProgram

UNIFIED = r"""
struct window { unsigned len; };
_net_ _at_("s1") int accum[16] = {0};
_net_ _at_("s1") unsigned count[4] = {0};
_net_ _at_("s1") _ctrl_ unsigned nworkers;

int data[16];
int result_buf[16];
bool done = false;
int rounds = 0;

_net_ _out_ void allreduce(int *d) {
  unsigned base = window.seq * window.len;
  for (unsigned i = 0; i < window.len; ++i)
    accum[base + i] += d[i];
  if (++count[window.seq] == nworkers) {
    memcpy(d, &accum[base], window.len * 4);
    count[window.seq] = 0; _bcast();
  } else { _drop(); }
}

_net_ _in_ void result(int *d, _ext_ int *hdata, _ext_ bool *flag) {
  for (unsigned i = 0; i < window.len; ++i)
    hdata[window.seq * window.len + i] = d[i];
  if (window.last) *flag = true;
}

int fill(int scale) {
  for (unsigned i = 0; i < 16; ++i) data[i] = (int)i * scale;
  return scale;
}

int main() {
  ncl::ctrl_wr(&nworkers, 1);
  fill(2);
  ncl::out(allreduce, {data});
  while (!done) {
    ncl::in(result, {result_buf, &done});
    rounds = rounds + 1;
  }
  return rounds;
}
"""

AND = "host w0\nswitch s1\nlink w0 s1"


@pytest.fixture()
def cluster():
    program = Compiler().compile(
        UNIFIED,
        and_text=AND,
        windows={"allreduce": WindowConfig(mask=(4,), ext={"len": 4})},
    )
    return Cluster.from_program(program)


class TestUnifiedExecution:
    def test_main_runs_to_completion(self, cluster):
        hp = HostProgram(cluster, "w0")
        rc = hp.run("main")
        assert rc == 4  # 16 elements / window 4 = 4 in() iterations
        state = cluster.host("w0").state
        assert state.arrays["result_buf"] == [i * 2 for i in range(16)]
        assert state.arrays["done"] == [1]

    def test_helper_function_callable(self, cluster):
        hp = HostProgram(cluster, "w0")
        assert hp.run("fill", [3]) == 3
        assert cluster.host("w0").state.arrays["data"][5] == 15

    def test_ctrl_wr_applied(self, cluster):
        hp = HostProgram(cluster, "w0")
        hp.run("main")
        assert cluster.controller.ctrl_rd("nworkers") == 1

    def test_missing_function_raises(self, cluster):
        hp = HostProgram(cluster, "w0")
        with pytest.raises(RuntimeApiError, match="no host function"):
            hp.run("nonexistent")


HOST_SEMANTICS = r"""
int scratch[8];

_net_ _out_ void dummy(int *d) { }

int arith() {
  int x = 2147483647;
  x = x + 1;                 // wraps
  if (x != -2147483648) return 1;
  unsigned u = 0;
  u = u - 1;
  if (u != 4294967295u) return 2;
  int q = -7 / 2;
  if (q != -3) return 3;
  return 0;
}

int shortcircuit() {
  int hits = 0;
  // rhs must not evaluate: division by zero would trap
  if (0 && (1 / 0)) hits = 99;
  if (1 || (1 / 0)) hits = hits + 1;
  return hits;
}

int loops() {
  int total = 0;
  for (int i = 0; i < 10; ++i) {
    if (i == 3) continue;
    if (i == 7) break;
    total += i;
  }
  int j = 0;
  while (j < 4) { ++j; }
  return total * 100 + j;
}

int pointers() {
  scratch[2] = 5;
  scratch[2] += 10;
  return scratch[2];
}
"""


@pytest.fixture()
def host_sema_cluster():
    program = Compiler().compile(HOST_SEMANTICS, windows={"dummy": WindowConfig(mask=(1,))})
    return Cluster.from_program(program)


class TestHostCSemantics:
    def test_fixed_width_arithmetic(self, host_sema_cluster):
        hp = HostProgram(host_sema_cluster, "h0")
        assert hp.run("arith") == 0

    def test_short_circuit_unlike_kernels(self, host_sema_cluster):
        hp = HostProgram(host_sema_cluster, "h0")
        assert hp.run("shortcircuit") == 1

    def test_loop_control(self, host_sema_cluster):
        hp = HostProgram(host_sema_cluster, "h0")
        # 0+1+2+4+5+6 = 18; j ends at 4
        assert hp.run("loops") == 1804

    def test_global_array_mutation(self, host_sema_cluster):
        hp = HostProgram(host_sema_cluster, "h0")
        assert hp.run("pointers") == 15
        assert host_sema_cluster.host("h0").state.arrays["scratch"][2] == 15


MAP_HOST = r"""
_net_ _at_("s1") ncl::Map<uint64_t, uint8_t, 8> Idx;
_net_ _at_("s1") bool Valid[8] = {false};

_net_ _out_ void probe(uint64_t key, unsigned *out) {
  if (auto *slot = Idx[key]) out[0] = 100 + *slot;
  else out[0] = 0;
}

int setup() {
  ncl::map_insert(&Idx, 42, 3);
  ncl::map_insert(&Idx, 43, 4);
  ncl::map_erase(&Idx, 43);
  return 0;
}
"""


class TestHostMapManagement:
    def test_map_insert_and_erase_from_ncl(self):
        from repro.nclc import Compiler, WindowConfig
        from repro.runtime import Cluster, HostProgram

        program = Compiler().compile(
            MAP_HOST,
            and_text="host a\nhost b\nswitch s1\nlink a s1\nlink s1 b",
            windows={"probe": WindowConfig(mask=(1, 1))},
        )
        cluster = Cluster.from_program(program)
        hp = HostProgram(cluster, "a")
        hp.run("setup")
        assert cluster.controller.map_entries("Idx") == {42: 3}
        got = []
        cluster.hosts["b"].on_raw_window("probe", lambda w, h: got.append(w.chunks[1][0]))
        cluster.hosts["a"].out_window("probe", 0, [[42], [0]], dst="b")
        cluster.hosts["a"].out_window("probe", 1, [[43], [0]], dst="b")
        cluster.run()
        assert got == [103, 0]


# Host main() and the NIR interpreter must agree on every C conversion.
# Each case is (statements, expression, value): the kernel stores the
# expression into an int64_t window slot, the host function returns it as
# an int64_t, and both must give *value* -- what gcc gives on x86-64 except
# where marked. NCL types integer literals by value (a ``u`` suffix is
# accepted and ignored), so unsigned operands come from typed variables.
C_CONVERSION_CASES = [
    ("int s = -1; unsigned u = 1;", "s < u", 0),
    ("int s = -7; unsigned u = 2;", "s / u", 2147483644),
    ("int s = -7; unsigned u = 2;", "s % u", 1),
    ("int s = -7; unsigned u = 3;", "s % u", 0),
    ("int s = -16;", "s >> 2", -4),
    ("unsigned u = 4294967280;", "u >> 2", 1073741820),
    # NCL types a shift by the common type (C: the left operand's, -4)
    ("int s = -16; unsigned u = 2;", "s >> u", 1073741820),
    ("char c = 127; c = c + 1;", "c", -128),
    ("char c = 200;", "c", -56),
    ("unsigned short h = 65535; int i = -1;", "h > i", 1),
    ("long l = -1; unsigned u = 1;", "l < u", 1),
    # compound assignments convert the operand to the target type first
    # (C computes in the common type: 2147483644 and 1)
    ("int x = -7; unsigned u = 2; x /= u;", "x", -3),
    ("int x = -7; unsigned u = 2; x %= u;", "x", -1),
    ("unsigned v = 7; int n = -2; v /= n;", "v", 0),
    ("unsigned v = 7; int n = -2; v %= n;", "v", 7),
    ("int i = 256; bool b = i;", "b", 1),
    ("int i = 256; bool b = false; b = i;", "b", 1),
    ("int i = 200; char c = 0; c = i;", "c", -56),
    ("unsigned u = 1;", "-u", 4294967295),
    ("char c = 0;", "~c", -1),
    ("int i = 300;", "(uint8_t)i + (int8_t)i", 88),
    ("uint8_t b = 255; b++;", "b", 0),
    ("int one = 1; int n = 33;", "one << n", 2),
    ("uint64_t big = 0; big = big - 1;", "big > 0", 1),
]


class TestHostMatchesKernelSemantics:
    def test_conversion_table(self):
        from repro.nir.interp import DeviceState, run_kernel
        from tests.diffutil import kernel_module

        kernels, hosts = [], []
        for i, (stmts, expr, _) in enumerate(C_CONVERSION_CASES):
            kernels.append(f"_net_ _out_ void k{i}(int64_t *out) {{ {stmts} out[0] = {expr}; }}")
            hosts.append(f"int64_t f{i}() {{ {stmts} int64_t r = {expr}; return r; }}")
        module = kernel_module("\n".join(kernels))
        program = Compiler().compile(
            "_net_ _out_ void dummy(int *d) { }\n" + "\n".join(hosts),
            windows={"dummy": WindowConfig(mask=(1,))},
        )
        hp = HostProgram(Cluster.from_program(program), "h0")
        for i, (stmts, expr, value) in enumerate(C_CONVERSION_CASES):
            out = [0]
            run_kernel(module, f"k{i}", DeviceState.from_module(module), {}, [out])
            assert (hp.run(f"f{i}"), out[0]) == (value, value), f"{stmts} {expr}"

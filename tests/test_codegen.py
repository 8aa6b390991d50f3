"""Code generation: the compiled P4 program must be observationally
equivalent to the NIR reference interpreter -- the central compiler
correctness invariant (differential testing, DESIGN.md S5)."""

import random

import pytest

from repro.ncl.types import PointerType, is_signed, scalar_bits
from repro.nclc import Compiler, WindowConfig
from repro.ncp.wire import decode_frame, encode_frame
from repro.nir import ir
from repro.nir.interp import DeviceState
from repro.p4.model import FWD_PASS, META_FWD, META_FWD_LABEL, NO_LABEL
from repro.pisa.pipeline import Pipeline, RegisterState
from repro.pisa.switch_dev import FWD_NAMES, PisaSwitch
from repro.util import intops

from tests.diffutil import run_both

from tests.conftest import (
    ALLREDUCE_DEFINES,
    ALLREDUCE_SRC,
    KVS_AND,
    KVS_DEFINES,
    KVS_SRC,
    STAR_AND,
)

_FWD_NAME = {
    ir.FwdKind.PASS: "pass",
    ir.FwdKind.DROP: "drop",
    ir.FwdKind.BCAST: "bcast",
    ir.FwdKind.REFLECT: "reflect",
}


def clone_registers(registers: RegisterState) -> RegisterState:
    new = RegisterState(registers.program)
    new.arrays = {name: list(values) for name, values in registers.arrays.items()}
    return new


class DifferentialRig:
    """Runs the same window stream through every executor of the kernel and
    compares everything they observe:

    * the P4 program on a PisaSwitch, whose pipeline runs compiled code;
    * ``Pipeline.reference_run`` on a clone of the parsed PHV and of the
      switch registers taken before that run;
    * ``Interpreter.run`` (compiled NIR) on the reference device state, and
      ``Interpreter.reference_run`` on a clone of that state and window
      (``tests.diffutil.run_both``).
    """

    def __init__(self, program, kernel: str, location: str = "s1"):
        self.program = program
        self.kernel = kernel
        self.layout = program.layouts[kernel]
        self.switch = PisaSwitch(program.switch_programs[location], location)
        # Shares the program (so table entries) and mirrors the switch's stats.
        self.ref_pipeline = Pipeline(self.switch.program)
        self.state = DeviceState.from_module(program.ref_module, location=location)
        self.fn = program.ref_module.functions[kernel]
        self.location_id = program.and_spec.node(location).node_id
        self.label_ids = program.label_ids
        # Deployment would populate routes; give every AND node one so the
        # template's route-miss policy doesn't mask kernel verdicts.
        from repro.ncp.wire import node_ip

        for node in program.and_spec.nodes.values():
            self.switch.table_insert(
                "ipv4_route", [node_ip(node.node_id)], "ipv4_forward", [0]
            )

    def set_ctrl(self, name: str, value: int, index: int = 0) -> None:
        # The register may not exist when the optimizer proved the ctrl
        # variable unread; the reference state is still updated (reads of
        # it cannot exist either, so no divergence is possible).
        if f"reg_{name}" in self.switch.registers.arrays:
            self.switch.ctrl_register_write(f"reg_{name}", value, index)
        if isinstance(self.state.ctrl.get(name), list):
            self.state.ctrl_write(name, value, index)
        else:
            self.state.ctrl_write(name, value)

    def map_insert(self, name: str, key: int, value: int) -> None:
        self.switch.table_insert(f"map_{name}", [key], f"map_{name}_hit", [value])
        self.state.maps[name].insert(key, value)

    def run_window(self, meta, chunks, src=0, dst=1):
        # --- hardware path ---
        frame = encode_frame(
            self.layout,
            src_node=src,
            dst_node=dst,
            seq=meta.get("seq", 0),
            chunks=[list(c) for c in chunks],
            ext_values={k: v for k, v in meta.items() if k not in ("seq", "from", "last")},
            last=bool(meta.get("last", 0)),
            from_node=meta.get("from", src),
        )
        ref_phv = self.switch.parser.parse(frame)
        ref_phv.write(META_FWD, FWD_PASS)
        ref_phv.write(META_FWD_LABEL, NO_LABEL)
        self.ref_pipeline.registers = clone_registers(self.switch.registers)
        result = self.switch.process(frame)
        hw_chunks = decode_frame(result.data, {self.layout.kernel_id: self.layout}).chunks
        self.ref_pipeline.reference_run(ref_phv)
        self.compare_pipelines(result, ref_phv)

        # --- NIR paths ---
        args = []
        ref_chunks = []
        data_params = [p for p in self.fn.params if not p.ext]
        for param, chunk in zip(data_params, chunks):
            if isinstance(param.ty, PointerType):
                buf = list(chunk)
                ref_chunks.append(buf)
                args.append(buf)
            else:
                ref_chunks.append(list(chunk))
                args.append(chunk[0])
        ref_result = run_both(
            self.program.ref_module, self.kernel, self.state, dict(meta), args,
            self.location_id, self.label_ids,
        )

        assert result.verdict == _FWD_NAME[ref_result.fwd], (
            f"verdict mismatch for meta={meta}: hw={result.verdict} "
            f"ref={_FWD_NAME[ref_result.fwd]}"
        )
        # Window data: scalars can't be modified in ref (bound by value);
        # compare pointer chunks only.
        for param, hw_chunk, ref_chunk in zip(data_params, hw_chunks, ref_chunks):
            if isinstance(param.ty, PointerType):
                assert hw_chunk == ref_chunk, (
                    f"window data mismatch for {param.name}: hw={hw_chunk} "
                    f"ref={ref_chunk} (meta={meta})"
                )
        self.compare_state()
        return result

    def compare_pipelines(self, result, ref_phv):
        """Compiled pipeline == reference pipeline: verdict, output packet,
        registers, stats and tables matched."""
        pipeline = self.switch.pipeline
        label = ref_phv.read(META_FWD_LABEL)
        assert (result.verdict, result.label_id) == (
            FWD_NAMES[ref_phv.read(META_FWD)], None if label == NO_LABEL else label
        ), "compiled pipeline verdict diverged from reference_run"
        assert result.data == self.switch.deparser.deparse(ref_phv), (
            "compiled pipeline output packet diverged from reference_run"
        )
        assert pipeline.registers.arrays == self.ref_pipeline.registers.arrays, (
            "compiled pipeline registers diverged from reference_run"
        )
        assert pipeline.stats.as_dict() == self.ref_pipeline.stats.as_dict()
        assert pipeline.last_tables_matched == self.ref_pipeline.last_tables_matched

    def compare_state(self):
        for name, ref_values in self.state.arrays.items():
            reg = f"reg_{name}"
            if reg not in self.switch.registers.arrays:
                continue
            gref = self.program.ref_module.globals[name]
            elem = gref.elem_type
            bits, signed = scalar_bits(elem), is_signed(elem)
            hw = [
                intops.wrap(v, bits, signed)
                for v in self.switch.registers.arrays[reg]
            ]
            assert hw == list(ref_values), f"register {name} diverged"


@pytest.fixture(scope="module")
def allreduce_rig():
    program = Compiler().compile(
        ALLREDUCE_SRC,
        and_text=STAR_AND,
        windows={"allreduce": WindowConfig(mask=(4,), ext={"len": 4})},
        defines=ALLREDUCE_DEFINES,
    )
    return program


class TestAllReduceDifferential:
    def test_random_window_stream(self, allreduce_rig):
        rig = DifferentialRig(allreduce_rig, "allreduce")
        rig.set_ctrl("nworkers", 3)
        rng = random.Random(42)
        for _ in range(60):
            meta = {
                "seq": rng.randrange(16),
                "from": rng.randrange(3),
                "last": rng.randrange(2),
                "len": 4,
            }
            chunk = [rng.randint(-(2**31), 2**31 - 1) for _ in range(4)]
            rig.run_window(meta, [chunk])

    def test_bcast_exactly_on_nth_contribution(self, allreduce_rig):
        rig = DifferentialRig(allreduce_rig, "allreduce")
        rig.set_ctrl("nworkers", 2)
        r1 = rig.run_window({"seq": 0, "from": 0, "last": 0, "len": 4}, [[1, 2, 3, 4]])
        assert r1.verdict == "drop"
        r2 = rig.run_window({"seq": 0, "from": 1, "last": 0, "len": 4}, [[5, 5, 5, 5]])
        assert r2.verdict == "bcast"
        out = decode_frame(
            r2.data, {rig.layout.kernel_id: rig.layout}
        )
        assert out.chunks == [[6, 7, 8, 9]]


@pytest.fixture(scope="module")
def kvs_rig_program():
    return Compiler().compile(
        KVS_SRC,
        and_text=KVS_AND,
        windows={"query": WindowConfig(mask=(1, 4, 1))},
        defines=KVS_DEFINES,
    )


class TestKvsDifferential:
    def test_random_query_stream(self, kvs_rig_program):
        rig = DifferentialRig(kvs_rig_program, "query")
        for key, slot in [(11, 0), (22, 1), (33, 2)]:
            rig.map_insert("Idx", key, slot)
        rng = random.Random(7)
        keys = [11, 22, 33, 44, 55]
        for _ in range(80):
            meta = {
                "seq": rng.randrange(8),
                "from": rng.choice([0, 1, 2]),  # clients 0/1, server 2
                "last": 0,
            }
            chunks = [
                [rng.choice(keys)],
                [rng.randrange(2**32) for _ in range(4)],
                [rng.randrange(2)],
            ]
            rig.run_window(meta, chunks)

    def test_get_hit_reflects_with_value(self, kvs_rig_program):
        rig = DifferentialRig(kvs_rig_program, "query")
        rig.map_insert("Idx", 7, 3)
        # server populates slot 3
        r = rig.run_window(
            {"seq": 0, "from": 2, "last": 0}, [[7], [100, 200, 300, 400], [1]]
        )
        assert r.verdict == "drop"
        # client GET hits
        r = rig.run_window({"seq": 1, "from": 0, "last": 0}, [[7], [0, 0, 0, 0], [0]])
        assert r.verdict == "reflect"
        out = decode_frame(r.data, {rig.layout.kernel_id: rig.layout})
        assert out.chunks[1] == [100, 200, 300, 400]

    def test_put_invalidates(self, kvs_rig_program):
        rig = DifferentialRig(kvs_rig_program, "query")
        rig.map_insert("Idx", 9, 1)
        rig.run_window({"seq": 0, "from": 2, "last": 0}, [[9], [1, 1, 1, 1], [1]])
        # client PUT -> invalidate, pass to server
        r = rig.run_window({"seq": 1, "from": 0, "last": 0}, [[9], [2, 2, 2, 2], [1]])
        assert r.verdict == "pass"
        # client GET now misses (invalid)
        r = rig.run_window({"seq": 2, "from": 1, "last": 0}, [[9], [0, 0, 0, 0], [0]])
        assert r.verdict == "pass"

    def test_reflect_swaps_addresses(self, kvs_rig_program):
        rig = DifferentialRig(kvs_rig_program, "query")
        rig.map_insert("Idx", 5, 0)
        rig.run_window({"seq": 0, "from": 2, "last": 0}, [[5], [9, 9, 9, 9], [1]])
        r = rig.run_window(
            {"seq": 1, "from": 0, "last": 0}, [[5], [0, 0, 0, 0], [0]], src=0, dst=2
        )
        decoded = decode_frame(r.data, {rig.layout.kernel_id: rig.layout})
        assert decoded.dst_node == 0  # reflected back to the client
        assert decoded.src_node == 2


class TestGeneratedProgramShape:
    def test_allreduce_program_inventory(self, allreduce_rig):
        p = allreduce_rig.switch_programs["s1"]
        assert "reg_accum" in p.registers
        assert "reg_count" in p.registers
        assert "reg_nworkers" in p.registers
        assert p.registers["reg_accum"].size == ALLREDUCE_DEFINES["DATA_LEN"]
        assert "ipv4_route" in p.tables

    def test_kvs_program_inventory(self, kvs_rig_program):
        p = kvs_rig_program.switch_programs["s1"]
        assert "map_Idx" in p.tables
        assert p.tables["map_Idx"].managed_by == "control-plane"
        assert p.registers["reg_Cache"].size == 16 * 4
        assert p.registers["reg_Valid"].size == 16

    def test_parser_dispatches_on_kernel_id(self, allreduce_rig):
        p = allreduce_rig.switch_programs["s1"]
        ncp_state = next(s for s in p.parser if s.name == "parse_ncp")
        assert ncp_state.select_field == "ncp.kernel_id"
        assert ncp_state.transitions

    def test_reports_accepted(self, allreduce_rig, kvs_rig_program):
        assert allreduce_rig.reports["s1"].stages >= 1
        assert kvs_rig_program.reports["s1"].stages >= 2  # map apply + compute

    def test_non_ncp_traffic_routed_not_executed(self, allreduce_rig):
        sw = PisaSwitch(allreduce_rig.switch_programs["s1"])
        from repro.ncp.wire import ETH, ETHERTYPE_IPV4, IPV4, node_ip

        sw.table_insert("ipv4_route", [node_ip(1)], "ipv4_forward", [2])
        eth = ETH.pack({"dst": 1, "src": 2, "ethertype": ETHERTYPE_IPV4})
        ipv4 = IPV4.pack(
            {"version_ihl": 0x45, "ttl": 64, "proto": 6, "src": node_ip(0), "dst": node_ip(1)},
        )
        result = sw.process(eth + ipv4 + b"tcp-payload")
        assert result.verdict == "pass"
        assert result.phv.read("meta.egress_port") == 2
        assert result.data.endswith(b"tcp-payload")

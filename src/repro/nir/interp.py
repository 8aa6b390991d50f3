"""NIR interpreter.

Executes a kernel function against a window and some device state. This
is the *reference semantics* of NCL: the PISA-compiled switch program is
differentially tested against it, and hosts use it directly to run
incoming kernels (the "host binary" of the paper's dual pipeline).

The interpreter is deliberately strict: out-of-bounds element accesses
raise instead of wrapping, because on a real switch they would be
compile-time-impossible (register arrays are sized) and we want tests to
catch miscompiled indices.
"""

from __future__ import annotations

from typing import Dict, List, MutableSequence, Optional, Sequence, Tuple

from repro.errors import PisaError
from repro.ncl.types import (
    ArrayType,
    BloomFilterType,
    MapType,
    PointerType,
    Type,
    is_signed,
    scalar_bits,
    sizeof,
)
from repro.nir import ir
from repro.util import intops


class MapState:
    """Runtime state of an ``ncl::Map``: an exact-match table whose entries
    are inserted/removed by the control plane only."""

    def __init__(self, ty: MapType):
        self.ty = ty
        self.entries: Dict[int, int] = {}

    def insert(self, key: int, value: int) -> None:
        if len(self.entries) >= self.ty.capacity and key not in self.entries:
            raise PisaError(
                f"Map capacity exceeded ({self.ty.capacity} entries)"
            )
        self.entries[int(key)] = int(value)

    def erase(self, key: int) -> None:
        self.entries.pop(int(key), None)

    def lookup(self, key: int) -> Tuple[bool, int]:
        key = int(key)
        if key in self.entries:
            return True, self.entries[key]
        return False, 0


class BloomState:
    """Runtime state of an ``ncl::BloomFilter``."""

    def __init__(self, ty: BloomFilterType):
        self.ty = ty
        self.bits = [0] * ty.nbits

    def _positions(self, key: int) -> List[int]:
        positions = []
        h = key & 0xFFFFFFFFFFFFFFFF
        for i in range(self.ty.nhashes):
            # Simple multiplicative double hashing; deterministic across runs.
            h1 = (h * 0x9E3779B97F4A7C15 + i) & 0xFFFFFFFFFFFFFFFF
            h2 = (h ^ (h >> 33)) * 0xC2B2AE3D27D4EB4F & 0xFFFFFFFFFFFFFFFF
            positions.append((h1 + i * h2) % self.ty.nbits)
        return positions

    def insert(self, key: int) -> None:
        for pos in self._positions(key):
            self.bits[pos] = 1

    def query(self, key: int) -> bool:
        return all(self.bits[pos] for pos in self._positions(key))


class DeviceState:
    """Mutable state of one NCP-capable device (switch or host side).

    ``arrays`` holds ``_net_`` register arrays (and host globals when the
    interpreter runs incoming kernels); ``ctrl`` holds control variables;
    ``maps``/``blooms`` the stdlib containers.
    """

    def __init__(self) -> None:
        self.arrays: Dict[str, List[int]] = {}
        self.ctrl: Dict[str, object] = {}
        self.maps: Dict[str, MapState] = {}
        self.blooms: Dict[str, BloomState] = {}

    @classmethod
    def from_module(
        cls, module: ir.Module, location: Optional[str] = None
    ) -> "DeviceState":
        """Instantiate state for all globals visible at *location*.

        ``location=None`` instantiates everything (useful for tests);
        otherwise only location-less globals and those pinned to the
        given label exist on the device (paper S4.1).
        """
        state = cls()
        for ref in module.globals.values():
            if ref.space == "host":
                continue
            if location is not None and ref.at_label is not None and ref.at_label != location:
                continue
            state.instantiate(ref)
        return state

    def instantiate(self, ref: ir.GlobalRef) -> None:
        if ref.space == "map":
            assert isinstance(ref.ty, MapType)
            self.maps[ref.name] = MapState(ref.ty)
        elif ref.space == "bloom":
            assert isinstance(ref.ty, BloomFilterType)
            self.blooms[ref.name] = BloomState(ref.ty)
        elif ref.space == "ctrl":
            if isinstance(ref.ty, ArrayType):
                init = ref.init if ref.init is not None else [0] * ref.total_elements
                self.ctrl[ref.name] = list(init)
            else:
                self.ctrl[ref.name] = ref.init[0] if ref.init else 0
        else:
            init = ref.init if ref.init is not None else [0] * ref.total_elements
            values = list(init)
            if len(values) < ref.total_elements:
                values.extend([0] * (ref.total_elements - len(values)))
            self.arrays[ref.name] = values

    def ctrl_write(self, name: str, value, index: Optional[int] = None) -> None:
        """Control-plane write to a _ctrl_ variable (host-only path)."""
        if name not in self.ctrl:
            raise PisaError(f"unknown control variable {name!r}")
        if index is None:
            self.ctrl[name] = value
        else:
            self.ctrl[name][index] = value  # type: ignore[index]

    def snapshot(self) -> Dict[str, object]:
        return {
            "arrays": {k: list(v) for k, v in self.arrays.items()},
            "ctrl": {
                k: (list(v) if isinstance(v, list) else v) for k, v in self.ctrl.items()
            },
            "maps": {k: dict(v.entries) for k, v in self.maps.items()},
        }


class WindowContext:
    """Everything a kernel invocation sees about the current window."""

    def __init__(
        self,
        meta: Dict[str, int],
        args: Sequence[object],
        location_id: int = 0,
        location_labels: Optional[Dict[str, int]] = None,
    ):
        self.meta = dict(meta)
        self.args = list(args)
        self.location_id = location_id
        self.location_labels = dict(location_labels or {})


class InterpResult:
    """Outcome of interpreting a kernel on one window."""

    def __init__(self, fwd: ir.FwdKind, fwd_label: Optional[str], ret: Optional[int]):
        self.fwd = fwd
        self.fwd_label = fwd_label
        self.ret = ret

    def __repr__(self) -> str:
        label = f' "{self.fwd_label}"' if self.fwd_label else ""
        return f"InterpResult({self.fwd.name.lower()}{label})"


_MAX_STEPS = 1_000_000


class Interpreter:
    def __init__(self, module: ir.Module, state: DeviceState):
        self.module = module
        self.state = state

    def run(self, fn: ir.Function, ctx: WindowContext) -> InterpResult:
        if len(ctx.args) != len(fn.params):
            raise PisaError(
                f"{fn.name}: expected {len(fn.params)} args, got {len(ctx.args)}"
            )
        return _FrameInterp(self, fn, ctx).run()


class _FrameInterp:
    def __init__(self, parent: Interpreter, fn: ir.Function, ctx: WindowContext):
        self.parent = parent
        self.state = parent.state
        self.module = parent.module
        self.fn = fn
        self.ctx = ctx
        self.values: Dict[int, object] = {}
        self.fwd = ir.FwdKind.PASS
        self.fwd_label: Optional[str] = None
        self.steps = 0

    # -- value plumbing -----------------------------------------------------

    def value_of(self, value: ir.Value) -> object:
        if isinstance(value, ir.Const):
            return value.value
        if isinstance(value, ir.Param):
            return self.ctx.args[value.index]
        if isinstance(value, ir.Undef):
            return 0
        if isinstance(value, ir.Instr):
            if value.id not in self.values:
                raise PisaError(f"use of unevaluated %{value.id} ({value.render()})")
            return self.values[value.id]
        raise PisaError(f"cannot evaluate {value!r}")

    def int_of(self, value: ir.Value) -> int:
        v = self.value_of(value)
        if not isinstance(v, int):
            raise PisaError(f"expected integer, got {type(v).__name__}")
        return v

    def _wrap(self, raw: int, ty: Type) -> int:
        if not ty.is_scalar:
            return raw
        return intops.wrap(raw, scalar_bits(ty), is_signed(ty))

    # -- execution loop ---------------------------------------------------------

    def run(self) -> InterpResult:
        block = self.fn.entry
        prev_block: Optional[ir.Block] = None
        while True:
            # Phis evaluate in parallel against the incoming edge.
            phi_updates: List[Tuple[ir.Phi, object]] = []
            for phi in block.phis():
                for value, pred in phi.incoming:
                    if pred is prev_block:
                        phi_updates.append((phi, self.value_of(value)))
                        break
                else:
                    if prev_block is not None:
                        raise PisaError(
                            f"phi %{phi.id} has no incoming for {prev_block.label}"
                        )
                    phi_updates.append((phi, 0))
            for phi, value in phi_updates:
                self.values[phi.id] = value

            for instr in block.non_phis():
                self.steps += 1
                if self.steps > _MAX_STEPS:
                    raise PisaError(f"{self.fn.name}: step budget exceeded")
                result = self.execute(instr)
                if isinstance(result, _Jump):
                    prev_block, block = block, result.target
                    break
                if isinstance(result, _Return):
                    return InterpResult(self.fwd, self.fwd_label, result.value)
            else:
                raise PisaError(f"{self.fn.name}/{block.label}: fell off block end")

    # -- instruction semantics --------------------------------------------------

    def execute(self, instr: ir.Instr):
        if isinstance(instr, ir.BinOp):
            self.values[instr.id] = instr.evaluate(self.int_of(instr.lhs), self.int_of(instr.rhs))
        elif isinstance(instr, (ir.UnOp, ir.Cast)):
            self.values[instr.id] = instr.evaluate(self.int_of(instr.operands[0]))
        elif isinstance(instr, ir.Select):
            cond = self.int_of(instr.operands[0])
            self.values[instr.id] = self.value_of(
                instr.operands[1] if cond else instr.operands[2]
            )
        elif isinstance(instr, ir.Load):
            # Pre-mem2reg IR: emulate the stack slot via a dict.
            self.values[instr.id] = self.values.get(("slot", instr.slot.id), 0)
        elif isinstance(instr, ir.Store):
            self.values[("slot", instr.slot.id)] = self.value_of(instr.value)
        elif isinstance(instr, ir.Alloca):
            self.values.setdefault(("slot", instr.id), 0)
        elif isinstance(instr, ir.LoadElem):
            self.values[instr.id] = self.exec_load_elem(instr)
        elif isinstance(instr, ir.StoreElem):
            self.exec_store_elem(instr)
        elif isinstance(instr, ir.LoadParam):
            self.values[instr.id] = self.exec_load_param(instr)
        elif isinstance(instr, ir.StoreParam):
            self.exec_store_param(instr)
        elif isinstance(instr, ir.WinField):
            if instr.field not in self.ctx.meta:
                raise PisaError(f"window field {instr.field!r} not bound")
            self.values[instr.id] = self.ctx.meta[instr.field]
        elif isinstance(instr, ir.LocField):
            if instr.field != "id":
                raise PisaError(f"unknown location field {instr.field!r}")
            self.values[instr.id] = self.ctx.location_id
        elif isinstance(instr, ir.LocLabel):
            if instr.label not in self.ctx.location_labels:
                raise PisaError(f"unresolved location label {instr.label!r}")
            self.values[instr.id] = self.ctx.location_labels[instr.label]
        elif isinstance(instr, ir.CtrlRead):
            self.values[instr.id] = self.exec_ctrl_read(instr)
        elif isinstance(instr, ir.MapLookup):
            state = self.state.maps.get(instr.ref.name)
            if state is None:
                raise PisaError(f"Map {instr.ref.name!r} not present on device")
            found, value = state.lookup(self.int_of(instr.key))
            self.values[instr.id] = ("maptok", found, value)
        elif isinstance(instr, ir.MapFound):
            token = self.value_of(instr.operands[0])
            self.values[instr.id] = int(self._token(token)[1])
        elif isinstance(instr, ir.MapValue):
            token = self.value_of(instr.operands[0])
            self.values[instr.id] = self._token(token)[2]
        elif isinstance(instr, ir.BloomOp):
            bloom = self.state.blooms.get(instr.ref.name)
            if bloom is None:
                raise PisaError(f"BloomFilter {instr.ref.name!r} not on device")
            key = self.int_of(instr.operands[0])
            if instr.op == "insert":
                bloom.insert(key)
            else:
                self.values[instr.id] = int(bloom.query(key))
        elif isinstance(instr, ir.Memcpy):
            self.exec_memcpy(instr)
        elif isinstance(instr, ir.Fwd):
            self.fwd = instr.kind
            self.fwd_label = instr.label
        elif isinstance(instr, ir.CallFn):
            self.values[instr.id] = self.exec_call(instr)
        elif isinstance(instr, ir.Br):
            return _Jump(instr.target)
        elif isinstance(instr, ir.CondBr):
            return _Jump(instr.then if self.int_of(instr.cond) else instr.other)
        elif isinstance(instr, ir.Ret):
            value = self.int_of(instr.value) if instr.value is not None else None
            return _Return(value)
        else:
            raise PisaError(f"cannot interpret {instr.render()}")
        return None

    @staticmethod
    def _token(token) -> Tuple[str, bool, int]:
        if not (isinstance(token, tuple) and token and token[0] == "maptok"):
            raise PisaError("expected a Map lookup token")
        return token  # type: ignore[return-value]

    def exec_load_elem(self, instr: ir.LoadElem) -> int:
        array = self._array(instr.ref)
        idx = self.int_of(instr.index)
        self._bounds(instr.ref, idx)
        return array[idx]

    def exec_store_elem(self, instr: ir.StoreElem) -> None:
        array = self._array(instr.ref)
        idx = self.int_of(instr.index)
        self._bounds(instr.ref, idx)
        array[idx] = self._wrap(self.int_of(instr.value), instr.ref.elem_type)

    def _array(self, ref: ir.GlobalRef) -> MutableSequence[int]:
        array = self.state.arrays.get(ref.name)
        if array is None:
            raise PisaError(f"global {ref.name!r} not present on device")
        return array

    def _bounds(self, ref: ir.GlobalRef, idx: int) -> None:
        if not 0 <= idx < ref.total_elements:
            raise PisaError(
                f"index {idx} out of range for {ref.name} "
                f"[{ref.total_elements} elements]"
            )

    def exec_load_param(self, instr: ir.LoadParam) -> int:
        buf = self.value_of(instr.param)
        idx = self.int_of(instr.index)
        if isinstance(buf, int):  # scalar parameter, index must be 0
            if idx != 0:
                raise PisaError("indexing a scalar parameter")
            return buf
        try:
            return int(buf[idx])  # type: ignore[index]
        except IndexError:
            raise PisaError(
                f"window-data index {idx} out of range for {instr.param.name}"
            ) from None

    def exec_store_param(self, instr: ir.StoreParam) -> None:
        buf = self.value_of(instr.param)
        idx = self.int_of(instr.index)
        param_ty = instr.param.ty
        elem_ty = param_ty.pointee if isinstance(param_ty, PointerType) else param_ty
        value = self._wrap(self.int_of(instr.value), elem_ty)
        try:
            buf[idx] = value  # type: ignore[index]
        except (IndexError, TypeError):
            raise PisaError(
                f"cannot store to {instr.param.name}[{idx}]"
            ) from None

    def exec_ctrl_read(self, instr: ir.CtrlRead):
        if instr.ref.name not in self.state.ctrl:
            raise PisaError(f"control variable {instr.ref.name!r} not on device")
        value = self.state.ctrl[instr.ref.name]
        if instr.index is not None:
            idx = self.int_of(instr.index)
            return value[idx]  # type: ignore[index]
        return value

    def exec_memcpy(self, instr: ir.Memcpy) -> None:
        nbytes = self.int_of(instr.nbytes)
        dst_elem = sizeof(instr.dst.elem_type)
        src_elem = sizeof(instr.src.elem_type)
        if nbytes % dst_elem or nbytes % src_elem:
            raise PisaError(
                f"memcpy length {nbytes} not a multiple of element sizes "
                f"({dst_elem}/{src_elem})"
            )
        if dst_elem != src_elem:
            raise PisaError("memcpy between different element widths")
        count = nbytes // dst_elem
        src_vals = [
            self._region_read(instr.src, self.int_of(instr.src_off) + i)
            for i in range(count)
        ]
        for i, value in enumerate(src_vals):
            self._region_write(
                instr.dst, self.int_of(instr.dst_off) + i, value
            )

    def _region_read(self, region: ir.MemRegion, idx: int) -> int:
        if region.kind == "param":
            buf = self.value_of(region.param)  # type: ignore[arg-type]
            if isinstance(buf, int):
                if idx != 0:
                    raise PisaError("memcpy overruns scalar parameter")
                return buf
            return int(buf[idx])  # type: ignore[index]
        ref = region.ref
        assert ref is not None
        self._bounds(ref, idx)
        return self._array(ref)[idx]

    def _region_write(self, region: ir.MemRegion, idx: int, value: int) -> None:
        value = self._wrap(value, region.elem_type)
        if region.kind == "param":
            buf = self.value_of(region.param)  # type: ignore[arg-type]
            try:
                buf[idx] = value  # type: ignore[index]
            except (IndexError, TypeError):
                raise PisaError("memcpy overruns parameter buffer") from None
            return
        ref = region.ref
        assert ref is not None
        self._bounds(ref, idx)
        self._array(ref)[idx] = value

    def exec_call(self, instr: ir.CallFn):
        args = [self.value_of(op) for op in instr.operands]
        sub_ctx = WindowContext(
            self.ctx.meta, args, self.ctx.location_id, self.ctx.location_labels
        )
        sub = _FrameInterp(self.parent, instr.callee, sub_ctx)
        result = sub.run()
        # Forwarding decisions made in helpers propagate to the caller.
        if sub.fwd is not ir.FwdKind.PASS or sub.fwd_label:
            self.fwd = sub.fwd
            self.fwd_label = sub.fwd_label
        return result.ret


class _Jump:
    def __init__(self, target: ir.Block):
        self.target = target


class _Return:
    def __init__(self, value: Optional[int]):
        self.value = value


def run_kernel(
    module: ir.Module,
    kernel: str,
    state: DeviceState,
    meta: Dict[str, int],
    args: Sequence[object],
    location_id: int = 0,
    location_labels: Optional[Dict[str, int]] = None,
) -> InterpResult:
    """Convenience wrapper: interpret one kernel over one window."""
    fn = module.functions[kernel]
    ctx = WindowContext(meta, args, location_id, location_labels)
    return Interpreter(module, state).run(fn, ctx)

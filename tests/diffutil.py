"""Differential-testing helpers: run a kernel before/after a transform
and require identical observable behaviour (window data, device state,
forwarding decision)."""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, Sequence

from repro.ncl import frontend
from repro.ncl.types import PointerType, is_signed, scalar_bits
from repro.nir import ir
from repro.nir.interp import DeviceState, Interpreter, WindowContext
from repro.nir.lower import lower_unit
from repro.nir.passes.clone import clone_function


def kernel_module(source: str, defines=None) -> ir.Module:
    return lower_unit(frontend(source, defines=defines))


def clone_state(state: DeviceState) -> DeviceState:
    new = DeviceState()
    new.arrays = {k: list(v) for k, v in state.arrays.items()}
    new.ctrl = {
        k: (list(v) if isinstance(v, list) else v) for k, v in state.ctrl.items()
    }
    for name, m in state.maps.items():
        from repro.nir.interp import MapState

        ms = MapState(m.ty)
        ms.entries = dict(m.entries)
        new.maps[name] = ms
    for name, b in state.blooms.items():
        from repro.nir.interp import BloomState

        bs = BloomState(b.ty)
        bs.bits = list(b.bits)
        new.blooms[name] = bs
    return new


def observable_state(state: DeviceState) -> Dict[str, object]:
    """Everything a kernel run can change in *state*."""
    return {**state.snapshot(), "blooms": {k: list(b.bits) for k, b in state.blooms.items()}}


def random_args(fn: ir.Function, rng, chunk_len: int = 4) -> List:
    """Random window-data argument bindings for a kernel's parameters."""
    args: List = []
    for param in fn.params:
        ty = param.ty
        if isinstance(ty, PointerType):
            bits = scalar_bits(ty.pointee)
            signed = is_signed(ty.pointee)
            lo = -(1 << (bits - 1)) if signed else 0
            hi = (1 << (bits - 1)) - 1 if signed else (1 << bits) - 1
            args.append([rng.randint(lo, hi) for _ in range(chunk_len)])
        else:
            bits = scalar_bits(ty)
            signed = is_signed(ty)
            lo = -(1 << (bits - 1)) if signed else 0
            hi = (1 << (bits - 1)) - 1 if signed else (1 << bits) - 1
            args.append(rng.randint(lo, hi))
    return args


def _outcome(run):
    try:
        return run(), None
    except Exception as exc:  # the outcome under comparison
        return None, exc


def run_both(
    module: ir.Module,
    kernel: str,
    state: DeviceState,
    meta: Dict[str, int],
    args: List,
    location_id: int = 0,
    location_labels: Optional[Dict[str, int]] = None,
):
    """Run *kernel* through ``Interpreter.run`` and, on clones of *state*
    and *args*, through ``Interpreter.reference_run``. Both must have the
    same outcome: the same result, window data and device state, or an
    error of the same type and message (device state may then differ).
    Returns the compiled run's result, or raises its error."""
    fn = module.functions[kernel]
    oracle_state, oracle_args = clone_state(state), copy.deepcopy(args)
    expected, expected_exc = _outcome(
        lambda: Interpreter(module, oracle_state).reference_run(
            fn, WindowContext(meta, oracle_args, location_id, location_labels)
        )
    )
    got, got_exc = _outcome(
        lambda: Interpreter(module, state).run(
            fn, WindowContext(meta, args, location_id, location_labels)
        )
    )
    if got_exc is not None or expected_exc is not None:
        assert (type(got_exc), str(got_exc)) == (type(expected_exc), str(expected_exc))
        raise got_exc
    assert (got.fwd, got.fwd_label, got.ret) == (
        expected.fwd, expected.fwd_label, expected.ret
    )
    assert args == oracle_args
    assert observable_state(state) == observable_state(oracle_state)
    return got


def observe(
    module: ir.Module,
    fn: ir.Function,
    state: DeviceState,
    meta: Dict[str, int],
    args: List,
    location_id: int = 0,
    location_labels: Optional[Dict[str, int]] = None,
):
    """Run and return the full observable outcome."""
    interp = Interpreter(module, state)
    ctx = WindowContext(meta, copy.deepcopy(args), location_id, location_labels)
    result = interp.run(fn, ctx)
    return {
        "fwd": result.fwd,
        "label": result.fwd_label,
        "args": ctx.args,
        "arrays": {k: list(v) for k, v in state.arrays.items()},
        "maps": {k: dict(m.entries) for k, m in state.maps.items()},
    }


def assert_transform_preserves(
    source: str,
    kernel: str,
    transform: Callable[[ir.Function], object],
    metas: Sequence[Dict[str, int]],
    defines=None,
    chunk_len: int = 4,
    seed: int = 0,
    prepare_state: Optional[Callable[[DeviceState], None]] = None,
    location_id: int = 0,
    location_labels: Optional[Dict[str, int]] = None,
    pre: Optional[Callable[[ir.Function], object]] = None,
):
    """The workhorse: semantics before == semantics after `transform`."""
    import random

    rng = random.Random(seed)
    module = kernel_module(source, defines)
    fn = module.functions[kernel]
    if pre is not None:
        pre(fn)
    reference = clone_function(fn, f"{kernel}_ref")
    module.functions[reference.name] = reference
    transform(fn)
    from repro.nir.verify import verify_function

    verify_function(fn)

    base_state = DeviceState.from_module(module)
    if prepare_state is not None:
        prepare_state(base_state)

    state_a = clone_state(base_state)
    state_b = clone_state(base_state)
    for meta in metas:
        args = random_args(fn, rng, chunk_len)
        got = observe(module, fn, state_a, meta, args, location_id, location_labels)
        want = observe(
            module, reference, state_b, meta, args, location_id, location_labels
        )
        assert got == want, (
            f"transform changed semantics for meta={meta}:\n"
            f"got:  {got}\nwant: {want}"
        )

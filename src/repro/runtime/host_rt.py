"""libncrt's host side: kernel invocation, windowing, and delivery.

This implements the paper's two host APIs (S4.1):

* the **data-centric** API -- :meth:`NclHost.out` consumes whole arrays,
  splitting them into windows per the kernel's compiled mask and putting
  every window on the wire ("resembling a send() in a loop");
* the **window-level** API -- :meth:`NclHost.out_window` sends one
  window, "a building block for richer interfaces".

On the receive path, incoming windows are matched to the outgoing kernel
that produced them (NCP carries the kernel id) and dispatched to the
paired ``_net_ _in_`` kernel registered via :meth:`NclHost.register_in`;
the incoming kernel runs as compiled NIR (``Interpreter.run``; the code is
generated once per kernel and shared by every host of the deployment)
with the window chunks and the caller's ``_ext_`` buffers as arguments. Raw window handlers are
available for application roles that are not plain receivers (e.g. the
KVS storage server answering GET misses).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.errors import ReproError, RuntimeApiError
from repro.ncl.types import PointerType
from repro.nclc.driver import CompiledProgram
from repro.ncp import wire
from repro.ncp.fragment import FLAG_FRAG, FRAG, FRAG_KERNEL_BIT, Reassembler, fragment_frame
from repro.ncp.window import Window, Windower
from repro.ncp.wire import decode_frame, encode_frame
from repro.net.node import HostNode
from repro.nir import ir
from repro.nir.interp import DeviceState, Interpreter, WindowContext

WindowHandler = Callable[[Window, "NclHost"], None]


class _InRegistration:
    def __init__(self, kernel: ir.Function, ext_args: List, on_window: Optional[WindowHandler]):
        self.kernel = kernel
        self.ext_args = ext_args
        self.on_window = on_window
        self.windows_received = 0


class NclHost:
    """One application endpoint, bound to a simulated host node."""

    def __init__(
        self,
        node: HostNode,
        program: CompiledProgram,
        and_node_id: Optional[int] = None,
        mtu: Optional[int] = None,
    ):
        self.node = node
        self.program = program
        # Multi-packet windows (S6 future work): frames above the MTU are
        # fragmented; switches forward fragments without executing kernels.
        self.mtu = mtu
        self._reassembler = Reassembler()
        # When deployed onto a mapped physical network, the runtime speaks
        # with its AND (overlay) identity rather than the physical node id.
        self._and_node_id = and_node_id
        self.layout_by_id = {
            layout.kernel_id: layout for layout in program.layouts.values()
        }
        # Host-side memory: host globals of the translation unit.
        self.state = DeviceState()
        for ref in program.ref_module.globals.values():
            if ref.space == "host":
                init = ref.init if ref.init is not None else [0] * ref.total_elements
                values = list(init)
                if len(values) < ref.total_elements:
                    values.extend([0] * (ref.total_elements - len(values)))
                self.state.arrays[ref.name] = values
        self._interp = Interpreter(program.ref_module, self.state)
        self._in_regs: Dict[str, _InRegistration] = {}
        self._raw_handlers: Dict[str, WindowHandler] = {}
        self.inbox: Dict[str, List[Window]] = {}
        self.windows_sent = 0
        self.windows_received = 0
        self.windows_retransmitted = 0
        #: retransmission attempt counters by (kernel, seq)
        self._retx_attempts: Dict[tuple, int] = {}
        node.receiver = self._on_frame
        # Preferred delivery path: the Frame object carries the header
        # parse cached along the packet path, so delivery re-parses
        # nothing the network already looked at.
        node.frame_receiver = self._on_frame_obj

    # -- observability ----------------------------------------------------------

    @property
    def _obs(self):
        return self.node.sim.obs

    @property
    def _track(self) -> str:
        return f"host {self.node.name}"

    def _window_count(self, obs, event: str, kernel: str) -> None:
        """Window lifecycle counter: open (cut from an array by the
        windower), flush (framed and put on the wire), recv (decoded at
        a host), retransmit (re-flushed by :meth:`retransmit_window`)."""
        obs.registry.counter(
            "ncp.windows",
            "window lifecycle events, by kernel",
            ("host", "kernel", "event"),
        ).labels(host=self.node.name, kernel=kernel, event=event).inc()

    def _retx_gauge(self, obs) -> None:
        """Live size of the retransmission-attempt table. Entries are
        evicted when a window of the same (kernel, seq) is delivered
        back, so a steadily climbing gauge means responses are not
        coming home (or the transport never completes its windows)."""
        obs.registry.gauge(
            "ncp.retx_tracked",
            "in-flight (kernel, seq) retransmission attempt entries",
            ("host",),
        ).labels(host=self.node.name).set(len(self._retx_attempts))

    @property
    def _node_labels(self) -> Dict[int, str]:
        """AND node id -> label, for annotating INT hop records."""
        labels = self.__dict__.get("_node_labels_cache")
        if labels is None:
            labels = {
                node.node_id: label
                for label, node in self.program.and_spec.nodes.items()
            }
            self.__dict__["_node_labels_cache"] = labels
        return labels

    # -- address helpers --------------------------------------------------------

    def _node_id_of(self, dst: Union[str, int]) -> int:
        if isinstance(dst, int):
            return dst
        return self.program.and_spec.node(dst).node_id

    @property
    def node_id(self) -> int:
        if self._and_node_id is not None:
            return self._and_node_id
        return self.node.node_id

    # -- outgoing path ---------------------------------------------------------------

    def out(
        self,
        kernel: str,
        arrays: Sequence[Sequence[int]],
        dst: Union[str, int, None] = None,
        ext: Optional[Mapping[str, int]] = None,
    ) -> int:
        """Invoke an outgoing kernel on whole arrays (data-centric API).

        ``dst`` may be omitted when the kernel is pinned with ``_at_`` --
        windows are then addressed to that switch and the kernel's own
        forwarding decisions take over (Fig 4's ``ncl::out`` passes no
        destination). Returns the number of windows sent.
        """
        dst = self._resolve_dst(kernel, dst)
        config = self._config(kernel)
        ext_values = self._ext_values(kernel, ext)
        windower = Windower(config.mask)
        count = 0
        obs = self._obs
        for window in windower.split(arrays, ext=ext_values, from_node=self.node_id):
            if obs.enabled:
                self._window_count(obs, "open", kernel)
            self._send_window(kernel, window, dst)
            count += 1
        self.windows_sent += count
        return count

    def out_window(
        self,
        kernel: str,
        seq: int,
        chunks: Sequence[Sequence[int]],
        dst: Union[str, int],
        ext: Optional[Mapping[str, int]] = None,
        last: bool = False,
    ) -> None:
        """Send a single window (the finer-grained invocation API)."""
        ext_values = self._ext_values(kernel, ext)
        window = Window(seq, chunks, ext=ext_values, last=last, from_node=self.node_id)
        self._send_window(kernel, window, dst)
        self.windows_sent += 1

    def _resolve_dst(self, kernel: str, dst: Union[str, int, None]) -> Union[str, int]:
        if dst is not None:
            return dst
        info = self.program.unit.out_kernels.get(kernel)
        if info is not None and info.at_label is not None:
            return info.at_label
        # Fig 4's ncl::out passes no destination: windows are addressed to
        # the first-hop switch and the kernel's forwarding takes over.
        label = None
        for node_label, node in self.program.and_spec.nodes.items():
            if node.node_id == self.node_id:
                label = node_label
                break
        if label is not None:
            neighbors = self.program.and_spec.neighbors(label)
            switch_neighbors = [
                n for n in neighbors if self.program.and_spec.node(n).is_switch
            ]
            if len(switch_neighbors) == 1:
                return switch_neighbors[0]
        raise RuntimeApiError(
            f"kernel {kernel!r} has no unambiguous destination; pass dst "
            "explicitly (a host label for end-to-end transfers, or a switch)"
        )

    def _config(self, kernel: str):
        config = self.program.window_configs.get(kernel)
        if config is None:
            raise RuntimeApiError(f"{kernel!r} is not a compiled outgoing kernel")
        return config

    def _ext_values(self, kernel: str, ext: Optional[Mapping[str, int]]) -> Dict[str, int]:
        config = self._config(kernel)
        values = dict(config.ext)
        for name, value in (ext or {}).items():
            if name not in values:
                raise RuntimeApiError(
                    f"unknown window extension field {name!r} for kernel {kernel!r}"
                )
            if value != values[name]:
                raise RuntimeApiError(
                    f"window field {name!r}={value} differs from the compiled "
                    f"value {values[name]}; switch code was specialized for the "
                    "compiled window geometry"
                )
        return values

    def retransmit_window(
        self,
        kernel: str,
        window: Window,
        dst: Union[str, int],
    ) -> int:
        """Re-send a window that is presumed lost (the building block for
        reliable transports layered over NCP). Each retransmission of a
        (kernel, seq) gets an increasing attempt number, which rides in
        the INT trailer so the lineage index shows every attempt as a
        distinct branch with its own per-hop records. Returns the attempt
        number used."""
        key = (kernel, window.seq)
        attempt = self._retx_attempts.get(key, 0) + 1
        self._retx_attempts[key] = attempt
        obs = self._obs
        if obs.enabled:
            self._window_count(obs, "retransmit", kernel)
            self._retx_gauge(obs)
        self._send_window(kernel, window, dst, attempt=attempt)
        self.windows_retransmitted += 1
        return attempt

    def _send_window(
        self,
        kernel: str,
        window: Window,
        dst: Union[str, int],
        attempt: int = 0,
    ) -> None:
        layout = self.program.layouts[kernel]
        frame = encode_frame(
            layout,
            src_node=self.node_id,
            dst_node=self._node_id_of(dst),
            seq=window.seq,
            chunks=window.chunks,
            ext_values=window.ext,
            last=window.last,
            from_node=window.from_node,
        )
        obs = self._obs
        int_cfg = obs.int_config
        if obs.enabled:
            self._window_count(obs, "flush", kernel)
            obs.tracer.instant(
                "window:send" if attempt == 0 else "window:retransmit",
                self.node.sim.now(),
                track=self._track,
                cat="ncp",
                args={
                    "kernel": kernel,
                    "kernel_id": layout.kernel_id,
                    "seq": window.seq,
                    "from": window.from_node,
                    "attempt": attempt,
                    "dst": str(dst),
                    "bytes": len(frame),
                    "last": int(window.last),
                },
            )
        if self.mtu is not None and len(frame) > self.mtu:
            pieces = fragment_frame(frame, self.mtu)
            if obs.enabled:
                obs.registry.counter(
                    "ncp.fragments", "NCP fragments, by direction",
                    ("host", "event"),
                ).labels(host=self.node.name, event="sent").inc(len(pieces))
            if int_cfg is not None:
                # Fragment first, then arm: every fragment travels alone,
                # so every fragment collects its own per-hop stack.
                from repro.obs.int import attach_tail

                pieces = [attach_tail(p, attempt) for p in pieces]
            for piece in pieces:
                self.node.transmit(piece, self._node_id_of(dst))
            return
        if int_cfg is not None:
            from repro.obs.int import attach_tail

            frame = attach_tail(frame, attempt)
        self.node.transmit(frame, self._node_id_of(dst))

    # -- incoming path ------------------------------------------------------------------

    def register_in(
        self,
        in_kernel: str,
        ext_args: Sequence = (),
        on_window: Optional[WindowHandler] = None,
    ) -> None:
        """Arm an incoming kernel (``ncl::in``). ``ext_args`` bind the
        kernel's ``_ext_`` parameters: pass mutable sequences (lists,
        numpy arrays) for pointers."""
        info = self.program.unit.in_kernels.get(in_kernel)
        if info is None:
            raise RuntimeApiError(f"{in_kernel!r} is not an incoming kernel")
        paired = self.program.unit.paired_out_kernel(in_kernel)
        if paired is None:
            raise RuntimeApiError(f"{in_kernel!r} has no paired outgoing kernel")
        if len(ext_args) != len(info.ext_params):
            raise RuntimeApiError(
                f"{in_kernel!r} takes {len(info.ext_params)} _ext_ arguments, "
                f"got {len(ext_args)}"
            )
        fn = self.program.ref_module.functions[in_kernel]
        self._in_regs[paired.name] = _InRegistration(fn, list(ext_args), on_window)

    def on_raw_window(self, out_kernel: str, handler: WindowHandler) -> None:
        """Receive raw windows of an outgoing kernel (application roles
        that are not simple receivers -- e.g. a storage server)."""
        if out_kernel not in self.program.layouts:
            raise RuntimeApiError(f"{out_kernel!r} is not a compiled kernel")
        self._raw_handlers[out_kernel] = handler

    def _on_frame_obj(self, frame) -> None:
        """Frame-object delivery (bound to ``node.frame_receiver``):
        reuses the header metadata cached while the packet crossed the
        fabric instead of re-peeking the bytes."""
        self._on_frame(frame.data, _meta=frame.meta)

    def _on_frame(self, data: bytes, _meta=None) -> None:
        from repro.obs.int import carries_int

        obs = self._obs
        # The headers are parsed once per delivery: the fragment bit and
        # kernel id come from the peek (cached on the in-flight Frame),
        # and decode_frame unpacks the prefix for the window itself.
        meta = _meta if _meta is not None else wire.peek_frame(data)
        if carries_int(data):
            data = self._strip_int(obs, data, meta)
        if meta is not None and meta["flags"] & FLAG_FRAG:
            try:
                complete = self._reassembler.feed(data)
            except ReproError:
                self.node.stats.drops += 1
                self._trace_decode_drop(obs, "reassembly", len(data))
                return
            if complete is None:
                return
            if obs.enabled:
                obs.registry.counter(
                    "ncp.fragments", "NCP fragments, by direction",
                    ("host", "event"),
                ).labels(host=self.node.name, event="reassembled").inc()
            data = complete
        try:
            frame = decode_frame(data, self.layout_by_id)
        except ReproError:
            self.node.stats.drops += 1
            self._trace_decode_drop(obs, "decode", len(data))
            return
        self.windows_received += 1
        kernel_name = self.program.kernel_by_id[frame.kernel_id]
        # A window of this (kernel, seq) made it back: the exchange is
        # complete, so drop its retransmission-attempt entry. Without
        # this the table grows one entry per retransmitted window for
        # the lifetime of the host.
        if self._retx_attempts.pop((kernel_name, frame.seq), None) is not None:
            if obs.enabled:
                self._retx_gauge(obs)
        if obs.enabled:
            self._window_count(obs, "recv", kernel_name)
            obs.tracer.instant(
                "window:recv",
                self.node.sim.now(),
                track=self._track,
                cat="ncp",
                args={
                    "kernel": kernel_name,
                    "kernel_id": frame.kernel_id,
                    "seq": frame.seq,
                    "from": frame.from_node,
                    "last": int(frame.last),
                },
            )
        window = Window(
            frame.seq,
            frame.chunks,
            ext=frame.ext,
            last=frame.last,
            from_node=frame.from_node,
        )
        raw = self._raw_handlers.get(kernel_name)
        if raw is not None:
            raw(window, self)
            return
        reg = self._in_regs.get(kernel_name)
        if reg is not None:
            self._run_in_kernel(reg, kernel_name, window)
            return
        self.inbox.setdefault(kernel_name, []).append(window)

    def _strip_int(self, obs, data: bytes, meta) -> bytes:
        """Strip the INT trailer at delivery: emit the per-hop stack as
        an ``int:stack`` trace event (the lineage index's raw material)
        and fold it into the registry. ``meta`` is the frame's header
        peek; the trailer sits after the payload, so it is also the bare
        frame's."""
        from repro.obs.int import (
            record_stack_metrics, stack_event_args, strip_stack,
        )

        bare, stack = strip_stack(data)
        if stack is None or not obs.enabled or meta is None:
            return bare
        frag = None
        kernel_id = meta["kernel"]
        if kernel_id & FRAG_KERNEL_BIT:
            kernel_id &= ~FRAG_KERNEL_BIT
            frag = FRAG.unpack(bare, wire.PREFIX.nbytes)["index"]
        now = self.node.sim.now()
        obs.tracer.instant(
            "int:stack", now, track=self._track, cat="int",
            args=stack_event_args(
                stack, kernel_id, meta["seq"], meta["from"],
                outcome="delivered", frag=frag, node_names=self._node_labels,
            ),
        )
        record_stack_metrics(obs.registry, self.node.name, stack, now)
        return bare

    def _run_in_kernel(self, reg: _InRegistration, out_kernel: str, window: Window) -> None:
        out_info = self.program.unit.out_kernels[out_kernel]
        args: List = []
        for param, chunk in zip(out_info.data_params, window.chunks):
            if isinstance(param.ty, PointerType):
                args.append(chunk)
            else:
                args.append(chunk[0])
        args.extend(reg.ext_args)
        ctx = WindowContext(window.meta(), args, location_id=self.node_id)
        obs = self._obs
        if obs.enabled:
            obs.tracer.instant(
                "kernel:run",
                self.node.sim.now(),
                track=self._track,
                cat="ncp",
                args={"kernel": reg.kernel.name, "seq": window.seq},
            )
        self._interp.run(reg.kernel, ctx)
        reg.windows_received += 1
        if reg.on_window is not None:
            reg.on_window(window, self)

    def _trace_decode_drop(self, obs, cause: str, nbytes: int) -> None:
        if obs.enabled:
            obs.tracer.instant(
                "drop",
                self.node.sim.now(),
                track=self._track,
                cat="ncp",
                args={"cause": cause, "bytes": nbytes},
            )

    def received_count(self, in_kernel: str) -> int:
        paired = self.program.unit.paired_out_kernel(in_kernel)
        if paired is None:
            return 0
        reg = self._in_regs.get(paired.name)
        return reg.windows_received if reg else 0

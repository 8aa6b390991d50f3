"""Layer spans for the traced run, recorded from outside the program.

While a :class:`Tracer` is installed, the public entry points of each
layer are replaced by wrappers that record a span (name, start, end,
parent span) around every call; :meth:`Tracer.uninstall` puts the
originals back. Each function is wrapped where its caller looks it up
(``host_rt.encode_frame``, not ``wire.encode_frame``), so the program
runs exactly the code it runs untraced. Spans stay in memory until the
run ends.

A layer's self time is its spans' time minus the time covered by their
child spans; the share of wall time no layer claims is ``unattributed``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List

from repro.nclc import Compiler
from repro.ncp import fragment, wire
from repro.net import frame as net_frame
from repro.net.events import Simulator
from repro.net.node import ForwardingSwitchNode
from repro.nir.interp import Interpreter
from repro.pisa.parser import Deparser, PacketParser
from repro.pisa.pipeline import Pipeline
from repro.pisa.switch_dev import PisaSwitch
from repro.runtime import host_rt
from repro.runtime.host_rt import NclHost

LAYERS = ("nclc", "runtime", "ncp", "pisa", "nir", "net")

#: (owner, attribute, span name); the span name's prefix is its layer
ENTRY_POINTS = (
    (Compiler, "compile", "nclc.compile"),
    (NclHost, "out", "runtime.send"),
    (NclHost, "out_window", "runtime.send"),
    (host_rt, "encode_frame", "ncp.encode"),
    (host_rt, "decode_frame", "ncp.decode"),
    (net_frame, "peek_frame", "ncp.peek"),
    (wire, "peek_frame", "ncp.peek"),
    (fragment, "is_fragment", "ncp.frag_check"),
    (PisaSwitch, "process", "pisa.process"),
    (PacketParser, "parse", "pisa.parse"),
    (Pipeline, "run", "pisa.pipeline"),
    (Deparser, "deparse", "pisa.deparse"),
    (Interpreter, "run", "nir.kernel"),
    (Simulator, "run", "net.run"),
    (ForwardingSwitchNode, "handle_frame", "net.transit"),
)

NCP_OPS = ("encode", "decode", "peek", "frag_check")


class Tracer:
    def __init__(self) -> None:
        #: [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self.bytes_encoded = 0
        self.bytes_decoded = 0

    # -- recording -------------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def _encode(self, fn: Callable) -> Callable:
        def encode(*args, **kwargs):
            data = fn(*args, **kwargs)
            self.bytes_encoded += len(data)
            return data

        return encode

    def _decode(self, fn: Callable) -> Callable:
        def decode(data, *args, **kwargs):
            self.bytes_decoded += len(data)
            return fn(data, *args, **kwargs)

        return decode

    def install(self) -> None:
        for owner, attr, name in ENTRY_POINTS:
            own = vars(owner)
            original = own.get(attr, None)
            fn = getattr(owner, attr)
            if name == "ncp.encode":
                fn = self._encode(fn)
            elif name == "ncp.decode":
                fn = self._decode(fn)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def bind_hosts(self, cluster) -> None:
        """Wrap each deployed host's bound frame receiver (the runtime's
        receive path; it is bound per host when the cluster is built)."""
        for host in cluster.hosts.values():
            node = host.node
            node.frame_receiver = self.wrap("runtime.recv", node.frame_receiver)

    # -- analysis --------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls`` and ``self_s`` (span time minus the
        time covered by direct children)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(spans):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[i]
        return out

    def write_chrome(self, path: Path) -> None:
        """Write the spans as Chrome trace events (``chrome://tracing``,
        Perfetto)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 0,
                "tid": 0,
                "args": {"id": i, "parent": parent},
            }
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


def layer_metrics(
    tracer: Tracer, counts: Dict[str, int], wall_s: float, overhead: float
) -> Dict[str, tuple]:
    """The per-layer metrics of one traced deployment, as name ->
    (value, unit)."""
    totals = tracer.totals()

    def calls(name: str) -> int:
        return int(totals.get(name, {}).get("calls", 0))

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    m: Dict[str, tuple] = {}
    m["nclc.compile_s"] = (self_s("nclc.compile"), "s")
    m["runtime.send_calls"] = (calls("runtime.send"), "count")
    m["runtime.send_us"] = (self_s("runtime.send") * 1e6, "us")
    m["runtime.recv_frames"] = (calls("runtime.recv"), "count")
    m["runtime.recv_us"] = (self_s("runtime.recv") * 1e6, "us")
    for op in NCP_OPS:
        m[f"ncp.{op}_calls"] = (calls(f"ncp.{op}"), "count")
        m[f"ncp.{op}_us"] = (self_s(f"ncp.{op}") * 1e6, "us")
    m["ncp.bytes_encoded"] = (tracer.bytes_encoded, "bytes")
    m["ncp.bytes_decoded"] = (tracer.bytes_decoded, "bytes")
    lookups = counts["pisa.table_lookups"]
    m["pisa.packets"] = (calls("pisa.process"), "count")
    m["pisa.parse_us"] = (self_s("pisa.parse") * 1e6, "us")
    m["pisa.pipeline_us"] = (self_s("pisa.pipeline") * 1e6, "us")
    m["pisa.deparse_us"] = (self_s("pisa.deparse") * 1e6, "us")
    m["pisa.table_lookups"] = (lookups, "count")
    # Base: pisa.table_lookups (hits + misses over every table and switch).
    m["pisa.table_hit_ratio"] = (
        counts["pisa.table_hits"] / lookups if lookups else 0.0, "ratio"
    )
    m["pisa.register_ops"] = (counts["pisa.register_ops"], "count")
    m["nir.kernel_runs"] = (calls("nir.kernel"), "count")
    m["nir.kernel_us"] = (self_s("nir.kernel") * 1e6, "us")
    events = counts["net.events"]
    net_self = self_s("net.run") + self_s("net.transit")
    m["net.events"] = (events, "count")
    m["net.self_us_per_event"] = (net_self * 1e6 / events if events else 0.0, "us")
    m["net.transit_hops"] = (calls("net.transit"), "count")
    for name in ("net.link_frames", "net.link_bytes", "net.drops"):
        m[name] = (counts[name], "bytes" if name == "net.link_bytes" else "count")
    attributed = 0.0
    for layer in LAYERS:
        layer_s = sum(v["self_s"] for k, v in totals.items() if k.split(".")[0] == layer)
        attributed += layer_s
        m[f"{layer}.share"] = (layer_s / wall_s, "ratio")
    m["unattributed.share"] = (1.0 - attributed / wall_s, "ratio")
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m

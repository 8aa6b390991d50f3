"""The simulator's shared packet representation.

A :class:`Frame` pairs the raw wire bytes with a lazily-parsed,
cached header view (:func:`repro.ncp.wire.peek_frame`'s dict).  Every
component of the packet path -- links, switch nodes, the host runtime --
passes the *same* Frame object along, so a packet's NCP/IPv4 headers are
parsed at most once per packet instead of once per hop ("parse once,
route everywhere").

The raw bytes stay the public currency at the edges: host receiver
callbacks and Python switch programs still see ``bytes`` (``frame.data``
is handed over, identity-preserved), and anything that rewrites the
packet (a PISA pipeline, INT stamping) produces fresh bytes which are
wrapped into a fresh Frame.  :meth:`Frame.with_data` exists for the one
rewrite that provably leaves the headers intact -- appending or
stripping a trailer -- and carries the cached metadata across.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.ncp.wire import peek_frame

#: sentinel: header metadata not parsed yet (``None`` is a valid parse
#: result -- it marks a non-NCP frame)
_UNPARSED = object()


class Frame:
    """One in-flight packet: wire bytes + cached header metadata."""

    __slots__ = ("data", "_meta")

    def __init__(self, data: bytes, meta: object = _UNPARSED) -> None:
        self.data = data
        self._meta = meta

    @staticmethod
    def wrap(obj: Union[bytes, "Frame"]) -> "Frame":
        """Normalize bytes-or-Frame to a Frame (bytes are wrapped,
        Frames pass through so their cached metadata survives)."""
        if type(obj) is Frame:
            return obj
        return Frame(obj)  # type: ignore[arg-type]

    @property
    def meta(self) -> Optional[Dict[str, int]]:
        """The header-only NCP view (kernel/seq/from/flags/src/dst),
        parsed on first access and cached; ``None`` for non-NCP frames."""
        meta = self._meta
        if meta is _UNPARSED:
            meta = peek_frame(self.data)
            self._meta = meta
        return meta  # type: ignore[return-value]

    def with_data(self, data: bytes) -> "Frame":
        """A new Frame around *data*, keeping this frame's cached
        metadata.  Only valid when the Ethernet/IPv4/UDP/NCP headers are
        unchanged (e.g. an INT trailer was appended or stripped)."""
        return Frame(data, self._meta)

    @property
    def size(self) -> int:
        return len(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        meta = self._meta
        if meta is _UNPARSED:
            return f"Frame({len(self.data)}B, unparsed)"
        if meta is None:
            return f"Frame({len(self.data)}B, non-NCP)"
        return (
            f"Frame({len(self.data)}B, k{meta['kernel']} seq={meta['seq']} "  # type: ignore[index]
            f"from={meta['from']} dst={meta['dst']})"  # type: ignore[index]
        )

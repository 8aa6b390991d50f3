"""Multi-packet windows: NCP fragmentation and reassembly.

The paper deliberately scopes its prototype to windows that fit a packet
and calls multi-packet windows out as future work with a concrete
obstacle: "storing multiple packets may not yet be practical due to
limited switch memory" (S6). This module implements the future-work
half faithfully to that constraint:

* hosts fragment an oversized window into MTU-sized NCP fragments and
  reassemble on receipt;
* **switches do not execute kernels on fragments** -- the fragment
  carries a kernel id outside the deployed dispatch space, so the
  generated parser falls through to plain forwarding (exactly the
  behaviour a window-buffering switch would need memory to avoid).

Fragment frame layout::

    Ethernet | IPv4 | UDP | NCP(kernel_id | FRAG_BIT, flags |= FLAG_FRAG)
             | frag subheader (index:8, count:8, payload_len:16) | bytes

The ablation bench compares one-window-per-packet against fragmented
large windows: fragmentation recovers header efficiency on big windows
but forfeits in-network compute for them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import NcpError
from repro.ncp.wire import PREFIX, pack_prefix, peek_frame
from repro.util.bits import Layout

#: set on the wire kernel_id of every fragment; outside the id range the
#: compiler assigns (1..N), so switch parsers never dispatch on it.
FRAG_KERNEL_BIT = 0x8000
#: NCP header flag marking a fragment.
FLAG_FRAG = 0x02

FRAG_FIELDS: List[Tuple[str, int]] = [
    ("index", 8),
    ("count", 8),
    ("payload_len", 16),
]
FRAG = Layout(FRAG_FIELDS)

MAX_FRAGMENTS = 255


def fragment_frame(frame: bytes, mtu: int) -> List[bytes]:
    """Split an encoded NCP frame into fragments that fit *mtu* bytes.

    Returns ``[frame]`` unchanged when it already fits. The NCP header is
    replicated into each fragment (with the FRAG markers); the payload
    (window extension fields + data) is what gets sliced.
    """
    if len(frame) <= mtu:
        return [frame]
    headers = PREFIX.unpack(frame)
    if headers["ncp.flags"] & FLAG_FRAG:
        raise NcpError("refusing to fragment a fragment")

    budget = mtu - PREFIX.nbytes - FRAG.nbytes
    if budget <= 0:
        raise NcpError(f"mtu {mtu} too small for NCP headers")
    payload = frame[PREFIX.nbytes :]
    pieces = [payload[i : i + budget] for i in range(0, len(payload), budget)]
    if len(pieces) > MAX_FRAGMENTS:
        raise NcpError(f"window needs {len(pieces)} fragments (max {MAX_FRAGMENTS})")

    frag_headers = {
        **headers,
        "ncp.kernel_id": headers["ncp.kernel_id"] | FRAG_KERNEL_BIT,
        "ncp.flags": headers["ncp.flags"] | FLAG_FRAG,
    }
    return [
        pack_prefix(frag_headers, FRAG.nbytes + len(piece))
        + FRAG.pack_values((index, len(pieces), len(piece)))
        + piece
        for index, piece in enumerate(pieces)
    ]


def is_fragment(data: bytes) -> bool:
    """Whether *data* is an NCP fragment; a frame too short to hold the
    headers is not."""
    meta = peek_frame(data)
    return meta is not None and bool(meta["flags"] & FLAG_FRAG)


class Reassembler:
    """Collects fragments into complete NCP frames.

    Keyed by (src ip, original kernel id, seq) -- one outstanding window
    per sender/kernel/seq, as NCP's window sequencing guarantees.
    """

    def __init__(self, max_pending: int = 1024):
        self._pending: Dict[Tuple[int, int, int], Dict[int, bytes]] = {}
        self._meta: Dict[Tuple[int, int, int], Tuple[Dict[str, int], int]] = {}
        self.max_pending = max_pending
        self.reassembled = 0
        self.fragments_seen = 0

    def feed(self, data: bytes) -> Optional[bytes]:
        """Add one fragment; returns the rebuilt original frame when this
        fragment completes its window, else None."""
        headers = PREFIX.unpack(data)
        if not headers["ncp.flags"] & FLAG_FRAG:
            raise NcpError("not a fragment")
        frag = FRAG.unpack(data, PREFIX.nbytes)
        start = PREFIX.nbytes + FRAG.nbytes
        payload = data[start : start + frag["payload_len"]]
        self.fragments_seen += 1

        original_kernel = headers["ncp.kernel_id"] & ~FRAG_KERNEL_BIT
        key = (headers["ip.src"], original_kernel, headers["ncp.seq"])
        if key not in self._pending:
            if len(self._pending) >= self.max_pending:
                raise NcpError("reassembly table full")
            self._pending[key] = {}
            self._meta[key] = (headers, frag["count"])
        slots = self._pending[key]
        slots[frag["index"]] = payload

        count = self._meta[key][1]
        if len(slots) < count:
            return None
        headers, _ = self._meta.pop(key)
        del self._pending[key]
        full_payload = b"".join(slots[i] for i in range(count))
        self.reassembled += 1
        original = {
            **headers,
            "ncp.kernel_id": original_kernel,
            "ncp.flags": headers["ncp.flags"] & ~FLAG_FRAG,
        }
        return pack_prefix(original, len(full_payload)) + full_payload

    @property
    def pending_windows(self) -> int:
        return len(self._pending)

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

from repro.errors import NcpError, ReproError
from repro.ncp.wire import ETH_FIELDS, IPV4_FIELDS, NCP_FIELDS, UDP_FIELDS
from repro.util.bits import pack_fields, unpack_fields

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

_HEADERS_LEN = (
    sum(b for _, b in ETH_FIELDS)
    + sum(b for _, b in IPV4_FIELDS)
    + sum(b for _, b in UDP_FIELDS)
    + sum(b for _, b in NCP_FIELDS)
) // 8
_FRAG_HDR_LEN = sum(b for _, b in FRAG_FIELDS) // 8

MAX_FRAGMENTS = 255


def fragment_frame(frame: bytes, mtu: int) -> List[bytes]:
    """Split an encoded NCP frame into fragments that fit *mtu* bytes.

    Returns ``[frame]`` unchanged when it already fits. The NCP header is
    replicated into each fragment (with the FRAG markers); the payload
    (window extension fields + data) is what gets sliced.
    """
    if len(frame) <= mtu:
        return [frame]
    eth, rest = unpack_fields(ETH_FIELDS, frame)
    ipv4, rest = unpack_fields(IPV4_FIELDS, rest)
    udp, rest = unpack_fields(UDP_FIELDS, rest)
    ncp, payload = unpack_fields(NCP_FIELDS, rest)
    if ncp["flags"] & FLAG_FRAG:
        raise NcpError("refusing to fragment a fragment")

    budget = mtu - _HEADERS_LEN - _FRAG_HDR_LEN
    if budget <= 0:
        raise NcpError(f"mtu {mtu} too small for NCP headers")
    pieces = [payload[i : i + budget] for i in range(0, len(payload), budget)]
    if len(pieces) > MAX_FRAGMENTS:
        raise NcpError(f"window needs {len(pieces)} fragments (max {MAX_FRAGMENTS})")

    frames = []
    for index, piece in enumerate(pieces):
        ncp_frag = dict(ncp)
        ncp_frag["kernel_id"] = ncp["kernel_id"] | FRAG_KERNEL_BIT
        ncp_frag["flags"] = ncp["flags"] | FLAG_FRAG
        udp_frag = dict(udp)
        udp_frag["length"] = 8 + len(pack_fields(NCP_FIELDS, ncp_frag)) + _FRAG_HDR_LEN + len(piece)
        ipv4_frag = dict(ipv4)
        ipv4_frag["total_len"] = 20 + udp_frag["length"]
        frames.append(
            pack_fields(ETH_FIELDS, eth)
            + pack_fields(IPV4_FIELDS, ipv4_frag)
            + pack_fields(UDP_FIELDS, udp_frag)
            + pack_fields(NCP_FIELDS, ncp_frag)
            + pack_fields(
                FRAG_FIELDS,
                {"index": index, "count": len(pieces), "payload_len": len(piece)},
            )
            + piece
        )
    return frames


def is_fragment(data: bytes) -> bool:
    """Whether *data* is an NCP fragment; a frame too short to hold the
    headers is not."""
    try:
        _, rest = unpack_fields(ETH_FIELDS, data)
        _, rest = unpack_fields(IPV4_FIELDS, rest)
        _, rest = unpack_fields(UDP_FIELDS, rest)
        ncp, _ = unpack_fields(NCP_FIELDS, rest)
    except ReproError:  # the codec's short-buffer error
        return False
    return bool(ncp["flags"] & FLAG_FRAG)


class Reassembler:
    """Collects fragments into complete NCP frames.

    Keyed by (src ip, original kernel id, seq) -- one outstanding window
    per sender/kernel/seq, as NCP's window sequencing guarantees.
    """

    def __init__(self, max_pending: int = 1024):
        self._pending: Dict[Tuple[int, int, int], Dict[int, bytes]] = {}
        self._meta: Dict[Tuple[int, int, int], Tuple[dict, dict, dict, dict, int]] = {}
        self.max_pending = max_pending
        self.reassembled = 0
        self.fragments_seen = 0

    def feed(self, data: bytes) -> Optional[bytes]:
        """Add one fragment; returns the rebuilt original frame when this
        fragment completes its window, else None."""
        eth, rest = unpack_fields(ETH_FIELDS, data)
        ipv4, rest = unpack_fields(IPV4_FIELDS, rest)
        udp, rest = unpack_fields(UDP_FIELDS, rest)
        ncp, rest = unpack_fields(NCP_FIELDS, rest)
        if not ncp["flags"] & FLAG_FRAG:
            raise NcpError("not a fragment")
        frag, payload = unpack_fields(FRAG_FIELDS, rest)
        payload = payload[: frag["payload_len"]]
        self.fragments_seen += 1

        original_kernel = ncp["kernel_id"] & ~FRAG_KERNEL_BIT
        key = (ipv4["src"], original_kernel, ncp["seq"])
        if key not in self._pending:
            if len(self._pending) >= self.max_pending:
                raise NcpError("reassembly table full")
            self._pending[key] = {}
            self._meta[key] = (eth, ipv4, udp, ncp, frag["count"])
        slots = self._pending[key]
        slots[frag["index"]] = payload

        count = self._meta[key][4]
        if len(slots) < count:
            return None
        eth, ipv4, udp, ncp, _ = self._meta.pop(key)
        del self._pending[key]
        full_payload = b"".join(slots[i] for i in range(count))
        ncp_orig = dict(ncp)
        ncp_orig["kernel_id"] = original_kernel
        ncp_orig["flags"] = ncp["flags"] & ~FLAG_FRAG
        udp_orig = dict(udp)
        udp_orig["length"] = 8 + len(pack_fields(NCP_FIELDS, ncp_orig)) + len(full_payload)
        ipv4_orig = dict(ipv4)
        ipv4_orig["total_len"] = 20 + udp_orig["length"]
        self.reassembled += 1
        return (
            pack_fields(ETH_FIELDS, eth)
            + pack_fields(IPV4_FIELDS, ipv4_orig)
            + pack_fields(UDP_FIELDS, udp_orig)
            + pack_fields(NCP_FIELDS, ncp_orig)
            + full_payload
        )

    @property
    def pending_windows(self) -> int:
        return len(self._pending)

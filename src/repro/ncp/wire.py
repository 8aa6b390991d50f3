"""NCP wire format.

NCP (Net Compute Protocol, paper S3.2) is the window transport: besides
moving window data it "encodes kernel execution context" -- which kernel
to execute, the window sequence number, the sender, and any user-defined
window-struct extension fields.

Frame layout (prototype scope: one window per packet, over UDP)::

    Ethernet | IPv4 | UDP(dport=NCP_PORT) | NCP fixed | ext fields | data

The same (name, bits) layouts drive three consumers:

* the host-side codec in this module (:func:`encode_frame` /
  :func:`decode_frame` / :func:`peek_frame`), through the compiled
  :class:`~repro.util.bits.Layout` of each table and of their stacked
  :data:`PREFIX`;
* nclc's generated parser spec (:func:`ncp_parse_states`), so the switch
  parses exactly what hosts emit;
* the KernelLayout registry the runtime uses to frame windows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import NcpError
from repro.ncl.types import PointerType, Type, is_signed, scalar_bits
from repro.util import intops
from repro.util.bits import Layout

# -- constants -----------------------------------------------------------------

ETHERTYPE_IPV4 = 0x0800
IP_PROTO_UDP = 17
NCP_PORT = 0x4E43  # 'NC'
NCP_MAGIC = 0xC317
NCP_VERSION = 1

FLAG_LAST = 0x01
#: (0x02 is FLAG_FRAG, defined in repro.ncp.fragment)
#: frame carries an in-band telemetry trailer (see repro.obs.int)
FLAG_INT = 0x04

ETH_FIELDS: List[Tuple[str, int]] = [("dst", 48), ("src", 48), ("ethertype", 16)]
IPV4_FIELDS: List[Tuple[str, int]] = [
    ("version_ihl", 8),
    ("tos", 8),
    ("total_len", 16),
    ("ident", 16),
    ("flags_frag", 16),
    ("ttl", 8),
    ("proto", 8),
    ("checksum", 16),
    ("src", 32),
    ("dst", 32),
]
UDP_FIELDS: List[Tuple[str, int]] = [
    ("sport", 16),
    ("dport", 16),
    ("length", 16),
    ("checksum", 16),
]
NCP_FIELDS: List[Tuple[str, int]] = [
    ("magic", 16),
    ("version", 8),
    ("flags", 8),
    ("kernel_id", 16),
    ("from_node", 16),
    ("seq", 32),
]

ETH = Layout(ETH_FIELDS)
IPV4 = Layout(IPV4_FIELDS)
UDP = Layout(UDP_FIELDS)
NCP = Layout(NCP_FIELDS)

#: The Ethernet/IPv4/UDP/NCP prefix every NCP frame starts with, as one
#: layout whose fields are named ``<header>.<field>`` (``"ip.src"``,
#: ``"ncp.seq"``, ...); the payload follows at ``PREFIX.nbytes``.
PREFIX = Layout([
    (f"{header}.{name}", bits)
    for header, fields in (
        ("eth", ETH_FIELDS), ("ip", IPV4_FIELDS), ("udp", UDP_FIELDS), ("ncp", NCP_FIELDS)
    )
    for name, bits in fields
])

IPV4_VERSION_IHL = 0x45
DEFAULT_TTL = 64


def node_ip(node_id: int) -> int:
    """Deterministic IPv4 address for a node id: 10.0.x.y."""
    return (10 << 24) | (node_id & 0xFFFF)


def node_mac(node_id: int) -> int:
    return (0x02 << 40) | (node_id & 0xFFFF)


# -- kernel layouts ----------------------------------------------------------------


class ChunkLayout:
    """One parameter's slice of a window: ``count`` elements of
    ``bits``-wide (``signed``?) integers."""

    __slots__ = ("name", "count", "bits", "signed")

    def __init__(self, name: str, count: int, bits: int, signed: bool):
        if count <= 0:
            raise NcpError(f"chunk {name!r}: count must be positive")
        if bits not in (8, 16, 32, 64):
            raise NcpError(f"chunk {name!r}: unsupported element width {bits}")
        self.name = name
        self.count = count
        self.bits = bits
        self.signed = signed

    @property
    def bytes(self) -> int:
        return self.count * self.bits // 8

    def __repr__(self) -> str:
        return f"ChunkLayout({self.name} x{self.count} @{self.bits}b)"


class KernelLayout:
    """The on-the-wire shape of one kernel's windows.

    Derived from the kernel signature plus the window mask: parameter *i*
    contributes ``mask[i]`` elements per window (paper S4.2: "a mask with
    the number of elements from each array ... its length must always
    match the number of pointers in an _out_ kernel's signature").
    Scalar parameters contribute one element regardless.
    """

    def __init__(
        self,
        kernel_id: int,
        kernel_name: str,
        chunks: Sequence[ChunkLayout],
        ext_fields: Sequence[Tuple[str, int, bool]] = (),
    ):
        self.kernel_id = kernel_id
        self.kernel_name = kernel_name
        self.chunks = list(chunks)
        self.ext_fields = [(n, b, s) for n, b, s in ext_fields]
        #: compiled codec for ext fields + data elements (not serialized)
        self.payload = Layout(self.payload_field_layout())

    @property
    def data_bytes(self) -> int:
        return sum(c.bytes for c in self.chunks)

    @property
    def ext_bytes(self) -> int:
        return sum(b for _, b, _ in self.ext_fields) // 8

    def payload_field_layout(self) -> List[Tuple[str, int]]:
        """(name, bits) list for ext fields + data elements; also the
        field layout of the generated per-kernel P4 header."""
        fields: List[Tuple[str, int]] = [
            (f"x_{name}", bits) for name, bits, _ in self.ext_fields
        ]
        for ci, chunk in enumerate(self.chunks):
            fields.extend(
                (f"d{ci}_{ei}", chunk.bits) for ei in range(chunk.count)
            )
        return fields

    def __repr__(self) -> str:
        return f"KernelLayout(#{self.kernel_id} {self.kernel_name}, {self.chunks})"


def layout_for_kernel(
    kernel_id: int,
    kernel_name: str,
    param_types: Sequence[Tuple[str, Type]],
    mask: Sequence[int],
    ext_fields: Sequence[Tuple[str, Type]] = (),
) -> KernelLayout:
    """Build a KernelLayout from NCL types + a window mask."""
    if len(mask) != len(param_types):
        raise NcpError(
            f"mask length {len(mask)} != number of window-data parameters "
            f"{len(param_types)}"
        )
    chunks = []
    for (name, ty), count in zip(param_types, mask):
        if isinstance(ty, PointerType):
            elem = ty.pointee
        else:
            elem = ty
            if count != 1:
                raise NcpError(
                    f"scalar parameter {name!r} must have mask entry 1, got {count}"
                )
        chunks.append(ChunkLayout(name, count, scalar_bits(elem), is_signed(elem)))
    ext = [(n, scalar_bits(t), is_signed(t)) for n, t in ext_fields]
    return KernelLayout(kernel_id, kernel_name, chunks, ext)


# -- frame codec --------------------------------------------------------------------


def pack_prefix(headers: Dict[str, int], payload_len: int) -> bytes:
    """Pack a :data:`PREFIX` for ``payload_len`` NCP payload bytes; the
    UDP and IPv4 length fields are filled in from it."""
    udp_len = UDP.nbytes + NCP.nbytes + payload_len
    return PREFIX.pack(
        {**headers, "udp.length": udp_len, "ip.total_len": IPV4.nbytes + udp_len}
    )


def encode_frame(
    layout: KernelLayout,
    src_node: int,
    dst_node: int,
    seq: int,
    chunks: Sequence[Sequence[int]],
    ext_values: Optional[Dict[str, int]] = None,
    last: bool = False,
    from_node: Optional[int] = None,
) -> bytes:
    """Serialize one window into a full Ethernet/IPv4/UDP/NCP frame."""
    if len(chunks) != len(layout.chunks):
        raise NcpError(
            f"expected {len(layout.chunks)} chunks, got {len(chunks)}"
        )
    ext_values = ext_values or {}

    values: List[int] = []
    for name, _bits, _signed in layout.ext_fields:
        if name not in ext_values:
            raise NcpError(f"missing window extension field {name!r}")
        values.append(ext_values[name])
    for chunk_layout, chunk in zip(layout.chunks, chunks):
        if len(chunk) != chunk_layout.count:
            raise NcpError(
                f"chunk {chunk_layout.name!r}: expected {chunk_layout.count} "
                f"elements, got {len(chunk)}"
            )
        values.extend(chunk)
    payload = layout.payload.pack_values(values)

    prefix = pack_prefix(
        {
            "eth.dst": node_mac(dst_node),
            "eth.src": node_mac(src_node),
            "eth.ethertype": ETHERTYPE_IPV4,
            "ip.version_ihl": IPV4_VERSION_IHL,
            "ip.ident": seq & 0xFFFF,
            "ip.ttl": DEFAULT_TTL,
            "ip.proto": IP_PROTO_UDP,
            "ip.src": node_ip(src_node),
            "ip.dst": node_ip(dst_node),
            "udp.sport": NCP_PORT,
            "udp.dport": NCP_PORT,
            "ncp.magic": NCP_MAGIC,
            "ncp.version": NCP_VERSION,
            "ncp.flags": FLAG_LAST if last else 0,
            "ncp.kernel_id": layout.kernel_id,
            "ncp.from_node": src_node if from_node is None else from_node,
            "ncp.seq": seq,
        },
        len(payload),
    )
    return prefix + payload


class DecodedFrame:
    """A parsed NCP frame."""

    def __init__(
        self,
        src_node: int,
        dst_node: int,
        kernel_id: int,
        from_node: int,
        seq: int,
        last: bool,
        ext: Dict[str, int],
        chunks: List[List[int]],
    ):
        self.src_node = src_node
        self.dst_node = dst_node
        self.kernel_id = kernel_id
        self.from_node = from_node
        self.seq = seq
        self.last = last
        self.ext = ext
        self.chunks = chunks

    def __repr__(self) -> str:
        return (
            f"DecodedFrame(k{self.kernel_id} seq={self.seq} from={self.from_node} "
            f"last={self.last})"
        )


#: (where, expected bytes) of the PREFIX fields that mark an NCP frame
_NCP_SIGNATURE = [
    (where, value.to_bytes(where.stop - where.start, "big"))
    for where, value in (
        (PREFIX.byte_slice("eth.ethertype"), ETHERTYPE_IPV4),
        (PREFIX.byte_slice("ip.proto"), IP_PROTO_UDP),
        (PREFIX.byte_slice("udp.dport"), NCP_PORT),
        (PREFIX.byte_slice("ncp.magic"), NCP_MAGIC),
    )
]
#: peek_frame's keys and where in PREFIX each value sits
_PEEK_FIELDS = [
    (key, PREFIX.byte_slice(name))
    for key, name in (
        ("kernel", "ncp.kernel_id"),
        ("seq", "ncp.seq"),
        ("from", "ncp.from_node"),
        ("flags", "ncp.flags"),
        ("src", "ip.src"),
        ("dst", "ip.dst"),
    )
]


def is_ncp_frame(data: bytes) -> bool:
    """Cheap check mirroring the switch parser's NCP recognition."""
    return peek_frame(data) is not None


def peek_frame(data: bytes) -> Optional[Dict[str, int]]:
    """Header-only decode (no kernel layout needed) for tracing, routing
    and delivery: which window is this frame carrying? Reads only the
    fields it returns, at offsets derived from :data:`PREFIX`; it runs
    once per packet on the simulator fast path (cached on
    repro.net.Frame). Returns None for non-NCP frames."""
    if len(data) < PREFIX.nbytes:
        return None
    for where, expected in _NCP_SIGNATURE:
        if data[where] != expected:
            return None
    meta = {key: int.from_bytes(data[where], "big") for key, where in _PEEK_FIELDS}
    meta["last"] = meta["flags"] & FLAG_LAST
    meta["src"] &= 0xFFFF  # node ids are the low 16 bits of the address
    meta["dst"] &= 0xFFFF
    return meta


def decode_frame(
    data: bytes, layouts: Dict[int, KernelLayout]
) -> DecodedFrame:
    """Parse a full frame; dispatches the payload layout on kernel_id."""
    h = PREFIX.unpack(data)
    if h["eth.ethertype"] != ETHERTYPE_IPV4:
        raise NcpError(f"not IPv4 (ethertype {h['eth.ethertype']:#x})")
    if h["ip.proto"] != IP_PROTO_UDP:
        raise NcpError(f"not UDP (proto {h['ip.proto']})")
    if h["udp.dport"] != NCP_PORT:
        raise NcpError(f"not an NCP port ({h['udp.dport']})")
    if h["ncp.magic"] != NCP_MAGIC:
        raise NcpError(f"bad NCP magic {h['ncp.magic']:#x}")
    if h["ncp.version"] != NCP_VERSION:
        raise NcpError(f"unsupported NCP version {h['ncp.version']}")
    kernel_id = h["ncp.kernel_id"]
    layout = layouts.get(kernel_id)
    if layout is None:
        raise NcpError(f"unknown kernel id {kernel_id}")

    values = layout.payload.unpack_values(data, PREFIX.nbytes)
    ext = {
        name: intops.wrap(value, bits, signed)
        for (name, bits, signed), value in zip(layout.ext_fields, values)
    }
    chunks: List[List[int]] = []
    pos = len(layout.ext_fields)
    for chunk_layout in layout.chunks:
        chunk = values[pos : pos + chunk_layout.count]
        pos += chunk_layout.count
        if chunk_layout.signed:
            bits = chunk_layout.bits
            chunk = [intops.wrap(v, bits, True) for v in chunk]
        chunks.append(chunk)

    return DecodedFrame(
        src_node=h["ip.src"] & 0xFFFF,
        dst_node=h["ip.dst"] & 0xFFFF,
        kernel_id=kernel_id,
        from_node=h["ncp.from_node"],
        seq=h["ncp.seq"],
        last=bool(h["ncp.flags"] & FLAG_LAST),
        ext=ext,
        chunks=chunks,
    )

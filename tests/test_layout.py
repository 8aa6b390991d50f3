"""The compiled header codec (repro.util.bits.Layout) against the per-bit
oracle, and the header peek against the full decode."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.ncp.fragment import FLAG_FRAG, fragment_frame
from repro.ncp.wire import (
    ETH_FIELDS,
    ETHERTYPE_IPV4,
    FLAG_LAST,
    IP_PROTO_UDP,
    IPV4_FIELDS,
    NCP_FIELDS,
    NCP_MAGIC,
    NCP_PORT,
    PREFIX,
    UDP_FIELDS,
    ChunkLayout,
    KernelLayout,
    decode_frame,
    encode_frame,
    peek_frame,
)
from repro.obs.int import attach_tail
from repro.util.bits import Layout

from tests.bit_oracle import pack_fields, unpack_fields


@st.composite
def layouts(draw):
    """Fields 1..64 bits wide, mostly not byte-aligned, padded so the
    whole layout is a whole number of bytes."""
    widths = draw(st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=8))
    pad = -sum(widths) % 8
    if pad:
        widths.append(pad)
    return [(f"f{i}", bits) for i, bits in enumerate(widths)]


class TestLayoutMatchesOracle:
    @given(layouts(), st.data())
    def test_pack_equals_oracle(self, fields, data):
        # values may be negative or wider than the field: both codecs mask
        values = {
            name: data.draw(st.integers(min_value=-(1 << 65), max_value=1 << 65))
            for name, _ in fields
            if data.draw(st.booleans())  # missing fields pack as 0
        }
        assert Layout(fields).pack(values) == pack_fields(fields, values)

    @given(layouts(), st.data())
    def test_unpack_equals_oracle(self, fields, data):
        layout = Layout(fields)
        buf = data.draw(st.binary(min_size=layout.nbytes, max_size=layout.nbytes))
        trailing = data.draw(st.binary(max_size=8))
        values, rest = unpack_fields(fields, buf + trailing)
        assert layout.unpack(buf + trailing) == values
        assert rest == trailing
        assert layout.unpack(trailing + buf + trailing, len(trailing)) == values

    @given(layouts(), st.data())
    def test_short_buffer_raises_like_oracle(self, fields, data):
        layout = Layout(fields)
        short = data.draw(st.binary(max_size=layout.nbytes - 1))
        with pytest.raises(ReproError):
            unpack_fields(fields, short)
        with pytest.raises(ReproError, match="too short"):
            layout.unpack(short)

    @given(layouts())
    def test_offsets_are_running_sums(self, fields):
        layout = Layout(fields)
        pos = 0
        for name, bits in fields:
            assert layout.bit_offsets[name] == pos
            pos += bits
        assert layout.nbytes * 8 == pos

    def test_non_byte_total_rejected(self):
        with pytest.raises(ReproError, match="whole number of bytes"):
            Layout([("a", 3)])

    def test_byte_slice_only_for_aligned_fields(self):
        layout = Layout([("a", 4), ("b", 4), ("c", 16)])
        assert layout.byte_slice("c") == slice(1, 3)
        with pytest.raises(ReproError, match="not byte-aligned"):
            layout.byte_slice("a")

    def test_prefix_is_the_four_tables_stacked(self):
        expected = []
        for header, fields in (
            ("eth", ETH_FIELDS), ("ip", IPV4_FIELDS), ("udp", UDP_FIELDS), ("ncp", NCP_FIELDS)
        ):
            expected.extend((f"{header}.{name}", bits) for name, bits in fields)
        assert PREFIX.fields == expected
        assert PREFIX.nbytes == 54


CHUNKS = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=6),
        st.sampled_from([8, 16, 32, 64]),
        st.booleans(),
    ),
    min_size=1,
    max_size=3,
)


@st.composite
def encoded_frames(draw):
    """(frame bytes, kernel layout) for a random window, sometimes
    fragmented and/or armed for INT."""
    kernel_id = draw(st.integers(min_value=1, max_value=0x7FFF))
    chunk_specs = draw(CHUNKS)
    chunks = [ChunkLayout(f"c{i}", n, bits, signed) for i, (n, bits, signed) in enumerate(chunk_specs)]
    ext = [("tag", 32, False)] if draw(st.booleans()) else []
    layout = KernelLayout(kernel_id, "k", chunks, ext)
    values = [
        [draw(st.integers(min_value=0, max_value=(1 << c.bits) - 1)) for _ in range(c.count)]
        for c in chunks
    ]
    frame = encode_frame(
        layout,
        src_node=draw(st.integers(min_value=0, max_value=0xFFFF)),
        dst_node=draw(st.integers(min_value=0, max_value=0xFFFF)),
        seq=draw(st.integers(min_value=0, max_value=0xFFFFFFFF)),
        chunks=values,
        ext_values={"tag": draw(st.integers(min_value=0, max_value=0xFFFFFFFF))},
        last=draw(st.booleans()),
        from_node=draw(st.none() | st.integers(min_value=0, max_value=0xFFFF)),
    )
    if draw(st.booleans()):
        frame = draw(st.sampled_from(fragment_frame(frame, 80)))
    if draw(st.booleans()):
        frame = attach_tail(frame, attempt=draw(st.integers(min_value=0, max_value=255)))
    return frame, layout


def oracle_headers(frame):
    """(eth, ip, udp, ncp) header dicts read by the per-bit oracle."""
    eth, rest = unpack_fields(ETH_FIELDS, frame)
    ip, rest = unpack_fields(IPV4_FIELDS, rest)
    udp, rest = unpack_fields(UDP_FIELDS, rest)
    ncp, _ = unpack_fields(NCP_FIELDS, rest)
    return eth, ip, udp, ncp


class TestPeekMatchesDecode:
    @given(encoded_frames())
    @settings(max_examples=200)
    def test_peek_equals_header_fields(self, case):
        frame, layout = case
        _, ip, _, ncp = oracle_headers(frame)
        meta = peek_frame(frame)
        assert meta == {
            "kernel": ncp["kernel_id"],
            "seq": ncp["seq"],
            "from": ncp["from_node"],
            "flags": ncp["flags"],
            "last": ncp["flags"] & FLAG_LAST,
            "src": ip["src"] & 0xFFFF,
            "dst": ip["dst"] & 0xFFFF,
        }
        if not ncp["flags"] & FLAG_FRAG:
            decoded = decode_frame(frame, {layout.kernel_id: layout})
            assert (
                decoded.kernel_id, decoded.seq, decoded.from_node,
                int(decoded.last), decoded.src_node, decoded.dst_node,
            ) == (
                meta["kernel"], meta["seq"], meta["from"],
                meta["last"], meta["src"], meta["dst"],
            )

    @given(st.binary(min_size=PREFIX.nbytes, max_size=80), st.booleans())
    def test_peek_recognises_exactly_the_ncp_signature(self, blob, stamp):
        if stamp:  # make the signature fields match
            head = PREFIX.unpack(blob)
            head.update({
                "eth.ethertype": ETHERTYPE_IPV4, "ip.proto": IP_PROTO_UDP,
                "udp.dport": NCP_PORT, "ncp.magic": NCP_MAGIC,
            })
            blob = PREFIX.pack(head) + blob[PREFIX.nbytes :]
        eth, ip, udp, ncp = oracle_headers(blob)
        is_ncp = (
            eth["ethertype"] == ETHERTYPE_IPV4
            and ip["proto"] == IP_PROTO_UDP
            and udp["dport"] == NCP_PORT
            and ncp["magic"] == NCP_MAGIC
        )
        assert (peek_frame(blob) is not None) == is_ncp
        assert is_ncp or not stamp

    def test_peek_short_frame_is_not_ncp(self):
        layout = KernelLayout(1, "k", [ChunkLayout("d", 1, 8, False)])
        frame = encode_frame(layout, 1, 2, seq=0, chunks=[[7]])
        assert peek_frame(frame[: PREFIX.nbytes]) is not None
        assert peek_frame(frame[: PREFIX.nbytes - 1]) is None

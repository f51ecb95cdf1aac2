"""Property tests: batch serialization equals the scalar path byte-for-byte.

``checksum_many`` and ``serialize_many`` exist purely to amortize
Python overhead — they promise *bit-identical* results to the scalar
``internet_checksum`` / ``Packet.to_bytes`` loops, including the pack
side effects the scalar path leaves behind (stored L4 checksums,
recomputed IP total lengths).  These tests pin that contract.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packet import (
    ICMPMessage,
    ICMPType,
    IPProto,
    IPv4Header,
    Packet,
    TCPFlags,
    checksum_many,
    internet_checksum,
    serialize_many,
)
from repro.packet.builder import build_icmp, build_tcp, build_udp

# ---------------------------------------------------------------------------
# checksum_many vs the scalar oracle
# ---------------------------------------------------------------------------

chunk = st.binary(max_size=257)  # odd bound: exercises the padding path


@given(st.lists(chunk, max_size=12))
def test_checksum_many_matches_scalar(chunks):
    assert checksum_many(chunks) == [internet_checksum(c) for c in chunks]


def test_checksum_many_empty_batch():
    assert checksum_many([]) == []


def test_checksum_many_empty_chunk():
    # An empty chunk sums to 0 and folds to 0xFFFF, same as the scalar.
    assert checksum_many([b""]) == [internet_checksum(b"")] == [0xFFFF]


@given(st.lists(st.binary(min_size=1, max_size=33).filter(lambda d: len(d) % 2),
                min_size=1, max_size=8))
def test_checksum_many_all_odd_lengths(chunks):
    # Every chunk odd: each one pads independently, none bleeds into
    # its neighbour's words.
    assert checksum_many(chunks) == [internet_checksum(c) for c in chunks]


@given(st.lists(st.one_of(st.binary(max_size=9), st.binary(min_size=1000, max_size=1501)),
                min_size=2, max_size=10))
def test_checksum_many_mixed_sizes(chunks):
    assert checksum_many(chunks) == [internet_checksum(c) for c in chunks]


# ---------------------------------------------------------------------------
# serialize_many vs Packet.to_bytes
# ---------------------------------------------------------------------------

ip_addr = st.integers(min_value=0, max_value=0xFFFFFFFF)
port = st.integers(min_value=0, max_value=0xFFFF)
payload = st.binary(max_size=200)


@st.composite
def tcp_packets(draw):
    packet = build_tcp(
        draw(ip_addr), draw(ip_addr), draw(port), draw(port),
        payload=draw(payload),
        seq=draw(st.integers(min_value=0, max_value=0xFFFFFFFF)),
        ack=draw(st.integers(min_value=0, max_value=0xFFFFFFFF)),
        flags=draw(st.integers(min_value=0, max_value=0xFF)),
        window=draw(port),
        mss=draw(st.one_of(st.none(), st.integers(min_value=536, max_value=9000))),
        tos=draw(st.integers(min_value=0, max_value=0xFF)),
        ip_id=draw(port),
    )
    return packet


@st.composite
def udp_packets(draw):
    return build_udp(
        draw(ip_addr), draw(ip_addr), draw(port), draw(port),
        payload=draw(payload), ip_id=draw(port),
    )


@st.composite
def icmp_packets(draw):
    # ICMP falls back to the scalar l4.pack() inside serialize_many;
    # still must match to_bytes exactly.
    return build_icmp(
        draw(ip_addr), draw(ip_addr),
        ICMPMessage(icmp_type=ICMPType.ECHO_REQUEST, code=0,
                    payload=draw(st.binary(max_size=64))),
    )


@st.composite
def fragments(draw):
    # A middle fragment: l4 is None, the payload is raw bytes.
    ip = IPv4Header(
        src=draw(ip_addr), dst=draw(ip_addr), protocol=IPProto.UDP,
        identification=draw(port), more_fragments=True,
        fragment_offset=draw(st.integers(min_value=1, max_value=512)),
    )
    body = draw(st.binary(min_size=8, max_size=64))
    ip.total_length = ip.header_len + len(body)
    return Packet(ip=ip, l4=None, payload=body)


any_packet = st.one_of(tcp_packets(), udp_packets(), icmp_packets(), fragments())


@settings(max_examples=60, deadline=None)
@given(st.lists(any_packet, max_size=10))
def test_serialize_many_matches_to_bytes(packets):
    scalars = [copy.deepcopy(p) for p in packets]
    assert serialize_many(packets) == [p.to_bytes() for p in scalars]


@settings(max_examples=40, deadline=None)
@given(st.lists(any_packet, min_size=1, max_size=6))
def test_serialize_many_replicates_pack_side_effects(packets):
    # Scalar pack() stores the computed L4 checksum on the header and
    # refreshes ip.total_length; the batch path must leave the same
    # state behind so later code observing those fields can't tell the
    # two paths apart.
    scalars = [copy.deepcopy(p) for p in packets]
    serialize_many(packets)
    for p in scalars:
        p.to_bytes()
    for batch_p, scalar_p in zip(packets, scalars):
        assert batch_p.ip.total_length == scalar_p.ip.total_length
        if batch_p.l4 is not None and not isinstance(batch_p.l4, ICMPMessage):
            assert batch_p.l4.checksum == scalar_p.l4.checksum


def test_serialize_many_empty_batch():
    assert serialize_many([]) == []


def test_serialize_many_zero_ip_skips_checksum():
    # Both IPs zero means "not yet addressed": the scalar path stores
    # checksum 0 instead of computing one; the batch path must follow.
    batch = build_tcp(0, 0, 1, 2, payload=b"xy", ip_id=7)
    scalar = copy.deepcopy(batch)
    assert serialize_many([batch]) == [scalar.to_bytes()]
    assert batch.l4.checksum == scalar.l4.checksum == 0


def test_serialize_many_udp_zero_checksum_maps_to_ffff():
    # RFC 768: a computed 0 is transmitted as 0xFFFF.  Solve for a
    # payload word that drives the ones-complement sum to ~0, so the
    # computed checksum is exactly zero on both paths.
    import struct

    from repro.packet.checksum import ones_complement_sum, pseudo_header

    probe = build_udp("10.0.0.1", "10.0.0.2", 5, 5, payload=b"\x00\x00", ip_id=3)
    pseudo = pseudo_header(probe.ip.src, probe.ip.dst, IPProto.UDP, 10)
    head = struct.pack("!HHHH", 5, 5, 10, 0)  # length 10, zero ck field
    base = ones_complement_sum(pseudo + head)
    word = (0xFFFF - base) & 0xFFFF
    magic = build_udp("10.0.0.1", "10.0.0.2", 5, 5,
                      payload=word.to_bytes(2, "big"), ip_id=3)
    scalar = copy.deepcopy(magic)
    wire = scalar.to_bytes()
    assert scalar.l4.checksum == 0xFFFF  # the zero result was remapped
    assert serialize_many([magic]) == [wire]
    assert magic.l4.checksum == 0xFFFF

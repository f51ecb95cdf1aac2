"""Property-based tests on whole-datapath invariants.

These go beyond per-engine tests: a GatewayWorker (classification,
merge, split, caravan, MSS clamp together) must never corrupt a byte
stream or a datagram boundary, for any interleaving hypothesis throws
at it.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Bound, GatewayConfig, GatewayWorker, decode_caravan, is_caravan
from repro.nic.rss import RssDistributor
from repro.packet import FlowKey, IPProto, TCPFlags, build_tcp, build_udp


def patterned(length, tag):
    return bytes((tag * 7 + i) % 251 for i in range(length))


class TestWorkerStreamIdentity:
    @settings(max_examples=20, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=1448), min_size=1, max_size=60),
        data=st.data(),
    )
    def test_inbound_merge_preserves_per_flow_streams(self, sizes, data):
        """Any mix of in-order flows comes out as the same byte streams."""
        worker = GatewayWorker(GatewayConfig(hairpin_small_flows=False))
        flow_count = data.draw(st.integers(min_value=1, max_value=4))
        seqs = [0] * flow_count
        sent = [bytearray() for _ in range(flow_count)]
        outputs = []
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=1000)))
        for size in sizes:
            flow = rng.randrange(flow_count)
            payload = patterned(size, flow)
            packet = build_tcp("198.51.100.9", "10.1.0.9", 6000 + flow, 80,
                               payload=payload, seq=seqs[flow], flags=TCPFlags.ACK)
            seqs[flow] += size
            sent[flow].extend(payload)
            outputs.extend(worker.process(packet, Bound.INBOUND))
        outputs.extend(worker.merge.flush())

        received = [bytearray() for _ in range(flow_count)]
        for packet in outputs:
            flow = packet.tcp.src_port - 6000
            received[flow].extend(packet.payload)
        for flow in range(flow_count):
            assert bytes(received[flow]) == bytes(sent[flow])

    @settings(max_examples=20, deadline=None)
    @given(
        payload_len=st.integers(min_value=1, max_value=60000),
        emtu=st.integers(min_value=576, max_value=1500),
    )
    def test_outbound_split_respects_any_emtu(self, payload_len, emtu):
        worker = GatewayWorker(GatewayConfig(emtu=emtu, hairpin_small_flows=False))
        packet = build_tcp("10.1.0.9", "198.51.100.9", 80, 6000,
                           payload=patterned(min(payload_len, 8960), 1))
        outputs = worker.process(packet, Bound.OUTBOUND)
        assert all(p.total_len <= emtu for p in outputs)
        assert b"".join(p.payload for p in outputs) == packet.payload

    @settings(max_examples=20, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=30),
        size=st.integers(min_value=100, max_value=1400),
    )
    def test_udp_roundtrip_through_both_directions(self, count, size):
        """Datagrams caravan'd inbound then split outbound are identical."""
        inbound = GatewayWorker(GatewayConfig(hairpin_small_flows=False))
        outbound = GatewayWorker(GatewayConfig(hairpin_small_flows=False))
        originals = []
        transported = []
        for index in range(count):
            packet = build_udp("198.51.100.9", "10.1.0.9", 7000, 443,
                               payload=patterned(size, index), ip_id=200 + index)
            originals.append(packet)
            transported.extend(inbound.process(packet, Bound.INBOUND))
        transported.extend(inbound.caravan_merge.flush())
        restored = []
        for packet in transported:
            restored.extend(outbound.process(packet, Bound.OUTBOUND))
        assert [p.payload for p in restored] == [p.payload for p in originals]

    @settings(max_examples=15, deadline=None)
    @given(mss=st.integers(min_value=100, max_value=65000))
    def test_any_syn_mss_clamped_into_bounds(self, mss):
        worker = GatewayWorker(GatewayConfig())
        syn_out = build_tcp("10.1.0.9", "198.51.100.9", 80, 6000,
                            flags=TCPFlags.SYN, mss=mss)
        [out] = worker.process(syn_out, Bound.OUTBOUND)
        assert out.tcp.mss_option <= 1460
        syn_in = build_tcp("198.51.100.9", "10.1.0.9", 6000, 80,
                           flags=TCPFlags.SYN, mss=mss)
        [out] = worker.process(syn_in, Bound.INBOUND)
        assert out.tcp.mss_option >= min(mss, 8960)


class TestRssProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        src=st.integers(min_value=1, max_value=0xFFFFFFFE),
        sport=st.integers(min_value=1, max_value=65535),
        dport=st.integers(min_value=1, max_value=65535),
        queues=st.integers(min_value=1, max_value=64),
    )
    def test_queue_always_in_range_and_stable(self, src, sport, dport, queues):
        rss = RssDistributor(queues=queues)
        key = FlowKey(IPProto.TCP, src, sport, 0x0A010001, dport)
        queue = rss.shard_for(key)
        assert 0 <= queue < queues
        assert rss.shard_for(key) == queue

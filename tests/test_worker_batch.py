"""One worker pipeline: a poll batch and the same packets one at a time
are the same computation.

``GatewayWorker.process`` is ``process_batch`` over a batch of one, and
``process_batch`` runs its packets in arrival order with the mode and
the observer hooks read once per batch.  So in every mode, with every
observer attached, running a burst as one batch and running it packet
by packet must agree on every emitted byte and its order, every stat,
every charged cycle, every trace record and the span balance.  The only
thing allowed to differ is the process-global IP ID that merged and
split packets draw, which is zeroed before comparing.
"""

import random

import pytest

from repro.core.caravan import encode_caravan
from repro.core.config import GatewayConfig
from repro.core.worker import Bound, GatewayWorker, WorkerMode
from repro.fleet import GatewayFleet
from repro.obs import FlowTracer, SpanTracker
from repro.packet import ICMPMessage, TCPFlags, build_icmp, build_tcp, build_udp
from repro.workload import interleave, make_tcp_sources, make_udp_sources

OBSERVERS = ("none", "tracer", "spans")


def _zeroed(packets):
    """Wire bytes in order, with the process-global IP ID zeroed."""
    wire = []
    for packet in packets:
        copy = packet.copy()
        copy.ip.identification = 0
        wire.append(copy.to_bytes())
    return wire


def _bursts():
    """Seeded poll bursts ``(bound, packets)`` reaching every branch.

    Inbound bursts mix mergeable TCP flows, caravan-eligible UDP flows,
    handshakes and an ICMP message (no flow key) inside same-flow runs;
    outbound bursts carry jumbo TCP to split and caravans to open.
    """
    rng = random.Random(0xB47C)
    down = make_tcp_sources(6, 1448) + make_udp_sources(4, 1200)
    up = make_tcp_sources(4, 8948, base_port=30000,
                          client_net="10.1.0", server_net="198.51.100")
    inbound = [packet for packet, _ in interleave(down, 6 * 64, rng, mean_run=6.0)]
    outbound = [packet for packet, _ in interleave(up, 6 * 12, rng, mean_run=4.0)]
    bursts = []
    for index in range(6):
        burst = inbound[index * 64:(index + 1) * 64]
        burst.insert(3, build_tcp("198.51.100.77", "10.1.0.7", 41000 + index, 443,
                                  flags=TCPFlags.SYN, mss=1460))
        burst.insert(20, build_icmp("198.51.100.78", "10.1.0.8",
                                    ICMPMessage.echo_request(7, index)))
        bursts.append((Bound.INBOUND, burst))
        burst = outbound[index * 12:(index + 1) * 12]
        burst.insert(2, build_tcp("10.1.0.9", "198.51.100.9", 443, 42000 + index,
                                  flags=TCPFlags.SYN | TCPFlags.ACK, mss=8960))
        burst.append(encode_caravan([
            build_udp("10.1.0.5", "198.51.100.5", 4433, 6000, payload=bytes(1000))
            for _ in range(3)
        ]))
        bursts.append((Bound.OUTBOUND, burst))
    return bursts


BURSTS = _bursts()


def _run(mode, observer, per_packet):
    """Drive BURSTS through one worker; returns (worker, egress)."""
    worker = GatewayWorker(GatewayConfig(), index=0)
    if observer == "tracer":
        worker.tracer = FlowTracer(capacity=1 << 16)
    elif observer == "spans":
        worker.spans = SpanTracker()
    egress = worker.set_mode(mode, 0.0)
    now = 0.0
    for bound, burst in BURSTS:
        packets = [packet.copy() for packet in burst]
        if per_packet:
            for packet in packets:
                egress += worker.process(packet, bound, now)
        else:
            egress += worker.process_batch(packets, bound, now)
        now += 200e-6
        egress += worker.end_batch(now)
    egress += worker.end_batch(now + 1.0)
    return worker, egress


@pytest.mark.parametrize("observer", OBSERVERS)
@pytest.mark.parametrize("mode", WorkerMode.ALL)
def test_batch_equals_per_packet(mode, observer):
    batch_w, batch_out = _run(mode, observer, per_packet=False)
    single_w, single_out = _run(mode, observer, per_packet=True)

    assert _zeroed(batch_out) == _zeroed(single_out)
    assert vars(batch_w.stats) == vars(single_w.stats)
    assert vars(batch_w.account) == vars(single_w.account)
    assert batch_w.classifier.promotions == single_w.classifier.promotions
    assert batch_w.stats.rx_packets == sum(len(burst) for _, burst in BURSTS)
    assert batch_w.stats.conservation_errors() == {}

    if observer == "tracer":
        records = batch_w.tracer.events()
        assert records == single_w.tracer.events()
        assert batch_w.tracer.dropped == 0
        assert {"ingress", "egress"} <= {record["kind"] for record in records}
    if observer == "spans":
        spans, single = batch_w.spans, single_w.spans
        assert spans.balanced and single.balanced
        assert spans.balance() == single.balance()
        assert spans.anomalies == single.anomalies == 0
        assert spans.kinds() == single.kinds()
        assert spans.stages() == single.stages()


def test_one_lookup_per_same_flow_run():
    # Runs follow arrival order: a flow that comes back after another
    # flow starts a new run, while a flowless packet touches no flow
    # state and so does not break the run around it.
    a, b = make_tcp_sources(2, 1448)
    icmp = build_icmp("198.51.100.78", "10.1.0.8", ICMPMessage.echo_request(7, 1))
    burst = ([a.next_packet() for _ in range(3)] + [icmp]
             + [a.next_packet() for _ in range(2)]
             + [b.next_packet() for _ in range(2)] + [a.next_packet()])
    worker = GatewayWorker(GatewayConfig(), index=0)
    worker.process_batch(burst, Bound.INBOUND)
    assert worker.flows.lookups == 3
    assert worker.flows.peek(burst[0].flow_key()).packets == 6
    assert worker.flows.peek(burst[-2].flow_key()).packets == 2
    assert worker.stats.rx_packets == len(burst)


def _stream(count=2000):
    down = make_tcp_sources(12, 1448, tag=Bound.INBOUND)
    up = make_tcp_sources(12, 8948, tag=Bound.OUTBOUND, base_port=30000,
                          client_net="10.1.0", server_net="198.51.100")
    rng = random.Random(0x5EED)
    return list(interleave(down * 2 + up, count, rng, mean_run=8.0))


def _flow_outputs(outputs):
    """Egress grouped per flow, with process-global IP IDs zeroed.

    ``GatewayFleet.process_batch`` buckets a poll batch per
    ``(shard, bound)``, so the batched stream interleaves flows
    differently from the per-packet one; each flow's own egress must
    still match byte for byte.
    """
    flows = {}
    for packet, wire in zip(outputs, _zeroed(outputs)):
        flows.setdefault(packet.flow_key(), []).append(wire)
    return flows


def _per_packet_stream(fleet, stream, batch_interval=1.5e-6):
    """Reference driver: ``process_stream`` one packet at a time.

    Each packet goes through its shard's ``worker.process``; every
    shard's ``end_batch`` runs at the same poll-batch boundaries and
    virtual times as :meth:`GatewayFleet.process_stream`, final flush
    included.
    """
    outputs = []
    now = 0.0
    fill = 0
    for packet, bound in stream:
        outputs.extend(fleet.shard_for(packet).worker.process(packet, bound, now))
        fill += 1
        if fill >= fleet.config.poll_batch:
            now += batch_interval
            fill = 0
            outputs.extend(fleet.end_batch(now))
    now += fleet.config.merge_timeout * 2
    outputs.extend(fleet.end_batch(now))
    return outputs


def _run_datapath(per_packet):
    fleet = GatewayFleet(GatewayConfig(), shards=8, steering="rss")
    if per_packet:
        outputs = _per_packet_stream(fleet, _stream())
    else:
        outputs = fleet.process_stream(_stream())
    return fleet, outputs


def test_batched_stream_matches_scalar_stream():
    scalar_dp, scalar_out = _run_datapath(per_packet=True)
    batched_dp, batched_out = _run_datapath(per_packet=False)

    scalar_stats = scalar_dp.combined_stats()
    batched_stats = batched_dp.combined_stats()
    for field in vars(scalar_stats):
        s, b = getattr(scalar_stats, field), getattr(batched_stats, field)
        if isinstance(s, (int, bool)):
            assert s == b, f"stat {field}: per-packet={s} batch={b}"

    scalar_acct = scalar_dp.combined_account()
    batched_acct = batched_dp.combined_account()
    assert batched_acct.cycles == scalar_acct.cycles
    assert abs(batched_acct.mem_bytes - scalar_acct.mem_bytes) <= max(
        1e-6 * scalar_acct.mem_bytes, 1e-6
    )
    assert batched_acct.goodput_bytes == scalar_acct.goodput_bytes

    assert _flow_outputs(batched_out) == _flow_outputs(scalar_out)


def test_batched_per_worker_accounts_match():
    scalar_dp, _ = _run_datapath(per_packet=True)
    batched_dp, _ = _run_datapath(per_packet=False)
    for scalar_s, batched_s in zip(scalar_dp.shards, batched_dp.shards):
        scalar_w, batched_w = scalar_s.worker, batched_s.worker
        assert batched_w.account.cycles == scalar_w.account.cycles, (
            f"worker {scalar_w.index} cycle drift"
        )
        assert batched_w.stats.rx_packets == scalar_w.stats.rx_packets


def test_mid_batch_elephant_promotion_matches_scalar():
    # Promotion thresholds are evaluated per packet inside the batch
    # (not once per run), so a flow crossing the elephant threshold
    # mid-burst promotes at the same packet either way.
    scalar_w = GatewayWorker(GatewayConfig(), index=0)
    batched_w = GatewayWorker(GatewayConfig(), index=0)
    sources = make_tcp_sources(1, 1448, tag=Bound.INBOUND)
    packets = [sources[0].next_packet() for _ in range(600)]
    clones = [p.copy() for p in packets]
    for packet in packets:
        scalar_w.process(packet, Bound.INBOUND)
    batched_w.process_batch(clones, Bound.INBOUND)
    assert (
        batched_w.classifier.promotions == scalar_w.classifier.promotions
    )
    assert batched_w.classifier.promotions >= 1, "workload never promoted"

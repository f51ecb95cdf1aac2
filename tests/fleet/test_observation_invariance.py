"""Attaching instruments to a fleet never changes what it emits.

Every shard worker runs one pipeline whatever is attached to it, so a
seeded city stream through a 4-shard fleet must produce the same egress,
byte for byte and in the same order, with a span tracker and a flow
tracer on every shard as with nothing attached.  Merged packets draw
IP IDs from one process-global counter, so IDs are zeroed first.
"""

from repro.core.config import GatewayConfig
from repro.fleet import GatewayFleet
from repro.obs import FlowTracer, SpanTracker
from repro.workload import CityScaleProfile, CityScaleWorkload


def _city_stream():
    profile = CityScaleProfile(total_flows=4_000, concurrency=300, seed=2025)
    return list(CityScaleWorkload(profile).packets(4_000))


def _run(observed):
    fleet = GatewayFleet(GatewayConfig(flow_table_capacity=128), shards=4)
    if observed:
        for shard in fleet.shards:
            shard.worker.spans = SpanTracker()
            shard.worker.tracer = FlowTracer(capacity=1 << 16)
    egress = fleet.process_stream(_city_stream())
    wire = []
    for packet in egress:
        copy = packet.copy()
        copy.ip.identification = 0
        wire.append(copy.to_bytes())
    return fleet, wire


def test_observed_fleet_emits_identical_egress():
    plain, plain_wire = _run(observed=False)
    observed, observed_wire = _run(observed=True)

    assert observed_wire == plain_wire
    assert vars(observed.combined_stats()) == vars(plain.combined_stats())
    for plain_shard, observed_shard in zip(plain.shards, observed.shards):
        assert vars(observed_shard.worker.account) == vars(plain_shard.worker.account)
        assert observed_shard.worker.flows.evictions == plain_shard.worker.flows.evictions

    # The instruments really ran: every shard saw traffic and recorded it.
    for shard in observed.shards:
        worker = shard.worker
        assert worker.stats.rx_packets > 0
        assert worker.tracer.recorded > 0
        assert worker.spans.opened > 0 and worker.spans.balanced
    assert sum(shard.worker.flows.evictions for shard in plain.shards) > 0

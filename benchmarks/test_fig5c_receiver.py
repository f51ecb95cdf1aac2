"""Figure 5c — RX throughput of an endpoint receiver inside a b-network.

Paper: with 100 TCP flows on a single RX core, translating to a 9 KB
iMTU inside the b-network improves receiver throughput 1.5x–1.8x across
offload configurations (at 100 interleaved flows, G/LRO aggregates
poorly, so the offloads cannot substitute for the larger MTU).  The
PX-caravan UDP case with UDP_GRO gains 2.4x over the 1500 B baseline.

Here: the 9 KB arrival stream is *actually produced by the PXGW
datapath* from the legacy-MTU stream, then both streams are priced on
the endpoint receiver model (busy-polling regime: a loaded server).
"""

import random

import pytest

from repro.core import Bound, GatewayConfig
from repro.cpu import XEON_5512U
from repro.fleet import GatewayFleet
from repro.nic import ReceiverConfig, ReceiverModel
from repro.workload import interleave, make_tcp_sources, make_udp_sources

FLOWS = 100
PACKETS = 40_000

OFFLOAD_CONFIGS = [
    ("none", False, False),
    ("LRO", True, False),
    ("GRO", False, True),
    ("LRO+GRO", True, True),
]


def legacy_stream(udp: bool = False):
    make = make_udp_sources if udp else make_tcp_sources
    sources = make(FLOWS, 1472 if udp else 1448)
    # 100 flows sharing one link interleave at packet granularity.
    return [p for p, _ in interleave(sources, PACKETS, random.Random(17), 1.0)]


def translate_through_pxgw(packets):
    """Run the legacy stream through a PXGW and return its b-network output."""
    datapath = GatewayFleet(GatewayConfig(elephant_threshold_packets=2),
                            shards=8, steering="rss")
    outputs = datapath.process_stream(
        ((packet, Bound.INBOUND) for packet in packets), final_flush=True
    )
    return outputs


def receiver_tput(arrivals, lro=False, gro=False, udp_gro=False):
    model = ReceiverModel(ReceiverConfig(lro=lro, gro=gro, udp_gro=udp_gro,
                                         busy_polling=True))
    model.process(arrivals)
    return model.account.sustainable_goodput_bps(XEON_5512U, cores=1)


def test_fig5c_receiver(benchmark, report):
    def run():
        legacy = legacy_stream()
        translated = translate_through_pxgw(list(legacy))
        tcp = {}
        for name, lro, gro in OFFLOAD_CONFIGS:
            tcp[name] = (
                receiver_tput(list(legacy), lro=lro, gro=gro),
                receiver_tput(list(translated), lro=lro, gro=gro),
            )
        udp_legacy = legacy_stream(udp=True)
        udp_translated = translate_through_pxgw(list(udp_legacy))
        udp = (
            receiver_tput(list(udp_legacy), udp_gro=True),
            receiver_tput(list(udp_translated), udp_gro=True),
        )
        return tcp, udp

    tcp, udp = benchmark.pedantic(run, rounds=1, iterations=1)

    table = report("Figure 5c", "Receiver RX throughput, 100 flows, 1 core")
    for name, _, _ in OFFLOAD_CONFIGS:
        legacy_tput, translated_tput = tcp[name]
        table.add(f"TCP {name}: 1500 B e2e", None, legacy_tput, unit="bps")
        table.add(f"TCP {name}: 9 KB iMTU via PXGW", None, translated_tput, unit="bps")
        table.add(f"TCP {name}: gain", 1.65, translated_tput / legacy_tput,
                  unit="x", note="paper: 1.5x-1.8x")
    table.add("UDP_GRO 1500 B", None, udp[0], unit="bps")
    table.add("PX-caravan + UDP_GRO", None, udp[1], unit="bps")
    table.add("UDP caravan gain", 2.4, udp[1] / udp[0], unit="x")

    # TCP: every offload configuration gains ~1.5x-2x from the iMTU.
    for name, _, _ in OFFLOAD_CONFIGS:
        legacy_tput, translated_tput = tcp[name]
        assert 1.4 < translated_tput / legacy_tput < 2.2, name
    # UDP: PX-caravan with UDP_GRO gains ~2.4x.
    assert 1.9 < udp[1] / udp[0] < 2.9

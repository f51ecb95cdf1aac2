"""Figure 5a — PXGW TCP throughput and conversion yield (800 flows, 8 cores).

Paper:

    baseline (DPDK GRO library):  167 Gbps,  76 % conversion yield
    PX (all techniques):         1.09 Tbps,  93 %
    PX + header-only DMA:        1.45 Tbps,  94 %

Here: 800 bidirectional TCP flows (downlink eMTU segments to merge,
uplink jumbo segments to split, 6:1 packet ratio) stream through the
8-shard RSS-steered :class:`GatewayFleet`; a warm-up phase fills flow tables
and merge contexts before the measured window, and throughput comes
from cycle/memory accounting on the testbed CPU spec.
"""

import random

import pytest

from repro.core import Bound, GatewayConfig
from repro.cpu import XEON_6554S
from repro.fleet import GatewayFleet
from repro.workload import interleave, make_tcp_sources

WARMUP = 40_000
MEASURE = 120_000
MEAN_RUN = 24.0

PAPER = {
    "baseline": (167e9, 0.76),
    "PX": (1.09e12, 0.93),
    "PX + header-only": (1.45e12, 0.94),
}


def run_configuration(config: GatewayConfig, seed: int = 1):
    datapath = GatewayFleet(config, shards=8, steering="rss")
    down = make_tcp_sources(400, 1448, tag=Bound.INBOUND)
    up = make_tcp_sources(400, 8948, tag=Bound.OUTBOUND, base_port=30000,
                          client_net="10.1.0", server_net="198.51.100")
    sources = down * 6 + up  # bidirectional byte parity: 6 small per jumbo
    rng = random.Random(seed)
    datapath.process_stream(interleave(sources, WARMUP, rng, MEAN_RUN),
                            final_flush=False)
    datapath.reset_measurement()
    datapath.process_stream(interleave(sources, MEASURE, rng, MEAN_RUN),
                            final_flush=False)
    return (
        datapath.sustainable_throughput_bps(XEON_6554S),
        datapath.combined_stats().conversion_yield,
    )


CONFIGS = {
    "baseline": GatewayConfig(baseline_gro=True, delayed_merge=False,
                              hairpin_small_flows=False),
    "PX": GatewayConfig(),
    "PX + header-only": GatewayConfig(header_only_dma=True),
}


def test_fig5a_pxgw_tcp(benchmark, report):
    results = benchmark.pedantic(
        lambda: {name: run_configuration(config) for name, config in CONFIGS.items()},
        rounds=1, iterations=1,
    )

    table = report("Figure 5a", "PXGW TCP throughput / conversion yield (8 cores)")
    for name, (paper_tput, paper_yield) in PAPER.items():
        tput, cy = results[name]
        table.add(f"{name}: throughput", paper_tput, tput, unit="bps")
        table.add(f"{name}: conversion yield", paper_yield, round(cy, 3))

    # Throughput anchors within 15 %.
    for name, (paper_tput, _) in PAPER.items():
        assert results[name][0] == pytest.approx(paper_tput, rel=0.15), name
    # Yield: PX converts the vast majority of packets; baseline does not.
    assert results["PX"][1] > 0.90
    assert results["PX + header-only"][1] > 0.90
    assert 0.60 < results["baseline"][1] < 0.85
    # Ordering claims.
    assert results["PX"][0] > 5 * results["baseline"][0]
    assert results["PX + header-only"][0] > 1.2 * results["PX"][0]

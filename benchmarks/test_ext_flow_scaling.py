"""Extension — PXGW under growing flow counts.

§3 argues scalable merging needs "data structures that support fast
lookup of adjacent packets under a large number of flows."  This sweep
grows the concurrent flow population at a fixed offered load and checks
the two properties that claim implies:

* per-packet cycle cost stays ~flat (the flow table and merge contexts
  are O(1) per packet);
* conversion yield erodes only gradually (more flows = fewer packets
  per flow per merge window).
"""

import random

import pytest

from repro.core import Bound, GatewayConfig
from repro.cpu import XEON_6554S
from repro.fleet import GatewayFleet
from repro.workload import interleave, make_tcp_sources

FLOW_COUNTS = [100, 400, 1600, 3200]
WARMUP = 15_000
MEASURE = 45_000


def run(flows: int, seed: int = 29):
    datapath = GatewayFleet(GatewayConfig(hairpin_small_flows=False), shards=8,
                            steering="rss")
    sources = make_tcp_sources(flows, 1448, tag=Bound.INBOUND)
    rng = random.Random(seed)
    datapath.process_stream(interleave(sources, WARMUP, rng, 24.0),
                            final_flush=False)
    datapath.reset_measurement()
    datapath.process_stream(interleave(sources, MEASURE, rng, 24.0),
                            final_flush=False)
    account = datapath.combined_account()
    return (
        datapath.sustainable_throughput_bps(XEON_6554S),
        datapath.conversion_yield,
        account.cycles / account.packets,
    )


def test_ext_flow_count_scaling(benchmark, report):
    results = benchmark.pedantic(
        lambda: {flows: run(flows) for flows in FLOW_COUNTS},
        rounds=1, iterations=1,
    )

    table = report("Extension: flow-count scaling",
                   "PXGW merge path vs concurrent flow population (downlink)")
    for flows in FLOW_COUNTS:
        tput, cy, cycles = results[flows]
        table.add(f"{flows} flows: throughput", None, tput, unit="bps")
        table.add(f"{flows} flows: yield", None, round(cy, 3))
        table.add(f"{flows} flows: cycles/packet", None, round(cycles, 1))

    base_cycles = results[FLOW_COUNTS[0]][2]
    worst_cycles = max(cycles for _t, _c, cycles in results.values())
    # O(1) lookups: per-packet cost flat within 15 % across a 32x sweep.
    assert worst_cycles < base_cycles * 1.15
    # Yield stays high even at 3200 flows (merge contexts are per-flow).
    assert results[3200][1] > 0.80
    assert results[100][1] >= results[3200][1] - 0.02

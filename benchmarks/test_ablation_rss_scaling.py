"""Ablation — worker scaling under RSS flow sharding.

PXGW shards flows across cores with RSS so the merge path stays
lock-free.  Scaling is near-linear until the hottest core's share of
the flow population diverges from 1/N — Toeplitz placement is uneven at
small flow counts.  This ablation sweeps the worker count at a fixed
800-flow offered load and reports the scaling efficiency.
"""

import random

import pytest

from repro.core import Bound, GatewayConfig
from repro.cpu import XEON_6554S
from repro.fleet import GatewayFleet
from repro.workload import interleave, make_tcp_sources

WARMUP = 15_000
MEASURE = 45_000
WORKER_COUNTS = [1, 2, 4, 8, 16]


def run(workers: int, seed: int = 11):
    # Header-only DMA keeps the sweep CPU-bound so core scaling shows.
    config = GatewayConfig(header_only_dma=True)
    datapath = GatewayFleet(config, shards=workers, steering="rss")
    down = make_tcp_sources(400, 1448, tag=Bound.INBOUND)
    up = make_tcp_sources(400, 8948, tag=Bound.OUTBOUND, base_port=30000,
                          client_net="10.1.0", server_net="198.51.100")
    sources = down * 6 + up
    rng = random.Random(seed)
    datapath.process_stream(interleave(sources, WARMUP, rng, 24.0), final_flush=False)
    datapath.reset_measurement()
    datapath.process_stream(interleave(sources, MEASURE, rng, 24.0), final_flush=False)
    return datapath.sustainable_throughput_bps(XEON_6554S)


def test_ablation_rss_worker_scaling(benchmark, report):
    results = benchmark.pedantic(
        lambda: {workers: run(workers) for workers in WORKER_COUNTS},
        rounds=1, iterations=1,
    )

    table = report("Ablation: RSS scaling", "PXGW throughput vs worker cores (HDO on)")
    base = results[1]
    for workers in WORKER_COUNTS:
        table.add(f"{workers} worker(s)", None, results[workers], unit="bps",
                  note=f"{results[workers] / base:.1f}x of 1 core")

    # Monotonic scaling, and 8 cores reach at least 5x of one core
    # (imperfect due to RSS imbalance, as on real hardware).
    series = [results[w] for w in WORKER_COUNTS]
    assert series == sorted(series)
    assert results[8] > 5 * results[1]

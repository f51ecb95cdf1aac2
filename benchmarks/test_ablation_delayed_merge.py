"""Ablation — delayed merging (§4.1).

PXGW's delayed merging holds a partially filled merge context for a
short timeout hoping for contiguous successors, instead of flushing at
every poll batch the way the DPDK GRO library does.  This ablation
isolates that one knob on an otherwise identical PX configuration: the
conversion yield gap is the technique's entire contribution.
"""

import random

import pytest

from repro.core import Bound, GatewayConfig
from repro.cpu import XEON_6554S
from repro.fleet import GatewayFleet
from repro.workload import interleave, make_tcp_sources

WARMUP = 20_000
MEASURE = 60_000


def run(delayed: bool, seed: int = 9):
    config = GatewayConfig(delayed_merge=delayed, hairpin_small_flows=False)
    datapath = GatewayFleet(config, shards=8, steering="rss")
    down = make_tcp_sources(400, 1448, tag=Bound.INBOUND)
    rng = random.Random(seed)
    datapath.process_stream(interleave(down, WARMUP, rng, 24.0), final_flush=False)
    datapath.reset_measurement()
    datapath.process_stream(interleave(down, MEASURE, rng, 24.0), final_flush=False)
    return (
        datapath.conversion_yield,
        datapath.sustainable_throughput_bps(XEON_6554S),
    )


def test_ablation_delayed_merge(benchmark, report):
    results = benchmark.pedantic(
        lambda: {"delayed": run(True), "per-batch": run(False)},
        rounds=1, iterations=1,
    )

    table = report("Ablation: delayed merge", "Flush policy vs conversion yield")
    for name, (cy, tput) in results.items():
        table.add(f"{name} flush: conversion yield", None, round(cy, 3))
        table.add(f"{name} flush: throughput", None, tput, unit="bps")

    delayed_cy, _ = results["delayed"]
    batch_cy, _ = results["per-batch"]
    # Delayed merging is what pushes yield from 'most packets partial'
    # territory into the paper's 93-94 % regime.
    assert delayed_cy > 0.90
    assert batch_cy < delayed_cy - 0.10

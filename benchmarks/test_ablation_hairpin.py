"""Ablation — small-flow steering via NIC hairpin (§3, §4.1).

Mice are typically unmergeable: they rarely have a contiguous successor
waiting, yet they consume merge-engine cycles and evict elephants'
contexts.  PXGW classifies flows online and steers mice through the NIC
hairpin.  This ablation runs an elephant+mice mix with steering on and
off and reports the throughput and yield cost of letting mice pollute
the merge engine.
"""

import random

import pytest

from repro.core import Bound, GatewayConfig
from repro.cpu import XEON_6554S
from repro.fleet import GatewayFleet
from repro.workload import interleave, make_tcp_sources

WARMUP = 15_000
MEASURE = 60_000
ELEPHANTS = 100
MICE = 2000


class MiceMix:
    """Interleaves elephants with a churn of short-lived mouse flows.

    Real mice are *new* flows (a DNS exchange, a small HTTP object), so
    each mouse burst here comes from a fresh 5-tuple: they never build
    enough history to be promoted, exactly as in live traffic.
    """

    def __init__(self, seed: int):
        self.elephants = make_tcp_sources(ELEPHANTS, 1448, tag=Bound.INBOUND)
        self.rng = random.Random(seed)
        self._next_mouse_port = 1024

    def _fresh_mouse(self):
        from repro.workload import TcpStreamSource

        self._next_mouse_port += 1
        if self._next_mouse_port > 60000:
            self._next_mouse_port = 1024
        return TcpStreamSource(
            src=f"198.18.{self.rng.randrange(256)}.{self.rng.randrange(1, 255)}",
            dst="10.1.0.1",
            src_port=self._next_mouse_port,
            dst_port=443,
            payload_size=400,
        )

    def stream(self, total: int):
        emitted = 0
        while emitted < total:
            if self.rng.random() < 0.9:
                mouse = self._fresh_mouse()
                for _ in range(self.rng.randint(1, 2)):
                    yield mouse.next_packet(), Bound.INBOUND
                    emitted += 1
                    if emitted >= total:
                        break
                continue
            elephant = self.elephants[self.rng.randrange(ELEPHANTS)]
            for _ in range(24):
                yield elephant.next_packet(), Bound.INBOUND
                emitted += 1
                if emitted >= total:
                    break


def run(hairpin: bool, contexts: int = 64, seed: int = 5):
    # A deliberately small context budget makes eviction pressure real.
    config = GatewayConfig(hairpin_small_flows=hairpin,
                           merge_contexts_per_worker=contexts)
    datapath = GatewayFleet(config, shards=8, steering="rss")
    mix = MiceMix(seed)
    datapath.process_stream(mix.stream(WARMUP), final_flush=False)
    datapath.reset_measurement()
    datapath.process_stream(mix.stream(MEASURE), final_flush=False)
    stats = datapath.combined_stats()
    return (
        datapath.sustainable_throughput_bps(XEON_6554S),
        stats.conversion_yield_bytes,
        stats.hairpinned,
        stats.conversion_yield,
    )


def test_ablation_hairpin_steering(benchmark, report):
    results = benchmark.pedantic(
        lambda: {"steering on": run(True), "steering off": run(False)},
        rounds=1, iterations=1,
    )

    table = report("Ablation: hairpin steering", "Mice mixed with elephants")
    for name, (tput, cy_bytes, hairpinned, cy_pkts) in results.items():
        table.add(f"{name}: throughput", None, tput, unit="bps")
        table.add(f"{name}: byte-weighted yield", None, round(cy_bytes, 3))
        table.add(f"{name}: hairpinned packets", None, hairpinned, unit="pkts")

    on_tput, on_cy, on_hairpinned, _on_cyp = results["steering on"]
    off_tput, off_cy, off_hairpinned, _off_cyp = results["steering off"]
    assert on_hairpinned > 1000 and off_hairpinned == 0
    # Steering preserves elephant merging under mice interference.
    assert on_cy > off_cy
    assert on_tput >= off_tput

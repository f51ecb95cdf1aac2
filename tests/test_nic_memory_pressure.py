"""Tests for on-NIC memory pressure under header-only DMA (§5.1 caveat)."""

import random

import pytest

from repro.core import Bound, GatewayConfig, GatewayWorker
from repro.cpu import XEON_6554S
from repro.fleet import GatewayFleet
from repro.packet import build_tcp
from repro.workload import interleave, make_tcp_sources


def feed_flows(worker, flows, packets_per_flow=3, payload=1448):
    sources = make_tcp_sources(flows, payload)
    for _ in range(packets_per_flow):
        for source in sources:
            worker.process(source.next_packet(), Bound.INBOUND)


class TestNicMemoryPressure:
    def test_within_capacity_no_fallbacks(self):
        worker = GatewayWorker(GatewayConfig(header_only_dma=True,
                                             hairpin_small_flows=False))
        feed_flows(worker, flows=50)  # ~50 * 4.3 kB resident << 2 MB
        assert worker.stats.hdo_fallbacks == 0

    def test_capacity_exhaustion_falls_back(self):
        config = GatewayConfig(header_only_dma=True, hairpin_small_flows=False,
                               nic_memory_bytes=64 * 1024)
        worker = GatewayWorker(config)
        feed_flows(worker, flows=200)  # resident far beyond 64 kB
        assert worker.stats.hdo_fallbacks > 0

    def test_fallback_charges_full_dma_memory(self):
        tiny = GatewayConfig(header_only_dma=True, hairpin_small_flows=False,
                             nic_memory_bytes=16 * 1024)
        roomy = GatewayConfig(header_only_dma=True, hairpin_small_flows=False)
        pressured = GatewayWorker(tiny)
        unpressured = GatewayWorker(roomy)
        feed_flows(pressured, flows=100)
        feed_flows(unpressured, flows=100)
        assert pressured.account.mem_bytes > 3 * unpressured.account.mem_bytes

    def test_full_dma_mode_never_counts_fallbacks(self):
        worker = GatewayWorker(GatewayConfig(hairpin_small_flows=False,
                                             nic_memory_bytes=1024))
        feed_flows(worker, flows=100)
        assert worker.stats.hdo_fallbacks == 0

    def test_hdo_benefit_erodes_with_flow_count(self):
        """The paper calls header-only DMA experimental 'due to limited
        NIC store': once merge-context residency exceeds the per-worker
        NIC memory share, packets fall back to full DMA and the
        throughput benefit sinks toward the full-DMA level."""

        def tput(flows, hdo, nic_memory):
            config = GatewayConfig(header_only_dma=hdo, hairpin_small_flows=False,
                                   nic_memory_bytes=nic_memory)
            datapath = GatewayFleet(config, shards=8, steering="rss")
            sources = make_tcp_sources(flows, 1448, tag=Bound.INBOUND)
            rng = random.Random(3)
            datapath.process_stream(interleave(sources, 10_000, rng, 24.0),
                                    final_flush=False)
            datapath.reset_measurement()
            datapath.process_stream(interleave(sources, 25_000, rng, 24.0),
                                    final_flush=False)
            return (datapath.sustainable_throughput_bps(XEON_6554S),
                    datapath.combined_stats().hdo_fallbacks)

        # A tight per-worker NIC share (256 kB): 400 flows fit (~208 kB
        # resident per worker), 4000 flows (~470 kB) overflow it.
        nic_memory = 256 * 1024
        few_tput, few_fallbacks = tput(400, True, nic_memory)
        many_tput, many_fallbacks = tput(4000, True, nic_memory)
        base_tput, _ = tput(400, False, nic_memory)
        assert few_fallbacks < many_fallbacks / 10  # rarely vs constantly
        assert many_fallbacks > 1000
        few_gain = few_tput / base_tput
        many_gain = many_tput / base_tput
        assert few_gain > 1.08  # HDO clearly helps while payloads fit
        assert many_gain < few_gain - 0.03  # and erodes under pressure

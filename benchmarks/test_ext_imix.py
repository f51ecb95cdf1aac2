"""Extension — PXGW under realistic (IMIX) traffic instead of iPerf bulk.

The paper's 94 % conversion yield is measured with 800 iPerf bulk flows
— every payload a full MSS.  A border gateway's real diet is the
Internet mix (7:4:1 of 40/576/1500 B packets).  This experiment feeds a
simple-IMIX population through PXGW and reports what large-MTU
conversion actually delivers on such traffic.

Measured finding: packet-weighted yield collapses (most packets are
tiny and unmergeable — they hairpin past the merge engine), but the
*byte*-weighted yield stays high because the bytes live in the
full-size packets; forwarding throughput stays in the Tbps class.
"""

import random

import pytest

from repro.core import Bound, GatewayConfig
from repro.cpu import XEON_6554S
from repro.fleet import GatewayFleet
from repro.workload import interleave, make_tcp_sources
from repro.workload.imix import ImixProfile, imix_tcp_sources

WARMUP = 20_000
MEASURE = 60_000


def run(sources, seed=23):
    datapath = GatewayFleet(GatewayConfig(), shards=8, steering="rss")
    rng = random.Random(seed)
    datapath.process_stream(interleave(sources, WARMUP, rng, 12.0),
                            final_flush=False)
    datapath.reset_measurement()
    datapath.process_stream(interleave(sources, MEASURE, rng, 12.0),
                            final_flush=False)
    stats = datapath.combined_stats()
    return (
        datapath.sustainable_throughput_bps(XEON_6554S),
        stats.conversion_yield,
        stats.conversion_yield_bytes,
        stats.hairpinned,
    )


def test_ext_imix_traffic(benchmark, report):
    def experiment():
        rng = random.Random(7)
        imix = imix_tcp_sources(800, rng, tag=Bound.INBOUND)
        bulk = make_tcp_sources(800, 1448, tag=Bound.INBOUND)
        return {"imix": run(imix), "iperf bulk": run(bulk)}

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    table = report("Extension: IMIX traffic",
                   "PXGW fed the Internet mix vs iPerf bulk (downlink)")
    for name, (tput, cy, cy_bytes, hairpinned) in results.items():
        table.add(f"{name}: throughput", None, tput, unit="bps")
        table.add(f"{name}: packet-weighted yield", None, round(cy, 3))
        table.add(f"{name}: byte-weighted yield", None, round(cy_bytes, 3))
        table.add(f"{name}: hairpinned packets", None, hairpinned, unit="pkts")

    imix_tput, imix_cy, imix_cy_bytes, imix_hairpin = results["imix"]
    bulk_tput, bulk_cy, _bulk_cyb, _ = results["iperf bulk"]

    profile = ImixProfile()
    assert profile.mean_size == pytest.approx((40 * 7 + 576 * 4 + 1500) / 12)

    # Bulk traffic converts mostly; IMIX far less per packet.
    assert bulk_cy > 0.8
    assert imix_cy < bulk_cy - 0.15
    # But the *bytes* still overwhelmingly travel in full-iMTU packets.
    assert imix_cy_bytes > 0.8
    # Forwarding rate drops (tiny packets burn per-packet cycles) but
    # stays within the same order of magnitude.
    assert imix_tput > 0.2 * bulk_tput

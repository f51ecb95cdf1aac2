"""Fleet scaling measurement: pkts/s versus worker-shard count.

The tentpole claim of the fleet tier is *near-linear scaling*: because
rendezvous steering spreads flows evenly and shards share nothing,
doubling the shard count should nearly double sustained packet rate
until the per-shard batches get too thin to amortize.

Two rates are reported per shard count:

* **modeled pkts/s** — the cycle-accounted rate on a real CPU spec,
  with one core per shard: total packets over the *hottest* shard's
  cycle demand (the most-loaded queue bounds the fleet; the RSS-steered
  Figure 5 datapath is the same class, and its
  :meth:`~repro.fleet.GatewayFleet.sustainable_throughput_bps` takes
  the same hottest-shard bound).
  This is the scaling claim's measurement — it is deterministic and
  reflects the parallelism the fleet actually exposes.
* **wall pkts/s** — single-threaded simulation wall-clock, reported
  for regression tracking only.  The simulator executes shards
  serially, so wall time *cannot* show multi-core scaling; do not read
  a trend into it.

Every shard count digests the *identical* pre-materialized city-scale
stream, so the comparison is pure topology.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from ..core.config import GatewayConfig
from ..cpu import XEON_6554S, CpuSpec
from ..fleet import GatewayFleet
from ..workload import CityScaleProfile, CityScaleWorkload

__all__ = ["FLEET_SCHEMA", "fleet_world_report", "format_fleet_report"]

#: Schema tag stamped into every fleet scaling report.
FLEET_SCHEMA = "repro-fleet-world/1"


def fleet_world_report(
    worker_counts: Sequence[int] = (1, 2, 4, 8),
    quick: bool = False,
    packets: Optional[int] = None,
    spec: CpuSpec = XEON_6554S,
    flow_table_capacity: int = 4096,
    seed: int = 0xC17,
) -> Dict[str, object]:
    """Run the fleet scaling experiment; returns a JSON-friendly report."""
    if packets is None:
        packets = 8_000 if quick else 40_000
    profile = CityScaleProfile(
        total_flows=packets, concurrency=max(100, packets // 40), seed=seed,
    )
    workload = CityScaleWorkload(profile)
    stream = list(workload.packets(packets))
    config = GatewayConfig(flow_table_capacity=flow_table_capacity)

    rows: List[Dict[str, object]] = []
    base_modeled: Optional[float] = None
    for shards in worker_counts:
        fleet = GatewayFleet(config, shards=shards)
        start = time.perf_counter_ns()
        fleet.process_stream(stream)
        elapsed_ns = time.perf_counter_ns() - start
        errors = fleet.conservation_errors()
        if errors:
            raise RuntimeError(f"fleet({shards}) imbalanced: {errors}")
        modeled = fleet.sustainable_throughput_pps(spec)
        if base_modeled is None:
            base_modeled = modeled
        rows.append({
            "shards": shards,
            "packets": len(stream),
            "modeled_pkts_per_sec": modeled,
            "speedup_vs_1": modeled / base_modeled if base_modeled else 0.0,
            "wall_pkts_per_sec": len(stream) * 1e9 / elapsed_ns,
            "balance": fleet.shard_balance(),
            "evictions": sum(
                shard.worker.flows.evictions for shard in fleet.shards
            ),
        })
    return {
        "schema": FLEET_SCHEMA,
        "spec": spec.name,
        "workload": workload.summary(),
        "rows": rows,
    }


def format_fleet_report(report: Dict[str, object]) -> str:
    """Human-readable table of a :func:`fleet_world_report` result."""
    lines = [
        f"fleet_world scaling on {report['spec']} "
        f"({report['rows'][0]['packets']} packets/run)",
        f"{'shards':>6}  {'modeled pkts/s':>16}  {'speedup':>8}  "
        f"{'wall pkts/s':>12}  {'max/mean':>8}",
    ]
    for row in report["rows"]:
        lines.append(
            f"{row['shards']:>6}  {row['modeled_pkts_per_sec']:>16,.0f}  "
            f"{row['speedup_vs_1']:>7.2f}x  {row['wall_pkts_per_sec']:>12,.0f}  "
            f"{row['balance']['max_over_mean']:>8.3f}"
        )
    return "\n".join(lines)

"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload wan_lossy --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing attached.
``--trace 1`` is the attribution run: it alternates untraced and traced
reps, then makes one allocation pass, and reports the per-layer metrics.
``--workload all`` runs every workload in its own process and prints
each metric by name and unit.

A rep builds the world from the seeded inputs (set-up, timed as
``setup_s``), runs its fixed work (the timed region), and checks the
outputs.  Reps repeat until ``--seconds`` have passed; time metrics are
medians over reps.  A rep whose check fails counts as failed; it is
never dropped or retried.  The last line of standard output is the
result object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import worlds  # noqa: E402

#: Fewest reps a run makes (per kind, in the traced run), however long
#: they take.
MIN_REPS = 3

#: Share of a traced run's seconds spent on timing reps; the allocation
#: pass, about three untraced reps long, takes the rest.
TIMING_SHARE = 0.75

#: Units of the per-layer figures read from the program's counters;
#: the rest of them are ratios.
_COUNT_UNITS = {
    "sim.events_per_pkt": "count/pkt", "tcpstack.retransmits": "count",
    "tcpstack.timeouts": "count", "core.flow_evictions": "count",
    "obs.spans_per_pkt": "count/pkt", "obs.flight_entries_per_pkt": "count/pkt",
    "cpu.cycles_per_pkt": "cycles/pkt", "sim_goodput_bps": "bit/s",
    "modeled_pps": "pkt/s",
}


def fingerprint(world) -> dict:
    """Outputs every rep of one seed must reproduce exactly."""
    result = {
        "gateway_packets": world.gateway_packets(),
        "offered_packets": sum(w.stats.rx_packets for w in world.workers()),
        "sim_events": world.sim_events(),
    }
    result.update(world.modeled())
    return result


class Reps:
    """Attempted and failed reps of one run, checked against the first."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first: dict = {}
        self.problems: list = []

    def check(self, world, problems=()) -> None:
        """Check one finished rep; *problems* were found by the caller."""
        problems = list(problems) + world.check()
        seen = fingerprint(world)
        if self.first and seen != self.first:
            problems.append(f"outputs differ from the first rep: {seen} vs {self.first}")
        self.first = self.first or seen
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems

    def result(self, metrics: dict) -> dict:
        for problem in self.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return {"attempted": self.attempted, "failed": self.failed, "metrics": metrics}


def fresh_world(workload: str, inputs: dict):
    """Collect the previous rep's garbage, then set up; returns (world, s)."""
    gc.collect()
    start = time.perf_counter()
    world = worlds.build(workload, inputs)
    return world, time.perf_counter() - start


def timed_rate(world) -> float:
    """Run the timed region; gateway packets per wall second."""
    start = time.perf_counter()
    world.run()
    return world.gateway_packets() / (time.perf_counter() - start)


def measure(workload: str, seed: int, seconds: float) -> dict:
    """The untraced run: end-to-end metrics."""
    inputs = worlds.make_inputs(workload, seed)
    deadline = time.perf_counter() + seconds
    reps = Reps()
    setups, rates = [], []
    while reps.attempted < MIN_REPS or time.perf_counter() < deadline:
        world, setup_s = fresh_world(workload, inputs)
        setups.append(setup_s)
        rates.append(timed_rate(world))
        reps.check(world)
        world = None
    return reps.result({
        "pkts_per_s": (statistics.median(rates), "pkt/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    })


def layer_counts(world) -> dict:
    """Per-layer figures read from the program's own counters."""
    packets = world.gateway_packets()
    workers = world.workers()
    rx = sum(w.stats.rx_packets for w in workers)
    lookups = sum(w.flows.lookups for w in workers)
    accounted = sum(w.account.packets for w in workers)
    conns = world.connections()
    result = {
        "sim.events_per_pkt": world.sim_events() / packets,
        "sim.netem_delivery_share": 0.0,
        "tcpstack.retransmits": sum(c.retransmits for c in conns),
        "tcpstack.timeouts": sum(c.timeouts for c in conns),
        "core.merged_share": sum(w.stats.merged_packets for w in workers) / rx,
        "core.hairpin_share": sum(w.stats.hairpinned for w in workers) / rx,
        "core.flow_miss_ratio": (sum(w.flows.misses for w in workers) / lookups
                                 if lookups else 0.0),
        "core.flow_evictions": sum(w.flows.evictions for w in workers),
        "fleet.steer_hit_ratio": 0.0,
        "fleet.shard_max_over_mean": 0.0,
        "obs.spans_per_pkt": 0.0,
        "obs.flight_entries_per_pkt": 0.0,
        "cpu.cycles_per_pkt": (sum(w.account.cycles for w in workers) / accounted
                               if accounted else 0.0),
    }
    if world.kind == "sim":
        result["sim.netem_delivery_share"] = world.netem_delivery_share()
    else:
        steering = world.fleet.steering
        decisions = steering.cache_hits + steering.cache_misses
        result["fleet.steer_hit_ratio"] = steering.cache_hits / decisions
        result["fleet.shard_max_over_mean"] = world.fleet.shard_balance()["max_over_mean"]
    if getattr(world, "obs", None) is not None:
        result["obs.spans_per_pkt"] = world.obs.spans.opened / packets
        result["obs.flight_entries_per_pkt"] = world.flight_entries / packets
    result.update(world.modeled())
    return result


def traced_rep(world) -> dict:
    """One rep with every layer wrapped; its span figures and its log."""
    log = layers.SpanLog()
    layers.instrument(log, world)
    with layers.packet_layer(log):
        start = time.perf_counter_ns()
        world.run()
        end = time.perf_counter_ns()
    rep = layers.attribute(log, start, end)
    packets = world.gateway_packets()
    batches = log.calls("GatewayFleet.process_batch") + log.calls("PXGateway.flush_timer")
    rep.update(
        log=log,
        region_ns=end - start,
        packets=packets,
        rate=packets * 1e9 / (end - start),
        serialize=log.calls("Packet.to_bytes"),
        checksum=log.calls("internet_checksum") + log.calls("verify_checksum"),
        flush_per_batch=log.calls("flush_older_than") / batches if batches else 0.0,
    )
    return rep


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    """The attribution run: per-layer metrics."""
    inputs = worlds.make_inputs(workload, seed)
    deadline = time.perf_counter() + seconds * TIMING_SHARE
    reps = Reps()
    plain_rates, traced = [], []
    counts: dict = {}
    while reps.attempted < 2 * MIN_REPS or time.perf_counter() < deadline:
        world, _setup = fresh_world(workload, inputs)
        problems = []
        if reps.attempted % 2 == 0:
            plain_rates.append(timed_rate(world))
        else:
            rep = traced_rep(world)
            if traced and rep["calls"] != traced[0]["calls"]:
                problems.append(f"span counts differ between traced reps: "
                                f"{rep['calls']} vs {traced[0]['calls']}")
            if (rep["closure_error"] > layers.CLOSURE_TOLERANCE
                    or rep["negative_self_spans"]):
                problems.append(f"self times do not add up: closure error "
                                f"{rep['closure_error']:.2e}, {rep['negative_self_spans']} "
                                f"spans with negative self time")
            if traced:
                traced[-1]["log"] = None  # keep only the last rep's spans
            traced.append(rep)
        reps.check(world, problems)
        counts = counts or layer_counts(world)
        world = None

    # The allocation pass is a rep of its own: tracemalloc would distort
    # the span times.
    world, _setup = fresh_world(workload, inputs)
    alloc = layers.allocations(world, reps.first["offered_packets"])
    reps.check(world)
    world = None
    last = traced[-1]
    last["log"].write(layers.spans_path(ROOT, workload, seed), last["region_ns"])

    def median_us(value) -> float:
        return statistics.median(value(rep) / 1000 / rep["packets"] for rep in traced)

    first = traced[0]
    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_us_per_pkt"] = (
            median_us(lambda rep, layer=layer: rep["self_ns"][layer]), "us/pkt")
    for layer in ("net", "tcpstack", "core"):
        metrics[f"{layer}.calls_per_pkt"] = (first["calls"][layer] / first["packets"],
                                             "count/pkt")
    metrics["packet.serialize_per_pkt"] = (first["serialize"] / first["packets"], "count/pkt")
    metrics["packet.checksum_per_pkt"] = (first["checksum"] / first["packets"], "count/pkt")
    metrics["core.flush_calls_per_batch"] = (first["flush_per_batch"], "count")
    for name, value in counts.items():
        metrics[name] = (value, _COUNT_UNITS.get(name, "ratio"))
    for layer, value in alloc.items():
        metrics[f"{layer}.alloc_kb_per_pkt"] = (value, "KB/pkt")
    metrics["trace.speed_ratio"] = (
        statistics.median(rep["rate"] for rep in traced) / statistics.median(plain_rates),
        "ratio")
    metrics["trace.remainder_us_per_pkt"] = (median_us(lambda rep: rep["remainder_ns"]),
                                             "us/pkt")
    metrics["trace.closure_error"] = (max(rep["closure_error"] for rep in traced), "ratio")
    return reps.result(metrics)


def result_line(measured: dict) -> str:
    return json.dumps({
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in measured["metrics"].items()},
    })


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process; a table of every metric."""
    status = 0
    print(f"{'workload':<16} {'metric':<28} {'value':>16}  unit")
    for workload in worlds.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload:<16} failed with exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        print(f"{workload:<16} {'correct':<28} {str(result['correct']):>16}  "
              f"({result['failed']} of {result['attempted']} reps failed)")
        for name, metric in result["metrics"].items():
            print(f"{workload:<16} {name:<28} {metric['value']:>16.6g}  {metric['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(worlds.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=worlds.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.trace:
        measured = measure_traced(args.workload, args.seed, args.seconds)
    else:
        measured = measure(args.workload, args.seed, args.seconds)
    print(result_line(measured))
    return 0


if __name__ == "__main__":
    sys.exit(main())

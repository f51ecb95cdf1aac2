"""Per-shard alert engines inside observed fleet worlds: burn-rate
evaluation at checkpoint cadence, history replay, and the shard-loss
mid-pending case (PR 10, satellite)."""

import pytest

from repro.fleet.chaos import run_loss_scenario


def _bundle(seed=101, **kwargs):
    result = run_loss_scenario("mixed", seed, loss_mode="maintenance",
                               observe=True, **kwargs)
    assert result.incident is not None
    return result, result.incident


def test_every_live_shard_has_an_engine_with_cited_history():
    result, bundle = _bundle()
    labels = sorted(bundle["alerts"])
    assert labels == ["shard0", "shard1", "shard2", "shard3"]
    for label in labels:
        cited = bundle["alerts"][label]
        # Liveness rule fires on the first evaluation of every shard
        # that saw traffic before the kill (the victim included — it
        # was evaluated at the sweeps before its loss).
        assert "shard-ingress-active" in cited["fired"]
        assert any(entry["rule"] == "shard-ingress-active"
                   and entry["to"] == "firing"
                   for entry in cited["history"])
        # Burn rules were installed and evaluated but never tripped on
        # a clean run (no malformed caravans → zero burn).
        assert cited["states"]["error-budget-burn-fast"] == "ok"
        assert cited["states"]["error-budget-burn-slow"] == "ok"


def test_victim_engine_history_freezes_at_the_loss():
    """A dead shard's engine is never evaluated again: everything in
    its history happened at or before the kill, and replaying it at the
    bundle's cut time reproduces the frozen states."""
    result, bundle = _bundle()
    loss_at = bundle["trigger"]["detail"]["loss_at"]
    victim = bundle["alerts"][f"shard{result.victim}"]
    assert all(entry["time"] <= loss_at for entry in victim["history"])
    # Survivors kept evaluating after the loss (checkpoint sweeps
    # continue), so at least one survivor saw traffic deltas later.
    survivor_labels = [f"shard{i}" for i in range(4) if i != result.victim]
    assert any(bundle["alerts"][label]["fired"] for label in survivor_labels)


def test_shard_loss_mid_pending_rule_stays_pending():
    """Force flow-table evictions so `shard-table-pressure` (dwell 1.0s,
    far beyond the burst's virtual clock) goes PENDING, then kill the
    shard: the bundle must replay the rule as still pending — the
    canonical page an operator sees after losing a box mid-incident."""
    result, bundle = _bundle(seed=101, flow_table_capacity=8)
    pending = [
        label for label, cited in sorted(bundle["alerts"].items())
        if cited["states"].get("shard-table-pressure") == "pending"
    ]
    assert pending, "expected at least one shard pending on eviction pressure"
    for label in pending:
        cited = bundle["alerts"][label]
        assert "shard-table-pressure" not in cited["fired"]
        entries = [e for e in cited["history"]
                   if e["rule"] == "shard-table-pressure"]
        # The replayed history shows the ok → pending edge and no
        # firing edge ever following it.
        assert entries and entries[-1]["to"] == "pending"


def test_fleet_flight_recorder_carries_sweeps_loss_and_deltas():
    result, bundle = _bundle()
    entries = bundle["flight"]["fleet"]["entries"]
    marks = [e for e in entries if e["kind"] == "mark"]
    assert any(e["mark"] == "checkpoint-sweep" for e in marks)
    loss = [e for e in marks if e["mark"] == "shard-loss"]
    assert len(loss) == 1 and loss[0]["shard"] == result.victim
    samples = [e for e in entries if e["kind"] == "metrics"]
    assert samples and any(s["deltas"].get("shard_rx_packets", 0) > 0
                           for s in samples)


def test_steering_cache_counters_exported():
    from repro.obs import MetricsRegistry, Observability, observe_fleet
    from repro.core.config import GatewayConfig
    from repro.fleet.chaos import _city_profile
    from repro.fleet.fleet import GatewayFleet
    from repro.workload import CityScaleWorkload

    fleet = GatewayFleet(GatewayConfig(), shards=2, steering_seed=3)
    stream = list(CityScaleWorkload(_city_profile("tcp", 3)).packets(200))
    fleet.process_stream(stream)
    registry = MetricsRegistry()
    observe_fleet(Observability(registry=registry), fleet)
    snapshot = registry.snapshot()
    hits = snapshot['px_fleet_steering_cache_hits_total{fleet="fleet0"}']
    misses = snapshot['px_fleet_steering_cache_misses_total{fleet="fleet0"}']
    assert hits == fleet.steering.cache_hits > 0
    assert misses == fleet.steering.cache_misses > 0
    assert hits + misses == fleet.steering.cache_hits + fleet.steering.cache_misses


@pytest.mark.parametrize("profile,seed,loss_mode", [
    ("tcp", 3, "crash"),
    ("mixed", 115, "crash"),
    ("pmtud", 122, "maintenance"),
])
def test_affinity_oracle_does_not_count_as_steering(profile, seed, loss_mode):
    """The bundle's steering counters are the datapath's own decisions.

    With the flow-affinity check skipped, every steering decision is
    either a packet steered into a shard or a flow record rebalanced
    onto one.  The check runs before the bundle is built, so it must
    peek at ownership without adding to those counters.
    """
    result = run_loss_scenario(profile, seed, loss_mode=loss_mode, observe=True)
    metrics = result.incident["metrics"]
    fleet = 'fleet="fleet0"'
    hits = metrics[f"px_fleet_steering_cache_hits_total{{{fleet}}}"]
    misses = metrics[f"px_fleet_steering_cache_misses_total{{{fleet}}}"]
    assert hits + misses == result.packets + result.flows_migrated
    for shard in range(4):
        labels = f'{{{fleet},shard="{shard}"}}'
        steered = metrics["px_fleet_shard_steered_total" + labels]
        rx = metrics["px_fleet_shard_rx_packets_total" + labels]
        adopted = metrics["px_fleet_shard_adopted_flows_total" + labels]
        assert steered == rx + adopted, f"shard {shard}"

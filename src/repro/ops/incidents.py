"""The incident-simulation corpus: regressions the canary must catch.

Each :class:`Incident` pairs a candidate deployment (and optionally a
shared fault/attack *environment* built on the chaos DSL) with the
verdict the controller is **expected** to reach.  Five are real
rollout regressions that must be ROLLED_BACK with cited evidence; one
is a benign candidate — run under environmental chaos that hits both
twins — that must PROMOTE, so the corpus has teeth in both directions.

The incidents map one-to-one onto failure modes the earlier layers
modelled:

* ``mis-sized-mtu-rollout`` — the candidate believes a 3000 B eMTU;
  its splits exceed the physical 1500 B wire and the external link
  silently drops them (the classic MTU blackhole).
* ``pmtud-hardening-disabled`` — the candidate ships the trusting
  PMTU cache; an off-path forged report (PR 6's attack model) poisons
  its clamp to 400 B and egress micro-segments.  The hardened
  baseline rejects the same learn.
* ``caravan-flush-timer-regression`` — a 500× merge-timeout typo
  (500 µs → 250 ms): merges convert, but payload sits in the engines
  and p95 residency explodes.
* ``merge-disabled-config`` — a classifier threshold typo (no flow
  ever promotes to merge-eligible, delayed merging off) collapses the
  merge ratio the fleet is paying PX cycles to achieve.
* ``bypass-under-nic-pressure`` — a header-only-DMA candidate sized
  with a 256 B on-NIC store: every merge context falls back, and
  under a sustained inbound trickle (this incident ships its own
  workload schedule) the health monitor sees NIC pressure on every
  watchdog beat and degrades the datapath toward BYPASS.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

from ..chaos.faults import Fault, FaultPlan, GatewayFault, Match
from ..obs.world import ObservedWorld, WorkloadSchedule, default_workload_schedule
from .canary import PROMOTED, ROLLED_BACK, CanaryController
from .twin import Deployment, production_deployment

__all__ = ["Incident", "INCIDENTS", "incident", "incident_names",
           "run_incident", "run_corpus"]


@dataclass(frozen=True)
class Incident:
    """One scripted rollout with a known correct verdict."""

    name: str
    description: str
    expected: str  # PROMOTED or ROLLED_BACK
    candidate: Deployment
    #: Applied to *both* twins (chaos weather, attack events); the
    #: controller must judge the deployment, not the environment.
    environment: Optional[Callable[[ObservedWorld], None]] = None
    #: Optional workload override (seed → schedule), fed identically
    #: to both twins; ``None`` uses the stock schedule.
    schedule: Optional[Callable[[int], WorkloadSchedule]] = None


# ----------------------------------------------------------------------
# Environments (module-level so incidents stay picklable/deterministic)
# ----------------------------------------------------------------------

def _benign_weather(world: ObservedWorld) -> None:
    """Environmental chaos both twins must shrug off identically.

    A download-segment reorder on the outside→gateway link plus a
    brief gateway stall: enough to perturb health and latency in both
    twins, so a naive (non-differential) judge would false-positive.
    """
    plan = FaultPlan(
        link_faults=[
            Fault(action="reorder", link="ext_in", nth=20, count=2,
                  match=Match(min_payload=1), delay=2e-3),
        ],
        gateway_faults=[
            GatewayFault(kind="stall", at=0.35, duration=2e-3),
        ],
    )
    plan.install(world.links, world.gateway)


def _forged_pmtu_report(world: ObservedWorld) -> None:
    """An off-path attacker's forged 400 B fragmentation report.

    Delivered unsolicited (``trust="report"``) against the egress
    destination's wildcard cache entry at t=0.15 — just before the
    bulk transfers start, so the clamp governs the whole upload.  The
    hardened cache rejects it (below the 576 B plausibility floor and
    unsolicited); the trusting cache swallows it and clamps every
    outbound split to 400 B.
    """
    gateway = world.gateway
    dst = world.outside.ip

    def poison() -> None:
        gateway.pmtu_cache.learn(
            dst, 400, gateway.sim.now,
            source="ptb", flow=None, trust="report",
        )

    world.topo.sim.schedule_at(0.15, poison)


def _nic_pressure_schedule(seed: int) -> WorkloadSchedule:
    """The stock workload plus a sustained inbound UDP trickle.

    One 500 B datagram every 10 ms from t=0.25 to t=0.64 — light load
    a healthy gateway absorbs invisibly, but *sustained*: a candidate
    whose on-NIC store cannot hold even one caravan context falls back
    on every beat of the health monitor's watchdog, which is what
    distinguishes chronic NIC pressure from a survivable burst.
    """
    base = default_workload_schedule(seed)
    trickle = tuple(bytes([3, i & 0xFF]) * 250 for i in range(40))
    offset = len(base.inbound_payloads)
    drips = tuple((round(0.25 + 0.01 * i, 9), offset + i, 1)
                  for i in range(len(trickle)))
    return replace(
        base,
        inbound_payloads=base.inbound_payloads + trickle,
        inbound_bursts=base.inbound_bursts + drips,
    )


# ----------------------------------------------------------------------
# The corpus
# ----------------------------------------------------------------------

def _corpus() -> Tuple[Incident, ...]:
    production = production_deployment()
    stock = production.config
    return (
        Incident(
            name="benign-candidate",
            description="A capacity bump (double the merge-context "
                        "table) under chaotic weather hitting both "
                        "twins; behaviourally identical, must promote.",
            expected=PROMOTED,
            candidate=replace(
                production, name="bigger-context-table",
                config=replace(stock, merge_contexts_per_worker=8192),
                description="Stock config with a doubled merge-context "
                            "table.",
            ),
            environment=_benign_weather,
        ),
        Incident(
            name="mis-sized-mtu-rollout",
            description="Candidate configured for a 3000 B eMTU on a "
                        "1500 B wire: its splits are silently dropped "
                        "at the external link (MTU blackhole).",
            expected=ROLLED_BACK,
            candidate=replace(
                production, name="emtu-3000",
                config=replace(stock, emtu=3000),
                description="Rolled out ahead of the (unupgraded) "
                            "external network.",
            ),
        ),
        Incident(
            name="pmtud-hardening-disabled",
            description="Candidate ships the trusting PMTU cache; a "
                        "forged off-path fragmentation report (sent at "
                        "both twins) poisons its clamp to 400 B and "
                        "egress micro-segments.",
            expected=ROLLED_BACK,
            candidate=replace(
                production, name="unhardened-pmtud",
                hardened_pmtud=False,
                description="Stock config with the PMTUD hardening "
                            "posture disabled.",
            ),
            environment=_forged_pmtu_report,
        ),
        Incident(
            name="caravan-flush-timer-regression",
            description="merge_timeout mis-set 500 µs → 250 ms: "
                        "payload dwells in the merge/caravan engines "
                        "and p95 gateway residency explodes.",
            expected=ROLLED_BACK,
            candidate=replace(
                production, name="slow-flush-timer",
                config=replace(stock, merge_timeout=0.25),
                description="A units typo in the flush-timer config.",
            ),
        ),
        Incident(
            name="merge-disabled-config",
            description="The elephant classifier threshold mis-set so "
                        "no flow ever promotes to merge-eligible (and "
                        "delayed merging off): the merge ratio "
                        "collapses while per-packet cycles keep being "
                        "charged.",
            expected=ROLLED_BACK,
            candidate=replace(
                production, name="merge-disabled",
                config=replace(stock, delayed_merge=False,
                               elephant_threshold_packets=1_000_000),
                description="A classifier threshold typo that disables "
                            "the merge path.",
            ),
        ),
        Incident(
            name="bypass-under-nic-pressure",
            description="Header-only DMA sized with a 256 B on-NIC "
                        "store: every merge context falls back, and "
                        "under a sustained inbound trickle the health "
                        "monitor sees NIC pressure on every beat and "
                        "degrades the datapath toward BYPASS.",
            expected=ROLLED_BACK,
            candidate=replace(
                production, name="tiny-nic-store",
                config=replace(stock, nic_memory_bytes=256),
                description="Header-only DMA with a mis-sized NIC "
                            "memory budget.",
            ),
            schedule=_nic_pressure_schedule,
        ),
    )


INCIDENTS: Tuple[Incident, ...] = _corpus()


def incident_names() -> Tuple[str, ...]:
    return tuple(item.name for item in INCIDENTS)


def incident(name: str) -> Incident:
    for item in INCIDENTS:
        if item.name == name:
            return item
    raise KeyError(f"unknown incident {name!r} (have {incident_names()})")


def run_incident(name: str, seed: int = 0) -> dict:
    """Run one incident; the report gains expectation bookkeeping."""
    item = incident(name)
    controller = CanaryController(
        baseline=production_deployment(),
        candidate=item.candidate,
        seed=seed,
        environment=item.environment,
        schedule=item.schedule(seed) if item.schedule is not None else None,
    )
    report = controller.run()
    report["incident"] = item.name
    report["incident_description"] = item.description
    report["expected"] = item.expected
    report["ok"] = report["verdict"] == item.expected
    return report


def run_corpus(seed: int = 0) -> dict:
    """Run every incident; ``ok`` only when every verdict matches."""
    reports = [run_incident(item.name, seed=seed) for item in INCIDENTS]
    return {
        "schema": "repro-canary-corpus/1",
        "seed": seed,
        "incidents": reports,
        "ok": all(report["ok"] for report in reports),
    }

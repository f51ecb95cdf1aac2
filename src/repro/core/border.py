"""One PXGW border world: hosts | pxgw | routers, wired from data.

The paper deploys one PXGW at a b-network border (9000 B inside, 1500 B
outside).  Every border world in the package — chaos, attack, observed,
the ``repro gateway`` demo, the caravan-negotiation round and the
``gateway_world`` bench — is built by :func:`build_border`.

Construction order feeds every digest: nodes are created hosts, then
``pxgw``, then routers (route insertion order); links in declaration
order and orientation (each /30 and each link's ``rng`` draw).  A link
declared *into* the gateway (``b == "pxgw"``) faces the b-network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..net import Topology
from ..sim import Link, Netem
from .config import GatewayConfig

if TYPE_CHECKING:  # imported lazily: repro.obs.world builds on this module
    from ..obs import AlertEngine, Observability, TelemetryTimeline
    from ..sim.node import Interface
    from .gateway import PXGateway

__all__ = ["BorderWorld", "Wire", "build_border"]

#: The gateway's node name in every border world.
GATEWAY = "pxgw"


@dataclass(frozen=True)
class Wire:
    """One physical link, created ``a`` → ``b``.

    The directed links are ``<role>_out`` (a→b) and ``<role>_in`` (b→a).
    """

    a: str
    b: str
    role: str
    mtu: int
    bandwidth_bps: float = 10e9
    delay: float = 1e-6
    netem: Optional[Netem] = None


@dataclass
class BorderWorld:
    """A built border: topology, gateway, directed links by role.

    Hosts and routers are attributes by name (``world.inside``).
    :meth:`instrument` fills ``monitor``/``obs``/``alerts``/``timeline``;
    harnesses fill ``taps`` (role → link tap) and ``log`` (the fault log
    of installed injectors).
    """

    topo: Topology
    gateway: "PXGateway"
    links: Dict[str, Link]
    taps: Dict[str, object] = field(default_factory=dict)
    log: object = None
    monitor: object = None
    obs: Optional["Observability"] = None
    alerts: Optional["AlertEngine"] = None
    timeline: Optional["TelemetryTimeline"] = None

    def __getattr__(self, name: str):
        topo = self.__dict__.get("topo")
        if topo is None or name.startswith("_") or name not in topo.nodes:
            raise AttributeError(name)
        return topo.nodes[name]

    def instrument(self, obs: Optional["Observability"] = None,
                   alert_rules=None,
                   scrape_interval: float = 0.05) -> "BorderWorld":
        """Attach the resilience monitor, then *obs* (default: spans
        only), then — only when *alert_rules* is given — an alert engine
        evaluated by a timeline scraping every *scrape_interval*
        sim-seconds, started now."""
        from ..obs import AlertEngine, Observability, SpanTracker, TelemetryTimeline

        self.monitor = self.gateway.enable_resilience()
        self.obs = self.gateway.attach_observability(
            obs if obs is not None else Observability(spans=SpanTracker()))
        if alert_rules is not None:
            self.alerts = AlertEngine(alert_rules)
            self.timeline = TelemetryTimeline(
                self.topo.sim, self.obs.registry, interval=scrape_interval,
                alerts=self.alerts,
            ).start()
        return self


def build_border(
    seed: int,
    hosts: Sequence[str],
    routers: Sequence[str],
    links: Sequence[Wire],
    config: Optional[GatewayConfig] = None,
) -> BorderWorld:
    """Build hosts, ``pxgw`` (*config*, default: elephants after two
    packets, header-only DMA), routers and *links*, then routes."""
    from .gateway import PXGateway

    topo = Topology(seed=seed)
    for name in hosts:
        topo.add_host(name)
    if config is None:
        config = GatewayConfig(elephant_threshold_packets=2, header_only_dma=True)
    gateway = topo.add_node(PXGateway(topo.sim, GATEWAY, config=config))
    for name in routers:
        topo.add_router(name)

    directed: Dict[str, Link] = {}
    internal: "List[Interface]" = []
    for wire in links:
        a, b = topo.nodes[wire.a], topo.nodes[wire.b]
        forward, backward = topo.link(
            a, b, mtu=wire.mtu, bandwidth_bps=wire.bandwidth_bps,
            delay=wire.delay, netem=wire.netem,
        )
        directed[f"{wire.role}_out"] = forward
        directed[f"{wire.role}_in"] = backward
        if b is gateway:
            internal.append(topo.edge(a, b)[1])

    topo.build_routes()
    for interface in internal:
        gateway.mark_internal(interface)
    return BorderWorld(topo=topo, gateway=gateway, links=directed)

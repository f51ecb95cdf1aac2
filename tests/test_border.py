"""The one border-world builder and the one fault-plan installer.

Every inside|PXGW|outside world (chaos, attack, observed, the CLI demos
and the ``gateway_world`` bench) is built by
:func:`repro.core.build_border`; construction order is part of every
pinned digest, so it is pinned here directly.
"""

import pytest

from repro.chaos import (
    FaultPlan,
    GatewayFault,
    apply_attack_faults,
    build_attack_world,
    build_world,
    run_scenario,
)
from repro.chaos.faults import Fault, FaultLog
from repro.core import GatewayConfig, Wire, build_border
from repro.obs import Observability
from repro.obs.alerts import default_alert_rules
from repro.packet import ip_to_str


def _world(config=None):
    return build_border(3, ("inside", "outside", "server"), ("mid",), [
        Wire("inside", "pxgw", "int", mtu=9000),
        Wire("pxgw", "mid", "ext", mtu=1500, bandwidth_bps=1e9, delay=2e-4),
        Wire("mid", "server", "far", mtu=1280),
        Wire("mid", "outside", "side", mtu=1500),
    ], config=config)


def test_nodes_are_created_hosts_then_gateway_then_routers():
    assert list(_world().topo.nodes) == ["inside", "outside", "server", "pxgw", "mid"]


def test_links_are_named_by_role_in_declared_orientation():
    world = _world()
    assert list(world.links) == ["int_out", "int_in", "ext_out", "ext_in",
                                 "far_out", "far_in", "side_out", "side_in"]
    ext_out, ext_in = world.links["ext_out"], world.links["ext_in"]
    assert (ext_out.src.node, ext_out.dst.node) == (world.gateway, world.mid)
    assert (ext_in.src.node, ext_in.dst.node) == (world.mid, world.gateway)
    assert (ext_out.mtu, ext_out.bandwidth_bps, ext_out.delay) == (1500, 1e9, 2e-4)
    assert world.links["far_in"].mtu == 1280
    # Declaration order and orientation pick each /30: a gets .1.
    assert ip_to_str(world.inside.ip) == "10.0.0.1"
    assert ip_to_str(world.links["side_out"].src.ip) == "10.0.12.1"


def test_only_links_declared_into_the_gateway_face_the_b_network():
    world = _world()
    gateway = world.gateway
    assert gateway.is_internal(world.links["int_out"].dst)
    assert not gateway.is_internal(world.links["ext_out"].src)


def test_routes_reach_every_host():
    world = _world()
    received = []
    world.server.on_udp(9, lambda packet, host: received.append(packet.payload))
    world.outside.send_udp(world.server.ip, 1, 9, b"hello")
    world.topo.run(until=0.01)
    assert received == [b"hello"]


def test_default_and_injected_gateway_config():
    config = _world().gateway.config
    assert config.elephant_threshold_packets == 2 and config.header_only_dma
    injected = GatewayConfig()
    assert _world(injected).gateway.config is injected


def test_nodes_are_attributes_by_name_and_nothing_else_is():
    world = _world()
    assert world.mid is world.topo.nodes["mid"]
    with pytest.raises(AttributeError):
        world.nowhere


def test_instrument_attaches_monitor_and_spans_without_a_timeline():
    world = _world().instrument()
    assert world.monitor is world.gateway.health
    assert world.obs is world.gateway.obs
    assert world.obs.spans is not None and world.obs.tracer is None
    assert world.alerts is None and world.timeline is None


def test_instrument_with_alert_rules_starts_a_timeline_now():
    obs = Observability()
    world = _world().instrument(obs, default_alert_rules(), scrape_interval=0.02)
    assert world.obs is obs
    assert world.timeline.running and world.timeline.interval == 0.02
    assert world.timeline.alerts is world.alerts
    world.topo.run(until=0.1)
    assert world.timeline.ticks == 5


def test_install_puts_injectors_on_roles_and_schedules_gateway_faults():
    world = _world().instrument()
    plan = FaultPlan(
        link_faults=[Fault(action="drop", link="ext_in", nth=1)],
        gateway_faults=[GatewayFault(kind="stall", at=0.01, duration=0.02)],
    )
    log = plan.install(world.links, world.gateway)
    assert isinstance(log, FaultLog)
    assert world.links["ext_in"].injector is not None
    assert world.links["ext_out"].injector is None
    world.topo.run(until=0.1)
    assert world.monitor.summary()["signals"].get("stall", 0) > 0


def test_install_rejects_an_unknown_role_everywhere():
    plan = FaultPlan(link_faults=[Fault(action="drop", link="typo_in")])
    with pytest.raises(ValueError, match="unknown link role 'typo_in'"):
        plan.install(_world().links, None)
    with pytest.raises(ValueError, match="unknown link role 'typo_in'"):
        run_scenario("tcp", 101, plan=plan)
    with pytest.raises(ValueError, match="unknown link role 'typo_in'"):
        apply_attack_faults(plan, build_attack_world(7, True))


def test_attacker_link_keeps_its_attacker_side_names():
    world = build_attack_world(7, hardened=True)
    assert world.links["atk_out"].src.node is world.attacker
    assert world.links["atk_in"].dst.node is world.attacker
    # Created mid -> attacker: the mid router holds the /30's .1.
    assert world.links["atk_in"].src.ip + 1 == world.attacker.ip


def test_chaos_pmtud_bottleneck_lives_on_the_far_link():
    world = build_world("pmtud", 31)
    assert world.links["far_in"].mtu in (1280, 1356, 1408, 1444)
    assert world.links["far_in"].mtu == world.links["far_out"].mtu

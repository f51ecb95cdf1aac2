"""Tests for links, queues, netem, and interfaces."""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packet import Packet, build_udp
from repro.packet.ethernet import wire_bytes_for_payload
from repro.sim import Interface, Link, Netem, Node, Simulator, connect
from repro.sim.link import DEFAULT_QUEUE_BYTES


class Sink(Node):
    """Collects everything delivered to it."""

    def __init__(self, sim, name="sink"):
        super().__init__(sim, name)
        self.received = []

    def receive(self, packet, interface):
        self.received.append((self.sim.now, packet))


def make_pair(sim, **link_kwargs):
    a, b = Sink(sim, "a"), Sink(sim, "b")
    ia = a.add_interface(1, mtu=link_kwargs.get("mtu", 1500))
    ib = b.add_interface(2, mtu=link_kwargs.get("mtu", 1500))
    links = connect(sim, ia, ib, **link_kwargs)
    return a, b, ia, ib, links


def udp(total_len=1500):
    return build_udp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"\0" * (total_len - 28))


def test_delivery_latency_is_serialization_plus_propagation():
    sim = Simulator()
    _a, b, ia, _ib, _ = make_pair(sim, bandwidth_bps=1e9, delay=1e-3)
    packet = udp(1500)
    ia.send(packet)
    sim.run()
    arrival = b.received[0][0]
    expected = packet.wire_len * 8 / 1e9 + 1e-3
    assert arrival == pytest.approx(expected)


def test_back_to_back_packets_serialize_sequentially():
    sim = Simulator()
    _a, b, ia, _ib, _ = make_pair(sim, bandwidth_bps=1e9, delay=0.0)
    first, second = udp(1500), udp(1500)
    ia.send(first)
    ia.send(second)
    sim.run()
    gap = b.received[1][0] - b.received[0][0]
    assert gap == pytest.approx(first.wire_len * 8 / 1e9)


def test_oversized_packet_dropped_with_mtu_counter():
    sim = Simulator()
    _a, b, ia, _ib, (forward, _) = make_pair(sim, mtu=1500)
    assert not ia.send(udp(1501))
    sim.run()
    assert b.received == []
    assert forward.stats.dropped_mtu == 1


def test_queue_overflow_drops():
    sim = Simulator()
    _a, b, ia, _ib, (forward, _) = make_pair(sim, bandwidth_bps=1e6, queue_bytes=3000)
    results = [ia.send(udp(1500)) for _ in range(5)]
    sim.run()
    assert results.count(False) > 0
    assert forward.stats.dropped_queue > 0
    assert len(b.received) == results.count(True)


def test_netem_loss_drops_fraction():
    sim = Simulator()
    netem = Netem(loss=0.5)
    _a, b, ia, _ib, (forward, _) = make_pair(
        sim, bandwidth_bps=100e9, netem=netem, rng=random.Random(7)
    )
    for _ in range(400):
        ia.send(udp(100))
    sim.run()
    delivered = len(b.received)
    assert 120 < delivered < 280  # ~200 expected
    assert forward.stats.dropped_loss == 400 - delivered


def test_netem_adds_delay():
    sim = Simulator()
    netem = Netem(delay=0.010)
    _a, b, ia, _ib, _ = make_pair(sim, bandwidth_bps=100e9, delay=0.0, netem=netem)
    ia.send(udp(100))
    sim.run()
    assert b.received[0][0] >= 0.010


def test_netem_validation():
    with pytest.raises(ValueError):
        Netem(loss=1.5)
    with pytest.raises(ValueError):
        Netem(delay=-1)


def test_netem_wan_profile_matches_paper():
    profile = Netem.wan()
    assert profile.delay == pytest.approx(0.005)  # 10 ms end-to-end
    assert profile.loss == pytest.approx(0.0001)  # 0.01 %


def test_interface_counters():
    sim = Simulator()
    _a, b, ia, ib, _ = make_pair(sim)
    packet = udp(500)
    ia.send(packet)
    sim.run()
    assert ia.tx_packets == 1 and ia.tx_bytes == 500
    assert ib.rx_packets == 1 and ib.rx_bytes == 500


def test_send_without_link_returns_false():
    sim = Simulator()
    node = Sink(sim)
    interface = node.add_interface(1)
    assert not interface.send(udp(100))


def test_bidirectional_traffic():
    sim = Simulator()
    a, b, ia, ib, _ = make_pair(sim)
    ia.send(udp(100))
    ib.send(udp(200))
    sim.run()
    assert len(a.received) == 1 and len(b.received) == 1


# ---------------------------------------------------------------------------
# Differential oracle: the store-and-forward event chain
# ---------------------------------------------------------------------------


class ChainLink(Link):
    """The event-per-stage store-and-forward chain, kept as an oracle.

    Each packet is serialized by its own event once the line frees up
    (serialize-end schedules the next queued packet), then delivered a
    propagation delay later.  :class:`Link` computes the same pipeline
    analytically; the property below holds the two to equal tap
    streams, delivery times and counters.

    The models differ only at exact timestamp ties: two events due at
    the same instant fire in scheduling order, and the chain schedules
    a packet's serialize-end when its slot starts while :class:`Link`
    does so on acceptance.  The property's inputs therefore keep every
    time off the serialization grid (see :data:`_ODD_BANDWIDTH`).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._queue = deque()
        self._serializing = False

    def transmit(self, packet, size=None):
        if size is None:
            size = packet.total_len
        if size > self.mtu:
            self.stats.dropped_mtu += 1
            self._notify("drop-mtu", packet)
            return False
        if self._queued_bytes + size > self.queue_bytes:
            self.stats.dropped_queue += 1
            self._notify("drop-queue", packet)
            return False
        self._notify("tx", packet)
        if self._serializing:
            self._queue.append((packet, size))
            self._queued_bytes += size
            return True
        self._serializing = True
        serialization = wire_bytes_for_payload(size) * 8 / self.bandwidth_bps
        self.sim.schedule_fast(serialization, self._chain_serialized, packet, size)
        return True

    def _chain_next(self):
        if not self._queue:
            self._serializing = False
            return
        packet, size = self._queue.popleft()
        self._queued_bytes -= size
        serialization = wire_bytes_for_payload(size) * 8 / self.bandwidth_bps
        self.sim.schedule_fast(serialization, self._chain_serialized, packet, size)

    def _chain_serialized(self, packet, size):
        self.stats.transmitted += 1
        deliveries = [(packet, 0.0)]
        if self.injector is not None:
            deliveries = self.injector.apply(packet, self.sim.now)
            if not deliveries:
                self.stats.dropped_fault += 1
                self._notify("drop-fault", packet)
        for copy, fault_delay in deliveries:
            drop, extra_delay = False, 0.0
            if self.netem is not None:
                drop, extra_delay = self.netem.impair(self.rng)
            if drop:
                self.stats.dropped_loss += 1
                self._notify("drop-loss", copy)
            else:
                self.sim.schedule_fast(
                    self.delay + extra_delay + fault_delay,
                    self._chain_deliver,
                    copy,
                    size if copy is packet else copy.total_len,
                )
        self._chain_next()

    def _chain_deliver(self, packet, size):
        self.stats.delivered += 1
        self.stats.bytes_delivered += size
        packet.timestamp = self.sim.now
        self._notify("rx", packet)
        self.dst.deliver(packet, size)


class ScriptedInjector:
    """Drops, duplicates or delays packets by their position on the link."""

    def __init__(self, actions):
        self.actions = actions
        self.seen = 0

    def apply(self, packet, now):
        action, extra = self.actions[self.seen % len(self.actions)]
        self.seen += 1
        if action == "drop":
            return []
        if action == "duplicate":
            return [(packet, 0.0), (packet.copy(), extra)]
        if action == "delay":
            return [(packet, extra)]
        return [(packet, 0.0)]


#: Keyword arguments for a fresh :class:`Netem` per link and per run
#: (a Netem carries channel and rng state).
_netems = st.one_of(
    st.none(),
    st.fixed_dictionaries(
        dict(
            delay=st.sampled_from([0.0, 1e-4, 3e-3]),
            jitter=st.sampled_from([0.0, 5e-5, 2e-4]),
            loss=st.sampled_from([0.0, 0.1, 0.3]),
            reorder=st.sampled_from([0.0, 0.2]),
            reorder_extra=st.sampled_from([1e-4, 1e-3]),
            seed=st.one_of(st.none(), st.integers(0, 3)),
        )
    ),
)
_scripts = st.one_of(
    st.none(),
    st.lists(
        st.tuples(
            st.sampled_from(["pass", "drop", "duplicate", "delay"]),
            st.sampled_from([0.0, 2e-5, 1e-3]),
        ),
        min_size=1,
        max_size=5,
    ),
)
#: A prime line rate: serialization times are multiples of 8/rate
#: seconds, a grid no decimal send time or delay can land on exactly,
#: so no two events of the property share a timestamp.
_ODD_BANDWIDTH = 99_999_989

_sends = st.lists(
    st.tuples(
        st.integers(0, 3000),  # send time, µs
        st.booleans(),  # direction: a->b or b->a
        st.integers(28, 1600),  # total_len; above 1500 trips the MTU drop
    ),
    min_size=1,
    max_size=40,
)


def _link_world(link_cls, sends, queue_bytes, tapped, netem_args, script, seed):
    """Run *sends* over one connection built from *link_cls*; return all
    tap streams, deliveries in arrival order, and link counters."""
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    ia, ib = a.add_interface(1, mtu=1500), b.add_interface(2, mtu=1500)
    rng = random.Random(seed)  # shared by both directions, as connect() does
    links = []
    for src, dst in ((ia, ib), (ib, ia)):
        netem = Netem(**netem_args) if netem_args is not None else None
        link = link_cls(sim, src, dst, _ODD_BANDWIDTH, 2e-5, 1500, queue_bytes, netem, rng)
        src.link = link
        if script is not None:
            link.injector = ScriptedInjector(script)
        links.append(link)
    streams = []
    if tapped:
        for link in links:
            stream = []
            link.add_tap(
                lambda event, packet, now, stream=stream: stream.append(
                    (event, now, packet.ip.identification)
                )
            )
            streams.append(stream)
    for ident, (micros, backward, size) in enumerate(sends):
        iface = ib if backward else ia
        packet = build_udp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"\0" * (size - 28),
                           ip_id=ident)
        # The 1 ns stagger keeps sends drawn for the same microsecond
        # (in either direction) from tying with each other.
        sim.schedule_at(micros * 1e-6 + ident * 1e-9, iface.send, packet)
    sim.run()
    arrivals = [
        [(now, packet.ip.identification) for now, packet in sink.received] for sink in (a, b)
    ]
    counters = [
        (s.transmitted, s.delivered, s.bytes_delivered, s.dropped_mtu,
         s.dropped_queue, s.dropped_loss, s.dropped_fault)
        for s in (link.stats for link in links)
    ]
    return streams, arrivals, counters


@settings(max_examples=200, deadline=None)
@given(
    sends=_sends,
    queue_bytes=st.sampled_from([600, 1500, 4000, 20_000, DEFAULT_QUEUE_BYTES]),
    tapped=st.booleans(),
    netem=_netems,
    script=_scripts,
    seed=st.integers(0, 5),
)
def test_analytic_link_matches_event_chain(sends, queue_bytes, tapped, netem, script, seed):
    args = (sends, queue_bytes, tapped, netem, script, seed)
    assert _link_world(Link, *args) == _link_world(ChainLink, *args)


# ---------------------------------------------------------------------------
# Instrument invariance: taps observe, they never change the model
# ---------------------------------------------------------------------------


def _pxgw_delivery_times(tapped):
    """(link, time, length) of every link delivery in a two-host PXGW
    world carrying a bulk transfer each way."""
    from repro.core import GatewayConfig, PXGateway
    from repro.net import Topology
    from repro.tcpstack import TCPConnection, TCPListener

    topo = Topology(seed=7)
    inside = topo.add_host("inside")
    outside = topo.add_host("outside")
    gateway = PXGateway(topo.sim, "pxgw", config=GatewayConfig(imtu=9000, emtu=1500))
    topo.add_node(gateway)
    links = topo.link(inside, gateway, mtu=9000, delay=7.3e-5)
    links += topo.link(gateway, outside, bandwidth_bps=1e9, mtu=1500, delay=7.3e-5)
    topo.build_routes()
    gateway.mark_internal(gateway.interfaces[0])
    deliveries = []
    for index, link in enumerate(links):
        if tapped:
            link.add_tap(lambda event, packet, now: None)
        iface = link.dst
        iface.deliver = lambda packet, size=None, index=index, inner=iface.deliver: (
            deliveries.append((index, topo.sim.now, packet.total_len)),
            inner(packet, size),
        )
    down_server = TCPListener(outside, 80, mss=1460)
    up_server = TCPListener(inside, 81, mss=8960)
    down = TCPConnection(inside, 40000, outside.ip, 80, mss=8960)
    up = TCPConnection(outside, 40001, inside.ip, 81, mss=1460)
    down.connect()
    up.connect()
    topo.run(until=0.05)
    down_server.connections[0].send_bulk(1_000_000)
    up_server.connections[0].send_bulk(1_000_000)
    topo.run(until=5.0)
    assert down.bytes_delivered == up.bytes_delivered == 1_000_000
    return deliveries


def test_noop_taps_leave_every_delivery_time_bit_identical():
    plain = _pxgw_delivery_times(tapped=False)
    assert plain == _pxgw_delivery_times(tapped=True)

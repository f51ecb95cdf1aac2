"""Per-layer attribution for the traced run.

The program is not changed to trace it.  Instead the traced run wraps,
from here, the calls into each layer's public entry points: instance
attributes of the objects a world built (a simulator's ``run``, a
host's ``receive``/``send``, an interface's ``send``, a gateway's
``receive``/``forward``), the callbacks a layer registered with another
(a TCP connection's segment handler and timers, the gateway's flush
timer, the timeline's scrape tick), and, for the packet layer, the
``Packet`` methods and packet helper functions every layer calls.

Each wrapped call records one span: entry name, start, end and the
span it ran inside.  Spans stay in flat in-memory arrays and are written
out when the run ends.  A layer's self time is the time of its spans
minus the time of their child spans; the part of the timed region no
span covers is the untraced remainder (benchmark glue).
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
import tracemalloc
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List

LAYERS = ("sim", "net", "tcpstack", "packet", "core", "fleet", "obs")

#: Layers whose live allocations the allocation pass reports.
ALLOC_LAYERS = ("core", "packet", "sim", "tcpstack")

#: Largest accepted |self times + remainder - region| / region.
CLOSURE_TOLERANCE = 1e-3


class SpanLog:
    """Spans of one traced rep: (entry, start ns, end ns, parent index)."""

    def __init__(self):
        self.entries: List[str] = []
        self.entry_layer: List[int] = []
        self._entry_ids: Dict[str, int] = {}
        self.entry = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]

    def _entry_id(self, layer: str, name: str) -> int:
        entry = self._entry_ids.get(name)
        if entry is None:
            entry = self._entry_ids[name] = len(self.entries)
            self.entries.append(name)
            self.entry_layer.append(LAYERS.index(layer))
        elif self.entry_layer[entry] != LAYERS.index(layer):
            raise ValueError(f"{name} registered under two layers")
        return entry

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """*fn* with a span recorded around every call."""
        entry = self._entry_id(layer, name)
        entries, starts, ends, parents = self.entry, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            entries.append(entry)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def on(self, obj, attr: str, layer: str, name: str = "") -> None:
        """Wrap the bound method *attr* of one object (instance level)."""
        label = name or f"{type(obj).__name__}.{attr}"
        setattr(obj, attr, self.wrap(layer, label, getattr(obj, attr)))

    def calls(self, name: str) -> int:
        entry = self._entry_ids.get(name)
        return 0 if entry is None else self.entry.count(entry)

    def write(self, path: str, region_ns: int) -> None:
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {
            "layers": LAYERS,
            "entries": self.entries,
            "entry_layer": self.entry_layer,
            "spans": len(self.start),
            "region_ns": region_ns,
            "arrays": [["entry", self.entry.typecode], ["start", "q"],
                       ["end", "q"], ["parent", self.parent.typecode]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.entry, self.start, self.end, self.parent):
                column.tofile(handle)


def attribute(log: SpanLog, region_start: int, region_end: int) -> dict:
    """Self time and calls per layer, plus the untraced remainder.

    The remainder is the timed region minus the union of root spans.
    Self times come from the span tree instead, so the two agree only
    when spans nest properly; ``closure_error`` is their disagreement
    as a share of the region.
    """
    region = region_end - region_start
    count = len(log.start)
    durations = [end - start for start, end in zip(log.start, log.end)]
    child = [0] * count
    roots = []
    for index, parent in enumerate(log.parent):
        if parent >= 0:
            child[parent] += durations[index]
        else:
            roots.append(index)
    self_ns = [0] * len(LAYERS)
    calls = [0] * len(LAYERS)
    negative = 0
    entry_layer = log.entry_layer
    for index, entry in enumerate(log.entry):
        own = durations[index] - child[index]
        if own < 0:
            negative += 1
        layer = entry_layer[entry]
        self_ns[layer] += own
        calls[layer] += 1
    covered = 0
    reach = region_start
    for index in roots:
        start = max(log.start[index], reach, region_start)
        end = min(log.end[index], region_end)
        if end > start:
            covered += end - start
            reach = end
    remainder = region - covered
    closure = abs(sum(self_ns) + remainder - region) / region if region else 0.0
    return {
        "self_ns": dict(zip(LAYERS, self_ns)),
        "calls": dict(zip(LAYERS, calls)),
        "remainder_ns": remainder,
        "closure_error": closure,
        "negative_self_spans": negative,
        "spans": count,
    }


# ----------------------------------------------------------------------
# Wrapping the layers of a built world
# ----------------------------------------------------------------------
def instrument(log: SpanLog, world) -> None:
    """Wrap the entry points of every layer *world* built."""
    if world.kind == "fleet":
        fleet = world.fleet
        for attr in ("process_stream", "process_batch", "end_batch"):
            log.on(fleet, attr, "fleet")
        for worker in world.workers():
            log.on(worker, "process_batch", "core")
            log.on(worker, "end_batch", "core")
            _wrap_flushes(log, worker)
        return
    for topo in world.topologies:
        sim = topo.sim
        log.on(sim, "run", "sim")
        log.on(sim, "schedule", "sim")
        log.on(sim, "schedule_at", "sim")
        for node in topo.nodes.values():
            for interface in node.interfaces:
                log.on(interface, "send", "sim")
    for topo in world.topologies:
        for node in topo.nodes.values():
            if node in world.gateways:
                continue
            log.on(node, "receive", "net")
            log.on(node, "send", "net")
    for gateway in world.gateways:
        log.on(gateway, "receive", "core")
        log.on(gateway, "_on_flush_timer", "core", "PXGateway.flush_timer")
        log.on(gateway, "forward", "net")
        _wrap_flushes(log, gateway.worker)
    for conn in world.connections():
        # The segment handler is the callback the connection registered
        # with its host; registering the wrapped one replaces it.
        handler = log.wrap("tcpstack", "TCPConnection.on_packet", conn._on_packet)
        conn.host.on_tcp(conn.local_port, conn.peer_ip, conn.peer_port, handler)
        log.on(conn, "_on_rto", "tcpstack", "TCPConnection.rto_timer")
        log.on(conn, "_on_delack", "tcpstack", "TCPConnection.delack_timer")
        log.on(conn, "send_bulk", "tcpstack")
    obs = getattr(world, "obs", None)
    if obs is not None:
        for attr in ("open", "close", "drop", "sync", "sync_drop", "derived",
                     "merge_enqueue", "merge_consume", "caravan_enqueue",
                     "caravan_consume", "flush_fifos", "observe"):
            log.on(obs.spans, attr, "obs")
        log.on(obs.tracer, "record", "obs")
        log.on(world.timeline, "_tick", "obs", "TelemetryTimeline.tick")
        log.on(world.timeline, "start", "obs")
        log.on(world.timeline, "stop", "obs")
        log.on(world.alerts, "evaluate", "obs")
        log.on(world.flight, "window", "obs")


def _wrap_flushes(log: SpanLog, worker) -> None:
    log.on(worker.merge, "flush_older_than", "core", "flush_older_than")
    log.on(worker.caravan_merge, "flush_older_than", "core", "flush_older_than")


#: Packet-layer entry points patched on their class for a traced rep.
_PACKET_METHODS = ("__init__", "flow_key", "fork", "copy", "to_bytes")
_PACKET_PROPERTIES = ("total_len",)
_PACKET_FUNCTIONS = ("internet_checksum", "verify_checksum",
                     "build_tcp", "build_udp", "build_icmp")


@contextmanager
def packet_layer(log: SpanLog):
    """Wrap the packet layer for the duration of one traced rep.

    Helper functions are imported by name into many modules, so every
    loaded ``repro`` module attribute bound to one is swapped, and all
    of them are put back afterwards.
    """
    from repro import packet as packet_pkg
    from repro.packet import Packet

    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                     else getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for attr in _PACKET_METHODS:
            patch(Packet, attr, log.wrap("packet", f"Packet.{attr}", getattr(Packet, attr)))
        for attr in _PACKET_PROPERTIES:
            prop = Packet.__dict__[attr]
            patch(Packet, attr, property(log.wrap("packet", f"Packet.{attr}", prop.fget)))
        from_bytes = Packet.__dict__["from_bytes"].__func__
        patch(Packet, "from_bytes",
              classmethod(log.wrap("packet", "Packet.from_bytes", from_bytes)))
        for name in _PACKET_FUNCTIONS:
            original = getattr(packet_pkg, name)
            traced = log.wrap("packet", name, original)
            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("repro") and getattr(module, name, None) is original:
                    patch(module, name, traced)
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


# ----------------------------------------------------------------------
# Allocation pass
# ----------------------------------------------------------------------
_LAYER_OF_FILE = re.compile(r"[\\/]repro[\\/](\w+)[\\/]")


def allocations(world, offered_total: int) -> Dict[str, float]:
    """Run *world* under tracemalloc; KB live per layer at the half-way point.

    The snapshot is taken once the gateway workers have been offered
    half of the rep's *offered_total* packets, so it holds what each
    layer keeps while traffic is in flight.  Returns KB per gateway
    packet handled up to the snapshot, keyed by layer.
    """
    taken = {}
    offered = [0]
    half = offered_total // 2

    def counting(fn, size_of):
        def counted(*args, **kwargs):
            offered[0] += size_of(args)
            if not taken and offered[0] >= half:
                taken["snapshot"] = tracemalloc.take_snapshot()
                taken["packets"] = world.gateway_packets()
            return fn(*args, **kwargs)

        return counted

    if world.kind == "fleet":
        world.fleet.process_batch = counting(world.fleet.process_batch,
                                             lambda args: len(args[0]))
    else:
        for gateway in world.gateways:
            gateway.receive = counting(gateway.receive, lambda args: 1)
    tracemalloc.start()
    try:
        world.run()
    finally:
        tracemalloc.stop()
    if not taken:
        raise RuntimeError(f"the workers were offered {offered[0]} packets, "
                           f"never half of {offered_total}")
    sizes = dict.fromkeys(ALLOC_LAYERS, 0)
    for stat in taken["snapshot"].statistics("filename"):
        match = _LAYER_OF_FILE.search(stat.traceback[0].filename)
        if match and match.group(1) in sizes:
            sizes[match.group(1)] += stat.size
    return {layer: size / 1024 / taken["packets"] for layer, size in sizes.items()}


def spans_path(root: str, workload: str, seed: int) -> str:
    out = os.path.join(root, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, f"{workload}-seed{seed}.spans")

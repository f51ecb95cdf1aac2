"""PacketExpress (PX) — reproduction of "Towards Incremental MTU Upgrade
for the Internet" (HotNets '25).

The library is organized bottom-up:

* :mod:`repro.packet` — byte-accurate IPv4/TCP/UDP/ICMP/GTP-U formats,
  fragmentation, and flow keys;
* :mod:`repro.sim` — a deterministic discrete-event simulator (links,
  netem impairment, tracing);
* :mod:`repro.net` — hosts, routers (ICMP blackholes, fragment
  filters), and a topology builder with automatic routing;
* :mod:`repro.tcpstack` — an event-driven TCP with MSS negotiation,
  Reno/CUBIC, and classical PMTUD at the sender;
* :mod:`repro.nic` — LRO/GRO/TSO/RSS/DMA offload models and end-host
  cost models;
* :mod:`repro.cpu` — cycle accounting plus the calibrated constants
  behind every absolute performance number;
* :mod:`repro.upf` — the 5G UPF substrate (PDR/FAR/QER over GTP-U);
* :mod:`repro.core` — **PXGW**, the MTU-translating gateway (TCP
  stream splicing, PX-caravan, MSS clamping, hairpin steering);
* :mod:`repro.pmtud` — F-PMTUD and its classical/PLPMTUD baselines,
  plus the fragment-delivery survey;
* :mod:`repro.workload` / :mod:`repro.analysis` — traffic generation
  and paper-vs-measured reporting.

Quick start::

    from repro.core import GatewayConfig, Wire, build_border

    world = build_border(0, ("inside", "outside"), (), [
        Wire("inside", "pxgw", "int", mtu=9000),   # into pxgw: b-network side
        Wire("pxgw", "outside", "ext", mtu=1500),
    ], config=GatewayConfig())
    world.links["ext_out"]  # the directed pxgw -> outside link

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
per-figure reproduction harness.
"""

__version__ = "1.0.0"

__all__ = ["packet", "sim", "net", "tcpstack", "nic", "cpu", "upf", "core",
           "pmtud", "workload", "analysis"]

#!/usr/bin/env python3
"""Quickstart: a b-network behind a PXGW, talking to the legacy Internet.

Builds the smallest interesting PacketExpress deployment:

    inside host (9000 B iMTU) --- PXGW --- outside host (1500 B eMTU)

then opens a TCP connection from inside to outside, downloads 2 MB, and
shows what the gateway did: the MSS intervention during the handshake,
the downlink merge into 9000 B jumbos, the uplink split back to eMTU,
and the conversion yield.

Run:  python examples/quickstart.py
"""

from repro.core import GatewayConfig, Wire, build_border
from repro.tcpstack import TCPConnection, TCPListener


def main():
    # ------------------------------------------------------------------
    # Topology: one b-network border.  A link declared *into* pxgw
    # faces the b-network (iMTU side).
    # ------------------------------------------------------------------
    world = build_border(0, ("inside", "outside"), (), [
        Wire("inside", "pxgw", "int", mtu=9000, bandwidth_bps=10e9, delay=50e-6),
        Wire("pxgw", "outside", "ext", mtu=1500, bandwidth_bps=10e9, delay=500e-6),
    ], config=GatewayConfig(imtu=9000, emtu=1500))
    topo, gateway = world.topo, world.gateway
    inside, outside = world.inside, world.outside

    # ------------------------------------------------------------------
    # A legacy server outside, a jumbo-capable client inside.
    # ------------------------------------------------------------------
    server = TCPListener(outside, port=80, mss=1460)
    client = TCPConnection(inside, 40000, outside.ip, 80, mss=8960)
    client.connect()
    topo.run(until=0.1)

    print("after the handshake:")
    print(f"  inside client negotiated MSS : {client.send_mss} B "
          "(PXGW raised the server's 1460 B advertisement)")
    print(f"  outside server negotiated MSS: {server.connections[0].send_mss} B")
    print(f"  MSS options rewritten by PXGW: {gateway.stats.mss_rewrites}")

    # ------------------------------------------------------------------
    # Download 2 MB from the outside server (downlink: PXGW merges).
    # ------------------------------------------------------------------
    server.connections[0].send_bulk(2_000_000)
    topo.run(until=3.0)

    print("\nafter a 2 MB download (outside -> inside):")
    print(f"  bytes delivered to the client : {client.bytes_delivered:,}")
    print(f"  jumbo segments spliced by PXGW: {gateway.stats.merged_packets}")
    sizes = gateway.stats.inbound_size_histogram
    jumbo = sizes.get(9000, 0)
    print(f"  9000 B packets on the inside  : {jumbo}")
    print(f"  conversion yield              : {gateway.stats.conversion_yield:.1%}")

    # ------------------------------------------------------------------
    # Upload 2 MB (uplink: PXGW splits jumbos to the eMTU).
    # ------------------------------------------------------------------
    client.send_bulk(2_000_000)
    topo.run(until=6.0)
    print("\nafter a 2 MB upload (inside -> outside):")
    print(f"  bytes delivered to the server : {server.connections[0].bytes_delivered:,}")
    print(f"  eMTU segments split by PXGW   : {gateway.stats.split_segments}")


if __name__ == "__main__":
    main()

"""Receive-side scaling: Toeplitz hashing over the transport 4-tuple.

PXGW shards flows across worker cores with RSS so each core owns a
disjoint flow set and merge state needs no locking.  The hash below is
the real Microsoft Toeplitz construction with the well-known default
key, so flow→queue placement (and its imbalance) matches hardware.
"""

from __future__ import annotations

import struct
from typing import Sequence

from ..packet import FlowKey

__all__ = ["toeplitz_hash", "RssDistributor", "DEFAULT_RSS_KEY"]

#: The 40-byte default RSS key Microsoft published and most NICs ship.
DEFAULT_RSS_KEY = bytes(
    [
        0x6D, 0x5A, 0x56, 0xDA, 0x25, 0x5B, 0x0E, 0xC2,
        0x41, 0x67, 0x25, 0x3D, 0x43, 0xA3, 0x8F, 0xB0,
        0xD0, 0xCA, 0x2B, 0xCB, 0xAE, 0x7B, 0x30, 0xB4,
        0x77, 0xCB, 0x2D, 0xA3, 0x80, 0x30, 0xF2, 0x0C,
        0x6A, 0x42, 0xB7, 0x3B, 0xBE, 0xAC, 0x01, 0xFA,
    ]
)


def toeplitz_hash(data: bytes, key: bytes = DEFAULT_RSS_KEY) -> int:
    """Compute the 32-bit Toeplitz hash of *data* under *key*."""
    if len(key) < len(data) + 4:
        raise ValueError("RSS key too short for input")
    result = 0
    # For every set input bit, XOR in the 32-bit key window starting at
    # that bit position.
    key_bits = int.from_bytes(key, "big")
    total_key_bits = len(key) * 8
    bit_index = 0
    for byte in data:
        for bit in range(7, -1, -1):
            if byte & (1 << bit):
                shift = total_key_bits - 32 - bit_index
                window = (key_bits >> shift) & 0xFFFFFFFF
                result ^= window
            bit_index += 1
    return result


def flow_hash(key: FlowKey, rss_key: bytes = DEFAULT_RSS_KEY) -> int:
    """RSS hash input for IPv4 TCP/UDP: src ip, dst ip, src port, dst port."""
    data = struct.pack("!IIHH", key.src_ip, key.dst_ip, key.src_port, key.dst_port)
    return toeplitz_hash(data, rss_key)


class RssDistributor:
    """Maps flows onto *queues* receive queues via an indirection table.

    It is also the ``steering="rss"`` stage of a
    :class:`repro.fleet.GatewayFleet` (queues are shards), so it keeps
    the counters and hook of :class:`repro.fleet.steering.FleetSteering`
    that the fleet and ``observe_fleet`` read.  The indirection table is
    fixed: there is no membership to change.
    """

    def __init__(self, queues: int, key: bytes = DEFAULT_RSS_KEY, table_size: int = 128):
        if queues <= 0:
            raise ValueError("need at least one queue")
        self.queues = queues
        self.key = key
        #: The indirection table, round-robin initialized like drivers do.
        self.table = [index % queues for index in range(table_size)]
        self._cache: dict = {}
        #: Steering decisions landed on each queue (cached hits count:
        #: every call is one hardware steering decision).
        self.steered = [0] * queues
        self.cache_hits = 0
        self.cache_misses = 0
        #: Membership changes applied: always 0, the table is fixed.
        self.reshards = 0
        self._rr = 0
        #: Optional ``(flow, queue)`` hook fired on every cache miss.
        self.on_decision = None

    def shard_for(self, flow: FlowKey) -> int:
        """The RX queue index this flow lands on."""
        cached = self._cache.get(flow)
        if cached is not None:
            self.cache_hits += 1
            self.steered[cached] += 1
            return cached
        self.cache_misses += 1
        queue = self.table[flow_hash(flow, self.key) % len(self.table)]
        self._cache[flow] = queue
        self.steered[queue] += 1
        if self.on_decision is not None:
            self.on_decision(flow, queue)
        return queue

    def shard_for_unkeyed(self) -> int:
        """Round-robin fallback for packets without a 4-tuple.

        Fragments and ICMP have no ports to hash; NICs fall back to
        IP-pair hashing, modeled here as taking the queues in turn.
        """
        self._rr = (self._rr + 1) % self.queues
        self.steered[self._rr] += 1
        return self._rr

    def distribution(self, flows: Sequence[FlowKey]) -> "list[int]":
        """Per-queue flow counts for a set of flows (imbalance analysis)."""
        counts = [0] * self.queues
        for flow in flows:
            counts[self.shard_for(flow)] += 1
        return counts

"""Traffic classification: separating merge-friendly elephants from mice.

Small, sporadic flows are typically unmergeable — there is rarely a
contiguous successor waiting — yet they consume merge-engine cycles and
pollute contexts.  PXGW classifies flows online and steers mice through
the NIC hairpin path (§3, §4.1).  A flow is promoted to elephant after
``threshold_packets`` arrivals within a sliding window; promotion is
sticky until the flow goes idle.
"""

from __future__ import annotations

from .flow_table import FlowState, FlowTable

__all__ = ["FlowClassifier"]


class FlowClassifier:
    """Online mouse/elephant classification over a FlowTable."""

    def __init__(
        self,
        table: FlowTable,
        threshold_packets: int = 8,
        window: float = 0.01,
    ):
        self.table = table
        self.threshold_packets = threshold_packets
        self.window = window
        self.promotions = 0

    def observe_group(self, key, now: float = 0.0) -> "FlowState":
        """Flow-table prologue for a run of same-flow packets.

        One table lookup and one window check cover the whole run:
        every packet in a poll batch shares the same ``now``.  The
        caller then hands each packet of the run to
        :meth:`observe_packet`, so a mid-batch elephant promotion lands
        on the same packet as it would one packet at a time.
        ``table.lookups`` counts one lookup per run, which is the work
        the worker performs.
        """
        state = self.table.lookup(key, now)
        if now - state.window_start > self.window:
            state.reset_window(now)
        return state

    def observe_packet(self, state: FlowState, size: int, now: float = 0.0) -> None:
        """Account one packet of *state*'s flow; promote it when due."""
        state.touch(size, now)
        if not state.is_elephant and state.window_packets >= self.threshold_packets:
            state.is_elephant = True
            self.promotions += 1

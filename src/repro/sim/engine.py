"""A small deterministic discrete-event simulator.

The engine is a bucketed event wheel (calendar queue): near-future
events land in per-tick buckets with O(1) append, far-future events
wait in a ``heapq`` overflow lane and migrate into the wheel as the
window slides forward.  Events fire in timestamp order, with a
monotonically increasing sequence number as the tie-breaker so
same-time events run in scheduling order.  Every stochastic component
in the library takes an explicit seeded ``random.Random`` so whole
experiments replay bit-identically.

Ordering is exact, not tick-quantized: a bucket collects every event
whose timestamp falls inside one wheel tick, and the drain sorts the
bucket by ``(time, seq)`` before firing, so two events 10 ns apart
inside the same microsecond tick still fire in true timestamp order.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Simulator", "EventHandle"]

_Entry = Tuple[float, int, "EventHandle", Callable, tuple]


class EventHandle:
    """A cancellable reference to a scheduled event.

    Handles carry their insertion sequence number and order by
    ``(time, seq)``: two events at the *same* timestamp (seeded Netem
    delay faults routinely collide) always pop in scheduling order, so
    chaos replays stay byte-identical and queue comparison can never
    fall through to an unorderable payload.
    """

    __slots__ = ("time", "seq", "cancelled", "_owner", "_fired")

    def __init__(self, time: float, seq: int, owner: "Optional[Simulator]" = None):
        self.time = time
        self.seq = seq
        self.cancelled = False
        self._owner = owner
        self._fired = False

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.cancelled or self._fired:
            return
        self.cancelled = True
        # Keep the owning simulator's live-event counter exact so
        # ``Simulator.pending()`` stays O(1) under cancel churn.
        if self._owner is not None:
            self._owner._live -= 1

    def _key(self) -> Tuple[float, int]:
        return (self.time, self.seq)

    def __lt__(self, other: "EventHandle") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "EventHandle") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "EventHandle") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "EventHandle") -> bool:
        return self._key() >= other._key()


#: Shared inert handle for :meth:`Simulator.schedule_fast` events.  Its
#: ``cancelled`` flag can never be set (no caller holds it), so the run
#: loop treats fast events exactly like live handle-carrying ones.
_FAST_HANDLE = EventHandle(0.0, 0)

#: Effectively-infinite tick: the bound of a ``run`` with no horizon,
#: and the cached head tick of an empty overflow lane.
_NO_LIMIT_TICK = 1 << 62


class Simulator:
    """The event loop shared by all nodes, links, and protocol agents.

    Internally a bucketed event wheel: ``wheel_slots`` buckets of
    ``wheel_resolution`` seconds each cover a sliding window starting
    at the drain cursor.  Scheduling inside the window appends to a
    bucket (O(1) — the datapath case: serialization, propagation, and
    CPU-cycle delays are all microseconds or less); anything beyond
    the window goes to the overflow heap (protocol timers: RTO,
    delayed-ACK, probe timers) and migrates in as the window slides.
    """

    def __init__(self, wheel_resolution: float = 1e-4, wheel_slots: int = 256):
        if wheel_resolution <= 0:
            raise ValueError(f"wheel resolution must be positive (got {wheel_resolution})")
        if wheel_slots < 1:
            raise ValueError(f"need at least one wheel slot (got {wheel_slots})")
        size = 1
        while size < wheel_slots:
            size <<= 1
        self._res_inv = 1.0 / wheel_resolution
        self._slots = size
        self._mask = size - 1
        self._wheel: List[List[_Entry]] = [[] for _ in range(size)]
        #: Entries (live or cancelled) currently held in wheel buckets.
        self._wheel_count = 0
        #: Occupancy bitmask over wheel slots (bit i set ⇔ slot i has
        #: entries): lets the drain jump straight to the next occupied
        #: slot with one big-int scan instead of sweeping empty ticks.
        self._occupied = 0
        #: Far-future lane: a heap of entries with ticks beyond the
        #: current window; ordered by (time, seq) like everything else.
        self._overflow: List[_Entry] = []
        #: A lower bound on the overflow head's tick (exact after each
        #: migration; a lazy pop of a cancelled head only raises the
        #: true value), so the run loop tests for due entries in O(1).
        self._overflow_tick = _NO_LIMIT_TICK
        #: The next tick the drain will visit; all wheel entries have
        #: tick >= cursor (earlier-time stragglers are clamped into the
        #: cursor bucket, where the per-bucket sort restores exact order).
        self._cursor = 0
        self._sequence = itertools.count()
        self._now = 0.0
        self._running = False
        #: Live (scheduled, neither fired nor cancelled) event count;
        #: kept exact so ``pending()`` never rescans the queue.
        self._live = 0
        #: Count of events executed; useful for efficiency assertions.
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable, *args: Any) -> EventHandle:
        """Run ``callback(*args)`` *delay* seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable, *args: Any) -> EventHandle:
        """Run ``callback(*args)`` at absolute simulation *time*."""
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} (now={self._now})")
        seq = next(self._sequence)
        handle = EventHandle(time, seq, owner=self)
        self._insert((time, seq, handle, callback, args))
        return handle

    def schedule_fast(self, delay: float, callback: Callable, *args: Any) -> None:
        """Schedule a non-cancellable event *delay* seconds from now.

        Contract (guarded by ``tests/test_sim_engine.py``):

        * Fast events return no handle and **cannot be cancelled** —
          they all share one inert :class:`EventHandle` whose
          ``cancelled`` flag is never set, skipping the per-event
          handle allocation the datapath would otherwise pay for every
          serialize/deliver hop.
        * They are **fully visible** to ``pending()`` and
          ``peek_time()`` while queued, and fire in exact
          ``(time, seq)`` order alongside handle-carrying events — but
          they are *invisible to cancellation churn*: nothing can make
          ``peek_time()`` skip one, and the live counter only ever
          decrements for them when they fire.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self.schedule_fast_at(self._now + delay, callback, *args)

    def schedule_fast_at(self, time: float, callback: Callable, *args: Any) -> None:
        """Schedule a non-cancellable event at absolute simulation *time*.

        Same contract as :meth:`schedule_fast`.  Links use the absolute
        form so a delivery lands at exactly ``serialize_end + delay``.
        """
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} (now={self._now})")
        self._insert((time, next(self._sequence), _FAST_HANDLE, callback, args))

    def _insert(self, entry: _Entry) -> None:
        # The one insert every schedule variant funnels into.  A tick
        # the cursor already swept past (its events fired but ``now``
        # still sits inside it) parks in the cursor bucket, where the
        # per-bucket (time, seq) sort restores exact firing order.
        tick = int(entry[0] * self._res_inv)
        cursor = self._cursor
        if tick < cursor:
            tick = cursor
        if tick - cursor < self._slots:
            index = tick & self._mask
            bucket = self._wheel[index]
            if not bucket:
                self._occupied |= 1 << index
            bucket.append(entry)
            self._wheel_count += 1
        else:
            heapq.heappush(self._overflow, entry)
            if tick < self._overflow_tick:
                self._overflow_tick = tick
        self._live += 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event queue.

        Stops when the queue empties, when the next event would exceed
        *until*, or after *max_events* events.  Returns the simulation
        time reached.  When *until* is given, the clock is advanced to
        it even if the queue empties earlier, so back-to-back ``run``
        calls observe continuous time.
        """
        self._running = True
        executed = 0
        wheel = self._wheel
        mask = self._mask
        slots = self._slots
        overflow = self._overflow
        res_inv = self._res_inv
        # Hoist the per-iteration Optional checks out of the loop: an
        # infinite horizon compares False forever, and a -1 countdown
        # never equals the post-increment counter.
        limit = float("inf") if until is None else until
        limit_tick = _NO_LIMIT_TICK if until is None else int(limit * res_inv)
        stop_after = -1 if max_events is None else max_events
        stopped = False
        try:
            while True:
                cursor = self._cursor
                if self._overflow_tick < cursor + slots:
                    # Overflow entries whose tick has entered the window
                    # migrate before the cursor bucket drains — on every
                    # advance, so a run of occupied buckets cannot hold
                    # them back past later events.
                    self._migrate(cursor)
                bucket = wheel[cursor & mask]
                if not bucket:
                    occupied = self._occupied
                    if occupied:
                        # Jump straight to the next occupied slot: rotate
                        # the mask so bit 0 is the cursor slot, then take
                        # the lowest set bit.
                        index = cursor & mask
                        rotated = (occupied >> index) | (
                            (occupied & ((1 << index) - 1)) << (slots - index)
                        )
                        cursor += (rotated & -rotated).bit_length() - 1
                        if cursor > limit_tick:
                            if limit_tick > self._cursor:
                                self._cursor = limit_tick
                            break
                        self._cursor = cursor
                        continue
                    if not overflow:
                        break
                    # Wheel empty: jump the cursor straight to the next
                    # overflow tick instead of sweeping idle slots.
                    top_time = overflow[0][0]
                    if top_time > limit:
                        if limit_tick > cursor:
                            self._cursor = limit_tick
                        break
                    self._cursor = int(top_time * res_inv)
                    continue
                # Drain the cursor bucket in exact (time, seq) order.
                # The bucket stays in the wheel while firing, so
                # peek_time()/pending() called from inside a callback
                # still see the not-yet-fired remainder; reverse sort
                # makes the next event a cheap pop() off the end.
                if len(bucket) > 1:
                    bucket.sort(reverse=True)
                while bucket:
                    entry = bucket[-1]
                    time = entry[0]
                    if time > limit:
                        stopped = True
                        break
                    bucket.pop()
                    self._wheel_count -= 1
                    handle = entry[2]
                    if handle.cancelled:
                        continue
                    handle._fired = True
                    self._live -= 1
                    self._now = time
                    depth = len(bucket)
                    entry[3](*entry[4])
                    executed += 1
                    if len(bucket) != depth:
                        # The callback scheduled into this same tick; the
                        # append landed unsorted at the pop end, so
                        # restore order before the next pop.
                        bucket.sort(reverse=True)
                    if executed == stop_after:
                        stopped = True
                        break
                if not bucket:
                    self._occupied &= ~(1 << (cursor & mask))
                    if not stopped:
                        self._cursor = cursor + 1
                        continue
                if stopped:
                    break
        finally:
            self._running = False
            self.events_processed += executed
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def _migrate(self, cursor: int) -> None:
        """Move overflow entries whose tick is inside the window into it."""
        overflow = self._overflow
        end = cursor + self._slots
        res_inv = self._res_inv
        mask = self._mask
        wheel = self._wheel
        while overflow:
            tick = int(overflow[0][0] * res_inv)
            if tick >= end:
                self._overflow_tick = tick
                return
            if tick < cursor:
                tick = cursor
            index = tick & mask
            wheel[index].append(heapq.heappop(overflow))
            self._wheel_count += 1
            self._occupied |= 1 << index
        self._overflow_tick = _NO_LIMIT_TICK

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or None if idle."""
        if self._live == 0:
            return None
        overflow = self._overflow
        while overflow and overflow[0][2].cancelled:
            heapq.heappop(overflow)
        best = overflow[0][0] if overflow else None
        if self._wheel_count:
            wheel = self._wheel
            mask = self._mask
            slots = self._slots
            cursor = self._cursor
            index = cursor & mask
            occupied = self._occupied
            # Rotate so bit 0 is the cursor slot, then visit occupied
            # slots in drain order.
            rotated = (occupied >> index) | (
                (occupied & ((1 << index) - 1)) << (slots - index)
            )
            while rotated:
                offset = (rotated & -rotated).bit_length() - 1
                bucket = wheel[(cursor + offset) & mask]
                earliest = None
                for entry in bucket:
                    if not entry[2].cancelled:
                        time = entry[0]
                        if earliest is None or time < earliest:
                            earliest = time
                if earliest is not None:
                    # Later buckets hold strictly later ticks, so the
                    # first bucket with a live entry bounds the wheel.
                    if best is None or earliest < best:
                        best = earliest
                    break
                rotated &= rotated - 1
        return best

    def pending(self) -> int:
        """Number of (non-cancelled) queued events.

        O(1): a live counter maintained at schedule/cancel/fire time
        replaces rescanning buckets (cancelled entries stay in their
        bucket until drained, so scanning would be O(n) per call).

        Invariant vs. :meth:`peek_time`: peeking scans *around*
        cancelled entries (and lazily pops them off the overflow
        heap), but never touches this counter — the cancel that marked
        them already decremented it.  Any interleaving of schedule /
        cancel / peek therefore keeps ``pending()`` exact (the churn
        test in ``tests/test_sim_engine.py`` drives this directly).
        """
        return self._live

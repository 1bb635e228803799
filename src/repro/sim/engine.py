"""Discrete-event simulation engine.

The event loop every part of the performance substrate (processor
sharing stations, client think times, monitor sampling) is built on.

The heap holds ``(time, seq, event)`` tuples, so ``heapq`` orders
entries by comparing floats and ints in C.  ``seq`` is a per-simulator
counter that is unique, so the :class:`Event` in a tuple is never
compared: simultaneous events fire in the order they were scheduled,
and the firing order is exactly ``sorted((time, seq))``.

:meth:`Event.cancel` only marks its event; the heap entry stays as a
tombstone, and the run loop pops it unfired when it reaches the head.
:meth:`Simulator.schedule` is the only way onto the heap and
:meth:`Event.cancel` the only way to cancel, so a wrapper around those
two names sees every scheduled and every cancelled event.
"""

from __future__ import annotations

import heapq
import math
import sys

from repro.errors import SimulationError


class Event:
    """A scheduled callback; cancel() makes its heap entry a tombstone."""

    __slots__ = ("fn", "cancelled")

    def __init__(self, fn):
        self.fn = fn
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class Simulator:
    """The event loop; owns simulated time.

    ``scheduled`` counts every event ever scheduled and is also the
    next event's ``seq``.  ``events_processed`` counts the live events
    fired; the run loop adds to it when it returns.
    """

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self.scheduled = 0
        self.events_processed = 0
        self._tombstones_popped = 0

    def schedule(self, delay, fn):
        """Schedule *fn* to run *delay* seconds from now; returns Event."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        event = Event(fn)
        seq = self.scheduled
        self.scheduled = seq + 1
        heapq.heappush(self._heap, (self.now + delay, seq, event))
        return event

    def schedule_at(self, time, fn):
        """Schedule *fn* at absolute simulated *time*."""
        return self.schedule(time - self.now, fn)

    @property
    def cancelled(self):
        """Events cancelled so far: the tombstones popped plus those
        still on the heap."""
        return self._tombstones_popped + sum(
            1 for _time, _seq, event in self._heap if event.cancelled)

    def peek_time(self):
        """Time of the next live event, or None."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._tombstones_popped += 1
        return heap[0][0] if heap else None

    def run_until(self, end_time):
        """Process events with time <= *end_time*; clock ends at end_time."""
        self._run(end_time, sys.maxsize)
        self.now = max(self.now, end_time)

    def run_all(self, max_events=10_000_000):
        """Drain the heap entirely (bounded against runaway schedules);
        returns the number of events fired."""
        return self._run(math.inf, max_events)

    def _run(self, end_time, max_events):
        """Fire live events in ``(time, seq)`` order until the head is
        later than *end_time*; raises once more than *max_events* fired."""
        heap = self._heap
        heappop = heapq.heappop
        fired = 0
        tombstones = 0
        try:
            while heap:
                time, _seq, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    tombstones += 1
                    continue
                if time > end_time:
                    break
                heappop(heap)
                now = self.now
                if time > now:
                    self.now = time
                elif time < now - 1e-12:
                    raise SimulationError(
                        f"time went backwards: {time} < {now}"
                    )
                fired += 1
                event.fn()
                if fired > max_events:
                    raise SimulationError(
                        f"simulation exceeded {max_events} events"
                    )
        finally:
            self.events_processed += fired
            self._tombstones_popped += tombstones
        return fired

"""Event-driven simulation core: the event queue and the clock.

Every source of simulated time in the repository — device completions,
timer compare matches, kernel virtual-timer fires, and cross-node radio
byte arrivals — is an :class:`Event` on an :class:`EventQueue`.  The
queue is a binary heap of ``(due_cycle, seq, callback)`` entries; ``seq``
breaks ties so same-cycle events fire in scheduling order, which keeps
multi-event runs deterministic.

The queue deliberately exposes ``next_due`` as a *plain attribute*
rather than a method: the CPU's dispatch loops read it once per block
(a trace once at entry and after each device access), and an attribute
load is the cheapest thing Python can do.  ``schedule``, ``cancel`` and
``run_due`` keep it tight.

Cancellation is lazy: a cancelled event stays in the heap with its
callback cleared and is skipped when popped.  Re-arming patterns
(Timer3's compare match, the kernel's periodic virtual timers) cancel
and re-schedule freely without heap surgery.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

INFINITY = float("inf")


class Event:
    """One scheduled callback.  ``cancel()`` makes it a no-op."""

    __slots__ = ("due_cycle", "seq", "callback")

    def __init__(self, due_cycle: int, seq: int,
                 callback: Optional[Callable[[], None]]):
        self.due_cycle = due_cycle
        self.seq = seq
        self.callback = callback

    def __lt__(self, other: "Event") -> bool:
        if self.due_cycle != other.due_cycle:
            return self.due_cycle < other.due_cycle
        return self.seq < other.seq

    @property
    def cancelled(self) -> bool:
        return self.callback is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "armed"
        return f"<Event due={self.due_cycle} seq={self.seq} {state}>"


class EventQueue:
    """Min-heap of events ordered by ``(due_cycle, seq)``.

    ``next_due`` is always the due cycle of the earliest live event
    (``inf`` when empty); run loops compare the clock against it and
    call :meth:`run_due` only when something is actually due.
    """

    __slots__ = ("_heap", "_seq", "next_due")

    def __init__(self):
        self._heap: List[Event] = []
        self._seq = 0
        self.next_due = INFINITY

    def __len__(self) -> int:
        return sum(1 for event in self._heap if not event.cancelled)

    def schedule(self, due_cycle: int,
                 callback: Callable[[], None]) -> Event:
        """Arm *callback* to fire once the clock reaches *due_cycle*."""
        self._seq += 1
        event = Event(due_cycle, self._seq, callback)
        heapq.heappush(self._heap, event)
        if due_cycle < self.next_due:
            self.next_due = due_cycle
        return event

    def cancel(self, event: Optional[Event]) -> None:
        """Disarm *event* (tolerates None and double-cancel)."""
        if event is None:
            return
        event.callback = None
        self._settle()

    def _settle(self) -> None:
        """Drop cancelled events off the heap top; refresh ``next_due``."""
        heap = self._heap
        while heap and heap[0].callback is None:
            heapq.heappop(heap)
        self.next_due = heap[0].due_cycle if heap else INFINITY

    def run_due(self, now: int) -> int:
        """Fire every live event with ``due_cycle <= now``; return count.

        Callbacks may schedule new events (including ones due
        immediately, which fire in the same call) and cancel pending
        ones.  Events fire in ``(due_cycle, seq)`` order.
        """
        heap = self._heap
        fired = 0
        while heap and heap[0].due_cycle <= now:
            event = heapq.heappop(heap)
            callback = event.callback
            if callback is not None:
                event.callback = None
                callback()
                fired += 1
        self.next_due = heap[0].due_cycle if heap else INFINITY
        return fired


class SimClock:
    """A monotone cycle counter paired with an :class:`EventQueue`.

    The single source of simulated time for anything that executes:
    :class:`~repro.avr.cpu.AvrCpu` *is a* SimClock (it inherits the
    ``cycles`` counter its compiled closures increment directly), and
    the network co-simulator coordinates nodes purely through their
    clocks.  ``skip_to`` is the idle fast-path: jump the counter without
    executing anything, then fire whatever came due.
    """

    def __init__(self):
        self.cycles = 0
        self.idle_cycles = 0  # cycles skipped without executing
        self.events = EventQueue()

    def skip_to(self, cycle: int) -> None:
        """Advance idle time to *cycle* and fire events that came due."""
        if cycle > self.cycles:
            self.idle_cycles += cycle - self.cycles
            self.cycles = cycle
        self.events.run_due(self.cycles)

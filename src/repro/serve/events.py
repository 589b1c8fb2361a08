"""The simulated clock: one single-threaded discrete-event loop.

Serving and cluster simulation run on this loop alone.  Every decision
-- batch formation, shedding, retries, routing, deploy steps --
is taken inside an event handler at a simulated time, so a run's results
are a pure function of its trace, configuration and artifacts, never of
host thread scheduling or host speed.

Events at equal simulated times run in the order they were scheduled.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable


class EventLoop:
    """A simulated clock (milliseconds) and the events scheduled on it."""

    def __init__(self) -> None:
        self.now_ms = 0.0
        self._events: list[tuple[float, int, Callable[..., Any], tuple]] = []
        self._seq = itertools.count()
        self._running = False

    def at(self, time_ms: float, action: Callable[..., Any], *args) -> None:
        """Run ``action(*args)`` at simulated ``time_ms``.

        A time already in the past runs at the current time: the clock
        never moves backwards.
        """
        heapq.heappush(
            self._events,
            (max(time_ms, self.now_ms), next(self._seq), action, args),
        )

    @property
    def pending(self) -> int:
        """Events scheduled and not yet run."""
        return len(self._events)

    def run(self) -> None:
        """Run events in time order until none is left.

        A call from inside an event handler returns at once: the outer
        call is already running every event, including the ones the
        handler scheduled.
        """
        if self._running:
            return
        self._running = True
        try:
            while self._events:
                time_ms, _, action, args = heapq.heappop(self._events)
                self.now_ms = time_ms
                action(*args)
        finally:
            self._running = False

"""Open-loop request schedule for asyncio load generators.

Requests are due at ``start + i / rate`` whatever the server does, so a
stall delays every request due during it and the delay shows up in the
latencies, which are timed from each request's due time. The generator
itself can also fall behind (its own event loop busy, its process not
scheduled). It records how late it sent each request, and a run in
which it fell behind is flagged invalid rather than billed to the
server.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable

from harness import percentile


class OpenLoop:
    """Send ``send(index, due)`` for every due time in ``[start, stop)``.

    ``late_limit`` (seconds) is the largest 99th-percentile send
    lateness for which the run still counts as on schedule.
    """

    def __init__(self, rate: float, late_limit: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.late_limit = float(late_limit)
        self.late: list[float] = []

    async def run(
        self, start: float, stop: float, send: Callable[[int, float], None]
    ) -> int:
        """Send on schedule until ``stop``; returns the number sent.

        Requests whose due time has already passed when the loop wakes
        are sent at once, in order: the schedule never stretches.
        """
        index = 0
        while True:
            due = start + index / self.rate
            if due >= stop:
                return index
            now = time.perf_counter()
            if due > now:
                await asyncio.sleep(due - now)
                now = time.perf_counter()
            self.late.append(now - due)
            send(index, due)
            index += 1

    @property
    def late_p99(self) -> float:
        return percentile(self.late, 0.99) if self.late else 0.0

    @property
    def behind(self) -> bool:
        """True when the generator could not keep its own schedule."""
        return self.late_p99 > self.late_limit

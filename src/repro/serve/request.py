"""Request and outcome types for the serving runtime.

All timestamps live in *simulated milliseconds* — the same clock domain
as the boards' cycle counters (via ``BoardProfile.cycles_to_ms``), not
host wall time.  A request arrives at ``arrival_ms`` on the open-loop
trace clock; devices advance their own simulated clocks as they execute;
latency is completion time minus arrival on that shared simulated
timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


@dataclass
class InferenceRequest:
    """One inference to serve.

    ``deadline_ms`` is an absolute simulated-time deadline (``None`` for
    best-effort requests).  The mutable scheduling fields (``attempts``,
    ``avoid_device``, ``backoff_ms``) are owned by the runtime: retries
    increment ``attempts``, name the device that browned out so the next
    attempt lands elsewhere, and set ``backoff_ms`` to the delay from
    arrival until the retry may start (its backoff after the brown-out).
    """

    request_id: int
    x: np.ndarray
    arrival_ms: float
    deadline_ms: float | None = None
    # -- runtime-owned scheduling state ---------------------------------
    attempts: int = 0
    avoid_device: int | None = None
    backoff_ms: float = 0.0
    #: Monotonic tiebreaker for priority queues (set on first enqueue).
    seq: int = field(default=0, compare=False)

    @property
    def earliest_start_ms(self) -> float:
        """Simulated time before which the current attempt may not run."""
        return self.arrival_ms + self.backoff_ms


#: Terminal request states.  Exactly one is recorded per offered request,
#: which is what makes the conservation law (completed + rejected +
#: failed == offered) checkable.
COMPLETED = "completed"
REJECTED = "rejected"
FAILED = "failed"


class ServeOutcome(NamedTuple):
    """Terminal record of one request's journey through the runtime.

    An immutable named tuple: outcomes compare as tuples, and
    ``_asdict`` serializes one.
    """

    request_id: int
    status: str                    # COMPLETED | REJECTED | FAILED
    label: int | None = None
    device_id: int | None = None
    cycles: int = 0
    latency_ms: float = 0.0        # completion - arrival, simulated
    queue_ms: float = 0.0          # time spent queued (incl. backoff)
    attempts: int = 1
    reason: str | None = None      # rejection/failure reason

    @property
    def completed(self) -> bool:
        return self.status == COMPLETED

    def raise_for_status(self) -> None:
        """Raise the typed error a non-completed outcome represents."""
        from repro.errors import AdmissionError, ServeError

        if self.status == FAILED:
            raise ServeError(
                f"request {self.request_id} failed terminally: "
                f"{self.reason}"
            )
        if self.status == REJECTED:
            raise AdmissionError(
                f"request {self.request_id} was shed: {self.reason}",
                reason=self.reason or "queue_full",
            )

"""Request scheduling: bounded queues, policies, batching, admission.

- **Bounded depth + admission control** — `offer()` sheds load with a
  typed :class:`~repro.errors.AdmissionError` when the queue is full
  instead of queueing without bound (an open-loop arrival process would
  otherwise grow the queue — and tail latency — indefinitely).  Retries
  of already-admitted requests re-enter with ``force=True``; admission
  is decided once per request, at the door.
- **Policies** — ``"fifo"`` serves in arrival order; ``"edf"``
  (earliest deadline first) orders by absolute deadline, deadline-less
  requests last.  Both are heaps over a policy-specific key with a
  monotonic sequence number as the tiebreaker, so equal keys still
  serve in arrival order.
- **Batching** — a device takes up to ``max_batch`` requests per
  dispatch; the fixed per-dispatch overhead is paid once per batch.
- **Brown-out affinity** — a retried request remembers the device that
  failed it (``avoid_device``); `take_batch()` skips those entries so
  the retry lands on a healthy board (ignored for single-device pools,
  where there is no healthier board to prefer).

The queue is touched only by the runtime's event loop, so it needs no
locking.
"""

from __future__ import annotations

import heapq
import itertools

from repro.errors import AdmissionError, ConfigurationError
from repro.serve.request import InferenceRequest

SCHEDULING_POLICIES = ("fifo", "edf")


def _policy_key(policy: str, request: InferenceRequest) -> tuple:
    if policy == "fifo":
        return (request.seq,)
    # EDF: earliest absolute deadline first; best-effort requests last.
    deadline = (
        request.deadline_ms if request.deadline_ms is not None
        else float("inf")
    )
    return (deadline, request.seq)


class BoundedRequestQueue:
    """Policy-ordered, depth-bounded request queue."""

    def __init__(
        self,
        policy: str = "fifo",
        max_depth: int = 64,
        n_devices: int = 1,
    ) -> None:
        if policy not in SCHEDULING_POLICIES:
            raise ConfigurationError(
                f"unknown scheduling policy {policy!r}; "
                f"expected one of {SCHEDULING_POLICIES}"
            )
        if max_depth <= 0:
            raise ConfigurationError("queue depth must be positive")
        self.policy = policy
        self.max_depth = max_depth
        self.n_devices = n_devices
        self._heap: list[tuple[tuple, int, InferenceRequest]] = []
        self._seq = itertools.count()

    def offer(self, request: InferenceRequest, *, force: bool = False) -> None:
        """Admit a request, or shed it with a typed rejection.

        ``force`` bypasses the depth bound for requests that were already
        admitted once — retries must never be re-subjected to admission
        control or they could be lost.
        """
        if not force and len(self._heap) >= self.max_depth:
            raise AdmissionError(
                f"queue full ({self.max_depth} pending); "
                f"request {request.request_id} shed",
                reason="queue_full",
            )
        request.seq = next(self._seq)
        heapq.heappush(
            self._heap,
            (_policy_key(self.policy, request), request.seq, request),
        )

    def take_batch(
        self, device_id: int, max_batch: int
    ) -> list[InferenceRequest]:
        """Pop up to ``max_batch`` requests ``device_id`` may serve.

        Entries whose retry affinity avoids the device stay queued for
        another device; the batch is empty when nothing else is pending.
        """
        batch, skipped = [], []
        honour_avoid = self.n_devices > 1
        while self._heap and len(batch) < max_batch:
            entry = heapq.heappop(self._heap)
            if honour_avoid and entry[2].avoid_device == device_id:
                skipped.append(entry)
            else:
                batch.append(entry[2])
        for entry in skipped:
            heapq.heappush(self._heap, entry)
        return batch

    @property
    def depth(self) -> int:
        return len(self._heap)

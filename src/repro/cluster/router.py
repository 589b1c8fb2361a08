"""Request routing across fleets: pluggable cluster-front policies.

The router is the cluster's front door: every request passes through
:meth:`Router.route` to pick a fleet before the fleet's own scheduler
ever sees it.  Three policies; the two load-aware ones read each
fleet's live queue (:meth:`~repro.cluster.fleet.Fleet.est_queue_wait_ms`
and :meth:`~repro.cluster.fleet.Fleet.queue_depth`):

``hash``
    Consistent hashing over the request key (its ``request_id``) with
    virtual nodes.  Sticky — the same key lands on the same fleet as
    long as that fleet is alive — and stable: adding or removing one
    fleet from a ring of N remaps only ~K/N of K keys (the property
    tests measure this).  Hashing uses SHA-256, not Python's ``hash()``,
    which is salted per process and would destroy determinism.

``least-queue-wait``
    Greedy join-shortest-estimated-wait: pick the fleet whose live
    backlog (queue depth x per-request service estimate / devices)
    predicts the smallest wait.  Ties break on depth then fleet id, so
    routing is deterministic given identical signals.

``deadline-p2c``
    Deadline-aware power-of-two-choices: sample two distinct candidate
    fleets with a seeded RNG, keep those whose estimated wait still
    meets the request's deadline, and take the less-loaded of what
    survives.  P2C gets most of the load-balancing benefit of global
    least-loaded while probing only two fleets — the classic
    "power of two choices" result — and the deadline filter steers
    latency-critical requests away from fleets that would expire them.

The router picks only from the fleets it is handed: a fleet left out
of that list never receives new work, even while its backlog drains
(the property tests pin this).
"""

from __future__ import annotations

import bisect
import hashlib
import random

from repro.cluster.fleet import Fleet
from repro.errors import ConfigurationError
from repro.serve.request import InferenceRequest

ROUTER_POLICIES = ("hash", "least-queue-wait", "deadline-p2c")

#: Virtual nodes per fleet on the consistent-hash ring.  More vnodes
#: smooth the key distribution; 64 keeps remap fractions within a few
#: percent of the ideal K/N without bloating ring rebuilds.
VNODES = 64


def _stable_hash(key: str) -> int:
    """Process-stable 64-bit hash (``hash()`` is salted per process)."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class NoRoutableFleetError(ConfigurationError):
    """Raised when there is no fleet to accept a request."""


class Router:
    """Pick a fleet for each request under a configured policy."""

    def __init__(
        self,
        policy: str = "hash",
        *,
        seed: int = 0,
    ) -> None:
        if policy not in ROUTER_POLICIES:
            raise ConfigurationError(
                f"unknown router policy {policy!r}; "
                f"known: {ROUTER_POLICIES}"
            )
        self.policy = policy
        self._rng = random.Random(seed)
        # Ring cache keyed by the tuple of member fleet names, so the
        # ring is rebuilt only when membership actually changes.
        self._ring_key: tuple[str, ...] | None = None
        self._ring: list[tuple[int, int]] = []

    # -- policy implementations -----------------------------------------

    def _ring_for(
        self, fleets: list[Fleet]
    ) -> list[tuple[int, int]]:
        key = tuple(f.name for f in fleets)
        if key != self._ring_key:
            ring = []
            for fleet in fleets:
                for v in range(VNODES):
                    point = _stable_hash(f"fleet:{fleet.name}:vnode:{v}")
                    ring.append((point, fleet.fleet_id))
            ring.sort()
            self._ring_key = key
            self._ring = ring
        return self._ring

    def _route_hash(
        self, request: InferenceRequest, fleets: list[Fleet]
    ) -> Fleet:
        ring = self._ring_for(fleets)
        point = _stable_hash(f"req:{request.request_id}")
        idx = bisect.bisect_right(ring, (point, float("inf"))) % len(ring)
        fleet_id = ring[idx][1]
        by_id = {f.fleet_id: f for f in fleets}
        return by_id[fleet_id]

    def _route_least_wait(self, fleets: list[Fleet]) -> Fleet:
        return min(
            fleets,
            key=lambda f: (
                f.est_queue_wait_ms(), f.queue_depth(), f.fleet_id
            ),
        )

    def _route_deadline_p2c(
        self, request: InferenceRequest, fleets: list[Fleet]
    ) -> Fleet:
        if len(fleets) == 1:
            return fleets[0]
        a, b = self._rng.sample(range(len(fleets)), 2)
        candidates = [fleets[a], fleets[b]]
        scored = [
            (f.est_queue_wait_ms(), f.queue_depth(), f.fleet_id, f)
            for f in candidates
        ]
        if request.deadline_ms is not None:
            slack = request.deadline_ms - request.arrival_ms
            feasible = [s for s in scored if s[0] <= slack]
            if feasible:
                scored = feasible
        return min(scored)[3]

    # -- entry point -----------------------------------------------------

    def route(
        self, request: InferenceRequest, fleets: list[Fleet]
    ) -> Fleet:
        """Pick one of ``fleets`` for ``request`` under the policy."""
        if not fleets:
            raise NoRoutableFleetError("no fleet available to route to")
        if self.policy == "hash":
            return self._route_hash(request, fleets)
        if self.policy == "least-queue-wait":
            return self._route_least_wait(fleets)
        return self._route_deadline_p2c(request, fleets)

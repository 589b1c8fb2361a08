"""Router property tests: stickiness, remap bounds, drain safety.

These run against lightweight stand-in fleets (the router only reads
``fleet_id``, ``name``, and the two live load signals), so thousands of
routing decisions cost microseconds.  Drain safety is membership: the
cluster drops a retiring fleet from the list it routes over, and the
fleet drains its backlog off that list.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    NoRoutableFleetError,
    Router,
)
from repro.cluster.router import _stable_hash
from repro.errors import ConfigurationError
from repro.serve.request import InferenceRequest


class StubFleet:
    def __init__(self, fleet_id, wait_ms=0.0, depth=0):
        self.fleet_id = fleet_id
        self.name = f"fleet-{fleet_id}"
        self._wait_ms = wait_ms
        self._depth = depth

    def est_queue_wait_ms(self):
        return self._wait_ms

    def queue_depth(self):
        return self._depth


def _request(request_id, arrival_ms=0.0, deadline_ms=None):
    return InferenceRequest(
        request_id=request_id, x=None, arrival_ms=arrival_ms,
        deadline_ms=deadline_ms,
    )


class TestValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            Router("round-robin")

    def test_no_active_fleet_is_typed(self):
        router = Router("hash")
        with pytest.raises(NoRoutableFleetError):
            router.route(_request(1), [])

    def test_stable_hash_is_process_independent(self):
        # sha256-derived, NOT the salted builtin hash().
        assert _stable_hash("req:42") == _stable_hash("req:42")
        assert _stable_hash("req:42") == 0x1400F8F2C5F2B608


class TestConsistentHash:
    def test_sticky_same_key_same_fleet(self):
        router = Router("hash")
        fleets = [StubFleet(i) for i in range(4)]
        for request_id in range(50):
            first = router.route(_request(request_id), fleets)
            again = router.route(_request(request_id), fleets)
            assert first is again

    @pytest.mark.parametrize("n_before,n_after", [(4, 5), (5, 4)])
    def test_remap_fraction_near_k_over_n(self, n_before, n_after):
        """Adding/removing one fleet remaps ~K/N keys, not everything.

        The theoretical fraction is 1/max(n_before, n_after); vnode
        placement noise allows a small multiple, far below the ~1 - 1/N
        a modulo hash would remap.
        """
        router = Router("hash")
        keys = 2_000
        before = [StubFleet(i) for i in range(n_before)]
        after = [StubFleet(i) for i in range(n_after)]
        placements = {
            rid: router.route(_request(rid), before).fleet_id
            for rid in range(keys)
        }
        moved = sum(
            router.route(_request(rid), after).fleet_id != fleet_id
            for rid, fleet_id in placements.items()
        )
        ideal = keys / max(n_before, n_after)
        assert moved <= 2.0 * ideal, (
            f"{moved}/{keys} keys remapped; ideal ~{ideal:.0f}"
        )
        # Keys that stayed must not have shuffled among surviving
        # fleets: every move involves the added/removed fleet.
        if n_after > n_before:
            new_id = n_after - 1
            for rid, fleet_id in placements.items():
                now = router.route(_request(rid), after).fleet_id
                assert now == fleet_id or now == new_id

    def test_never_routes_to_draining_fleet(self):
        router = Router("hash")
        fleets = [StubFleet(0), StubFleet(1), StubFleet(2)]
        owned = [
            rid for rid in range(200)
            if router.route(_request(rid), fleets).fleet_id == 1
        ]
        assert owned
        # Fleet 1 retires: the cached ring must not route to it again.
        live = [fleets[0], fleets[2]]
        for request_id in range(200):
            chosen = router.route(_request(request_id), live)
            assert chosen.fleet_id != 1

    def test_spread_covers_all_fleets(self):
        router = Router("hash")
        fleets = [StubFleet(i) for i in range(4)]
        hit = {
            router.route(_request(rid), fleets).fleet_id
            for rid in range(400)
        }
        assert hit == {0, 1, 2, 3}


class TestLeastQueueWait:
    def test_picks_smallest_estimated_wait(self):
        router = Router("least-queue-wait")
        fleets = [StubFleet(0, wait_ms=9.0), StubFleet(1, wait_ms=2.0),
                  StubFleet(2, wait_ms=5.0)]
        assert router.route(_request(1), fleets).fleet_id == 1

    def test_tie_breaks_on_depth_then_id(self):
        router = Router("least-queue-wait")
        fleets = [StubFleet(0, wait_ms=2.0, depth=4),
                  StubFleet(1, wait_ms=2.0, depth=1),
                  StubFleet(2, wait_ms=2.0, depth=1)]
        assert router.route(_request(1), fleets).fleet_id == 1

    def test_skips_draining(self):
        router = Router("least-queue-wait")
        idle_but_retired = StubFleet(1, wait_ms=0.0)
        fleets = [StubFleet(0, wait_ms=9.0), idle_but_retired]
        assert router.route(_request(1), fleets).fleet_id == 1
        fleets.remove(idle_but_retired)
        assert router.route(_request(2), fleets).fleet_id == 0


class TestDeadlineP2C:
    def test_deterministic_under_fixed_seed(self):
        fleets = [StubFleet(i, wait_ms=float(i)) for i in range(6)]
        picks_a = [
            Router("deadline-p2c", seed=7).route(_request(rid), fleets)
            .fleet_id
            for rid in range(50)
        ]
        # Re-running with the same seed reproduces the exact sequence.
        router = Router("deadline-p2c", seed=7)
        picks_b = [
            router.route(_request(rid), fleets).fleet_id
            for rid in range(50)
        ]
        # (fresh router per call above vs one router: both draw from
        # Random(7); the first list re-seeds every call so compare a
        # same-shape second pass instead.)
        router_c = Router("deadline-p2c", seed=7)
        picks_c = [
            router_c.route(_request(rid), fleets).fleet_id
            for rid in range(50)
        ]
        assert picks_b == picks_c
        assert picks_a[0] == picks_b[0]

    def test_prefers_deadline_feasible_candidate(self):
        # Force the two candidates: with 2 fleets, p2c samples both.
        router = Router("deadline-p2c", seed=0)
        fleets = [StubFleet(0, wait_ms=50.0, depth=1),
                  StubFleet(1, wait_ms=80.0, depth=1)]
        # Deadline slack of 60ms: only fleet 0 is feasible.
        chosen = router.route(
            _request(1, arrival_ms=0.0, deadline_ms=60.0), fleets
        )
        assert chosen.fleet_id == 0
        # Infeasible for both: falls back to less-loaded.
        chosen = router.route(
            _request(2, arrival_ms=0.0, deadline_ms=10.0), fleets
        )
        assert chosen.fleet_id == 0

    def test_never_routes_to_draining_fleet(self):
        router = Router("deadline-p2c", seed=3)
        fleets = [StubFleet(0), StubFleet(2), StubFleet(3)]
        for request_id in range(300):
            chosen = router.route(_request(request_id), fleets)
            assert chosen.fleet_id != 1

    def test_single_fleet_short_circuits(self):
        router = Router("deadline-p2c", seed=0)
        fleets = [StubFleet(4)]
        assert router.route(_request(1), fleets).fleet_id == 4

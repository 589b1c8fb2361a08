"""The bounded queue: policies, admission, batching, retry affinity."""

import numpy as np
import pytest

from repro.errors import AdmissionError, ConfigurationError
from repro.serve import BoundedRequestQueue, InferenceRequest


def _request(request_id, arrival_ms=0.0, deadline_ms=None,
             avoid_device=None):
    return InferenceRequest(
        request_id=request_id,
        x=np.zeros(4, dtype=np.float32),
        arrival_ms=arrival_ms,
        deadline_ms=deadline_ms,
        avoid_device=avoid_device,
    )


class TestPolicies:
    def test_fifo_serves_in_arrival_order(self):
        queue = BoundedRequestQueue(policy="fifo", max_depth=8)
        for i in (0, 1, 2, 3):
            queue.offer(_request(i))
        batch = queue.take_batch(device_id=0, max_batch=4)
        assert [r.request_id for r in batch] == [0, 1, 2, 3]

    def test_edf_orders_by_deadline(self):
        queue = BoundedRequestQueue(policy="edf", max_depth=8)
        queue.offer(_request(0, deadline_ms=50.0))
        queue.offer(_request(1, deadline_ms=10.0))
        queue.offer(_request(2, deadline_ms=30.0))
        queue.offer(_request(3))                     # best-effort: last
        batch = queue.take_batch(device_id=0, max_batch=4)
        assert [r.request_id for r in batch] == [1, 2, 0, 3]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            BoundedRequestQueue(policy="lifo")


class TestAdmission:
    def test_queue_full_is_typed_rejection(self):
        queue = BoundedRequestQueue(max_depth=2)
        queue.offer(_request(0))
        queue.offer(_request(1))
        with pytest.raises(AdmissionError) as excinfo:
            queue.offer(_request(2))
        assert excinfo.value.reason == "queue_full"

    def test_force_bypasses_depth_bound(self):
        queue = BoundedRequestQueue(max_depth=1)
        queue.offer(_request(0))
        queue.offer(_request(1), force=True)         # retry path
        assert queue.depth == 2


class TestBatchingAndDrain:
    def test_batch_size_bounded(self):
        queue = BoundedRequestQueue(max_depth=16)
        for i in range(6):
            queue.offer(_request(i))
        assert len(queue.take_batch(device_id=0, max_batch=4)) == 4
        assert len(queue.take_batch(device_id=0, max_batch=4)) == 2

    def test_empty_take_returns_empty_batch(self):
        queue = BoundedRequestQueue(max_depth=4)
        assert queue.take_batch(0, max_batch=4) == []


class TestBrownoutAffinity:
    def test_avoided_device_skips_retry(self):
        queue = BoundedRequestQueue(max_depth=8, n_devices=2)
        queue.offer(_request(0, avoid_device=0), force=True)
        queue.offer(_request(1))
        batch = queue.take_batch(device_id=0, max_batch=4)
        assert [r.request_id for r in batch] == [1]
        assert queue.depth == 1                      # retry still queued
        other = queue.take_batch(device_id=1, max_batch=4)
        assert [r.request_id for r in other] == [0]

    def test_avoid_ignored_on_single_device_pool(self):
        queue = BoundedRequestQueue(max_depth=8, n_devices=1)
        queue.offer(_request(0, avoid_device=0), force=True)
        batch = queue.take_batch(device_id=0, max_batch=4)
        assert [r.request_id for r in batch] == [0]

    def test_avoid_honoured_during_drain(self):
        # Draining must not hand a retry back to the board that browned
        # it out: the other device takes it instead.
        queue = BoundedRequestQueue(max_depth=8, n_devices=2)
        queue.offer(_request(0, avoid_device=0), force=True)
        assert queue.take_batch(device_id=0, max_batch=4) == []
        batch = queue.take_batch(device_id=1, max_batch=4)
        assert [r.request_id for r in batch] == [0]

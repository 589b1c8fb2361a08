"""A fleet generation's control signals: one sample window over the
runtime's offered count, outcome log and device busy time."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cluster.fleet import FleetGeneration
from repro.serve.request import COMPLETED, REJECTED, ServeOutcome


class _Runtime:
    """Just the runtime records a generation samples."""

    def __init__(self, n_devices: int = 1) -> None:
        self.offered = 0
        self.outcome_log: list[ServeOutcome] = []
        self.devices = [
            SimpleNamespace(busy_ms=0.0) for _ in range(n_devices)
        ]

    def record(self, status: str, n: int = 1) -> None:
        for _ in range(n):
            self.outcome_log.append(ServeOutcome(
                request_id=len(self.outcome_log), status=status,
            ))


def _generation(runtime, window_ms):
    artifact = SimpleNamespace(deployment=SimpleNamespace(latency_ms=1.0))
    return FleetGeneration(0, artifact, runtime, window_ms)


class TestSignalWindow:
    def test_windowed_rate_over_steady_increments(self):
        runtime = _Runtime()
        gen = _generation(runtime, window_ms=100.0)
        # 10 arrivals every 10 ms -> 1000 arrivals/s.
        for tick in range(0, 200, 10):
            gen.sample(float(tick))
            runtime.offered += 10
        gen.sample(200.0)
        assert gen.offered_per_s() == pytest.approx(1000.0)

    def test_window_prunes_old_samples(self):
        runtime = _Runtime()
        gen = _generation(runtime, window_ms=50.0)
        runtime.offered = 1000
        runtime.record(REJECTED, 1000)
        runtime.devices[0].busy_ms = 40.0
        gen.sample(0.0)                  # burst long before the window
        for tick in range(100, 200, 10):
            gen.sample(float(tick))      # flat ever since
        assert gen.offered_per_s() == 0.0
        assert gen.shed_per_s() == 0.0
        assert gen.utilization() == 0.0

    def test_cold_window_reads_zero(self):
        runtime = _Runtime()
        gen = _generation(runtime, window_ms=100.0)
        assert (gen.offered_per_s(), gen.shed_per_s(),
                gen.utilization()) == (0.0, 0.0, 0.0)
        runtime.offered = 5
        gen.sample(10.0)                 # one sample is still cold
        assert (gen.offered_per_s(), gen.shed_per_s(),
                gen.utilization()) == (0.0, 0.0, 0.0)

    def test_rejections_read_through_the_cursor(self):
        runtime = _Runtime()
        gen = _generation(runtime, window_ms=1_000.0)
        gen.sample(0.0)
        runtime.record(COMPLETED, 3)
        runtime.record(REJECTED, 2)
        gen.sample(10.0)
        assert gen.shed_per_s() == pytest.approx(200.0)
        # Only the outcomes recorded since the last tick are read, so
        # earlier rejections are never counted twice.
        runtime.record(REJECTED, 1)
        runtime.record(COMPLETED, 1)
        gen.sample(20.0)
        assert gen.shed_per_s() == pytest.approx(150.0)

    def test_utilization_is_busy_delta_over_devices(self):
        runtime = _Runtime(n_devices=2)
        gen = _generation(runtime, window_ms=1_000.0)
        gen.sample(0.0)
        runtime.devices[0].busy_ms = 10.0
        runtime.devices[1].busy_ms = 5.0
        gen.sample(10.0)
        assert gen.utilization() == pytest.approx(0.75)
        runtime.devices[0].busy_ms = 60.0
        gen.sample(20.0)
        assert gen.utilization() == 1.0  # capped

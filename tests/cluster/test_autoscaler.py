"""Autoscaler decision-logic tests against synthetic fleet signals."""

from __future__ import annotations

import pytest

from repro.cluster import (
    SCALE_DOWN,
    SCALE_UP,
    Autoscaler,
    AutoscalerConfig,
    FleetSignals,
)
from repro.errors import ConfigurationError


def _signals(n, *, shed=0.0, wait=0.0, util=0.5):
    return [
        FleetSignals(
            fleet=f"fleet-{i}", offered_per_s=1000.0,
            shed_per_s=shed * 1000.0, shed_fraction=shed,
            utilization=util, queue_depth=0, est_queue_wait_ms=wait,
        )
        for i in range(n)
    ]


def _config(**overrides):
    defaults = dict(min_fleets=1, max_fleets=4, up_ticks=2,
                    down_ticks=3, cooldown_ms=100.0)
    defaults.update(overrides)
    return AutoscalerConfig(**defaults)


class TestValidation:
    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(min_fleets=3, max_fleets=2)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(min_fleets=0)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(up_ticks=0)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(cooldown_ms=-1.0)


class TestScaleUp:
    def test_needs_a_streak_not_one_noisy_tick(self):
        scaler = Autoscaler(_config(up_ticks=3))
        overloaded = _signals(2, shed=0.5)
        assert scaler.decide(0.0, overloaded) is None
        assert scaler.decide(10.0, overloaded) is None
        decision = scaler.decide(20.0, overloaded)
        assert decision is not None and decision.action == SCALE_UP

    def test_streak_resets_on_a_calm_tick(self):
        scaler = Autoscaler(_config(up_ticks=2))
        assert scaler.decide(0.0, _signals(2, shed=0.5)) is None
        assert scaler.decide(10.0, _signals(2)) is None      # calm
        assert scaler.decide(20.0, _signals(2, shed=0.5)) is None
        decision = scaler.decide(30.0, _signals(2, shed=0.5))
        assert decision is not None and decision.action == SCALE_UP

    @pytest.mark.parametrize("kwargs", [
        {"shed": 0.2}, {"wait": 500.0}, {"util": 0.99},
    ])
    def test_any_overload_signal_trips(self, kwargs):
        scaler = Autoscaler(_config(up_ticks=1))
        decision = scaler.decide(0.0, _signals(2, **kwargs))
        assert decision is not None and decision.action == SCALE_UP

    def test_capped_at_max_fleets(self):
        scaler = Autoscaler(_config(max_fleets=2, up_ticks=1))
        assert scaler.decide(0.0, _signals(2, shed=0.9)) is None


class TestScaleDown:
    def test_requires_all_idle_conditions(self):
        scaler = Autoscaler(_config(down_ticks=1))
        # Idle utilization but sheds: not idle.
        still_shedding = _signals(2, util=0.1, shed=0.01)
        assert scaler.decide(0.0, still_shedding) is None
        # Properly idle.
        decision = scaler.decide(10.0, _signals(2, util=0.1, wait=0.0))
        assert decision is not None and decision.action == SCALE_DOWN

    def test_needs_longer_streak_than_scale_up(self):
        scaler = Autoscaler(_config(down_ticks=3))
        idle = _signals(2, util=0.05)
        assert scaler.decide(0.0, idle) is None
        assert scaler.decide(10.0, idle) is None
        decision = scaler.decide(20.0, idle)
        assert decision is not None and decision.action == SCALE_DOWN

    def test_floored_at_min_fleets(self):
        scaler = Autoscaler(_config(min_fleets=1, down_ticks=1))
        assert scaler.decide(0.0, _signals(1, util=0.0)) is None


class TestHysteresis:
    def test_cooldown_blocks_back_to_back_actions(self):
        scaler = Autoscaler(_config(up_ticks=1, cooldown_ms=100.0))
        overloaded = _signals(1, shed=0.5)
        first = scaler.decide(0.0, overloaded)
        assert first is not None
        # Still overloaded, but inside the cooldown window.
        assert scaler.decide(50.0, overloaded) is None
        assert scaler.decide(99.0, overloaded) is None
        second = scaler.decide(101.0, overloaded)
        assert second is not None
        assert scaler.decisions == [first, second]

    def test_asymmetric_thresholds_never_flap(self):
        """A utilization between the down and up bars moves nothing."""
        scaler = Autoscaler(_config(up_ticks=1, down_ticks=1,
                                    cooldown_ms=0.0))
        steady = _signals(2, util=0.6)
        for tick in range(20):
            assert scaler.decide(float(tick * 10), steady) is None

    def test_decisions_record_reasons(self):
        scaler = Autoscaler(_config(up_ticks=1))
        decision = scaler.decide(5.0, _signals(2, shed=0.25))
        assert decision.time_ms == 5.0
        assert decision.n_fleets == 2
        assert "shed=0.250" in decision.reason

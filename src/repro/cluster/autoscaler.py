"""Autoscaler: a hysteresis control loop on the simulated clock.

Pure decision logic — the :class:`Autoscaler` reads windowed
:class:`~repro.cluster.fleet.FleetSignals` each control tick and emits
at most one :class:`ScaleDecision`; the :class:`~repro.cluster.cluster.
Cluster` executes it (spins up a fleet, or retires one).  Keeping
decide/execute split makes the policy unit-testable with synthetic
signals; the cluster calls it once per control tick on the simulated
clock.

Hysteresis, three ways, because a single-threshold scaler flaps:

* **streaks** — a scale-up needs ``up_ticks`` *consecutive* overloaded
  ticks; a scale-down needs ``down_ticks`` consecutive idle ticks.  One
  noisy window never moves the fleet count.
* **cooldown** — after any action the scaler sleeps ``cooldown_ms`` of
  simulated time, long enough for the previous action's effect to show
  up in the windowed signals before it acts again.
* **asymmetric thresholds** — the scale-down utilization bar sits far
  below the scale-up bar, so the scaler never oscillates around a
  single set-point.

All signals are *measured* cluster quantities in simulated time:
windowed shed fraction (rejected rate / offered rate), mean estimated
queue wait, and mean device utilization across the live fleets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.fleet import FleetSignals
from repro.errors import ConfigurationError

SCALE_UP = "scale_up"
SCALE_DOWN = "scale_down"


@dataclass(frozen=True)
class AutoscalerConfig:
    """Thresholds and hysteresis for the scaling loop."""

    min_fleets: int = 1
    max_fleets: int = 8
    #: Scale up when ANY of these trips (overload shows up first as
    #: shed, then as queue wait, then as saturated devices).
    up_shed_fraction: float = 0.05
    up_queue_wait_ms: float = 50.0
    up_utilization: float = 0.90
    #: Scale down only when ALL of these hold.
    down_utilization: float = 0.30
    down_queue_wait_ms: float = 5.0
    #: Consecutive ticks a condition must hold before acting.
    up_ticks: int = 2
    down_ticks: int = 4
    #: Simulated quiet period after any action.
    cooldown_ms: float = 500.0

    def __post_init__(self) -> None:
        if not 1 <= self.min_fleets <= self.max_fleets:
            raise ConfigurationError(
                f"need 1 <= min_fleets <= max_fleets, got "
                f"{self.min_fleets}..{self.max_fleets}"
            )
        if self.up_ticks < 1 or self.down_ticks < 1:
            raise ConfigurationError("streak lengths must be >= 1")
        if self.cooldown_ms < 0:
            raise ConfigurationError("cooldown_ms must be >= 0")


@dataclass(frozen=True)
class ScaleDecision:
    """One emitted action, with the signal snapshot that justified it."""

    time_ms: float
    action: str                    # SCALE_UP | SCALE_DOWN
    n_fleets: int                  # fleet count when decided
    reason: str


class Autoscaler:
    """Streak + cooldown hysteresis over windowed cluster signals."""

    def __init__(self, config: AutoscalerConfig | None = None) -> None:
        self.config = config or AutoscalerConfig()
        self._up_streak = 0
        self._down_streak = 0
        self._last_action_ms = float("-inf")
        self.decisions: list[ScaleDecision] = []

    def decide(
        self, now_ms: float, signals: list[FleetSignals]
    ) -> ScaleDecision | None:
        """One control tick: emit an action or None.

        ``signals`` are the live fleets' readings; a fleet retired by a
        scale-down has already left them.
        """
        cfg = self.config
        if not signals:
            return None
        n = len(signals)
        shed = max(s.shed_fraction for s in signals)
        wait = sum(s.est_queue_wait_ms for s in signals) / n
        util = sum(s.utilization for s in signals) / n

        overloaded = (
            shed >= cfg.up_shed_fraction
            or wait >= cfg.up_queue_wait_ms
            or util >= cfg.up_utilization
        )
        idle = (
            util <= cfg.down_utilization
            and wait <= cfg.down_queue_wait_ms
            and shed == 0.0
        )
        self._up_streak = self._up_streak + 1 if overloaded else 0
        self._down_streak = self._down_streak + 1 if idle else 0

        if now_ms - self._last_action_ms < cfg.cooldown_ms:
            return None

        decision: ScaleDecision | None = None
        if self._up_streak >= cfg.up_ticks and n < cfg.max_fleets:
            decision = ScaleDecision(
                time_ms=now_ms, action=SCALE_UP, n_fleets=n,
                reason=(
                    f"shed={shed:.3f} wait={wait:.1f}ms "
                    f"util={util:.2f} for {self._up_streak} ticks"
                ),
            )
        elif self._down_streak >= cfg.down_ticks and n > cfg.min_fleets:
            decision = ScaleDecision(
                time_ms=now_ms, action=SCALE_DOWN, n_fleets=n,
                reason=(
                    f"util={util:.2f} wait={wait:.1f}ms "
                    f"idle for {self._down_streak} ticks"
                ),
            )
        if decision is not None:
            self._last_action_ms = now_ms
            self._up_streak = 0
            self._down_streak = 0
            self.decisions.append(decision)
        return decision

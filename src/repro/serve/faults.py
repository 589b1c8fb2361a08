"""Fault injection: configurable brown-outs for simulated devices.

Two fault modes, composable per device:

- **Probabilistic brown-outs** — each request on a faulty device loses
  power mid-inference with probability ``brownout_rate`` (seeded
  per-device generators keep runs reproducible: each device draws only
  from its own stream).
- **Intermittent power supply** — a device is given a
  :class:`~repro.mcu.intermittent.PowerBudget`; inference then runs
  through the JIT-checkpointing scheme of :mod:`repro.mcu.intermittent`,
  paying checkpoint/restore/re-execution cycles.  A budget below the
  model's minimum viable charge browns out on *every* attempt — the
  non-termination hazard the runtime's retry cap must surface as a
  terminal :class:`~repro.errors.ServeError` rather than hang on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

#: Fraction of an inference's cycles wasted when a brown-out fires
#: mid-request (the board reboots; work since dispatch is lost).
BROWNOUT_WASTE_FRACTION = 0.5


@dataclass(frozen=True)
class FaultPlan:
    """Which devices misbehave, and how often."""

    #: Probability that a request on a faulty device browns out.
    brownout_rate: float = 0.0
    #: Device ids the plan applies to; ``None`` means every device.
    faulty_devices: frozenset[int] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.brownout_rate <= 1.0:
            raise ConfigurationError(
                f"brownout_rate must be in [0, 1], got {self.brownout_rate}"
            )
        if self.seed < 0:
            raise ConfigurationError(
                f"seed must be non-negative, got {self.seed}"
            )

    def applies_to(self, device_id: int) -> bool:
        return (
            self.faulty_devices is None or device_id in self.faulty_devices
        )


class FaultInjector:
    """Per-device seeded draw of the fault plan."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rngs: dict[int, np.random.Generator] = {}

    def _rng(self, device_id: int) -> np.random.Generator:
        if device_id not in self._rngs:
            self._rngs[device_id] = np.random.default_rng(
                (self.plan.seed, device_id)
            )
        return self._rngs[device_id]

    def should_brownout(self, device_id: int) -> bool:
        """Whether the next request on ``device_id`` loses power."""
        if self.plan.brownout_rate <= 0.0:
            return False
        if not self.plan.applies_to(device_id):
            return False
        if self.plan.brownout_rate >= 1.0:
            return True
        return bool(
            self._rng(device_id).random() < self.plan.brownout_rate
        )

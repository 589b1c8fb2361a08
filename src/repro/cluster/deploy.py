"""Zero-downtime rolling deploys across fleets, with SLO-gated rollback.

The :class:`Deployer` walks the cluster one fleet at a time: warm a
green generation for the target model (registry lookup by content
hash), cut the fleet over
(:meth:`~repro.cluster.fleet.Fleet.begin_generation` — no request is
ever lost or shed by the swap), retire the blue generation (it drains
its backlog on the event loop), then *probe* the green generation under
live traffic before touching the next fleet.

The probe's SLO discriminator is deliberately **relative and
deterministic**: mean device cycles per completed request on green,
divided by the blue baseline measured on the same fleet just before
cutover.  Cycle counts are exact in the simulator — the same model
always costs the same cycles — so a bad candidate (a heavier
architecture, a mis-quantized export) trips the ratio on the very first
completed batch, while an equal-cost candidate sits at ratio ~1.0
regardless of how overloaded the cluster is.  Absolute shed-rate SLOs
would be useless here: at 10x overload blue and green both shed most
arrivals, and a shed threshold either never fires or always fires.

On a breach the deployer rolls back: every fleet already cut over gets
*another* generation swap back to the blue artifact (rollback is
zero-downtime too), green refs are released so the registry evicts the
bad model and frees its compiled-kernel cache entries, and the deploy
records a terminal ``rolled_back`` event.

The deployer is a state machine driven by the cluster's control ticks
(:meth:`tick`) on the simulated clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.fleet import Fleet
from repro.errors import ConfigurationError
from repro.serve.metrics import summarize
from repro.serve.registry import ModelArtifact
from repro.serve.request import COMPLETED

#: Deploy lifecycle states.
IDLE = "idle"
PROBING = "probing"
DONE = "done"
ROLLED_BACK = "rolled_back"

#: Event kinds recorded on the deploy timeline.
CUTOVER = "cutover"
PROBE_PASS = "probe_pass"
PROBE_FAIL = "probe_fail"
ROLLBACK = "rollback"
COMPLETE = "complete"


@dataclass(frozen=True)
class SLOPolicy:
    """Probe gate for one fleet's green generation.

    ``max_cycles_ratio``: green mean-cycles-per-completion over blue
    baseline above this is a breach.  ``min_probe_completed``: how many
    green completions the probe needs before judging.  ``probe_ms``:
    simulated probe budget per fleet; running out without enough
    completions is itself a breach (a green that produces no goodput
    under live load must not be promoted).
    """

    max_cycles_ratio: float = 2.0
    min_probe_completed: int = 10
    probe_ms: float = 2_000.0

    def __post_init__(self) -> None:
        if self.max_cycles_ratio <= 0:
            raise ConfigurationError("max_cycles_ratio must be > 0")
        if self.min_probe_completed < 1:
            raise ConfigurationError("min_probe_completed must be >= 1")
        if self.probe_ms <= 0:
            raise ConfigurationError("probe_ms must be > 0")


@dataclass(frozen=True)
class DeployEvent:
    """One timeline entry of a rolling deploy."""

    time_ms: float
    kind: str
    fleet: str | None
    model_id: str
    detail: str = ""


def _mean_cycles(runtime) -> tuple[int, float]:
    """(completed count, mean cycles per completion) so far."""
    summary = summarize([
        float(o.cycles) for o in runtime.outcome_log
        if o.status == COMPLETED
    ])
    return summary["count"], summary["mean"]


class Deployer:
    """Rolling blue/green deploy driven by control-loop ticks."""

    def __init__(
        self,
        fleets: list[Fleet],
        target: ModelArtifact,
        *,
        slo: SLOPolicy | None = None,
    ) -> None:
        if not fleets:
            raise ConfigurationError("deploy needs at least one fleet")
        self.target = target
        self.slo = slo or SLOPolicy()
        self.state = IDLE
        self.events: list[DeployEvent] = []
        # Snapshot membership at start: fleets added mid-deploy are
        # created on the target artifact already; fleets removed
        # mid-deploy drain their generation like any scale-down.
        self._pending = [
            f for f in fleets if f.model_id != target.model_id
        ]
        self._cut: list[tuple[Fleet, ModelArtifact]] = []  # (fleet, blue)
        self._probe_fleet: Fleet | None = None
        self._probe_started_ms = 0.0
        self._blue_baseline: tuple[int, float] = (0, 0.0)

    @property
    def active(self) -> bool:
        return self.state in (IDLE, PROBING)

    def _event(
        self, now_ms: float, kind: str, fleet: Fleet | None, detail=""
    ) -> None:
        self.events.append(DeployEvent(
            time_ms=now_ms, kind=kind,
            fleet=fleet.name if fleet is not None else None,
            model_id=self.target.model_id, detail=detail,
        ))

    # -- state machine ---------------------------------------------------

    def tick(self, now_ms: float) -> None:
        """Advance the deploy by at most one step at simulated ``now_ms``."""
        if self.state == IDLE:
            self._cut_next(now_ms)
        elif self.state == PROBING:
            self._probe(now_ms)

    def _cut_next(self, now_ms: float) -> None:
        if not self._pending:
            self.state = DONE
            self._event(now_ms, COMPLETE, None,
                        detail=f"{len(self._cut)} fleet(s) cut over")
            return
        fleet = self._pending.pop(0)
        gen = fleet._current()
        blue = gen.artifact if gen is not None else None
        if blue is None:            # fleet retired under us; skip it
            self._cut_next(now_ms)
            return
        # Baseline BEFORE cutover: blue's lifetime mean cycles per
        # completion on this very fleet, the denominator of the probe.
        self._blue_baseline = _mean_cycles(gen.runtime)
        old = fleet.begin_generation(self.target)
        fleet.retire_generation(old)
        self._probe_fleet = fleet
        self._probe_started_ms = now_ms
        self._cut.append((fleet, blue))
        self.state = PROBING
        self._event(now_ms, CUTOVER, fleet,
                    detail=f"from {blue.model_id[:12]}")

    def _probe(self, now_ms: float) -> None:
        fleet = self._probe_fleet
        assert fleet is not None
        gen = fleet._current()
        if gen is None:             # fleet retired mid-probe: pass it
            self._finish_probe(now_ms, fleet, "fleet retired")
            return
        count, mean = _mean_cycles(gen.runtime)
        blue_count, blue_mean = self._blue_baseline
        elapsed = now_ms - self._probe_started_ms
        if count >= self.slo.min_probe_completed:
            ratio = mean / blue_mean if blue_mean > 0 else 1.0
            if blue_count == 0 or ratio <= self.slo.max_cycles_ratio:
                self._finish_probe(
                    now_ms, fleet,
                    f"cycles ratio {ratio:.2f} over {count} completions",
                )
            else:
                self._event(
                    now_ms, PROBE_FAIL, fleet,
                    detail=(
                        f"cycles ratio {ratio:.2f} > "
                        f"{self.slo.max_cycles_ratio:.2f}"
                    ),
                )
                self._rollback(now_ms)
        elif elapsed >= self.slo.probe_ms:
            self._event(
                now_ms, PROBE_FAIL, fleet,
                detail=(
                    f"only {count}/{self.slo.min_probe_completed} "
                    f"completions in {elapsed:.0f}ms probe"
                ),
            )
            self._rollback(now_ms)

    def _finish_probe(
        self, now_ms: float, fleet: Fleet, detail: str
    ) -> None:
        self._event(now_ms, PROBE_PASS, fleet, detail=detail)
        self._probe_fleet = None
        self._cut_next(now_ms)

    def _rollback(self, now_ms: float) -> None:
        """Swap every cut-over fleet back to its blue artifact."""
        for fleet, blue in reversed(self._cut):
            if fleet._current() is None:
                continue
            old = fleet.begin_generation(blue)
            fleet.retire_generation(old)
            self._event(now_ms, ROLLBACK, fleet,
                        detail=f"restored {blue.model_id[:12]}")
        self._probe_fleet = None
        self.state = ROLLED_BACK

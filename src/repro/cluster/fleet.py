"""One fleet of the cluster: a chain of runtime generations.

A :class:`Fleet` is one shard of the cluster — a
:class:`~repro.serve.runtime.ServeRuntime` (device pool + queue) behind
a stable identity (``fleet-0``).  The runtime itself is replaceable: a
blue/green deploy swaps in a fresh *generation* while the old one serves
out its backlog, so the fleet's identity (and its place in the router's
hash ring) outlives any single model version.

Cutover (:meth:`begin_generation`) builds the green runtime on the
fleet's event loop — replicas flashed from the registry artifact,
translations already warm — and repoints the fleet at it inside one
event: every later arrival lands on green, every earlier one was
already admitted (or shed) by blue.  :meth:`retire_generation` then
archives blue, which keeps serving its queued backlog on the same
simulated clock.  The whole cluster runs on one single-threaded loop,
so no arrival can fall between two generations: a rolling deploy sheds
nothing and loses nothing — the cluster invariants assert exactly that.
"""

from __future__ import annotations

import dataclasses

from repro.serve.events import EventLoop
from repro.serve.registry import ModelArtifact
from repro.serve.request import REJECTED, InferenceRequest
from repro.serve.runtime import ServeConfig, ServeReport, ServeRuntime


@dataclasses.dataclass(frozen=True)
class FleetSignals:
    """One control-tick reading of a fleet's live, measured signals.

    These are the autoscaler's and router's inputs: offered and shed
    rates and utilization over the generation's sample window, and the
    queue-wait estimate the deadline-aware router scores fleets by.  All
    *measured* on-fleet quantities, not proxies.
    """

    fleet: str
    offered_per_s: float
    shed_per_s: float
    shed_fraction: float          # windowed shed rate / offered rate
    utilization: float            # windowed busy fraction across devices
    queue_depth: int
    est_queue_wait_ms: float      # depth x service time / devices


class FleetGeneration:
    """One runtime generation (blue or green) of a fleet."""

    def __init__(
        self,
        index: int,
        artifact: ModelArtifact,
        runtime: ServeRuntime,
        window_ms: float,
    ) -> None:
        self.index = index
        self.artifact = artifact
        self.runtime = runtime
        self._window_ms = window_ms
        #: ``(now_ms, offered, rejected, busy_ms)`` at each control tick.
        self._samples: list[tuple[float, int, int, float]] = []
        #: Rejections counted so far, through a cursor into the
        #: runtime's append-only outcome log.
        self._rejected = 0
        self._cursor = 0
        #: Per-request service estimate for queue-wait scoring.
        self.service_ms = artifact.deployment.latency_ms

    def sample(self, now_ms: float) -> None:
        """Take the window's sample at simulated time ``now_ms``.

        The window keeps one sample at or before its start, so once
        warm it spans at least ``window_ms``.
        """
        log = self.runtime.outcome_log
        self._rejected += sum(
            1 for o in log[self._cursor:] if o.status == REJECTED
        )
        self._cursor = len(log)
        busy = sum(d.busy_ms for d in self.runtime.devices)
        samples = self._samples
        samples.append((now_ms, self.runtime.offered, self._rejected, busy))
        cutoff = now_ms - self._window_ms
        while len(samples) > 2 and samples[1][0] <= cutoff:
            samples.pop(0)

    def _deltas(self) -> tuple[float, int, int, float] | None:
        """Window span and counts across it; ``None`` while cold."""
        if len(self._samples) < 2:
            return None
        first, last = self._samples[0], self._samples[-1]
        if last[0] <= first[0]:
            return None
        return tuple(b - a for a, b in zip(first, last))

    def offered_per_s(self) -> float:
        """Arrivals per simulated second over the window."""
        deltas = self._deltas()
        return deltas[1] / deltas[0] * 1e3 if deltas else 0.0

    def shed_per_s(self) -> float:
        """Rejections per simulated second over the window."""
        deltas = self._deltas()
        return deltas[2] / deltas[0] * 1e3 if deltas else 0.0

    def utilization(self) -> float:
        """Windowed busy fraction across this generation's devices."""
        deltas = self._deltas()
        if not deltas:
            return 0.0
        n = len(self.runtime.devices)
        return min(1.0, deltas[3] / (deltas[0] * n))

    def queue_depth(self) -> int:
        return self.runtime.queue.depth

    def est_queue_wait_ms(self) -> float:
        """Backlog-based wait estimate: depth x service / devices."""
        n = max(1, len(self.runtime.devices))
        return self.queue_depth() * self.service_ms / n


class Fleet:
    """One sharded fleet: generations of a serve runtime behind one id.

    ``loop`` is the cluster's event loop; a fleet built on its own gets
    a private one.
    """

    def __init__(
        self,
        fleet_id: int,
        artifact: ModelArtifact,
        config: ServeConfig,
        *,
        loop: EventLoop | None = None,
        registry=None,
        signal_window_ms: float = 250.0,
    ) -> None:
        self.fleet_id = fleet_id
        self.name = f"fleet-{fleet_id}"
        self.config = config
        self.signal_window_ms = signal_window_ms
        self.loop = loop or EventLoop()
        self._registry = registry
        self._gen_count = 0
        self._retired: list[FleetGeneration] = []
        self._gen: FleetGeneration | None = self._build_generation(
            artifact
        )

    # -- generation lifecycle --------------------------------------------

    def _build_generation(self, artifact: ModelArtifact) -> FleetGeneration:
        index = self._gen_count
        self._gen_count += 1
        namespace = (
            self.name if index == 0 else f"{self.name}.g{index}"
        )
        config = dataclasses.replace(
            self.config, trace_namespace=namespace
        )
        runtime = ServeRuntime(artifact, config, loop=self.loop)
        if self._registry is not None:
            self._registry.acquire(artifact.model_id)
        return FleetGeneration(
            index, artifact, runtime, self.signal_window_ms
        )

    def begin_generation(
        self, artifact: ModelArtifact
    ) -> FleetGeneration | None:
        """Cut over to a fresh runtime for ``artifact``; return the old.

        Every arrival from here on lands on the new generation.  The
        caller retires the returned one via :meth:`retire_generation`.
        """
        old = self._gen
        self._gen = self._build_generation(artifact)
        return old

    def retire_generation(self, gen: FleetGeneration) -> None:
        """Archive a swapped-out generation; it drains its backlog on the
        event loop, and its report is read once the loop has run.

        Inside the running loop (a cluster retiring the generation) the
        ``run()`` call returns at once and the loop carries on.
        """
        self.loop.run()
        self._retired.append(gen)
        if self._registry is not None:
            self._registry.release(gen.artifact.model_id)

    def shutdown(self) -> None:
        """Retire the live generation (scale-down, or the end of a
        cluster replay)."""
        old, self._gen = self._gen, None
        if old is not None:
            self.retire_generation(old)

    # -- data plane --------------------------------------------------------

    def submit(self, request: InferenceRequest) -> bool | None:
        """The arrival of one request, at the loop's current time.

        Returns the live generation's admission verdict (``True``
        admitted, ``False`` shed at the door), or ``None`` when the
        fleet has no live generation.
        """
        if self._gen is None:
            return None
        return self._gen.runtime.admit(request)

    # -- signals -----------------------------------------------------------

    def _current(self) -> FleetGeneration | None:
        return self._gen

    @property
    def model_id(self) -> str | None:
        return self._gen.artifact.model_id if self._gen is not None else None

    def sample(self, now_ms: float) -> None:
        if self._gen is not None:
            self._gen.sample(now_ms)

    def signals(self) -> FleetSignals:
        gen = self._gen
        if gen is None:
            return FleetSignals(
                fleet=self.name, offered_per_s=0.0,
                shed_per_s=0.0, shed_fraction=0.0, utilization=0.0,
                queue_depth=0, est_queue_wait_ms=0.0,
            )
        offered = gen.offered_per_s()
        shed = gen.shed_per_s()
        return FleetSignals(
            fleet=self.name,
            offered_per_s=offered,
            shed_per_s=shed,
            shed_fraction=shed / offered if offered > 0.0 else 0.0,
            utilization=gen.utilization(),
            queue_depth=gen.queue_depth(),
            est_queue_wait_ms=gen.est_queue_wait_ms(),
        )

    def est_queue_wait_ms(self) -> float:
        """Live routing score: estimated wait for a new arrival."""
        gen = self._gen
        return gen.est_queue_wait_ms() if gen is not None else float("inf")

    def queue_depth(self) -> int:
        return self._gen.queue_depth() if self._gen is not None else 0

    # -- reporting -------------------------------------------------------

    def generation_reports(self) -> list[tuple[int, str, ServeReport]]:
        """(generation, model_id, report) for every *retired* generation.

        The live generation (if any) is not included — shut the fleet
        down first; :meth:`Cluster.replay` does.
        """
        return [
            (gen.index, gen.artifact.model_id, gen.runtime.report())
            for gen in self._retired
        ]

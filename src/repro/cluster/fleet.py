"""One fleet of the cluster: a chain of runtime generations.

A :class:`Fleet` is one shard of the cluster — a
:class:`~repro.serve.runtime.ServeRuntime` (device pool + queue) behind
a stable identity (``fleet-0``).  The runtime itself is replaceable: a
blue/green deploy swaps in a fresh *generation* while the old one serves
out its backlog, so the fleet's identity (and its place in the router's
hash ring) outlives any single model version.

Cutover (:meth:`begin_generation`) builds the green runtime on the
fleet's event loop — answering from the one replica the cluster
flashes per artifact, translations already warm — and repoints the
fleet at it inside one event: every later arrival lands on green,
every earlier one was already admitted (or shed) by blue.
:meth:`retire_generation` then archives blue, which keeps serving its
queued backlog on the same simulated clock.  The whole cluster runs on one single-threaded loop,
so no arrival can fall between two generations: a rolling deploy sheds
nothing and loses nothing — the cluster invariants assert exactly that.
"""

from __future__ import annotations

import dataclasses

from repro.serve.events import EventLoop
from repro.serve.pool import Answers
from repro.serve.registry import ModelArtifact
from repro.serve.request import InferenceRequest
from repro.serve.runtime import ServeConfig, ServeReport, ServeRuntime


class FleetGeneration:
    """One runtime generation (blue or green) of a fleet."""

    def __init__(
        self,
        index: int,
        artifact: ModelArtifact,
        runtime: ServeRuntime,
    ) -> None:
        self.index = index
        self.artifact = artifact
        self.runtime = runtime
        #: Per-request service estimate for queue-wait scoring.
        self.service_ms = artifact.deployment.latency_ms

    def queue_depth(self) -> int:
        return self.runtime.queue.depth

    def est_queue_wait_ms(self) -> float:
        """Backlog-based wait estimate: depth x service / devices."""
        n = max(1, len(self.runtime.devices))
        return self.queue_depth() * self.service_ms / n


class Fleet:
    """One sharded fleet: generations of a serve runtime behind one id.

    ``loop`` is the cluster's event loop, and ``answers`` its replay's
    answer tables; a fleet built on its own gets private ones.
    """

    def __init__(
        self,
        fleet_id: int,
        artifact: ModelArtifact,
        config: ServeConfig,
        *,
        loop: EventLoop | None = None,
        answers: Answers | None = None,
    ) -> None:
        self.fleet_id = fleet_id
        self.name = f"fleet-{fleet_id}"
        self.config = config
        self.loop = loop or EventLoop()
        self._answers = answers if answers is not None else Answers()
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
        runtime = ServeRuntime(
            artifact, config, loop=self.loop, answers=self._answers
        )
        return FleetGeneration(index, artifact, runtime)

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

    def shutdown(self) -> None:
        """Retire the live generation (the end of a cluster replay)."""
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

    # -- routing signals ---------------------------------------------------

    def _current(self) -> FleetGeneration | None:
        return self._gen

    @property
    def model_id(self) -> str | None:
        return self._gen.artifact.model_id if self._gen is not None else None

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

"""The cluster: N fleets behind a router, with rolling deploys.

:class:`Cluster` composes a fixed set of
:class:`~repro.cluster.fleet.Fleet` shards (each its own
:class:`~repro.serve.runtime.ServeRuntime` with its own device pool), a
:class:`~repro.cluster.router.Router` choosing a shard per request, and
at most one active :class:`~repro.cluster.deploy.Deployer` rolling a new
model version across shards with zero lost requests.

Everything runs on one single-threaded discrete-event loop
(:class:`~repro.serve.events.EventLoop`) shared by every fleet:

* the **data plane** is an arrival event per request: route, then offer
  to the chosen fleet's live generation at the request's arrival time.
  :meth:`Cluster.replay` takes the whole finite trace and records every
  id in it, which is what lets
  :func:`~repro.cluster.invariants.verify_cluster_invariants` prove none
  were lost.
* the **control plane** is a periodic tick event (:meth:`tick`, every
  ``tick_ms`` of simulated time) that starts a due deploy or advances
  the running one.  It ticks only while a deploy is scheduled or
  running.

Routing and deploy decisions therefore depend on simulated time only,
and a cluster report is a pure function of (trace, config, artifacts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.cluster.deploy import Deployer, DeployEvent, SLOPolicy
from repro.cluster.fleet import Fleet
from repro.cluster.router import ROUTER_POLICIES, Router
from repro.errors import ConfigurationError, ServeError
from repro.serve.events import EventLoop
from repro.serve.metrics import summarize
from repro.serve.pool import Answers
from repro.serve.registry import ModelArtifact
from repro.serve.request import COMPLETED, InferenceRequest
from repro.serve.runtime import ServeConfig, ServeReport, arrival_order
from repro.serve.tracing import merged_chrome_trace


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the cluster and its control loop."""

    n_fleets: int = 2
    serve: ServeConfig = field(default_factory=ServeConfig)
    router_policy: str = "hash"
    router_seed: int = 0
    #: Control-loop period on the simulated clock.
    tick_ms: float = 50.0

    def __post_init__(self) -> None:
        if self.n_fleets < 1:
            raise ConfigurationError("n_fleets must be >= 1")
        if self.router_policy not in ROUTER_POLICIES:
            raise ConfigurationError(
                f"unknown router policy {self.router_policy!r}; "
                f"known: {ROUTER_POLICIES}"
            )
        if self.tick_ms <= 0:
            raise ConfigurationError("tick_ms must be > 0")


@dataclass(frozen=True)
class GenerationReport:
    """One retired generation's terminal serve report, cluster-labelled."""

    fleet: str
    generation: int
    model_id: str
    report: ServeReport


@dataclass(frozen=True)
class ClusterReport:
    """Terminal accounting of one cluster run, across every generation."""

    submitted: int                 # requests in the replayed trace
    offered: int                   # sum of per-generation offered
    completed: int
    rejected: int
    failed: int
    makespan_ms: float
    goodput_rps: float             # completed per simulated second
    latency_ms: dict[str, float]   # exact summary of merged outcomes
    generations: tuple[GenerationReport, ...]
    deploy_events: tuple[DeployEvent, ...] = ()
    router_policy: str = "hash"

    @property
    def conserved(self) -> bool:
        return self.completed + self.rejected + self.failed == self.offered

    def format(self) -> str:
        lines = [
            f"cluster: {len({g.fleet for g in self.generations})} "
            f"fleet(s), {len(self.generations)} generation(s), "
            f"router={self.router_policy}",
            f"requests: submitted {self.submitted}  "
            f"offered {self.offered}  completed {self.completed}  "
            f"rejected {self.rejected}  failed {self.failed}",
            f"goodput {self.goodput_rps:.1f} req/sim-s over "
            f"{self.makespan_ms:.1f} sim-ms",
            f"latency sim-ms  p50 {self.latency_ms['p50']:.2f}  "
            f"p95 {self.latency_ms['p95']:.2f}  "
            f"p99 {self.latency_ms['p99']:.2f}",
        ]
        for event in self.deploy_events:
            lines.append(
                f"deploy @{event.time_ms:.0f}ms {event.kind} "
                f"{event.fleet or '-'} {event.detail}"
            )
        return "\n".join(lines)


class Cluster:
    """N fleets, one router, a control loop, and rolling deploys."""

    def __init__(
        self,
        artifact: ModelArtifact | Sequence[ModelArtifact],
        config: ClusterConfig | None = None,
    ) -> None:
        self.config = config or ClusterConfig()
        self.router = Router(
            self.config.router_policy, seed=self.config.router_seed
        )
        # A single artifact builds a homogeneous cluster; a sequence
        # builds a *heterogeneous* one — fleet i flashes
        # artifacts[i % len] (e.g. the same model deployed on different
        # board profiles behind one router, which then routes on each
        # fleet's own per-board latency signals).
        if isinstance(artifact, ModelArtifact):
            artifacts: tuple[ModelArtifact, ...] = (artifact,)
        else:
            artifacts = tuple(artifact)
            if not artifacts:
                raise ServeError("cluster needs at least one artifact")
        self.loop = EventLoop()
        #: The replay's answer tables, shared by every generation.
        self._answers = Answers()
        self._fleets = [
            Fleet(
                fleet_id,
                artifacts[fleet_id % len(artifacts)],
                self.config.serve,
                loop=self.loop,
                answers=self._answers,
            )
            for fleet_id in range(self.config.n_fleets)
        ]
        self._retired_fleets: list[Fleet] = []
        self._submitted_ids: list[int] = []
        self._deployer: Deployer | None = None
        self._deploy_history: list[Deployer] = []
        self._pending_deploys: list[
            tuple[float, ModelArtifact, SLOPolicy | None]
        ] = []
        self._next_tick_ms = self.config.tick_ms

    # -- fleet membership ------------------------------------------------

    def _remove_fleet(self, fleet: Fleet) -> None:
        """Retire the fleet's live generation and stop routing to it."""
        fleet.shutdown()
        self._fleets.remove(fleet)
        self._retired_fleets.append(fleet)

    # -- introspection ---------------------------------------------------

    @property
    def fleets(self) -> list[Fleet]:
        """Live fleet membership."""
        return list(self._fleets)

    # -- data plane ------------------------------------------------------

    def _arrive(self, request: InferenceRequest) -> None:
        self.router.route(request, self._fleets).submit(request)

    # -- control plane ---------------------------------------------------

    @property
    def _deploying(self) -> bool:
        return bool(self._pending_deploys) or (
            self._deployer is not None and self._deployer.active
        )

    def _on_tick(self) -> None:
        self.tick(self.loop.now_ms)
        self._next_tick_ms += self.config.tick_ms
        if self._deploying:
            self.loop.at(self._next_tick_ms, self._on_tick)

    def tick(self, now_ms: float) -> None:
        """One control-loop step at simulated time ``now_ms``: start a
        due deploy, or advance the running one."""
        self._maybe_start_deploy(now_ms)
        if self._deployer is not None and self._deployer.active:
            self._deployer.tick(now_ms)

    def schedule_deploy(
        self,
        artifact: ModelArtifact,
        at_ms: float,
        slo: SLOPolicy | None = None,
    ) -> None:
        """Queue a rolling deploy to fire at simulated time ``at_ms``."""
        self._pending_deploys.append((at_ms, artifact, slo))
        self._pending_deploys.sort(key=lambda entry: entry[0])

    def _maybe_start_deploy(self, now_ms: float) -> None:
        if self._deployer is not None and self._deployer.active:
            return
        if not self._pending_deploys:
            return
        at_ms, artifact, slo = self._pending_deploys[0]
        if now_ms < at_ms:
            return
        self._pending_deploys.pop(0)
        self._deployer = Deployer(self.fleets, artifact, slo=slo)
        self._deploy_history.append(self._deployer)

    # -- replay ----------------------------------------------------------

    def replay(
        self, trace: list[InferenceRequest], pace: bool = True
    ) -> ClusterReport:
        """Drive an open-loop trace through the cluster, then retire
        every fleet and report.

        Arrivals are scheduled in
        :func:`~repro.serve.runtime.arrival_order`, whatever the order of
        ``trace``.  The control loop ticks while a deploy is scheduled
        or running, so until every scheduled deploy has fired and
        finished.  Every request arrives at its trace time on the
        simulated clock, so ``pace`` has no effect.

        Every generation, live or built later by a deploy or rollback,
        answers from the trace: one table per (artifact, engine), built
        when a generation on that artifact first serves.  Request ids
        must be distinct (``ConfigurationError`` otherwise).
        """
        self._answers.load(trace)
        self._submitted_ids.extend(request.request_id for request in trace)
        for request in sorted(trace, key=arrival_order):
            self.loop.at(request.arrival_ms, self._arrive, request)
        if self._deploying:
            self.loop.at(self._next_tick_ms, self._on_tick)
        self.loop.run()
        while self._fleets:
            self._remove_fleet(self._fleets[0])
        return self.report()

    # -- reporting -------------------------------------------------------

    def generation_reports(self) -> list[GenerationReport]:
        reports = []
        for fleet in self._fleets + self._retired_fleets:
            for index, model_id, report in fleet.generation_reports():
                reports.append(GenerationReport(
                    fleet=fleet.name, generation=index,
                    model_id=model_id, report=report,
                ))
        return reports

    @property
    def submitted_ids(self) -> list[int]:
        return list(self._submitted_ids)

    def deploy_events(self) -> list[DeployEvent]:
        return [
            event
            for deployer in self._deploy_history
            for event in deployer.events
        ]

    def report(self) -> ClusterReport:
        """Terminal cluster accounting; :meth:`replay` returns it."""
        generations = tuple(self.generation_reports())
        offered = sum(g.report.offered for g in generations)
        completed = sum(g.report.completed for g in generations)
        rejected = sum(g.report.rejected for g in generations)
        failed = sum(g.report.failed for g in generations)
        makespan = max(
            (g.report.makespan_ms for g in generations), default=0.0
        )
        latencies = [
            outcome.latency_ms
            for g in generations
            for outcome in g.report.outcomes
            if outcome.status == COMPLETED
        ]
        return ClusterReport(
            submitted=len(self.submitted_ids),
            offered=offered,
            completed=completed,
            rejected=rejected,
            failed=failed,
            makespan_ms=makespan,
            goodput_rps=(
                completed / (makespan / 1e3) if makespan > 0 else 0.0
            ),
            latency_ms=summarize(latencies),
            generations=generations,
            deploy_events=tuple(self.deploy_events()),
            router_policy=self.config.router_policy,
        )

    def chrome_trace(
        self, labels: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """Merged Chrome trace: one process per generation's collector."""
        collectors = [g.report.trace for g in self.generation_reports()]
        return merged_chrome_trace(collectors, labels)

"""Inference-serving runtime over a fleet of simulated MCU devices.

The subsystem turns single-shot ``DeployedModel.infer()`` calls into a
serving stack: content-addressed model registry with a compiled-kernel
cache (`registry`), a pool of replica boards (`pool`), bounded
policy-ordered scheduling with admission control and batching
(`scheduler`), fault injection plus retry-with-backoff (`faults`,
`runtime`), fleet metrics derived from each replay's records
(`metrics`), and open-loop synthetic traces (`trace`), all driven by
one discrete-event loop on the simulated clock (`events`).  See
``docs/serving.md`` for the architecture walk-through.
"""

from repro.serve.events import EventLoop
from repro.serve.faults import FaultInjector, FaultPlan
from repro.serve.pool import (
    DISPATCH_OVERHEAD_CYCLES,
    DeviceExecution,
    SimulatedDevice,
    build_pool,
)
from repro.serve.registry import (
    ModelArtifact,
    ModelRegistry,
    content_hash,
)
from repro.serve.request import (
    COMPLETED,
    FAILED,
    REJECTED,
    InferenceRequest,
    ServeOutcome,
)
from repro.serve.runtime import ServeConfig, ServeReport, ServeRuntime
from repro.serve.scheduler import (
    SCHEDULING_POLICIES,
    BoundedRequestQueue,
)
from repro.serve.trace import synthetic_trace
from repro.serve.tracing import (
    DEVICE_BUSY_KINDS,
    SPAN_KINDS,
    TERMINAL_KINDS,
    Span,
    TraceCollector,
    merged_chrome_trace,
    verify_trace_invariants,
)

__all__ = [
    "BoundedRequestQueue",
    "COMPLETED",
    "DEVICE_BUSY_KINDS",
    "DISPATCH_OVERHEAD_CYCLES",
    "DeviceExecution",
    "EventLoop",
    "FAILED",
    "FaultInjector",
    "FaultPlan",
    "InferenceRequest",
    "ModelArtifact",
    "ModelRegistry",
    "REJECTED",
    "SCHEDULING_POLICIES",
    "SPAN_KINDS",
    "ServeConfig",
    "ServeOutcome",
    "ServeReport",
    "ServeRuntime",
    "SimulatedDevice",
    "Span",
    "TERMINAL_KINDS",
    "TraceCollector",
    "build_pool",
    "content_hash",
    "merged_chrome_trace",
    "synthetic_trace",
    "verify_trace_invariants",
]

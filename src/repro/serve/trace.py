"""Synthetic open-loop arrival traces.

An *open-loop* load generator emits requests on its own clock regardless
of how fast the fleet drains them — the standard way to expose queueing
and admission-control behaviour (a closed loop self-throttles and hides
both).  Arrivals are Poisson: exponential inter-arrival gaps at a
configured mean rate, from a seeded generator so every replay of a trace
is identical.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.serve.request import InferenceRequest


def synthetic_trace(
    n_requests: int,
    rate_rps: float,
    input_shape: int,
    *,
    seed: int = 0,
    deadline_ms: float | None = None,
    input_scale: float = 1.0,
    inputs: np.ndarray | None = None,
) -> list[InferenceRequest]:
    """Build a Poisson arrival trace of ``n_requests`` at ``rate_rps``.

    ``rate_rps`` is the offered load in requests per simulated second;
    ``inf`` makes every request arrive at time 0.
    Input vectors are drawn from ``inputs`` (cycled) when given, else
    sampled uniformly in ``[0, input_scale)`` with ``input_shape``
    features.  ``deadline_ms`` is a *relative* deadline applied to every
    request (absolute deadline = arrival + deadline_ms).
    """
    if n_requests <= 0:
        raise ConfigurationError("trace needs at least one request")
    # Written as ``not x > 0`` so that NaN fails the checks too.
    if not rate_rps > 0:
        raise ConfigurationError("arrival rate must be positive")
    if deadline_ms is not None and not deadline_ms > 0:
        # A non-positive relative deadline is expired on arrival; catch
        # the misconfiguration here instead of shedding every request
        # deep inside the runtime.
        raise ConfigurationError(
            f"deadline_ms must be positive, got {deadline_ms}"
        )
    if seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    gaps_ms = rng.exponential(1_000.0 / rate_rps, size=n_requests)
    arrivals = np.cumsum(gaps_ms)
    if inputs is not None:
        inputs = np.asarray(inputs)
        if inputs.ndim != 2 or len(inputs) == 0:
            raise ConfigurationError("trace inputs must be a non-empty "
                                     "2-D array")
        if inputs.shape[1] != input_shape:
            # Mismatched features would otherwise fail request-by-request
            # inside device execution, long after trace construction.
            raise ConfigurationError(
                f"trace inputs have {inputs.shape[1]} features but "
                f"input_shape is {input_shape}"
            )
    trace = []
    for i in range(n_requests):
        if inputs is not None:
            x = inputs[i % len(inputs)]
        else:
            x = rng.uniform(
                0.0, input_scale, size=input_shape
            ).astype(np.float32)
        trace.append(
            InferenceRequest(
                request_id=i,
                x=x,
                arrival_ms=float(arrivals[i]),
                deadline_ms=(
                    float(arrivals[i]) + deadline_ms
                    if deadline_ms is not None else None
                ),
            )
        )
    return trace

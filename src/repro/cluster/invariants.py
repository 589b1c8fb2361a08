"""Cluster-scope invariant verification.

Extends the per-runtime :func:`~repro.serve.tracing.
verify_trace_invariants` to the whole cluster: conservation must hold
*summed across fleets and generations and through rolling deploys*, and
— the property a blue/green cutover is designed to guarantee — **no
request may be lost**: every id the cluster's data plane accepted shows
up as exactly one terminal outcome in exactly one generation, even when
that generation was swapped out and drained mid-replay.

Checks, in order:

1. every generation's own ``ServeReport`` passes the full
   single-runtime invariant suite (conservation, terminal uniqueness,
   device non-overlap, busy-time accounting, utilization bounds);
2. cluster conservation: Σ offered over generations == number of
   submissions the cluster recorded — a request is offered to exactly
   one generation, never zero (lost at cutover) and never two
   (double-offered by a re-route);
3. outcome-id ledger: the multiset of outcome ids across all
   generations equals the multiset of submitted ids — zero lost, zero
   duplicated, zero invented;
4. fleet stamping: every span carries the owning generation's
   namespace (``fleet-0``, ``fleet-0.g1``), so merged Perfetto exports
   attribute every track to the right fleet and generation.

Same contract as the serve-level verifier: returns a list of
human-readable violations, empty when every invariant holds.
"""

from __future__ import annotations

from collections import Counter

from repro.cluster.cluster import ClusterReport
from repro.cluster.fleet import generation_namespace
from repro.serve.tracing import verify_trace_invariants


def verify_cluster_invariants(
    report: ClusterReport,
    submitted_ids: list[int],
) -> list[str]:
    """Check every cluster-scope invariant; [] means all hold."""
    violations: list[str] = []

    # 1. every generation individually sound (full serve-level suite).
    for gen in report.generations:
        label = f"{gen.fleet}/g{gen.generation}"
        for violation in verify_trace_invariants(gen.report):
            violations.append(f"{label}: {violation}")

    # 2. cluster conservation against the submission ledger.
    if report.offered != len(submitted_ids):
        violations.append(
            f"cluster conservation violated: generations saw "
            f"{report.offered} offered but the cluster submitted "
            f"{len(submitted_ids)}"
        )
    if not report.conserved:
        violations.append(
            f"cluster conservation violated: "
            f"{report.completed} + {report.rejected} + "
            f"{report.failed} != {report.offered}"
        )

    # 3. zero lost requests — outcome ids match submitted ids exactly.
    outcome_ids = Counter(
        outcome.request_id
        for gen in report.generations
        for outcome in gen.report.outcomes
    )
    submitted = Counter(submitted_ids)
    lost = submitted - outcome_ids
    if lost:
        violations.append(
            f"{sum(lost.values())} request(s) lost: submitted but no "
            f"terminal outcome, e.g. ids "
            f"{sorted(lost.elements())[:5]}"
        )
    extra = outcome_ids - submitted
    if extra:
        violations.append(
            f"{sum(extra.values())} surplus outcome(s): duplicated or "
            f"invented terminal records, e.g. ids "
            f"{sorted(extra.elements())[:5]}"
        )

    # 4. every span stamped with its generation's fleet namespace.
    for gen in report.generations:
        want = generation_namespace(gen.fleet, gen.generation)
        bad = [
            span for span in gen.report.trace.spans()
            if span.fleet != want
        ]
        if bad:
            span = bad[0]
            violations.append(
                f"{len(bad)} span(s) in {want} mis-stamped, e.g. "
                f"{span.kind} (request {span.request_id}) carries "
                f"fleet {span.fleet!r}"
            )

    return violations

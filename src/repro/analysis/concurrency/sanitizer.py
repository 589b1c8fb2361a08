"""Runtime lock-order sanitizer: the static model, asserted live.

The static analyzer derives a total acquisition order over the lock
nodes it knows (:meth:`LockOrderGraph.topological_order`).  The
sanitizer wraps real ``threading.Lock`` objects in
:class:`SanitizedLock` shims that record, per thread, the stack of
held sanitized locks and flag:

- **order violations** — acquiring a lock that the static order says
  must come *before* one already held (the dynamic witness of a
  potential deadlock the static graph may have missed an edge for);
- **unmodeled nesting** (strict mode) — any nesting at all between two
  sanitized locks when the static graph has no edge between them, in
  either direction.  Running the PR 4 soaks strict proves the serve
  stack's locks really are leaf-level: never nested;
- **self-deadlock** — re-acquiring a held non-reentrant lock from the
  same thread raises immediately instead of hanging the suite.

Violations are collected, not raised (except self-deadlock), so a soak
run completes and the test asserts ``sanitizer.violations == []`` at
the end.  ``SanitizedLock`` implements the small protocol
``threading.Condition`` needs from its underlying lock (including
``_is_owned``), so ``threading.Condition(sanitizer.wrap(...))`` works.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass(frozen=True)
class OrderViolation:
    """One dynamic ordering violation (deduplicated by pair+kind)."""

    kind: str          # "order" | "unmodeled"
    held: str          # lock node already held
    acquired: str      # lock node being acquired
    thread: str

    def format(self) -> str:
        if self.kind == "order":
            return (
                f"[{self.thread}] acquired {self.acquired} while "
                f"holding {self.held}, but the static order requires "
                f"{self.acquired} first"
            )
        return (
            f"[{self.thread}] nested {self.held} -> {self.acquired}: "
            f"no such edge in the static lock-order graph"
        )


class SanitizedLock:
    """A lock shim that reports acquisitions to its sanitizer.

    Supports the full context-manager / acquire / release protocol and
    the private hooks ``threading.Condition`` probes for.  The wrapped
    object may be a ``Lock`` or ``RLock``.
    """

    def __init__(self, sanitizer: "LockOrderSanitizer", name: str,
                 inner) -> None:
        self._sanitizer = sanitizer
        self.name = name
        self._inner = inner
        self._reentrant = isinstance(
            inner, type(threading.RLock())
        )

    def acquire(self, blocking: bool = True, timeout: float = -1):
        self._sanitizer._before_acquire(self)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._sanitizer._did_acquire(self)
        return acquired

    def release(self) -> None:
        self._sanitizer._will_release(self)
        self._inner.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> bool:
        self.release()
        return False

    def locked(self) -> bool:
        return self._inner.locked()

    # -- protocol bits threading.Condition uses ------------------------

    def _is_owned(self) -> bool:
        return self in self._sanitizer._held_stack()

    def _release_save(self):
        # Condition.wait(): drop the lock (once; plain Lock semantics).
        self.release()
        return None

    def _acquire_restore(self, _state) -> None:
        self.acquire()

    def __repr__(self) -> str:             # pragma: no cover
        return f"SanitizedLock({self.name!r})"


class LockOrderSanitizer:
    """Checks dynamic acquisitions against a static lock order.

    ``order`` is the total order from
    :meth:`LockOrderGraph.topological_order`; ``edges`` the set of
    static ``(src, dst)`` pairs.  ``strict=True`` additionally flags
    any nesting with no static edge.  Locks wrapped but absent from
    ``order`` are appended at the end (they sort after every known
    lock, and strict mode will flag their nesting anyway).
    """

    def __init__(self, order, edges=(), strict: bool = False) -> None:
        self._rank = {name: i for i, name in enumerate(order)}
        self._edges = set(edges)
        self._strict = strict
        self._local = threading.local()
        self._mutex = threading.Lock()
        self._seen: set = set()
        self.violations: list = []

    # -- wrapping -------------------------------------------------------

    def wrap(self, name: str, inner=None) -> SanitizedLock:
        if inner is None:
            inner = threading.Lock()
        if name not in self._rank:
            self._rank[name] = len(self._rank)
        return SanitizedLock(self, name, inner)

    def condition(self, name: str) -> threading.Condition:
        """A Condition backed by a sanitized (plain) lock."""
        return threading.Condition(self.wrap(name))

    # -- bookkeeping ----------------------------------------------------

    def _held_stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _before_acquire(self, lock: SanitizedLock) -> None:
        stack = self._held_stack()
        if not lock._reentrant and any(h is lock for h in stack):
            raise RuntimeError(
                f"self-deadlock: {lock.name} re-acquired by "
                f"{threading.current_thread().name} while already held"
            )
        my_rank = self._rank.get(lock.name, len(self._rank))
        for held in stack:
            if held is lock:
                continue               # re-entrant re-acquire
            if self._rank.get(held.name, -1) > my_rank:
                self._record("order", held.name, lock.name)
            elif self._strict and (held.name, lock.name) not in \
                    self._edges and held.name != lock.name:
                self._record("unmodeled", held.name, lock.name)

    def _did_acquire(self, lock: SanitizedLock) -> None:
        self._held_stack().append(lock)

    def _will_release(self, lock: SanitizedLock) -> None:
        stack = self._held_stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is lock:
                del stack[i]
                return
        # Releasing a lock this thread never acquired through the shim
        # (e.g. handed over between threads): not an order problem.

    def _record(self, kind: str, held: str, acquired: str) -> None:
        thread = threading.current_thread().name
        key = (kind, held, acquired)
        with self._mutex:
            if key in self._seen:
                return
            self._seen.add(key)
            self.violations.append(OrderViolation(
                kind=kind, held=held, acquired=acquired, thread=thread,
            ))

    def report(self) -> str:
        with self._mutex:
            return "\n".join(v.format() for v in self.violations)


def sanitizer_for_report(report, strict: bool = False
                         ) -> LockOrderSanitizer:
    """Build a sanitizer from a :class:`ConcurrencyReport`."""
    return LockOrderSanitizer(
        order=report.graph.topological_order(),
        edges=set(report.graph.edges),
        strict=strict,
    )


def instrument_runtime(runtime, sanitizer: LockOrderSanitizer) -> None:
    """Swap a ServeRuntime's metric locks for sanitized wrappers, in place.

    Covers the metrics registry and every metric it hands out (metric
    locks are created lazily, so the registry's factory methods are
    shadowed to wrap them at creation).  The runtime itself holds no
    lock: it runs on its single-threaded event loop.
    """
    prefix = "repro.serve"
    registry = getattr(runtime, "metrics", None)
    if registry is not None and hasattr(registry, "_lock"):
        registry._lock = sanitizer.wrap(
            f"{prefix}.metrics.MetricsRegistry._lock", registry._lock
        )
        _wrap_metric_locks(registry, sanitizer, prefix)


def _wrap_metric_locks(registry, sanitizer, prefix) -> None:
    """Wrap existing metric locks and intercept lazily created ones."""
    for kind, bucket_name in (
        ("Counter", "_counters"),
        ("Gauge", "_gauges"),
        ("Histogram", "_histograms"),
    ):
        bucket = getattr(registry, bucket_name, None)
        if not isinstance(bucket, dict):
            continue
        for metric in bucket.values():
            if hasattr(metric, "_lock"):
                metric._lock = sanitizer.wrap(
                    f"{prefix}.metrics.{kind}._lock", metric._lock
                )

    originals = {
        name: getattr(registry, name)
        for name in ("counter", "gauge", "histogram")
        if hasattr(registry, name)
    }

    def shadow(name, kind):
        original = originals[name]

        def wrapped(*args, **kwargs):
            metric = original(*args, **kwargs)
            if hasattr(metric, "_lock") and not isinstance(
                metric._lock, SanitizedLock
            ):
                metric._lock = sanitizer.wrap(
                    f"{prefix}.metrics.{kind}._lock", metric._lock
                )
            return metric

        return wrapped

    for name, kind in (("counter", "Counter"), ("gauge", "Gauge"),
                       ("histogram", "Histogram")):
        if name in originals:
            setattr(registry, name, shadow(name, kind))

    # Rate views (created lazily too) carry their own leaf lock.
    if hasattr(registry, "rate_view"):
        original_rate_view = registry.rate_view

        def wrapped_rate_view(*args, **kwargs):
            view = original_rate_view(*args, **kwargs)
            if hasattr(view, "_lock") and not isinstance(
                view._lock, SanitizedLock
            ):
                view._lock = sanitizer.wrap(
                    f"{prefix}.metrics.RateView._lock", view._lock
                )
            return view

        registry.rate_view = wrapped_rate_view


def instrument_cluster(cluster, sanitizer: LockOrderSanitizer) -> None:
    """Swap a Cluster's model-registry lock for a sanitized wrapper.

    Everything else in a cluster runs on its single-threaded event loop.
    """
    registry = getattr(cluster, "registry", None)
    if registry is not None and hasattr(registry, "_lock") and \
            not isinstance(registry._lock, SanitizedLock):
        registry._lock = sanitizer.wrap(
            "repro.serve.registry.ModelRegistry._lock", registry._lock
        )

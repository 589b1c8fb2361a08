"""Runtime lock-order sanitizer: order checks, strict mode,
self-deadlock, Condition compatibility, and runtime instrumentation."""

import threading

import pytest

from repro.analysis.concurrency import (
    LockOrderSanitizer,
    SanitizedLock,
    analyze_paths,
    sanitizer_for_report,
)
from repro.analysis.concurrency.sanitizer import instrument_runtime


def make_sanitizer(strict=False, edges=()):
    return LockOrderSanitizer(
        order=["lock.A", "lock.B", "lock.C"], edges=edges, strict=strict,
    )


class TestOrderChecking:
    def test_in_order_nesting_is_clean(self):
        sanitizer = make_sanitizer(edges=[("lock.A", "lock.B")])
        a, b = sanitizer.wrap("lock.A"), sanitizer.wrap("lock.B")
        with a:
            with b:
                pass
        assert sanitizer.violations == []

    def test_reverse_nesting_is_flagged(self):
        sanitizer = make_sanitizer()
        a, b = sanitizer.wrap("lock.A"), sanitizer.wrap("lock.B")
        with b:
            with a:
                pass
        [violation] = sanitizer.violations
        assert violation.kind == "order"
        assert violation.held == "lock.B"
        assert violation.acquired == "lock.A"
        assert "static order" in violation.format()

    def test_violations_deduplicate_by_pair(self):
        sanitizer = make_sanitizer()
        a, b = sanitizer.wrap("lock.A"), sanitizer.wrap("lock.B")
        for _ in range(5):
            with b:
                with a:
                    pass
        assert len(sanitizer.violations) == 1

    def test_unknown_lock_sorts_last(self):
        sanitizer = make_sanitizer()
        c = sanitizer.wrap("lock.C")
        z = sanitizer.wrap("lock.Z")       # not in the static order
        with c:
            with z:
                pass
        assert sanitizer.violations == []
        with z:
            with c:
                pass
        assert len(sanitizer.violations) == 1

    def test_per_thread_stacks_are_independent(self):
        sanitizer = make_sanitizer()
        a, b = sanitizer.wrap("lock.A"), sanitizer.wrap("lock.B")
        barrier = threading.Barrier(2)

        def hold_a_only():
            with a:
                barrier.wait()
                barrier.wait()

        thread = threading.Thread(target=hold_a_only)
        thread.start()
        barrier.wait()
        # This thread holds nothing: taking B alone is clean even
        # while the other thread holds A.
        with b:
            pass
        barrier.wait()
        thread.join()
        assert sanitizer.violations == []


class TestStrictMode:
    def test_unmodeled_nesting_is_flagged(self):
        sanitizer = make_sanitizer(strict=True)
        a, b = sanitizer.wrap("lock.A"), sanitizer.wrap("lock.B")
        with a:
            with b:                        # in order, but no edge
                pass
        [violation] = sanitizer.violations
        assert violation.kind == "unmodeled"

    def test_modeled_edge_is_clean(self):
        sanitizer = make_sanitizer(
            strict=True, edges=[("lock.A", "lock.B")]
        )
        a, b = sanitizer.wrap("lock.A"), sanitizer.wrap("lock.B")
        with a:
            with b:
                pass
        assert sanitizer.violations == []


class TestSelfDeadlock:
    def test_reacquire_raises_instead_of_hanging(self):
        sanitizer = make_sanitizer()
        a = sanitizer.wrap("lock.A")
        with a:
            with pytest.raises(RuntimeError, match="self-deadlock"):
                a.acquire()

    def test_rlock_reacquire_is_fine(self):
        sanitizer = make_sanitizer()
        a = sanitizer.wrap("lock.A", threading.RLock())
        with a:
            with a:
                pass
        assert sanitizer.violations == []


class TestConditionCompatibility:
    def test_condition_over_sanitized_lock(self):
        sanitizer = make_sanitizer()
        cv = sanitizer.condition("lock.A")
        done = []

        def producer():
            with cv:
                done.append(True)
                cv.notify()

        with cv:
            thread = threading.Thread(target=producer)
            thread.start()
            while not done:
                cv.wait(timeout=1.0)
        thread.join()
        assert done == [True]
        assert sanitizer.violations == []

    def test_wait_releases_the_sanitized_lock(self):
        sanitizer = make_sanitizer()
        cv = sanitizer.condition("lock.A")
        b = sanitizer.wrap("lock.B")
        observed = []

        def prodder():
            # If wait() failed to release lock.A this would deadlock
            # (pytest-timeout not available; rely on cv.wait timeout).
            with cv:
                observed.append("locked")
                cv.notify()

        with cv:
            thread = threading.Thread(target=prodder)
            thread.start()
            cv.wait(timeout=2.0)
        thread.join()
        assert observed == ["locked"]
        # The held stack is balanced afterwards: taking B is clean.
        with b:
            pass
        assert sanitizer.violations == []


class TestInstrumentedRuntime:
    def test_soak_scenario_with_sanitizer(self, small_artifact,
                                          digits_small):
        """A replay through a fully instrumented runtime: the
        statically derived order holds, strictly (no serve lock is ever
        nested inside another)."""
        from pathlib import Path

        import repro
        from repro.serve import (
            ServeConfig,
            ServeRuntime,
            synthetic_trace,
            verify_trace_invariants,
        )

        report = analyze_paths([Path(repro.__file__).parent / "serve"])
        sanitizer = sanitizer_for_report(report, strict=True)
        runtime = ServeRuntime(
            small_artifact,
            ServeConfig(n_devices=2, max_queue_depth=64,
                        max_queue_wait_ms=None),
        )
        instrument_runtime(runtime, sanitizer)
        assert isinstance(runtime.metrics._lock, SanitizedLock)
        trace = synthetic_trace(
            48, 500.0, 64, seed=3, inputs=digits_small.x_test,
        )
        serve_report = runtime.replay(trace)
        assert isinstance(
            runtime.metrics.counter("requests.offered")._lock,
            SanitizedLock,
        )
        assert serve_report.offered == 48
        assert verify_trace_invariants(serve_report) == []
        assert sanitizer.violations == [], sanitizer.report()

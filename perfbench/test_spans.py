"""Tests for the benchmark's span recorder.

Run with ``python3 -m pytest perfbench/test_spans.py``.
"""

from __future__ import annotations

import sys
import threading
import time
import types

import pytest

from spans import Recorder, Span, layer_totals, self_times

PACKAGE = "spans_testpkg"


@pytest.fixture
def package():
    """A two-module package: ``core`` defines, ``user`` imports by name."""
    core = types.ModuleType(f"{PACKAGE}.core")

    def inner(delay):
        time.sleep(delay)
        return "inner"

    def outer(delay):
        time.sleep(delay)
        return core.inner(delay)

    class Worker:
        def work(self, request_id):
            return request_id * 2

    core.inner, core.outer, core.Worker = inner, outer, Worker
    user = types.ModuleType(f"{PACKAGE}.user")
    user.inner = inner                 # ``from core import inner``
    user.renamed = inner               # ``from core import inner as renamed``
    root = types.ModuleType(PACKAGE)
    modules = {PACKAGE: root, core.__name__: core, user.__name__: user}
    sys.modules.update(modules)
    yield types.SimpleNamespace(
        core=core, user=user, inner=inner, outer=outer,
        work=Worker.__dict__["work"],
    )
    for name in modules:
        sys.modules.pop(name, None)


def by_name(recorder):
    spans = {}
    for span in recorder.spans():
        spans.setdefault(span.name, []).append(span)
    return spans


def test_nested_spans_self_time(package):
    recorder = Recorder(PACKAGE)
    recorder.wrap(package.core, "outer", "outer")
    recorder.wrap(package.core, "inner", "inner")
    assert package.core.outer(0.02) == "inner"
    recorder.restore()

    spans = by_name(recorder)
    (outer,), (inner,) = spans["outer"], spans["inner"]
    assert inner.parent == outer.span_id
    assert outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end
    own = self_times(recorder.spans())
    assert own[inner.span_id] == pytest.approx(inner.duration)
    assert own[outer.span_id] == pytest.approx(
        outer.duration - inner.duration
    )
    assert own[outer.span_id] >= 0.015
    totals = layer_totals(recorder.spans())
    assert totals["outer"]["calls"] == 1
    assert totals["outer"]["self_s"] == pytest.approx(own[outer.span_id])


def test_self_time_merges_overlapping_children():
    parent = Span("p", 0.0, 10.0, 0, None, 1)
    children = [
        Span("c", 1.0, 4.0, 1, 0, 1),
        Span("c", 3.0, 6.0, 2, 0, 2),      # overlaps the first child
        Span("c", 9.0, 12.0, 3, 0, 2),     # runs past the parent's end
    ]
    own = self_times([parent, *children])
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0)


def test_concurrent_threads_keep_their_own_parents(package):
    recorder = Recorder(PACKAGE)
    recorder.wrap(package.core, "outer", "outer")
    recorder.wrap(package.core, "inner", "inner")
    n_threads, calls = 8, 25
    barrier = threading.Barrier(n_threads)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def hammer():
        barrier.wait(timeout=10)
        for _ in range(calls):
            package.core.outer(0.0)

    threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        recorder.restore()
    assert not any(thread.is_alive() for thread in threads)

    spans = recorder.spans()
    assert len(spans) == 2 * n_threads * calls
    assert len({span.span_id for span in spans}) == len(spans)
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        if span.name == "outer":
            assert span.parent is None
        else:
            parent = by_id[span.parent]
            assert parent.name == "outer"
            assert parent.thread == span.thread
    assert len({span.thread for span in spans}) == n_threads


def test_request_id_and_count_come_from_the_call(package):
    recorder = Recorder(PACKAGE)
    recorder.wrap(
        package.core.Worker, "work", "work",
        request_id=lambda args, kwargs: args[1],
        count=lambda args, kwargs, result: result,
    )
    assert package.core.Worker().work(21) == 42
    recorder.restore()
    (span,) = recorder.spans()
    assert (span.request_id, span.count) == (21, 42)


def test_restore_puts_back_every_binding(package):
    recorder = Recorder(PACKAGE)
    recorder.wrap(package.core, "inner", "inner")
    recorder.wrap(package.core.Worker, "work", "work")
    # Every module binding of the function is wrapped, under any name.
    for module, name in [(package.core, "inner"), (package.user, "inner"),
                         (package.user, "renamed")]:
        assert getattr(module, name) is not package.inner
    assert package.user.renamed(0.0) == "inner"
    assert recorder.spans()[0].name == "inner"
    # A module imported after wrapping binds the wrapper; restore finds it.
    late = types.ModuleType(f"{PACKAGE}.late")
    late.inner = package.core.inner
    sys.modules[late.__name__] = late
    try:
        recorder.restore()
        assert late.inner is package.inner
    finally:
        sys.modules.pop(late.__name__)
    assert package.core.inner is package.inner
    assert package.user.inner is package.inner
    assert package.user.renamed is package.inner
    assert package.core.Worker.__dict__["work"] is package.work
    # Restored code records nothing.
    before = len(recorder.spans())
    package.core.outer(0.0)
    package.core.Worker().work(1)
    assert len(recorder.spans()) == before


def test_context_manager_restores_on_error(package):
    with pytest.raises(RuntimeError):
        with Recorder(PACKAGE) as recorder:
            recorder.wrap(package.core, "inner", "inner")
            raise RuntimeError("boom")
    assert package.core.inner is package.inner


def test_write_emits_one_json_line_per_span(package, tmp_path):
    import json

    recorder = Recorder(PACKAGE)
    recorder.wrap(package.core, "inner", "inner")
    with recorder.span("root"):
        package.core.inner(0.0)
    recorder.restore()
    path = recorder.write(tmp_path / "spans.jsonl")
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["name"] for row in rows] == ["root", "inner"]
    assert rows[1]["parent"] == rows[0]["span_id"]

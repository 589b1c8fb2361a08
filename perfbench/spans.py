"""Host-time span recorder for the benchmark's traced runs.

The recorder times calls into the program's public functions from the
outside: :meth:`Recorder.wrap` replaces a function or method with a
timing wrapper at *every* module binding of it (callers import by name,
so ``generate_sparse`` is bound both in ``repro.deploy.size`` and in
``repro.deploy.artifact``), and :meth:`Recorder.restore` puts every
original back.  Spans stay in memory; :meth:`Recorder.write` dumps them
as JSON lines when the run ends.

Each span carries a name, host start/end (``time.perf_counter``), its
own id, the id of the span that was open on the same thread when it
started (its parent), the thread it ran on, and optionally a request id
and a work count extracted from the call's arguments or result.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

#: Only modules of the program under test are searched for bindings.
PACKAGE = "repro"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: int | None
    thread: int
    request_id: int | None = None
    count: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans around wrapped functions; restores them on exit."""

    def __init__(self, package: str = PACKAGE) -> None:
        self.package = package
        self._spans: list[Span] = []  # guarded_by: _lock
        self._next_id = 0  # guarded_by: _lock
        self._lock = threading.Lock()
        self._local = threading.local()
        #: wrapper -> original, for every function or method wrapped.
        self._originals: dict[Any, Any] = {}
        #: (owner, attribute) pairs of class methods wrapped in place.
        self._methods: list[tuple[type, str]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int | None]:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent

    def _close(
        self, name, start, span_id, parent, request_id=None, count=None
    ) -> None:
        end = time.perf_counter()
        self._stack().pop()
        span = Span(
            name=name, start=start, end=end, span_id=span_id,
            parent=parent, thread=threading.get_ident(),
            request_id=request_id, count=count,
        )
        with self._lock:
            self._spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of benchmark code."""
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, start, span_id, parent)

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    # -- wrapping ---------------------------------------------------------

    def _wrapper(
        self,
        original: Callable,
        name: str,
        request_id: Callable | None,
        count: Callable | None,
    ) -> Callable:
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id, parent = recorder._open()
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                recorder._close(
                    name, start, span_id, parent,
                    request_id(args, kwargs) if request_id else None,
                    count(args, kwargs, result) if count else None,
                )

        self._originals[traced] = original
        return traced

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        *,
        request_id: Callable[[tuple, dict], int] | None = None,
        count: Callable[[tuple, dict, Any], int] | None = None,
    ) -> None:
        """Time every call of ``owner.attribute`` as span ``name``.

        ``owner`` is a module of the package (the function is rebound in
        every loaded module of the package that binds the same object) or
        a class (the method is replaced on the class, where every
        instance looks it up).  ``request_id`` and ``count`` extract the
        span's request id and work count from the call's
        ``(args, kwargs)`` (and, for ``count``, its result; ``None`` when
        the call raised).
        """
        original = getattr(owner, attribute)
        wrapper = self._wrapper(original, name, request_id, count)
        if isinstance(owner, type):
            setattr(owner, attribute, wrapper)
            self._methods.append((owner, attribute))
            return
        for module in self._modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def restore(self) -> None:
        """Put back every original binding, including bindings of the
        wrappers that modules imported after :meth:`wrap` ran."""
        for owner, attribute in reversed(self._methods):
            wrapper = owner.__dict__[attribute]
            setattr(owner, attribute, self._originals[wrapper])
        self._methods.clear()
        for module in self._modules():
            for key, value in list(vars(module).items()):
                try:
                    original = self._originals.get(value)
                except TypeError:        # unhashable module attribute
                    continue
                if original is not None:
                    setattr(module, key, original)
        self._originals.clear()

    def _modules(self) -> list:
        prefix = self.package + "."
        return [
            module for name, module in list(sys.modules.items())
            if module is not None
            and (name == self.package or name.startswith(prefix))
        ]

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- analysis ---------------------------------------------------------

    def write(self, path: str | Path) -> Path:
        """Write every span as one JSON object per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in sorted(self.spans(), key=lambda s: s.start):
                handle.write(json.dumps(asdict(span)) + "\n")
        return path


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are the spans whose ``parent`` is the span; overlapping
    child intervals are merged first, and each is clipped to the parent.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.span_id, ()),
                            key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.span_id] = span.duration - covered
    return result


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed self seconds, summed counts."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        row = totals.setdefault(
            span.name, {"calls": 0, "self_s": 0.0, "count": 0}
        )
        row["calls"] += 1
        row["self_s"] += own[span.span_id]
        row["count"] += span.count or 0
    return totals

"""repro is single-threaded by construction.

Its parallelism is processes (``experiments.runner`` fans units out to
forked workers), so no module under ``src/repro`` may start, pool or
synchronise threads: no ``threading`` or ``_thread`` import, no
``ThreadPoolExecutor`` and no ``add_done_callback`` (whose callback can
run on an executor's manager thread).  The contract is written down in
``docs/architecture.md``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

THREAD_MODULES = {"threading", "_thread"}


def thread_uses(source: str) -> list[tuple[int, str]]:
    """``(line, what)`` for every thread construct in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in THREAD_MODULES:
                    found.append((node.lineno, f"import {alias.name}"))
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] in THREAD_MODULES:
                found.append((node.lineno, f"from {node.module} import"))
            for alias in node.names:
                if alias.name == "ThreadPoolExecutor":
                    found.append((node.lineno, "ThreadPoolExecutor"))
        elif isinstance(node, ast.Name) and node.id == "ThreadPoolExecutor":
            found.append((node.lineno, "ThreadPoolExecutor"))
        elif isinstance(node, ast.Attribute):
            if node.attr == "ThreadPoolExecutor":
                found.append((node.lineno, "ThreadPoolExecutor"))
            elif node.attr == "add_done_callback":
                found.append((node.lineno, "add_done_callback"))
    return found


def test_no_module_under_src_uses_threads():
    package = Path(repro.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 50
    offenders = [
        f"{path.relative_to(package.parent)}:{line}: {what}"
        for path in modules
        for line, what in thread_uses(path.read_text())
    ]
    assert offenders == [], "\n".join(offenders)


@pytest.mark.parametrize("source", [
    "import threading",
    "import threading as t",
    "import _thread",
    "from threading import Lock",
    "from concurrent.futures import ThreadPoolExecutor",
    "import concurrent.futures\nconcurrent.futures.ThreadPoolExecutor(2)",
    "future.add_done_callback(print)",
])
def test_each_thread_construct_is_found(source):
    assert thread_uses(source)


def test_process_pools_pass():
    source = (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "import multiprocessing\n"
        "with ProcessPoolExecutor(2) as pool:\n"
        "    pool.submit(print).result()\n"
    )
    assert thread_uses(source) == []

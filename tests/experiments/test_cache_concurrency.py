"""Concurrent access to the experiment cache.

Concurrent benchmark workers hammer one key: no interleaved partial
JSON on disk, compute runs at most once per process, every reader sees
the complete value.  Every hammer races real worker processes, forked
the way the parallel experiment runner forks them; repro itself runs
one thread per process.
"""

import json
import os
import time
import uuid
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.experiments import cache, runner

#: Seconds each hammer process keeps racing.
HAMMER_SECONDS = 0.5


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache.clear_memory_cache()
    yield tmp_path
    cache.clear_memory_cache()


def _fork_pool(workers: int) -> ProcessPoolExecutor:
    """Worker processes started the way ``runner.map_units`` starts
    them (fork where available)."""
    return ProcessPoolExecutor(
        max_workers=workers, mp_context=runner._mp_context()
    )


def _write_until(path: str, blob: str, deadline: float) -> int:
    """Publish ``blob`` at ``path`` over and over until ``deadline``."""
    writes = 0
    while writes == 0 or time.monotonic() < deadline:
        cache._write_atomic(Path(path), blob)
        writes += 1
    return writes


def _read_until(path: str, deadline: float) -> tuple[int, int]:
    """Parse ``path`` until ``deadline``: (complete reads, partial reads).

    Keeps going past the deadline until one read found the file, so a
    reader that started late still checks a published entry.
    """
    reads = partial = 0
    while reads == 0 or time.monotonic() < deadline:
        try:
            text = Path(path).read_text()
        except FileNotFoundError:
            continue
        try:
            json.loads(text)
        except json.JSONDecodeError:
            partial += 1
        else:
            reads += 1
    return reads, partial


class TestCachedJsonConcurrency:
    def test_concurrent_process_style_writers_never_corrupt(
        self, isolated_cache
    ):
        # Two writer processes (no shared memo) publish the same key
        # through the atomic protocol while a third process reads it:
        # the file is always complete JSON.
        path = str(isolated_cache / "contended.json")
        blob_a = json.dumps({"who": "a", "data": list(range(2000))})
        blob_b = json.dumps({"who": "b", "data": list(range(2000))})
        deadline = time.monotonic() + HAMMER_SECONDS
        with _fork_pool(3) as pool:
            writers = [
                pool.submit(_write_until, path, blob, deadline)
                for blob in (blob_a, blob_b)
            ]
            reader = pool.submit(_read_until, path, deadline)
            writes = [f.result(timeout=60) for f in writers]
            reads, partial = reader.result(timeout=60)
        assert min(writes) > 0 and reads > 0
        assert partial == 0
        assert json.loads(Path(path).read_text())["who"] in ("a", "b")
        assert list(isolated_cache.glob("*.tmp")) == []

    def test_corrupt_entry_recomputed(self, isolated_cache):
        (isolated_cache / "broken.json").write_text("{not json")
        value = cache.cached_json("broken", lambda: {"ok": True})
        assert value == {"ok": True}
        assert json.loads(
            (isolated_cache / "broken.json").read_text()
        ) == {"ok": True}


# -- cross-process ------------------------------------------------------------

_MP_PAYLOAD = {"rows": list(range(400)), "who": "any"}


def _mp_hammer(cache_root: str, sentinel_dir: str) -> list:
    """One worker process: hit the same key repeatedly.

    Every actual computation drops a pid-stamped sentinel file, so the
    parent can count computations per process after the race.
    """
    os.environ["REPRO_CACHE_DIR"] = cache_root
    cache.clear_memory_cache()  # forked children share the parent memo
    pid = os.getpid()

    def compute():
        stamp = f"compute-{pid}-{uuid.uuid4().hex}"
        (Path(sentinel_dir) / stamp).touch()
        return _MP_PAYLOAD

    return [
        cache.cached_json("mp-hammered", compute) for _ in range(5)
    ]


class TestCachedJsonAcrossProcesses:
    def test_one_key_hammered_by_many_processes(self, isolated_cache,
                                                tmp_path):
        """N real processes race one cold key, runner-style.

        Across processes several may compute before the first publish
        (last writer wins, all wrote equal bytes) — but each process
        computes at most once, the published file is always complete
        JSON, and no temp files leak.
        """
        sentinel_dir = tmp_path / "sentinels"
        sentinel_dir.mkdir()
        workers = 6
        with _fork_pool(workers) as pool:
            futures = [
                pool.submit(
                    _mp_hammer, str(isolated_cache), str(sentinel_dir)
                )
                for _ in range(workers)
            ]
            results = [f.result(timeout=60) for f in futures]

        # Every read in every process saw the complete value.
        assert all(
            value == _MP_PAYLOAD
            for worker_values in results
            for value in worker_values
        )
        # At least one process computed; no process computed twice.
        per_pid: dict[str, int] = {}
        for sentinel in sentinel_dir.iterdir():
            pid = sentinel.name.split("-")[1]
            per_pid[pid] = per_pid.get(pid, 0) + 1
        assert per_pid
        assert all(count == 1 for count in per_pid.values())
        # The published entry is one complete, parseable JSON document.
        on_disk = json.loads(
            (isolated_cache / "mp-hammered.json").read_text()
        )
        assert on_disk == _MP_PAYLOAD
        assert list(isolated_cache.glob("*.tmp")) == []

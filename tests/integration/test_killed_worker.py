"""A killed pool worker ends a sweep in one ``error:`` line, and the
rerun resumes from the cache to the bytes of an uninterrupted sweep.

Runs the real CLI in subprocesses: one ``repro search --jobs 2`` sweep
uninterrupted, one whose first live worker is SIGKILLed once a stage-2
unit is published, and the rerun of the killed command on its cache.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
SWEEP = (
    "search", "--jobs", "2", "--count", "8", "--stage2-epochs", "3",
    "--boards", "STM32F072RB", "Kinetis-K64F",
)


def _command(out: Path) -> list[str]:
    return [sys.executable, "-m", "repro", *SWEEP, "--out", str(out)]


def _env(cache: Path) -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env["REPRO_CACHE_DIR"] = str(cache)
    env["REPRO_MAX_EPOCHS"] = "6"
    env.pop("REPRO_JOBS", None)
    return env


def _children(pid: int) -> list[int]:
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except OSError:
        return []
    return [int(child) for child in text.split()]


def _run(out: Path, cache: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        _command(out), env=_env(cache), capture_output=True, text=True,
        timeout=300,
    )


def _kill_a_worker(out: Path, cache: Path) -> tuple[int, str]:
    """Run the sweep, SIGKILL one pool worker once a stage-2 unit is
    published, and return the exit status and stderr."""
    sweep = subprocess.Popen(
        _command(out), env=_env(cache), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True,
    )
    killed = None
    try:
        deadline = time.monotonic() + 240
        while killed is None and sweep.poll() is None:
            assert time.monotonic() < deadline, "no worker to kill"
            workers = _children(sweep.pid)
            if workers and any(cache.glob("search-v2-s2-*.json")):
                os.kill(workers[0], signal.SIGKILL)
                killed = workers[0]
            else:
                time.sleep(0.005)
        _, stderr = sweep.communicate(timeout=120)
    finally:
        if sweep.poll() is None:
            sweep.kill()
            sweep.wait()
    assert killed is not None, "the sweep ended before a worker was killed"
    for worker in _children(sweep.pid):
        os.kill(worker, signal.SIGKILL)
    return sweep.returncode, stderr


def test_killed_worker_errors_once_and_the_rerun_resumes(tmp_path):
    fresh = _run(tmp_path / "fresh.json", tmp_path / "fresh-cache")
    assert fresh.returncode == 0, fresh.stderr

    cache = tmp_path / "killed-cache"
    resumed = tmp_path / "resumed.json"
    status, stderr = _kill_a_worker(resumed, cache)
    assert status == 1, stderr
    assert "Traceback" not in stderr
    errors = [line for line in stderr.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1, stderr
    assert "'search-stage" in errors[0] and "rerun" in errors[0]
    assert not resumed.exists()

    rerun = _run(resumed, cache)
    assert rerun.returncode == 0, rerun.stderr
    assert resumed.read_bytes() == (tmp_path / "fresh.json").read_bytes()

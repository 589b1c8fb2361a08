"""EXPERIMENTS.md carries what `repro report` prints for the analytic
figures, verbatim.

Table 1, Fig. 2 and Fig. 5 need no training, so the real CLI renders
them in about a second.  A change that moves one of these figures must
regenerate the paper record in the same change.  Training-backed
figures take minutes cold and stay unpinned.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
FIGURES = ("table1", "fig2", "fig5")


def test_analytic_figures_match_the_paper_record(tmp_path):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env.pop("REPRO_JOBS", None)
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "report", "--figures", *FIGURES],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    record = (REPO / "EXPERIMENTS.md").read_text()
    blocks = [b for b in completed.stdout.split("\n\n") if b.strip()]
    assert len(blocks) >= len(FIGURES)
    missing = [b for b in blocks if b.strip() not in record]
    assert not missing, (
        "repro report prints blocks EXPERIMENTS.md lacks; regenerate "
        "the record:\n\n" + "\n\n".join(missing)
    )

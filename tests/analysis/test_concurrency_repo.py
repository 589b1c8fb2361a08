"""The analyzer applied to this repository's own source.

Pins the PR 6 acceptance criteria: the serve lock graph is acyclic,
the committed baseline covers every remaining finding, and each true
positive fixed in this PR stays fixed (pre-fix, each regression test
here fails on the corresponding unguarded property read).
"""

from pathlib import Path

import repro
import repro.serve
from repro.analysis.concurrency import (
    analyze_paths,
    load_baseline,
    split_against_baseline,
)
from repro.analysis.concurrency.model import (
    CHECK_THEN_ACT,
    LOCK_ORDER_CYCLE,
    TORN_READ,
    UNGUARDED_READ,
    UNGUARDED_RMW,
    UNGUARDED_WRITE,
)

SRC = Path(repro.__file__).parent
REPO_ROOT = Path(__file__).resolve().parents[2]

DATA_RACE_RULES = {
    UNGUARDED_READ, UNGUARDED_WRITE, UNGUARDED_RMW,
    TORN_READ, CHECK_THEN_ACT,
}


class TestServePackage:
    def setup_method(self):
        self.report = analyze_paths([SRC / "serve"])

    def test_no_data_race_findings(self):
        races = [
            v for v in self.report.active if v.rule in DATA_RACE_RULES
        ]
        assert races == [], "\n".join(v.format() for v in races)

    def test_lock_graph_is_acyclic(self):
        assert self.report.graph.cycles() == []
        assert LOCK_ORDER_CYCLE not in self.report.by_rule()

    def test_serve_locks_are_leaf_level(self):
        """No serve lock is ever acquired while holding another —
        the property the strict runtime sanitizer asserts dynamically
        during the soaks."""
        assert dict(self.report.graph.edges) == {}

    def test_every_serve_lock_is_modeled(self):
        expected = {"repro.serve.registry.ModelRegistry._lock"}
        assert expected <= self.report.graph.nodes

    def test_event_loop_state_is_lock_free(self):
        """The runtime shares nothing across threads: its arrivals, the
        queue, the outcome ledger and the span collector live on the
        event loop."""
        assert not {
            "repro.serve.runtime.ServeRuntime._arrival_lock",
            "repro.serve.runtime.ServeRuntime._outcome_lock",
            "repro.serve.scheduler.BoundedRequestQueue._cv",
            "repro.serve.tracing.TraceCollector._lock",
        } & self.report.graph.nodes


class TestFixedTruePositives:
    """Each fix from this PR, pinned by the rule that found it.

    Pre-fix, the registry's ``__len__`` read its field without the
    registry's lock and the analyzer reported unguarded-read;
    re-introducing that read fails the test.
    """

    def _unguarded_reads(self, module: str) -> set:
        report = analyze_paths([SRC / "serve" / module])
        return {
            (v.function, v.subject)
            for v in report.active if v.rule == UNGUARDED_READ
        }

    def test_registry_len_reads_under_lock(self):
        assert self._unguarded_reads("registry.py") == set()


class TestExperimentsLocks:
    """Satellite: cache/runner module locks are declared and honoured."""

    def setup_method(self):
        self.report = analyze_paths([SRC / "experiments"])

    def test_memo_map_guard_is_declared(self):
        guard = self.report.guards[("repro.experiments.cache", "_MEMO")]
        assert guard.declared
        assert guard.lock == "repro.experiments.cache._MEMO_LOCK"

    def test_memo_never_published_outside_memo_lock(self):
        """Every non-init access of _MEMO and _KEY_LOCKS holds
        _MEMO_LOCK — the memo map cannot be published outside it."""
        for field in ("_MEMO", "_KEY_LOCKS"):
            guard = self.report.guards[
                ("repro.experiments.cache", field)
            ]
            assert guard.guarded_accesses == guard.accesses, field
        leaks = [
            v for v in self.report.active
            if v.rule in DATA_RACE_RULES
            and v.subject in ("_MEMO", "_KEY_LOCKS")
        ]
        assert leaks == []

    def test_runs_guard_is_declared(self):
        guard = self.report.guards[("repro.experiments.runner", "_RUNS")]
        assert guard.declared
        assert guard.lock == "repro.experiments.runner._RUNS_LOCK"

    def test_key_lock_factory_orders_before_memo_lock(self):
        """The one real nesting in the repo: per-key lock, then the
        registry lock — present, and in only that direction."""
        edges = set(self.report.graph.edges)
        assert (
            "repro.experiments.cache._key_lock()",
            "repro.experiments.cache._MEMO_LOCK",
        ) in edges
        assert (
            "repro.experiments.cache._MEMO_LOCK",
            "repro.experiments.cache._key_lock()",
        ) not in edges


class TestRepoBaseline:
    def test_repo_is_clean_against_committed_baseline(self):
        """`repro lint-concurrency` exits 0: no finding outside the
        checked-in baseline, and no stale baseline entries."""
        report = analyze_paths([SRC])
        baseline = load_baseline(REPO_ROOT / "concurrency_baseline.json")
        new, _known, stale = split_against_baseline(
            report.active, baseline
        )
        assert new == [], "\n".join(
            f"{v.format()}  [{v.fingerprint}]" for v in new
        )
        assert stale == []

    def test_baseline_reasons_are_meaningful(self):
        baseline = load_baseline(REPO_ROOT / "concurrency_baseline.json")
        assert baseline, "baseline should carry the known exceptions"
        for fingerprint, reason in baseline.items():
            assert len(reason) > 20, (
                f"{fingerprint}: baseline entries need a real "
                f"justification, not a placeholder"
            )

    def test_whole_repo_graph_is_acyclic(self):
        report = analyze_paths([SRC])
        assert report.graph.cycles() == []

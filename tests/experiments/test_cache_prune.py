"""Cache pruning: prefix/staleness selection and hammer safety.

Sits beside test_cache_concurrency.py on purpose: pruning is the one
operation that *deletes* from the shared disk cache, so the interesting
failure modes are races against concurrent writers and other pruners,
which run as separate processes.
"""

import json
import time

import pytest

from repro.experiments import cache
from tests.experiments.test_cache_concurrency import (
    HAMMER_SECONDS,
    _fork_pool,
    _write_until,
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cache.clear_memory_cache()
    yield tmp_path
    cache.clear_memory_cache()


def _seed_entries(root, keys):
    for key in keys:
        (root / f"{key}.json").write_text(json.dumps({"key": key}))


def _prune_until(prefix: str, deadline: float) -> int:
    """Prune ``prefix`` over and over until ``deadline``."""
    sweeps = 0
    while sweeps == 0 or time.monotonic() < deadline:
        cache.prune_cache(prefix=prefix)
        sweeps += 1
    return sweeps


def _prune_at(prefix: str, start: float) -> cache.PruneReport:
    """Prune ``prefix`` once, as soon as the clock reaches ``start``."""
    time.sleep(max(0.0, start - time.monotonic()))
    return cache.prune_cache(prefix=prefix)


class TestSchemaParsing:
    def test_versioned_keys_parse(self):
        assert cache.schema_of("fig6-v2-search-c24") == ("fig6", 2)
        assert cache.schema_of("search-v1-s2-digits") == ("search", 1)
        assert cache.schema_of("a_b.c-v10-x") == ("a_b.c", 10)

    def test_unversioned_keys_do_not(self):
        assert cache.schema_of("plain-key") is None
        assert cache.schema_of("v2-x") is None
        assert cache.schema_of("fig6-v-x") is None


class TestPruneSelection:
    KEYS = [
        "fig6-v1-old-a",
        "fig6-v1-old-b",
        "fig6-v2-new",
        "search-v1-x",
        "plain-key",
    ]

    def test_entries_listing_respects_prefix(self, isolated_cache):
        _seed_entries(isolated_cache, self.KEYS)
        assert cache.cache_entries() == sorted(self.KEYS)
        assert cache.cache_entries("fig6-") == [
            "fig6-v1-old-a", "fig6-v1-old-b", "fig6-v2-new",
        ]

    def test_stale_only_keeps_newest_schema_version(self, isolated_cache):
        _seed_entries(isolated_cache, self.KEYS)
        report = cache.prune_cache(stale_only=True)
        assert report.deleted == ("fig6-v1-old-a", "fig6-v1-old-b")
        # The newest fig6 version, the sole search version, and the
        # unversioned key all survive.
        assert cache.cache_entries() == [
            "fig6-v2-new", "plain-key", "search-v1-x",
        ]

    def test_prefix_prune_deletes_only_matching(self, isolated_cache):
        _seed_entries(isolated_cache, self.KEYS)
        report = cache.prune_cache(prefix="search-v1-")
        assert report.deleted == ("search-v1-x",)
        assert report.bytes_reclaimed > 0
        assert "search-v1-x" not in cache.cache_entries()

    def test_dry_run_deletes_nothing(self, isolated_cache):
        _seed_entries(isolated_cache, self.KEYS)
        report = cache.prune_cache(dry_run=True)
        assert report.dry_run
        assert set(report.deleted) == set(self.KEYS)
        assert cache.cache_entries() == sorted(self.KEYS)

    def test_prune_purges_memo_so_value_is_not_resurrected(
        self, isolated_cache
    ):
        _seed_entries(isolated_cache, ["res-v1-x"])
        # Warm the in-process memo from disk.
        assert cache.cached_json("res-v1-x", lambda: {"fresh": 1}) == {
            "key": "res-v1-x"
        }
        cache.prune_cache(prefix="res-")
        # A pruned key recomputes — the stale memo must not serve the
        # deleted entry's value.
        assert cache.cached_json(
            "res-v1-x", lambda: {"fresh": 1}
        ) == {"fresh": 1}


class TestPruneHammer:
    def test_writers_and_pruners_race_without_errors(self, isolated_cache):
        """Writer processes repopulate keys while two pruner processes
        sweep them.

        The invariants: nobody raises (unlink tolerates already-gone
        files), every surviving file is complete JSON, and a final
        prune leaves the directory empty of matching entries.
        """
        keys = [f"hammer-v1-{i}" for i in range(8)]
        payload = json.dumps({"pad": "x" * 256})
        deadline = time.monotonic() + HAMMER_SECONDS
        with _fork_pool(len(keys) + 2) as pool:
            futures = [
                pool.submit(
                    _write_until, str(isolated_cache / f"{key}.json"),
                    payload, deadline,
                )
                for key in keys
            ] + [
                pool.submit(_prune_until, "hammer-", deadline)
                for _ in range(2)
            ]
            counts = [f.result(timeout=60) for f in futures]
        assert min(counts) > 0

        # Whatever survived the race is complete JSON (atomic writes
        # and whole-file unlinks never expose partial entries).
        for path in isolated_cache.glob("hammer-*.json"):
            assert json.loads(path.read_text())["pad"] == "x" * 256
        final = cache.prune_cache(prefix="hammer-")
        assert not final.dry_run
        assert cache.cache_entries("hammer-") == []
        # No temp files leaked from the atomic-write protocol.
        assert list(isolated_cache.glob("*.tmp")) == []

    def test_two_pruners_one_set_of_keys(self, isolated_cache):
        """Two pruner processes sweep the same static keys; deletions
        overlap but neither raises and the union removes everything."""
        keys = [f"dual-v1-{i}" for i in range(400)]
        _seed_entries(isolated_cache, keys)
        start = time.monotonic() + 0.1
        with _fork_pool(2) as pool:
            futures = [
                pool.submit(_prune_at, "dual-", start) for _ in range(2)
            ]
            reports = [f.result(timeout=60) for f in futures]

        assert cache.cache_entries("dual-") == []
        # Both pruners finished; together they account for every key
        # (overlap is fine — unlink(missing_ok=True) absorbs it).
        assert set(reports[0].deleted) | set(reports[1].deleted) == set(
            keys
        )

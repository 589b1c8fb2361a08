"""Result caching for training-heavy experiments.

Two layers:

- an in-process memo (figures sharing trained models within one pytest
  session never retrain),
- an optional JSON disk cache under ``.repro_cache/`` (or
  ``$REPRO_CACHE_DIR``) so repeated benchmark invocations skip the
  multi-minute training sweeps.  Only plain metric dictionaries are
  persisted — never model weights — and deleting the directory is always
  safe (results are recomputed).

Concurrency: the disk layer is safe against concurrent benchmark
workers.  Writes go to a *uniquely named* temporary file in the cache
directory and are published with an atomic ``os.replace`` — readers can
never observe a partial JSON file, and two workers racing on one key
each publish a complete file (last writer wins, both wrote the same
result).

Keys embed an experiment schema version; bump the version constant in the
experiment module when its protocol changes.  Entries from retired
schema versions are never read again — :func:`prune_cache` (the
``repro cache-prune`` subcommand) lists and deletes them, by key prefix
or by keeping only each schema's newest version present on disk.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

_MEMO: dict[str, Any] = {}


def cache_dir() -> Path:
    root = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_atomic(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` without a partial-write window.

    The temp file is created with a unique name (two racing writers
    never share one), filled, flushed, then atomically renamed over the
    destination.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.stem}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def cached_json(key: str, compute: Callable[[], Any]) -> Any:
    """Memoized + disk-cached JSON-serializable computation."""
    if key in _MEMO:
        return _MEMO[key]
    path = cache_dir() / f"{key}.json"
    if path.exists():
        try:
            value = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            path.unlink(missing_ok=True)  # corrupt entry: recompute
        else:
            _MEMO[key] = value
            return value
    value = compute()
    _write_atomic(path, json.dumps(value, indent=1))
    _MEMO[key] = value
    return value


def clear_memory_cache() -> None:
    _MEMO.clear()


# -- pruning ----------------------------------------------------------------

#: ``"<name>-v<version>-..."`` — the schema-versioned key convention
#: every cached experiment and search unit follows (e.g. ``fig6-v2``,
#: ``search-v1``).
_SCHEMA_RE = re.compile(r"^([A-Za-z0-9_.]+)-v(\d+)-")


def schema_of(key: str) -> tuple[str, int] | None:
    """``(name, version)`` of a schema-versioned key, else ``None``."""
    match = _SCHEMA_RE.match(key)
    if match is None:
        return None
    return match.group(1), int(match.group(2))


def cache_entries(prefix: str = "") -> list[str]:
    """Keys of the on-disk entries starting with ``prefix``, sorted."""
    return sorted(
        path.stem
        for path in cache_dir().glob("*.json")
        if path.stem.startswith(prefix)
    )


@dataclass(frozen=True)
class PruneReport:
    """What a prune pass looked at and what it removed."""

    scanned: int
    deleted: tuple[str, ...]
    kept: tuple[str, ...]
    dry_run: bool
    bytes_reclaimed: int = 0

    @property
    def deleted_count(self) -> int:
        return len(self.deleted)


def _stale_keys(keys: list[str]) -> list[str]:
    """Keys whose schema has a newer version present on disk.

    Keys without a recognizable ``name-vN-`` schema are never
    considered stale — staleness is only meaningful relative to a
    newer version of the *same* schema.
    """
    newest: dict[str, int] = {}
    for key in keys:
        schema = schema_of(key)
        if schema is not None:
            name, version = schema
            newest[name] = max(newest.get(name, 0), version)
    stale = []
    for key in keys:
        schema = schema_of(key)
        if schema is not None and schema[1] < newest[schema[0]]:
            stale.append(key)
    return stale


def prune_cache(
    prefix: str = "",
    stale_only: bool = False,
    dry_run: bool = False,
) -> PruneReport:
    """Delete (or list, with ``dry_run``) disk-cache entries.

    ``prefix`` restricts the scan to keys starting with it;
    ``stale_only`` further restricts deletion to entries whose schema
    version is superseded by a newer one present on disk.  With neither
    restriction every scanned entry is deleted — sweeps regenerate
    anything they need, so pruning is always safe, merely wasteful when
    overdone.

    Hammer-safe: deletion uses ``unlink(missing_ok=True)`` so races with
    concurrent writers/pruners never raise, and the in-process memo
    drops the same keys so a stale memo can't resurrect a deleted
    entry's value in this process.
    """
    keys = cache_entries(prefix)
    doomed = _stale_keys(keys) if stale_only else list(keys)
    doomed_set = set(doomed)
    kept = tuple(k for k in keys if k not in doomed_set)
    if dry_run:
        return PruneReport(
            scanned=len(keys), deleted=tuple(doomed), kept=kept,
            dry_run=True,
        )
    root = cache_dir()
    reclaimed = 0
    for key in doomed:
        path = root / f"{key}.json"
        try:
            reclaimed += path.stat().st_size
        except OSError:
            pass  # already gone: a concurrent pruner won the race
        path.unlink(missing_ok=True)
    for key in doomed:
        _MEMO.pop(key, None)
    return PruneReport(
        scanned=len(keys), deleted=tuple(doomed), kept=kept,
        dry_run=False, bytes_reclaimed=reclaimed,
    )

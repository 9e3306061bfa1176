"""Content-addressed on-disk cache for oracle results.

Keys hash the canonical JSON serialization of the ideal together with the
operation name, its parameters and the oracle version, so identical
subcomputations met again across sweeps (powers, localizations) are read
back instead of recomputed, and entries written by an older oracle are not.
Writes go through a temp file plus atomic rename: concurrent readers never
see partial entries, and concurrent writers of the same key are idempotent.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .ideals import MonomialIdeal

ENV_CACHE_DIR = "COMPEDGE_CACHE_DIR"
# Bump whenever an oracle's kernel or the form of a stored result changes,
# so that entries written by an earlier oracle are never served.
ORACLE_VERSION = 4


def cache_key(I: MonomialIdeal, operation: str, params: dict) -> str:
    payload = {
        "ideal": I.to_json_dict(),
        "operation": operation,
        "oracle_version": ORACLE_VERSION,
        "params": {k: params[k] for k in sorted(params)},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class DiskCache:
    """One JSON file per entry, sharded by the first two key characters."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str):
        path = self._path(key)
        try:
            with open(path, "r") as fh:
                return json.load(fh)
        except (FileNotFoundError, ValueError):
            # ValueError covers bytes that are not UTF-8 and text that is not JSON
            return None

    def put(self, key: str, value) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(value, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

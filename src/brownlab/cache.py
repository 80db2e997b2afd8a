"""Content-addressed cache for exact search results.

Entries are JSON files named by the SHA-256 of their canonical key, each
recording the key, the producing version and only what the search found:
its witness (run-length body and length), node count and wall time; the
CLI re-checks the witness and rebuilds the printed result from it.  Writes
go through a temp file and an atomic rename; unreadable entries, and those
of another key or version, are ignored and recomputed, never trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

CACHE_ENV_VAR = "BROWNLAB_CACHE"
CACHE_VERSION = "brownlab-0.2.0"


def resolve_cache_dir(flag_value: Optional[str] = None) -> Path:
    """Cache directory: explicit flag, then $BROWNLAB_CACHE, then the
    platform default under the user cache root."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    root = os.environ.get("XDG_CACHE_HOME")
    base = Path(root) if root else Path.home() / ".cache"
    return base / "brownlab"


def _digest(key: dict) -> str:
    canonical = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    def __init__(self, directory: Path):
        self.directory = Path(directory)

    def _path(self, key: dict) -> Path:
        return self.directory / f"{_digest(key)}.json"

    def get(self, key: dict) -> Optional[dict]:
        path = self._path(key)
        try:
            entry = json.loads(path.read_text())
        except (OSError, RecursionError, ValueError):
            return None
        if (not isinstance(entry, dict) or entry.get("key") != key
                or entry.get("version") != CACHE_VERSION):
            return None
        result = entry.get("result")
        return result if isinstance(result, dict) else None

    def put(self, key: dict, result: dict) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        entry = {"key": key, "result": result, "version": CACHE_VERSION}
        payload = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

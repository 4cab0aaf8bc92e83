"""Content-addressed result cache for sweep cells.

Each cell's artifact is stored under
``<cache_dir>/<key[:2]>/<key>.json`` where ``key`` is the SHA-256 of the
cell's canonical config JSON **plus** a code fingerprint, so a cache hit
is guaranteed to be the artifact an identical run would produce: change
any config field *or any line of the simulator* and the key moves.
Re-running a sweep therefore only pays for the cells that are new or
invalidated -- partial sweeps are incremental for free.

The code fingerprint is the SHA-256 of every ``*.py`` file in the
installed ``repro`` package (path + content), computed once per process.
Set ``REPRO_CODE_VERSION`` to pin it explicitly (e.g. in CI, to share a
cache across machines with identical trees but different install
layouts).  ``REPRO_CACHE_DIR`` overrides the default ``.repro-cache/``
root.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from typing import Dict, Optional

from repro.sweep.spec import canonical_json

#: Default cache root, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

_CODE_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """Digest of the repro package sources (cached per process)."""
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        pinned = os.environ.get("REPRO_CODE_VERSION")
        if pinned:
            _CODE_FINGERPRINT = pinned
        else:
            import repro

            root = pathlib.Path(repro.__file__).resolve().parent
            h = hashlib.sha256()
            for path in sorted(root.rglob("*.py")):
                h.update(str(path.relative_to(root)).encode())
                h.update(b"\0")
                h.update(path.read_bytes())
            _CODE_FINGERPRINT = h.hexdigest()
    return _CODE_FINGERPRINT


class ResultCache:
    """File-backed cell cache keyed by config content + code version."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = pathlib.Path(
            root or os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        )

    def key_for(self, config_dict: Dict) -> str:
        """Cache key of one cell: sha256(canonical config + code)."""
        payload = canonical_json(config_dict) + "|" + code_fingerprint()
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict]:
        """Stored artifact for ``key``, or None on miss/corruption."""
        path = self._path(key)
        try:
            with open(path) as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None

    def put(self, key: str, payload: Dict) -> None:
        """Atomically store ``payload`` (tmp file + rename)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                # One-shot dumps takes the C encoder; json.dump's chunked
                # Python encoder leaves a reference cycle per call.
                fh.write(json.dumps(payload))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

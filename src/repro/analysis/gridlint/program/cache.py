"""Content-hash incremental cache (``.gridlint-cache.json``).

Per file the cache stores: the source's SHA-256, the file-local
findings (GL000-GL007, *before* pragma/baseline filtering), the
serialised pragma suppression table, the extracted
:class:`~repro.analysis.gridlint.program.model.ModuleInfo` facts, and
the program-rule findings partitioned by what can invalidate them:

* ``closure`` — GL101/GL102/GL105 (depend on everything the module
  transitively imports; key: digest over the import closure's hashes);
* ``global``  — GL103 (cancel paths may live in *importers*; key:
  digest over every file in the run).

Invalidation therefore flows through the import graph: editing a leaf
module re-parses one file but invalidates the closure-keyed findings
of every module that (transitively) imports it, while modules outside
that reverse-closure reuse their cached results untouched.

The cache is versioned; any schema or rule change bumps
:data:`CACHE_SCHEMA` and silently discards stale caches.  A corrupt or
unreadable cache degrades to a cold run, never to an error.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

from repro.analysis.gridlint.program.model import MODEL_VERSION

__all__ = ["AnalysisCache", "CACHE_SCHEMA", "file_digest"]

#: Bump on any change to extraction, rules, or cache layout.
CACHE_SCHEMA = f"gridlint-cache/3+model{MODEL_VERSION}"


def file_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def combine_digests(parts: list[str]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\n")
    return digest.hexdigest()


class AnalysisCache:
    """Load/store per-file analysis results keyed by content hashes."""

    def __init__(self, path: str | None) -> None:
        self.path = path
        self.files: dict[str, dict[str, Any]] = {}
        self.dirty = False
        if path is not None and os.path.exists(path):
            try:
                with open(path, encoding="utf-8") as handle:
                    data = json.load(handle)
                if data.get("schema") == CACHE_SCHEMA:
                    self.files = data.get("files", {})
            except (OSError, ValueError):
                self.files = {}

    @property
    def enabled(self) -> bool:
        return self.path is not None

    def entry_for(self, path: str, digest: str) -> dict[str, Any] | None:
        """The cached entry for ``path`` if its content still matches."""
        entry = self.files.get(path)
        if entry is not None and entry.get("hash") == digest:
            return entry
        return None

    def store_parse(self, path: str, digest: str,
                    local: list[dict[str, Any]],
                    pragmas: dict[str, Any],
                    info: dict[str, Any] | None) -> dict[str, Any]:
        """Record a fresh parse; program parts start empty."""
        entry: dict[str, Any] = {
            "hash": digest, "local": local, "pragmas": pragmas,
            "info": info,
        }
        self.files[path] = entry
        self.dirty = True
        return entry

    def program_findings(self, entry: dict[str, Any], part: str,
                         key: str) -> list[dict[str, Any]] | None:
        """Cached program findings of one part, if the key matches."""
        stored = entry.get(f"program_{part}")
        if stored is not None and stored.get("key") == key:
            findings = stored.get("findings")
            if isinstance(findings, list):
                return findings
        return None

    def store_program(self, entry: dict[str, Any], part: str, key: str,
                      findings: list[dict[str, Any]]) -> None:
        entry[f"program_{part}"] = {"key": key, "findings": findings}
        self.dirty = True

    def prune(self, keep: set[str]) -> None:
        """Drop entries for files no longer part of the run."""
        stale = set(self.files) - keep
        for path in sorted(stale):
            del self.files[path]
            self.dirty = True

    def save(self) -> None:
        if self.path is None or not self.dirty:
            return
        payload = {"schema": CACHE_SCHEMA, "files": self.files}
        tmp = f"{self.path}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, separators=(",", ":"))
            os.replace(tmp, self.path)
            self.dirty = False
        except OSError:
            try:
                os.remove(tmp)
            except OSError:
                pass

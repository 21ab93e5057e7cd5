"""The program-analysis driver: parse, cache, resolve, run rules.

``analyze_project`` is the one entry point.  Cold path: every file is
parsed (in parallel across processes when the batch is large enough),
file-local rules run per file, facts are extracted, the project model
is built and GL101-GL105 run over it.  Warm path: per-file content
hashes match the cache, so parses are skipped wholesale; the
program-rule keys (import-closure digest for GL101/GL102/GL105,
whole-run digest for GL103) are recomputed from cached
closure lists *without* materialising the model, and when everything
matches the run never builds a single AST.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.analysis.gridlint.engine import _context_for, collect_files
from repro.analysis.gridlint.findings import Finding
from repro.analysis.gridlint.pragmas import PragmaMap, parse_pragmas
from repro.analysis.gridlint.program.cache import (
    AnalysisCache,
    combine_digests,
    file_digest,
)
from repro.analysis.gridlint.program.dimensions import check_gl102
from repro.analysis.gridlint.program.guards import check_gl103
from repro.analysis.gridlint.program.model import (
    ModuleInfo,
    extract_module,
)
from repro.analysis.gridlint.program.project import ProjectModel
from repro.analysis.gridlint.program.retries import check_gl105
from repro.analysis.gridlint.program.taint import check_gl101
from repro.analysis.gridlint.rules import check_tree

__all__ = ["ProgramRunStats", "analyze_project", "parse_one"]

#: Program-finding partitions and the rules they carry (see cache.py).
_PARTS = ("closure", "global")


@dataclass
class ProgramRunStats:
    """What one run did — the incremental-cache observability hook."""

    files: int = 0
    #: Files parsed fresh this run vs. served from the cache.
    parses: int = 0
    parse_reused: int = 0
    #: Per program-part: module names recomputed this run.
    recomputed: dict[str, list[str]] = field(default_factory=dict)
    #: Per program-part: count of modules served from the cache.
    reused: dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        parts = ", ".join(
            f"{part}: {len(self.recomputed.get(part, []))} fresh / "
            f"{self.reused.get(part, 0)} cached"
            for part in _PARTS
        )
        return (
            f"{self.files} files ({self.parses} parsed, "
            f"{self.parse_reused} cached); program [{parts}]"
        )


def parse_one(path: str) -> dict[str, Any]:
    """Parse + lint + extract one file.  Multiprocessing-safe worker.

    Returns a JSON-serialisable record; parse failures degrade to a
    GL000 finding with ``info: None`` (the module drops out of the
    program model but file-local reporting still works).
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        source = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as error:
        return {
            "path": path, "hash": None,
            "local": [{
                "path": path, "line": 1, "col": 0, "code": "GL000",
                "message": f"cannot read file: {error}",
            }],
            "pragmas": PragmaMap().as_dict(), "info": None,
        }
    digest = file_digest(data)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return {
            "path": path, "hash": digest,
            "local": [{
                "path": path, "line": error.lineno or 1,
                "col": error.offset or 0, "code": "GL000",
                "message": f"syntax error: {error.msg}",
            }],
            "pragmas": PragmaMap().as_dict(), "info": None,
        }
    local = check_tree(tree, _context_for(path))
    pragmas = parse_pragmas(source.splitlines())
    pragmas.expand_multiline(tree)
    info = extract_module(path, source)
    return {
        "path": path, "hash": digest,
        "local": [f.as_dict() for f in local],
        "pragmas": pragmas.as_dict(),
        "info": info.as_dict(),
    }


def _parse_many(paths: list[str], jobs: int) -> list[dict[str, Any]]:
    """Parse a batch, across processes when it is worth the forking."""
    workers = jobs if jobs > 0 else (os.cpu_count() or 1)
    if len(paths) >= 16 and workers > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor
            chunk = max(4, len(paths) // (workers * 4))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(parse_one, paths, chunksize=chunk))
        except (OSError, ImportError, RuntimeError):
            pass  # no usable process pool: fall through to serial
    return [parse_one(path) for path in paths]


def _program_rules(model: ProjectModel) -> dict[str, dict[str, list[Finding]]]:
    """Run GL101-GL103 and GL105; findings keyed by part then module."""
    gl101 = check_gl101(model)
    gl102 = check_gl102(model)
    gl105 = check_gl105(model)
    closure: dict[str, list[Finding]] = {}
    for name in sorted(set(gl101) | set(gl102) | set(gl105)):
        closure[name] = sorted(
            gl101.get(name, []) + gl102.get(name, [])
            + gl105.get(name, [])
        )
    return {
        "closure": closure,
        "global": check_gl103(model),
    }


def analyze_project(
    paths: Sequence[str],
    *,
    program: bool = True,
    cache: AnalysisCache | None = None,
    jobs: int = 0,
    respect_pragmas: bool = True,
) -> tuple[list[Finding], ProgramRunStats]:
    """Lint ``paths`` with file-local and (optionally) program rules.

    Returns unfiltered findings (pragmas applied, but no select/ignore
    or baseline — the CLI layers those) plus run statistics.
    """
    if cache is None:
        cache = AnalysisCache(None)
    files = collect_files(paths)
    stats = ProgramRunStats(files=len(files))
    records: dict[str, dict[str, Any]] = {}
    to_parse: list[str] = []
    for path in files:
        try:
            with open(path, "rb") as handle:
                digest = file_digest(handle.read())
        except OSError:
            digest = None
        entry = cache.entry_for(path, digest) if digest else None
        if entry is not None:
            records[path] = entry
            stats.parse_reused += 1
        else:
            to_parse.append(path)
    for result in _parse_many(to_parse, jobs):
        path = result["path"]
        entry = cache.store_parse(
            path, result["hash"], result["local"],
            result["pragmas"], result["info"],
        )
        if result["info"] is not None:
            entry["module"] = result["info"]["module"]
        records[path] = entry
        stats.parses += 1

    findings: list[Finding] = []
    for path in files:
        for item in records[path]["local"]:
            findings.append(Finding(**item))

    if program:
        findings.extend(_run_program(files, records, cache, stats))

    if respect_pragmas:
        by_path: dict[str, PragmaMap] = {}
        kept: list[Finding] = []
        for finding in findings:
            pragmas = by_path.get(finding.path)
            if pragmas is None:
                entry = records.get(finding.path)
                pragmas = PragmaMap.from_dict(
                    entry["pragmas"] if entry else {}
                )
                by_path[finding.path] = pragmas
            if not pragmas.suppresses(finding.line, finding.code):
                kept.append(finding)
        findings = kept

    cache.prune(set(files))
    cache.save()
    return sorted(findings), stats


def _run_program(files: list[str], records: dict[str, dict[str, Any]],
                 cache: AnalysisCache,
                 stats: ProgramRunStats) -> list[Finding]:
    """The incremental program-rule pipeline (see module docstring)."""
    # Module name and digest per analysable file (info present).
    module_entry: dict[str, dict[str, Any]] = {}
    module_digest: dict[str, str] = {}
    for path in files:
        entry = records[path]
        info = entry.get("info")
        if info is None or entry.get("hash") is None:
            continue
        name = entry.get("module") or info["module"]
        entry["module"] = name
        module_entry[name] = entry
        module_digest[name] = entry["hash"]

    global_key = combine_digests(sorted(
        f"{name}:{digest}" for name, digest in module_digest.items()
    ))

    def closure_key(names: list[str]) -> str:
        return combine_digests(sorted(
            f"{name}:{module_digest.get(name, '')}" for name in names
        ))

    # Decide, per part, which modules need recomputation.
    need: dict[str, list[str]] = {part: [] for part in _PARTS}
    cached: dict[str, dict[str, list[Finding]]] = {
        part: {} for part in _PARTS
    }
    for name in sorted(module_entry):
        entry = module_entry[name]
        stored_closure = entry.get("closure")
        keys = {
            "closure": (
                closure_key(stored_closure)
                if isinstance(stored_closure, list) else ""
            ),
            "global": global_key,
        }
        for part in _PARTS:
            found = (
                cache.program_findings(entry, part, keys[part])
                if keys[part] else None
            )
            if found is None:
                need[part].append(name)
            else:
                cached[part][name] = [Finding(**d) for d in found]
                stats.reused[part] = stats.reused.get(part, 0) + 1

    out: list[Finding] = []
    if any(need.values()):
        model = ProjectModel(
            ModuleInfo.from_dict(module_entry[name]["info"])
            for name in sorted(module_entry)
        )
        fresh = _program_rules(model)
        for part in _PARTS:
            for name in need[part]:
                entry = module_entry[name]
                closure = sorted(model.import_closure(name))
                entry["closure"] = closure
                key = {
                    "closure": closure_key(closure),
                    "global": global_key,
                }[part]
                found = fresh[part].get(name, [])
                cache.store_program(
                    entry, part, key, [f.as_dict() for f in found]
                )
                cached[part][name] = found
            stats.recomputed[part] = list(need[part])
    else:
        for part in _PARTS:
            stats.recomputed[part] = []
    for part in _PARTS:
        for name in sorted(cached[part]):
            out.extend(cached[part][name])
    return out

"""Whole-program (interprocedural) analysis layer for gridlint.

The file-local rules (GL001-GL007, :mod:`repro.analysis.gridlint.rules`)
see one AST at a time; this package parses all of ``src/`` once into a
*project model* — module graph, symbol table and a heuristic call graph
— and runs rules that need to see across call boundaries:

* GL101 — determinism taint: wall-clock / ``random`` / environment
  reads propagated through assignments, returns and calls until they
  reach kernel scheduling, RNG seeding or trace output.
* GL102 — unit-dimension inference: seconds vs bytes vs bytes/s vs
  Mbps, seeded from ``repro.units.DIMENSIONS`` plus a parameter-name
  lexicon; flags dimension-mismatched call arguments and arithmetic.
* GL103 — timer-guard leak proofs: a ``guard_tag``-ed timer with no
  reachable ``cancel()`` path on any alias anywhere in the project.
* GL105 — unthrottled retry loops: a ``for``/``while`` that
  (transitively) re-drives the raw data channel with no backoff,
  delay or attempt timeout per iteration; ``repro.gridftp`` itself is
  the sanctioned pacing layer and is exempt.

The model is extracted per module into
:class:`~repro.analysis.gridlint.program.model.ModuleInfo` facts from
the same tree the file-local rules walk;
:func:`repro.analysis.gridlint.lint_paths` runs both layers.
"""

from repro.analysis.gridlint.program.model import ModuleInfo, extract_module
from repro.analysis.gridlint.program.project import ProjectModel

__all__ = [
    "ModuleInfo",
    "ProjectModel",
    "extract_module",
]

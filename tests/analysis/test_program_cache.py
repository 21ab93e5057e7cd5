"""Incremental caching: reuse, invalidation through the import graph,
warm-run speed, and corrupt-cache recovery."""

import json
import os
import time

from repro.analysis.gridlint.program import analyze_project
from repro.analysis.gridlint.program.cache import AnalysisCache

LEAF = "X = 1\n"
MID = "from leaf import X\nY = X\n"
TOP = "import mid\nZ = 3\n"
LONER = "W = 4\n"


def write_tree(root):
    for name, text in [
        ("leaf.py", LEAF), ("mid.py", MID),
        ("top.py", TOP), ("loner.py", LONER),
    ]:
        with open(os.path.join(root, name), "w") as handle:
            handle.write(text)


def run(root, cache_path):
    return analyze_project([str(root)], cache=AnalysisCache(cache_path))


def test_warm_run_reuses_everything(tmp_path):
    write_tree(tmp_path)
    cache_path = str(tmp_path / "cache.json")
    _, cold = run(tmp_path, cache_path)
    assert cold.parses == 4 and cold.parse_reused == 0
    _, warm = run(tmp_path, cache_path)
    assert warm.parses == 0 and warm.parse_reused == 4
    for part in ("closure", "global"):
        assert warm.recomputed.get(part, []) == []
        assert warm.reused.get(part, 0) == 4


def test_edit_invalidates_through_import_chain(tmp_path):
    write_tree(tmp_path)
    cache_path = str(tmp_path / "cache.json")
    run(tmp_path, cache_path)
    # Edit the leaf: its importers (mid, top) must re-run the
    # closure-keyed rules; loner must not.
    with open(tmp_path / "leaf.py", "w") as handle:
        handle.write("X = 2\n")
    _, stats = run(tmp_path, cache_path)
    assert stats.parses == 1  # only leaf.py re-parsed
    assert set(stats.recomputed["closure"]) == {"leaf", "mid", "top"}
    assert stats.reused["closure"] == 1  # loner untouched
    # GL103 evidence can live anywhere: global part recomputes fully.
    assert len(stats.recomputed["global"]) == 4


def test_edit_of_leaf_importer_spares_the_leaf(tmp_path):
    write_tree(tmp_path)
    cache_path = str(tmp_path / "cache.json")
    run(tmp_path, cache_path)
    with open(tmp_path / "top.py", "w") as handle:
        handle.write("import mid\nZ = 30\n")
    _, stats = run(tmp_path, cache_path)
    assert set(stats.recomputed["closure"]) == {"top"}
    assert stats.reused["closure"] == 3


def test_findings_identical_cold_and_warm(tmp_path):
    bad = (
        "class W:\n"
        "    def __init__(self, sim):\n"
        "        self.sim = sim\n"
        "    def arm(self):\n"
        "        h = self.sim.schedule(5.0, self.arm)\n"
        "        h.guard_tag = 'leak'\n"
    )
    with open(tmp_path / "leak.py", "w") as handle:
        handle.write(bad)
    cache_path = str(tmp_path / "cache.json")
    cold_findings, _ = run(tmp_path, cache_path)
    warm_findings, warm = run(tmp_path, cache_path)
    assert warm.parses == 0
    assert cold_findings == warm_findings
    assert [f.code for f in warm_findings] == ["GL103"]


def test_corrupt_cache_degrades_to_cold_run(tmp_path):
    write_tree(tmp_path)
    cache_path = str(tmp_path / "cache.json")
    with open(cache_path, "w") as handle:
        handle.write("{not json")
    findings, stats = run(tmp_path, cache_path)
    assert stats.parses == 4
    # And the rewritten cache is valid JSON again.
    with open(cache_path) as handle:
        assert json.load(handle)["files"]


def test_schema_change_invalidates_cache(tmp_path):
    write_tree(tmp_path)
    cache_path = str(tmp_path / "cache.json")
    run(tmp_path, cache_path)
    with open(cache_path) as handle:
        payload = json.load(handle)
    payload["schema"] = "gridlint-cache/0+model0"
    with open(cache_path, "w") as handle:
        json.dump(payload, handle)
    _, stats = run(tmp_path, cache_path)
    assert stats.parses == 4


def test_pruned_entries_drop_deleted_files(tmp_path):
    write_tree(tmp_path)
    cache_path = str(tmp_path / "cache.json")
    run(tmp_path, cache_path)
    os.remove(tmp_path / "loner.py")
    run(tmp_path, cache_path)
    with open(cache_path) as handle:
        payload = json.load(handle)
    assert not any("loner" in path for path in payload["files"])


def test_warm_run_is_much_faster_over_src():
    """Acceptance floor: warm incremental >= 5x faster than cold."""
    cache_path = ".gridlint-perf-cache.json"
    try:
        start = time.perf_counter()
        cold_findings, cold = analyze_project(
            ["src/"], cache=AnalysisCache(cache_path)
        )
        cold_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        warm_findings, warm = analyze_project(
            ["src/"], cache=AnalysisCache(cache_path)
        )
        warm_elapsed = time.perf_counter() - start
    finally:
        if os.path.exists(cache_path):
            os.remove(cache_path)
    assert warm.parses == 0
    assert cold_findings == warm_findings
    assert warm_elapsed * 5 <= cold_elapsed, (
        f"warm {warm_elapsed:.3f}s vs cold {cold_elapsed:.3f}s"
    )

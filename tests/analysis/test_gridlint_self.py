"""The reproduction's own tree must pass its own linter."""

import os

from repro.analysis.gridlint import collect_files, lint_paths

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
SRC = os.path.join(REPO_ROOT, "src", "repro")


def test_source_tree_exists():
    assert os.path.isdir(SRC)


def test_src_tree_is_gridlint_clean():
    """Zero findings under every rule, file-local and GL101-GL105."""
    findings = lint_paths([SRC])
    assert findings == [], "\n".join(str(f) for f in findings)


def test_collect_files_covers_the_tree():
    files = collect_files([SRC])
    assert len(files) > 40
    assert all(path.endswith(".py") for path in files)
    assert files == sorted(files)

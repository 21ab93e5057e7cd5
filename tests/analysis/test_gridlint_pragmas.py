"""Pragma handling: line scope, file scope, `all`, and --no-pragmas."""

import os

from repro.analysis.gridlint import lint_paths, lint_source

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def test_pragma_fixture_is_fully_suppressed():
    path = os.path.join(FIXTURES, "pragmas.py")
    assert lint_paths([path]) == []


def test_no_pragmas_reveals_suppressed_findings():
    path = os.path.join(FIXTURES, "pragmas.py")
    codes = sorted(f.code for f in lint_paths([path], respect_pragmas=False))
    assert codes == ["GL001", "GL005"]


def test_line_pragma_only_covers_its_line():
    source = (
        "import time\n"
        "a = time.time()  # gridlint: disable=GL001 -- reason\n"
        "b = time.time()\n"
    )
    findings = lint_source(source)
    assert [(f.code, f.line) for f in findings] == [("GL001", 3)]


def test_line_pragma_with_multiple_codes():
    source = (
        "import time\n"
        "def f(x=[]):  # gridlint: disable=GL001,GL005 -- reason\n"
        "    return time.time()\n"
    )
    findings = lint_source(source)
    assert [(f.code, f.line) for f in findings] == [("GL001", 3)]


def test_disable_all_on_one_line():
    source = "def f(x=[], y={}):  # gridlint: disable=all\n    return x, y\n"
    assert lint_source(source) == []


def test_file_pragma_suppresses_everywhere():
    source = (
        "# gridlint: disable-file=GL005 -- fixture\n"
        "def f(x=[]):\n"
        "    return x\n"
        "def g(y={}):\n"
        "    return y\n"
    )
    assert lint_source(source) == []


def test_file_pragma_leaves_other_codes_alone():
    source = (
        "# gridlint: disable-file=GL005 -- fixture\n"
        "import time\n"
        "def f(x=[]):\n"
        "    return time.time()\n"
    )
    assert [f.code for f in lint_source(source)] == ["GL001"]


def test_malformed_pragma_is_ignored():
    source = "def f(x=[]):  # gridlint: disable=banana\n    return x\n"
    assert [f.code for f in lint_source(source)] == ["GL005"]


def test_pragma_covers_multiline_statement():
    """A pragma on line 1 of a wrapped call covers its continuations."""
    source = (
        "import time\n"
        "value = max(  # gridlint: disable=GL001 -- harness timing\n"
        "    0.0,\n"
        "    time.time(),\n"
        ")\n"
    )
    assert lint_source(source) == []


def test_multiline_statement_without_pragma_still_flags():
    source = (
        "import time\n"
        "value = max(\n"
        "    0.0,\n"
        "    time.time(),\n"
        ")\n"
    )
    assert [(f.code, f.line) for f in lint_source(source)] == [("GL001", 4)]


def test_compound_statement_pragma_covers_header_only():
    """A pragma on an `if` header must not blanket its whole body."""
    source = (
        "import time\n"
        "if (0  # gridlint: disable=GL001 -- header check\n"
        "        < time.time()):\n"
        "    x = time.time()\n"
    )
    findings = lint_source(source)
    assert [(f.code, f.line) for f in findings] == [("GL001", 4)]


def test_pragma_on_multiline_def_covers_signature_not_body():
    source = (
        "def f(\n"
        "    x=[],\n"
        "    y={},\n"
        "):  # pragma below belongs to the header\n"
        "    z = []\n"
        "    return x, y, z\n"
    )
    # Two mutable defaults on the signature, suppressed from line 1.
    suppressed = (
        "def f(  # gridlint: disable=GL005 -- fixture\n"
        "    x=[],\n"
        "    y={},\n"
        "):\n"
        "    def g(a=[]):\n"
        "        return a\n"
        "    return x, y, g\n"
    )
    assert [f.code for f in lint_source(source)] == ["GL005", "GL005"]
    findings = lint_source(suppressed)
    assert [(f.code, f.line) for f in findings] == [("GL005", 5)]

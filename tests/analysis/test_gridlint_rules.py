"""Per-rule positive/negative fixtures for the gridlint catalog."""

import os

import pytest

from repro.analysis.gridlint import lint_paths, lint_source

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def lint_fixture(path, **kwargs):
    """File-local findings for one fixture file."""
    with open(path, encoding="utf-8") as handle:
        return lint_source(handle.read(), path=path, **kwargs)


def codes_in(path, **kwargs):
    return [f.code for f in lint_fixture(path, **kwargs)]


@pytest.mark.parametrize("name,code,count", [
    ("gl001_bad.py", "GL001", 4),
    ("gl002_bad.py", "GL002", 3),
    ("gl003_bad.py", "GL003", 4),
    ("gl004_bad.py", "GL004", 5),
    ("gl005_bad.py", "GL005", 4),
    ("gl006_bad.py", "GL006", 3),
    ("gl007_bad.py", "GL007", 4),
])
def test_bad_fixture_flags_expected_rule(name, code, count):
    found = codes_in(fixture(name))
    assert found == [code] * count


@pytest.mark.parametrize("name", [
    "gl001_ok.py", "gl002_ok.py", "gl003_ok.py",
    "gl004_ok.py", "gl005_ok.py", "gl006_ok.py", "gl007_ok.py",
])
def test_ok_fixture_is_clean(name):
    assert codes_in(fixture(name)) == []
    # Clean under the whole-program rules too, not only file-locally.
    assert lint_paths([fixture(name)]) == []


def test_syntax_error_yields_gl000():
    findings = lint_paths([fixture("syntax_error.py")])
    assert [f.code for f in findings] == ["GL000"]
    assert "syntax error" in findings[0].message


def test_findings_carry_location():
    findings = lint_fixture(fixture("gl001_bad.py"))
    first = findings[0]
    assert first.path.endswith("gl001_bad.py")
    assert first.line > 1
    assert "time.time" in first.message


def test_aliased_wall_clock_import_is_caught():
    findings = lint_source(
        "import time as t\n\ndef f():\n    return t.monotonic()\n"
    )
    assert [f.code for f in findings] == ["GL001"]


def test_rng_module_itself_is_exempt():
    source = "import random\n\nrng = random.Random(1)\n"
    flagged = lint_source(source, path="somewhere/streams.py")
    assert [f.code for f in flagged] == ["GL002", "GL002"]
    exempt = lint_source(source, path="src/repro/sim/random_streams.py")
    assert exempt == []


def test_units_module_itself_is_exempt():
    source = "MiB = 1024.0 * 1024.0\n"
    assert lint_source(source, path="other.py") != []
    assert lint_source(source, path="src/repro/units.py") == []


def test_sorted_set_iteration_is_clean():
    source = "def f(s):\n    for x in sorted({1, 2}):\n        yield x\n"
    assert lint_source(source) == []


def test_gridftp_package_may_call_datachannel_raw():
    source = (
        "from repro.gridftp.datachannel import run_data_transfer\n"
        "\n"
        "def fetch(grid, payload):\n"
        "    yield from run_data_transfer(\n"
        "        grid, 'a', 'b', payload, mode='stream')\n"
    )
    flagged = lint_source(source, path="src/repro/experiments/raw.py")
    assert [f.code for f in flagged] == ["GL007", "GL007"]
    exempt = lint_source(source, path="src/repro/gridftp/coallocation.py")
    assert exempt == []


def test_reassigned_name_loses_set_taint():
    source = (
        "def f(names):\n"
        "    items = {1, 2}\n"
        "    items = sorted(items)\n"
        "    for x in items:\n"
        "        yield x\n"
    )
    assert lint_source(source) == []

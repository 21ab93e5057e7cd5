"""Fact extraction and call-graph resolution for the project model."""

import ast

from repro.analysis.gridlint.program.model import (
    extract_module,
    module_name_for_path,
)
from repro.analysis.gridlint.program.project import ProjectModel


def build(sources):
    """sources: {path: source} -> ProjectModel."""
    return ProjectModel(
        extract_module(path, ast.parse(text)) for path, text in sources.items()
    )


def resolve_first(model, module, qualname, pick=None):
    """Resolve the first (or ``pick``-matching) call in a function."""
    info = model.modules[module]
    fn = info.functions[qualname]
    calls = fn.calls
    if pick is not None:
        calls = [c for c in calls if pick(c)]
    return model.resolve_call(calls[0], info, fn)


def test_module_name_mapping():
    assert module_name_for_path("src/repro/sim/kernel.py") == "repro.sim.kernel"
    assert module_name_for_path("src/repro/units.py") == "repro.units"
    assert module_name_for_path("/tmp/scratch/helper.py") == "helper"


def test_self_method_resolution():
    model = build({"src/repro/a.py": (
        "class Worker:\n"
        "    def run(self):\n"
        "        self.step()\n"
        "    def step(self):\n"
        "        pass\n"
    )})
    assert resolve_first(model, "repro.a", "Worker.run") == (
        "repro.a:Worker.step"
    )


def test_inherited_method_resolution():
    model = build({"src/repro/a.py": (
        "class Base:\n"
        "    def step(self):\n"
        "        pass\n"
        "class Worker(Base):\n"
        "    def run(self):\n"
        "        self.step()\n"
    )})
    assert resolve_first(model, "repro.a", "Worker.run") == (
        "repro.a:Base.step"
    )


def test_module_function_resolution_same_module():
    model = build({"src/repro/a.py": (
        "def helper():\n"
        "    pass\n"
        "def entry():\n"
        "    helper()\n"
    )})
    assert resolve_first(model, "repro.a", "entry") == "repro.a:helper"


def test_imported_function_resolution():
    model = build({
        "src/repro/a.py": "def helper():\n    pass\n",
        "src/repro/b.py": (
            "from repro.a import helper\n"
            "def entry():\n"
            "    helper()\n"
        ),
    })
    assert resolve_first(model, "repro.b", "entry") == "repro.a:helper"


def test_component_attr_resolution():
    """self.sim is recognised as the Simulator component class."""
    model = build({"src/repro/a.py": (
        "class Mover:\n"
        "    def __init__(self, sim):\n"
        "        self.sim = sim\n"
        "    def go(self):\n"
        "        self.sim.schedule(1.0, self.go)\n"
    )})
    info = model.modules["repro.a"]
    fn = info.functions["Mover.go"]
    assert model.receiver_class(fn.calls[0], info, fn) == (
        "repro.sim.kernel.Simulator"
    )


def test_constructor_typed_local():
    model = build({"src/repro/a.py": (
        "class Widget:\n"
        "    def ping(self):\n"
        "        pass\n"
        "def entry():\n"
        "    w = Widget()\n"
        "    w.ping()\n"
    )})
    resolved = resolve_first(
        model, "repro.a", "entry",
        pick=lambda c: c.get("method") == "ping",
    )
    assert resolved == "repro.a:Widget.ping"


def test_guard_facts_extracted():
    info = extract_module("src/repro/a.py", ast.parse(
        "class T:\n"
        "    def __init__(self, sim):\n"
        "        self.sim = sim\n"
        "    def arm(self):\n"
        "        t = self.sim.schedule(1.0, self.arm)\n"
        "        t.guard_tag = 'x'\n"
        "        t.cancel()\n"
    ))
    arm = info.functions["T.arm"]
    assert [g["handle"] for g in arm.guards] == ["t"]
    assert "t" in arm.cancels


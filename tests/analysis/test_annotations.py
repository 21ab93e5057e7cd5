"""The strict mypy islands are fully annotated.

``pyproject.toml`` runs mypy with ``disallow_untyped_defs`` and
``disallow_incomplete_defs`` over ``repro.analysis``, ``repro.sim`` and
``repro.units``.  This test checks the same promise without mypy: every
function and method there, nested ones included, annotates each
parameter (except a method's ``self`` or ``cls``) and its return.
"""

import ast
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
SRC = os.path.join(REPO_ROOT, "src", "repro")

#: The modules under ``disallow_untyped_defs``.
STRICT = [
    os.path.join(SRC, "analysis"),
    os.path.join(SRC, "sim"),
    os.path.join(SRC, "units.py"),
]


def _strict_files():
    files = []
    for root in STRICT:
        if root.endswith(".py"):
            files.append(root)
            continue
        for directory, _, names in os.walk(root):
            files.extend(
                os.path.join(directory, name)
                for name in names if name.endswith(".py")
            )
    return sorted(files)


def _unannotated(tree):
    """``(line, name, missing)`` for every def lacking an annotation."""
    found = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, True)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, in_class)
                continue
            args = child.args
            params = args.posonlyargs + args.args
            static = any(
                isinstance(decorator, ast.Name)
                and decorator.id == "staticmethod"
                for decorator in child.decorator_list
            )
            if in_class and not static:
                params = params[1:]
            params = params + args.kwonlyargs + [
                arg for arg in (args.vararg, args.kwarg) if arg is not None
            ]
            missing = [arg.arg for arg in params if arg.annotation is None]
            if child.returns is None:
                missing.append("return")
            if missing:
                found.append((child.lineno, child.name, missing))
            visit(child, False)

    visit(tree, False)
    return found


def test_strict_islands_exist():
    files = _strict_files()
    assert len(files) > 20
    assert os.path.join(SRC, "units.py") in files


@pytest.mark.parametrize(
    "path", _strict_files(), ids=lambda path: os.path.relpath(path, SRC)
)
def test_every_def_is_annotated(path):
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    assert _unannotated(tree) == []


def test_the_check_sees_what_mypy_would_flag():
    tree = ast.parse(
        "def bare(x): pass\n"
        "def partial(x: int, *rest): return x\n"
        "def full(x: int, *rest: int, key: str = '') -> None: pass\n"
        "class C:\n"
        "    def method(self, y: int) -> int: return y\n"
        "    @staticmethod\n"
        "    def helper(z) -> None: pass\n"
        "    def outer(self) -> None:\n"
        "        def inner(w): pass\n"
    )
    assert _unannotated(tree) == [
        (1, "bare", ["x", "return"]),
        (2, "partial", ["rest", "return"]),
        (7, "helper", ["z"]),
        (9, "inner", ["w", "return"]),
    ]

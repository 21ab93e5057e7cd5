"""Per-module fact extraction for the whole-program analysis.

One parse of a module produces a :class:`ModuleInfo`: imports, classes,
and per-function facts (assignments, returns, calls, ``+``/``-``
arithmetic, guard-timer arming/cancelling, loops) encoded as plain
dictionaries.  The interprocedural rules (GL101-GL103, GL105) run over
these facts only, never over raw ASTs.

Expression encoding (``Expr`` is a plain dict)::

    {"k": "const", "v": 3.5}
    {"k": "name", "id": "self.sim"}          # dotted chain from a Name
    {"k": "attr", "base": Expr, "attr": "x"} # non-chain attribute access
    {"k": "sub",  "base": Expr, "index": Expr}
    {"k": "call", "tgt": "time.time", "recv": None, "method": None,
     "args": [...], "kw": {...}, "line": 10, "col": 4}
    {"k": "binop", "op": "+", "l": Expr, "r": Expr, "line": 3, "col": 8}
    {"k": "other", "sub": [Expr, ...]}

``tgt`` on calls is the canonical dotted target with import aliases
resolved (``import time as t; t.time()`` encodes as ``time.time``);
chains rooted at ``self`` keep their ``self.`` prefix for the project
layer to resolve against the enclosing class.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "ClassInfo",
    "Expr",
    "FunctionInfo",
    "ModuleInfo",
    "extract_module",
    "module_name_for_path",
]

Expr = dict[str, Any]

#: Method names whose call produces a schedulable timer/event handle
#: (used by GL103 to tie a ``guard_tag`` assignment to its creation).
_TIMER_FACTORIES = {"timeout", "schedule", "event", "process"}

#: Environment-read call targets (GL101 taint sources).
ENV_READ_TARGETS = {"os.environ.get", "os.getenv", "os.environ.__getitem__"}


def module_name_for_path(path: str) -> str:
    """Best-effort dotted module name for a file path.

    Paths under a ``src/`` root map to their import path
    (``src/repro/sim/kernel.py`` -> ``repro.sim.kernel``); anything else
    uses the file stem, so sibling fixture files can still import each
    other by name in tests.
    """
    normalized = path.replace("\\", "/")
    marker = "src/"
    index = normalized.rfind(marker)
    if index >= 0:
        tail = normalized[index + len(marker):]
    else:
        tail = normalized.rsplit("/", 1)[-1]
    if tail.endswith(".py"):
        tail = tail[:-3]
    if tail.endswith("/__init__"):
        tail = tail[: -len("/__init__")]
    return tail.replace("/", ".")


@dataclass
class ClassInfo:
    """One class definition: bases (canonicalised) and method names."""

    name: str
    line: int
    bases: list[str] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)


@dataclass
class FunctionInfo:
    """Facts about one function or method (or the module body).

    ``assigns`` bind dotted targets (``x``, ``self.attr``) to encoded
    value expressions; ``calls`` and ``binops`` are flattened from every
    nesting depth, in source order.  ``guards`` records
    ``<handle>.guard_tag = ...`` armings, ``cancels`` every receiver of
    a ``.cancel()`` call, ``appends`` container ``.append(name)`` calls
    (alias tracking for GL103), and ``loops`` every ``for``/``while``
    with the calls issued *per iteration* — its body plus, for
    ``while``, its test — as ``{"line", "end", "calls"}`` (GL105).
    Calls inside a nested function definition run when the closure is
    invoked, not per iteration, so they are never attributed to an
    enclosing loop.
    """

    name: str
    qualname: str
    line: int
    cls: str | None = None
    params: list[str] = field(default_factory=list)
    assigns: list[dict[str, Any]] = field(default_factory=list)
    returns: list[Expr] = field(default_factory=list)
    yields: list[Expr] = field(default_factory=list)
    calls: list[Expr] = field(default_factory=list)
    binops: list[Expr] = field(default_factory=list)
    guards: list[dict[str, Any]] = field(default_factory=list)
    cancels: list[str] = field(default_factory=list)
    appends: list[dict[str, Any]] = field(default_factory=list)
    loops: list[dict[str, Any]] = field(default_factory=list)


@dataclass
class ModuleInfo:
    """Everything the program layer knows about one module."""

    path: str
    module: str
    imports: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)


def _dotted_chain(node: ast.expr) -> str | None:
    """``a.b.c`` as a dotted string when rooted at a plain Name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class _Extractor:
    """Walks one module AST into a :class:`ModuleInfo`."""

    def __init__(self, path: str, module: str) -> None:
        self.info = ModuleInfo(path=path, module=module)
        self._imports = self.info.imports
        self._class_stack: list[ClassInfo] = []
        self._fn_stack: list[FunctionInfo] = []
        self._loop_stack: list[dict[str, Any]] = []

    # -- imports -----------------------------------------------------------

    def _record_import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self._imports[local] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )

    def _record_import_from(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level:
            # Relative import: best-effort absolute form from our name.
            parts = self.info.module.split(".")
            base = parts[: len(parts) - node.level]
            module = ".".join(base + ([module] if module else []))
        for alias in node.names:
            local = alias.asname or alias.name
            self._imports[local] = (
                f"{module}.{alias.name}" if module else alias.name
            )

    # -- expression encoding -----------------------------------------------

    def _canonical(self, dotted: str) -> str:
        head, _, rest = dotted.partition(".")
        if head == "self":
            return dotted
        head = self._imports.get(head, head)
        return f"{head}.{rest}" if rest else head

    def _encode(self, node: ast.expr | None) -> Expr:
        if node is None:
            return {"k": "const", "v": None}
        if isinstance(node, ast.Constant):
            value = node.value
            if isinstance(value, (int, float, str, bool)) or value is None:
                return {"k": "const", "v": value}
            return {"k": "const", "v": repr(value)}
        if isinstance(node, (ast.Name, ast.Attribute)):
            chain = _dotted_chain(node)
            if chain is not None:
                return {"k": "name", "id": self._canonical(chain)}
            assert isinstance(node, ast.Attribute)
            return {
                "k": "attr", "base": self._encode(node.value),
                "attr": node.attr,
            }
        if isinstance(node, ast.Subscript):
            return {
                "k": "sub", "base": self._encode(node.value),
                "index": self._encode(node.slice),
            }
        if isinstance(node, ast.Call):
            return self._encode_call(node)
        if isinstance(node, ast.BinOp):
            op = _BINOPS.get(type(node.op), "?")
            encoded = {
                "k": "binop", "op": op,
                "l": self._encode(node.left),
                "r": self._encode(node.right),
                "line": node.lineno, "col": node.col_offset,
            }
            if op in ("+", "-") and self._fn_stack:
                self._fn_stack[-1].binops.append(encoded)
            return encoded
        if isinstance(node, ast.UnaryOp):
            return self._encode(node.operand)
        if isinstance(node, ast.IfExp):
            return {"k": "other", "sub": [
                self._encode(node.test), self._encode(node.body),
                self._encode(node.orelse),
            ]}
        if isinstance(node, ast.Await):
            return self._encode(node.value)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            inner = self._encode(node.value) if node.value else None
            if inner is not None and self._fn_stack:
                self._fn_stack[-1].yields.append(inner)
            return {"k": "other", "sub": [inner] if inner else []}
        # Everything else: keep the children so taint still flows.
        children = [
            self._encode(child)
            for child in ast.iter_child_nodes(node)
            if isinstance(child, ast.expr)
        ]
        return {"k": "other", "sub": children}

    def _encode_call(self, node: ast.Call) -> Expr:
        tgt: str | None = None
        recv: str | None = None
        method: str | None = None
        chain = _dotted_chain(node.func)
        if chain is not None:
            tgt = self._canonical(chain)
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            recv_chain = _dotted_chain(node.func.value)
            if recv_chain is not None:
                recv = self._canonical(recv_chain)
        encoded: Expr = {
            "k": "call", "tgt": tgt, "recv": recv, "method": method,
            "args": [self._encode(arg) for arg in node.args],
            "kw": {
                kw.arg: self._encode(kw.value)
                for kw in node.keywords if kw.arg is not None
            },
            "line": node.lineno, "col": node.col_offset,
        }
        if self._fn_stack:
            fn = self._fn_stack[-1]
            fn.calls.append(encoded)
            for loop in self._loop_stack:
                loop["calls"].append(encoded)
            if method == "cancel" and recv is not None and not node.args:
                fn.cancels.append(recv)
            if (method == "append" and recv is not None
                    and len(node.args) == 1):
                value = encoded["args"][0]
                if value.get("k") == "name":
                    fn.appends.append({
                        "container": recv, "value": value["id"],
                        "line": node.lineno,
                    })
        return encoded

    # -- statements --------------------------------------------------------

    def extract(self, tree: ast.Module) -> ModuleInfo:
        body_fn = FunctionInfo(
            name="<module>", qualname="<module>", line=1,
        )
        self.info.functions["<module>"] = body_fn
        self._fn_stack.append(body_fn)
        for stmt in tree.body:
            self._stmt(stmt)
        self._fn_stack.pop()
        return self.info

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Import):
            self._record_import(node)
        elif isinstance(node, ast.ImportFrom):
            self._record_import_from(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._function(node)
        elif isinstance(node, ast.ClassDef):
            self._class(node)
        elif isinstance(node, ast.Assign):
            value = self._encode(node.value)
            for target in node.targets:
                self._assign_target(target, value, node.lineno)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._assign_target(
                    node.target, self._encode(node.value), node.lineno
                )
        elif isinstance(node, ast.AugAssign):
            self._assign_target(
                node.target, self._encode(node.value), node.lineno,
            )
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self._fn_stack[-1].returns.append(self._encode(node.value))
        elif isinstance(node, ast.Expr):
            self._encode(node.value)
        elif isinstance(node, (ast.Raise, ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._encode(child)
        elif isinstance(node, ast.If):
            self._encode(node.test)
            self._block(node.body)
            self._block(node.orelse)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            # The iterable is evaluated once, before the first
            # iteration — its calls stay outside the loop record.
            iterable = self._encode(node.iter)
            value: Expr = {"k": "other", "sub": [iterable]}
            self._assign_target(node.target, value, node.lineno)
            self._loop(node, lambda: self._block(node.body))
            self._block(node.orelse)
        elif isinstance(node, ast.While):
            # The test re-evaluates every iteration: it belongs to
            # the loop record alongside the body.
            self._loop(node, lambda: (
                self._encode(node.test), self._block(node.body)
            ))
            self._block(node.orelse)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                value = self._encode(item.context_expr)
                if item.optional_vars is not None:
                    self._assign_target(
                        item.optional_vars, value, node.lineno
                    )
            self._block(node.body)
        elif isinstance(node, ast.Try):
            self._block(node.body)
            for handler in node.handlers:
                self._block(handler.body)
            self._block(node.orelse)
            self._block(node.finalbody)
        # Pass/Break/Continue/Global/Nonlocal: nothing to record.

    def _block(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _loop(self, node: ast.stmt, visit: Callable[[], object]) -> None:
        """Record one loop's per-iteration calls while visiting it."""
        record: dict[str, Any] = {
            "line": node.lineno,
            "end": node.end_lineno or node.lineno,
            "calls": [],
        }
        self._fn_stack[-1].loops.append(record)
        self._loop_stack.append(record)
        try:
            visit()
        finally:
            self._loop_stack.pop()

    def _assign_target(self, target: ast.expr, value: Expr,
                       line: int) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign_target(element, value, line)
            return
        if isinstance(target, ast.Starred):
            self._assign_target(target.value, value, line)
            return
        chain = _dotted_chain(target)
        if chain is None:
            return
        fn = self._fn_stack[-1]
        if chain.endswith(".guard_tag"):
            handle = chain[: -len(".guard_tag")]
            fn.guards.append({"handle": handle, "line": line})
            return
        fn.assigns.append({"t": chain, "v": value, "line": line})

    # -- functions and classes ---------------------------------------------

    def _function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        cls = self._class_stack[-1].name if self._class_stack else None
        parent = self._fn_stack[-1]
        if parent.name == "<module>":
            qualname = f"{cls}.{node.name}" if cls else node.name
        else:
            qualname = f"{parent.qualname}.<locals>.{node.name}"
        args = node.args
        params = [
            a.arg for a in (
                args.posonlyargs + args.args + args.kwonlyargs
            )
        ]
        if cls and params and params[0] in ("self", "cls"):
            params = params[1:]
        fn = FunctionInfo(
            name=node.name, qualname=qualname, line=node.lineno,
            cls=cls, params=params,
        )
        self.info.functions[qualname] = fn
        if self._class_stack:
            self._class_stack[-1].methods.append(node.name)
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            self._encode(default)
        saved_loops, self._loop_stack = self._loop_stack, []
        self._fn_stack.append(fn)
        self._block(node.body)
        self._fn_stack.pop()
        self._loop_stack = saved_loops

    def _class(self, node: ast.ClassDef) -> None:
        bases = []
        for base in node.bases:
            chain = _dotted_chain(base)
            if chain is not None:
                bases.append(self._canonical(chain))
        info = ClassInfo(name=node.name, line=node.lineno, bases=bases)
        self.info.classes[node.name] = info
        self._class_stack.append(info)
        self._block(node.body)
        self._class_stack.pop()


_BINOPS: dict[type, str] = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
    ast.FloorDiv: "//", ast.Mod: "%", ast.Pow: "**",
    ast.LShift: "<<", ast.RShift: ">>", ast.BitOr: "|",
    ast.BitAnd: "&", ast.BitXor: "^", ast.MatMult: "@",
}


def _expr_children(expr: Expr) -> list[Expr]:
    """Child expressions of an encoded node, for generic traversal."""
    kind = expr["k"]
    if kind == "call":
        return list(expr["args"]) + list(expr["kw"].values())
    if kind == "binop":
        return [expr["l"], expr["r"]]
    if kind == "attr":
        return [expr["base"]]
    if kind == "sub":
        return [expr["base"], expr["index"]]
    if kind == "other":
        return [child for child in expr["sub"] if child is not None]
    return []


def extract_module(path: str, tree: ast.Module) -> ModuleInfo:
    """Extract the :class:`ModuleInfo` of one parsed module."""
    return _Extractor(path, module_name_for_path(path)).extract(tree)

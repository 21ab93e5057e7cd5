"""The gridlint rule catalog (GL001-GL007) as one AST pass.

Each rule exists because a specific failure mode would silently corrupt
the paper reproduction (see ``docs/static_analysis.md`` for the full
rationale):

* GL001 — wall-clock reads (``time.time`` & friends) leak host time into
  a simulation whose only clock is ``Simulator.now``.
* GL002 — the ``random`` module bypasses the seeded named streams in
  :mod:`repro.sim.random_streams`, breaking run-to-run reproducibility.
* GL003 — iterating an unordered ``set`` (or opaque ``.keys()`` view)
  feeds nondeterministic ordering into event scheduling / score ranking.
* GL004 — inline unit arithmetic (``* 1e6 / 8``, ``1024 * 1024``)
  re-derives conversions :mod:`repro.units` already centralises, the
  classic source of Mbps-vs-MiB/s mix-ups.
* GL005 — mutable default arguments alias state across calls.
* GL006 — bare ``except:`` / swallowed broad exceptions hide
  :class:`~repro.sim.errors.SimulationError` programming errors.
* GL007 — direct :func:`repro.gridftp.datachannel.run_data_transfer`
  use outside :mod:`repro.gridftp` bypasses the block-checksum
  verification the client layer performs on every read.
"""

from __future__ import annotations

import ast
import os
from typing import Union

from repro.analysis.gridlint.findings import Finding

__all__ = ["RULES", "FileContext", "check_tree"]

#: code -> one-line description (the CLI's ``--list-rules`` output).
RULES = {
    "GL001": "wall-clock read (time.time/monotonic, datetime.now/...) — "
             "simulated code must use Simulator.now",
    "GL002": "direct use of the `random` module — draw from the seeded "
             "named streams (sim.streams.get(name)) instead",
    "GL003": "iteration over an unordered set / .keys() view — sort (or "
             "justify with a pragma) before ordering-sensitive use",
    "GL004": "inline unit-conversion arithmetic — use the repro.units "
             "helpers (mbit_per_s, megabytes, KiB/MiB/GiB, ...)",
    "GL005": "mutable default argument — aliases state across calls; "
             "default to None and create inside the function",
    "GL006": "bare except / swallowed broad exception — narrow the type "
             "or handle the error; SimulationError must not vanish",
    "GL007": "direct datachannel transfer outside repro.gridftp — raw "
             "reads bypass block-checksum verification; go through "
             "GridFtpClient / ReliableFileTransfer",
    # Interprocedural rules (repro.analysis.gridlint.program); they run
    # only in whole-program mode, but live in the shared catalog so
    # --select/--ignore/--list-rules and the SARIF rule table see them.
    "GL101": "determinism taint — a wall-clock/random/environment read "
             "flows (through calls) into kernel scheduling, RNG "
             "seeding or trace output",
    "GL102": "unit-dimension mismatch — seconds/bytes/rates/Mbps "
             "inferred from repro.units annotations and parameter "
             "names disagree at a call argument or +/- expression",
    "GL103": "guard-timer leak — a guard_tag'ed timer is armed with no "
             "reachable cancel()/stop() path on any alias",
    "GL105": "unthrottled retry loop — a loop reaches the data channel "
             "(transitively) with no backoff, delay or attempt timeout "
             "per iteration",
}

#: Dotted call targets that read the host's clock.
_WALL_CLOCK = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.localtime", "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

_BROAD_EXCEPTIONS = {"Exception", "BaseException"}
_SIM_EXCEPTIONS = {"SimulationError", "SimError"}

#: The raw data-channel module GL007 fences off.
_DATACHANNEL = "repro.gridftp.datachannel"

#: A node that carries a source position.
_Located = Union[ast.expr, ast.stmt, ast.excepthandler]

#: The function-like nodes whose defaults GL005 checks.
_FunctionLike = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


class FileContext:
    """Per-file rule switches derived from the path by the engine."""

    def __init__(self, path: str | os.PathLike[str],
                 is_rng_module: bool = False,
                 is_units_module: bool = False,
                 in_gridftp_package: bool = False) -> None:
        self.path = str(path)
        #: ``sim/random_streams.py`` is the one legal home of `random`.
        self.is_rng_module = bool(is_rng_module)
        #: ``repro/units.py`` defines the conversions GL004 points at.
        self.is_units_module = bool(is_units_module)
        #: ``repro/gridftp/`` owns the data channel and may call it raw.
        self.in_gridftp_package = bool(in_gridftp_package)


def check_tree(tree: ast.AST, context: FileContext) -> list[Finding]:
    """Run every rule over a parsed module; returns a list of Findings."""
    visitor = _RuleVisitor(context)
    visitor.visit(tree)
    return visitor.findings


def _qualified_name(node: ast.expr) -> str | None:
    """Dotted name of an expression like ``a.b.c`` (None if not one)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class _RuleVisitor(ast.NodeVisitor):

    def __init__(self, context: FileContext) -> None:
        self.context = context
        self.findings: list[Finding] = []
        #: local alias -> imported dotted name (``import x.y as z``,
        #: ``from x import y``), used to canonicalise call targets.
        self._imports: dict[str, str] = {}
        #: stack of {name: is_set} scopes for GL003's local inference.
        self._set_scopes: list[dict[str, bool]] = [{}]

    def _report(self, node: _Located, code: str, message: str) -> None:
        self.findings.append(Finding(
            path=self.context.path, line=node.lineno,
            col=node.col_offset, code=code, message=message,
        ))

    # -- imports (GL002 + name canonicalisation) --------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._imports[alias.asname or alias.name.split(".")[0]] = (
                alias.name
            )
            if self._is_random_module(alias.name):
                self._flag_random(node)
            if self._is_datachannel_module(alias.name):
                self._flag_datachannel(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        from_datachannel = self._is_datachannel_module(module)
        for alias in node.names:
            self._imports[alias.asname or alias.name] = (
                f"{module}.{alias.name}" if module else alias.name
            )
            if not from_datachannel and self._is_datachannel_module(
                f"{module}.{alias.name}"
            ):
                from_datachannel = True
        if self._is_random_module(module):
            self._flag_random(node)
        if from_datachannel:
            self._flag_datachannel(node)
        self.generic_visit(node)

    @staticmethod
    def _is_random_module(name: str) -> bool:
        return name == "random" or name.startswith("random.")

    @staticmethod
    def _is_datachannel_module(name: str) -> bool:
        return name == _DATACHANNEL or name.startswith(_DATACHANNEL + ".")

    def _flag_datachannel(self, node: ast.stmt) -> None:
        if self.context.in_gridftp_package:
            return
        self._report(
            node, "GL007",
            "direct use of repro.gridftp.datachannel; raw transfers "
            "skip block-checksum verification — go through "
            "GridFtpClient.get / ReliableFileTransfer",
        )

    def _flag_random(self, node: ast.stmt) -> None:
        if self.context.is_rng_module:
            return
        self._report(
            node, "GL002",
            "direct import of `random`; all randomness must come from "
            "the simulator's seeded streams (sim.streams.get(name))",
        )

    def _canonical(self, node: ast.expr) -> str | None:
        """Canonical dotted target of a call, following import aliases."""
        name = _qualified_name(node)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        head = self._imports.get(head, head)
        return f"{head}.{rest}" if rest else head

    # -- GL001 wall clock -------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        target = self._canonical(node.func)
        if target in _WALL_CLOCK:
            self._report(
                node, "GL001",
                f"wall-clock call `{target}()`; simulated code must "
                "read time from `Simulator.now`",
            )
        elif (
            target is not None
            and self._is_random_module(target)
            and not self.context.is_rng_module
        ):
            self._report(
                node, "GL002",
                f"call into the `random` module (`{target}`); use the "
                "simulator's seeded streams instead",
            )
        elif (
            target is not None
            and target.startswith(_DATACHANNEL + ".")
            and not self.context.in_gridftp_package
        ):
            self._report(
                node, "GL007",
                f"raw data-channel call `{target}()` bypasses block "
                "verification; go through GridFtpClient / "
                "ReliableFileTransfer",
            )
        self.generic_visit(node)

    # -- GL003 unordered iteration ---------------------------------------

    def _enter_scope(self) -> None:
        self._set_scopes.append({})

    def _exit_scope(self) -> None:
        self._set_scopes.pop()

    def _bind(self, target: ast.expr, is_set: bool) -> None:
        if isinstance(target, ast.Name):
            self._set_scopes[-1][target.id] = is_set

    def _name_is_set(self, name: str) -> bool:
        for scope in reversed(self._set_scopes):
            if name in scope:
                return scope[name]
        return False

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.Name):
            return self._name_is_set(node.id)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return (self._is_set_expr(node.left)
                    or self._is_set_expr(node.right))
        return False

    @staticmethod
    def _is_keys_view(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "keys"
            and not node.args and not node.keywords
        )

    def _check_iterable(self, node: ast.expr) -> None:
        if self._is_set_expr(node):
            self._report(
                node, "GL003",
                "iteration over an unordered set; wrap in sorted(...) "
                "so downstream scheduling/ranking stays deterministic",
            )
        elif self._is_keys_view(node):
            self._report(
                node, "GL003",
                "iteration over .keys(); iterate the dict directly or "
                "sorted(d) — the view hides whether insertion order "
                "was deterministic",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = self._is_set_expr(node.value)
        for target in node.targets:
            self._bind(target, is_set)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._bind(node.target, self._is_set_expr(node.value))
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(
        self,
        node: ast.ListComp | ast.SetComp | ast.GeneratorExp | ast.DictComp,
    ) -> None:
        for generator in node.generators:
            self._check_iterable(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    # -- GL004 inline unit arithmetic -------------------------------------

    def _flatten_product(self, node: ast.expr,
                         constants: list[int | float],
                         leaves: list[ast.expr]) -> None:
        """Collect numeric constants of a ``*``/``/`` chain."""
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Mult, ast.Div)
        ):
            self._flatten_product(node.left, constants, leaves)
            self._flatten_product(node.right, constants, leaves)
        elif isinstance(node, ast.Constant) and isinstance(
            node.value, (int, float)
        ) and not isinstance(node.value, bool):
            constants.append(node.value)
        else:
            leaves.append(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if self.context.is_units_module:
            self.generic_visit(node)
            return
        if isinstance(node.op, ast.Pow):
            if self._const_pair(node) in ((2, 10), (2, 20), (2, 30), (2, 40)):
                self._report(
                    node, "GL004",
                    "power-of-two size literal; use repro.units "
                    "KiB/MiB/GiB (or megabytes()) instead",
                )
            self.generic_visit(node)
            return
        if isinstance(node.op, ast.LShift):
            if self._const_pair(node) in ((1, 10), (1, 20), (1, 30), (1, 40)):
                self._report(
                    node, "GL004",
                    "shifted size literal; use repro.units KiB/MiB/GiB "
                    "(or megabytes()) instead",
                )
            self.generic_visit(node)
            return
        if not isinstance(node.op, (ast.Mult, ast.Div)):
            self.generic_visit(node)
            return
        # Analyse the whole multiplicative chain once, from its root.
        constants: list[int | float] = []
        leaves: list[ast.expr] = []
        self._flatten_product(node, constants, leaves)
        self._check_product(node, constants)
        for leaf in leaves:
            self.visit(leaf)

    @staticmethod
    def _const_pair(node: ast.BinOp) -> tuple[object, object] | None:
        if isinstance(node.left, ast.Constant) and isinstance(
            node.right, ast.Constant
        ):
            return (node.left.value, node.right.value)
        return None

    def _check_product(self, node: ast.BinOp,
                       constants: list[int | float]) -> None:
        values = set(constants)
        if (8 in values or 8.0 in values) and (
            values & {1e6, 1e9, 1_000_000, 1_000_000_000}
        ):
            self._report(
                node, "GL004",
                "inline bits<->bytes rate conversion; use repro.units "
                "mbit_per_s / gbit_per_s / to_mbit_per_s",
            )
            return
        if values & {1048576, 1048576.0, 1073741824, 1073741824.0}:
            self._report(
                node, "GL004",
                "raw byte-count literal; use repro.units MiB/GiB "
                "(or megabytes())",
            )
            return
        if 1024 in values or 1024.0 in values:
            self._report(
                node, "GL004",
                "1024-multiple size arithmetic; use repro.units "
                "KiB/MiB/GiB (or megabytes())",
            )

    # -- GL005 mutable defaults -------------------------------------------

    def _check_defaults(self, node: _FunctionLike, name: str) -> None:
        args = node.args
        for default in list(args.defaults) + list(args.kw_defaults):
            if default is None:
                continue
            if self._is_mutable_literal(default):
                self._report(
                    default, "GL005",
                    f"mutable default argument in `{name}()`; "
                    "default to None and create per call",
                )

    @staticmethod
    def _is_mutable_literal(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "dict", "set", "bytearray", "deque")
        )

    def visit_FunctionDef(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> None:
        self._check_defaults(node, node.name)
        self._enter_scope()
        self.generic_visit(node)
        self._exit_scope()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node, "<lambda>")
        self._enter_scope()
        self.generic_visit(node)
        self._exit_scope()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._enter_scope()
        self.generic_visit(node)
        self._exit_scope()

    # -- GL006 bare / swallowed excepts ------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(
                node, "GL006",
                "bare `except:`; name the exception types you mean",
            )
        elif self._body_is_noop(node.body):
            caught = self._exception_names(node.type)
            broad = caught & _BROAD_EXCEPTIONS
            simerr = caught & _SIM_EXCEPTIONS
            if broad or simerr:
                what = ", ".join(sorted(broad | simerr))
                self._report(
                    node, "GL006",
                    f"`except {what}: pass` swallows errors the kernel "
                    "relies on surfacing; narrow the type or handle it",
                )
        self.generic_visit(node)

    @staticmethod
    def _body_is_noop(body: list[ast.stmt]) -> bool:
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)):
                continue
            return False
        return True

    @staticmethod
    def _exception_names(node: ast.expr) -> set[str]:
        names: set[str] = set()
        nodes = node.elts if isinstance(node, ast.Tuple) else [node]
        for item in nodes:
            name = _qualified_name(item)
            if name is not None:
                names.add(name.split(".")[-1])
        return names

"""The project model: symbol table and call graph.

Built once per run from every module's :class:`ModuleInfo` facts.
Call resolution is heuristic by design — Python has no static types —
but three heuristics cover this codebase well:

* dotted targets resolved through each module's import aliases against
  the symbol table (module functions, classes, class methods);
* ``self.method()`` resolved against the enclosing class and its
  project-local bases (a best-effort MRO walk);
* *component attributes*: the reproduction wires a small, well-known
  set of singletons by attribute name (``self.sim`` is always the
  :class:`~repro.sim.kernel.Simulator`, ``self.grid`` the
  :class:`~repro.grid.DataGrid`, ...), so receiver names map to classes
  via :data:`COMPONENT_TYPES`; local variables get their type from
  ``x = ClassName(...)`` constructor assignments in the same function.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.gridlint.program.model import (
    Expr,
    FunctionInfo,
    ModuleInfo,
)

__all__ = ["COMPONENT_TYPES", "ProjectModel"]

#: Well-known component attribute names -> the class they always hold.
#: Used to resolve ``self.sim.schedule(...)`` / ``grid.sim.timeout(...)``
#: style calls without type annotations.
COMPONENT_TYPES: dict[str, str] = {
    "sim": "repro.sim.kernel.Simulator",
    "simulator": "repro.sim.kernel.Simulator",
    "streams": "repro.sim.random_streams.StreamRegistry",
    "grid": "repro.grid.DataGrid",
    "obs": "repro.obs.core.Observability",
    "catalog": "repro.replica.catalog.ReplicaCatalog",
}


class ProjectModel:
    """All modules of one analysis run, cross-linked."""

    def __init__(self, modules: Iterable[ModuleInfo]) -> None:
        #: module name -> ModuleInfo
        self.modules: dict[str, ModuleInfo] = {}
        for info in modules:
            self.modules[info.module] = info
        #: global function key ("module:qualname") -> FunctionInfo
        self.functions: dict[str, FunctionInfo] = {}
        #: global class key ("module:Class") -> ModuleInfo (owner)
        self._class_owner: dict[str, str] = {}
        for name, info in self.modules.items():
            for qualname, fn in info.functions.items():
                self.functions[f"{name}:{qualname}"] = fn
            for cls in info.classes:
                self._class_owner[f"{name}.{cls}"] = name

    # -- symbol/class lookup -----------------------------------------------

    def _module_prefix(self, dotted: str) -> str | None:
        """Longest known module that is a dotted-prefix of ``dotted``."""
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            prefix = ".".join(parts[:end])
            if prefix in self.modules:
                return prefix
        return None

    def class_info(self, class_key: str) -> tuple[ModuleInfo, str] | None:
        """(owning module, class name) for a dotted class key."""
        owner = self._class_owner.get(class_key)
        if owner is not None:
            return self.modules[owner], class_key.rsplit(".", 1)[-1]
        return None

    def method_on(self, class_key: str, method: str,
                  _depth: int = 0) -> str | None:
        """Function key of ``method`` on ``class_key`` or its bases."""
        if _depth > 8:
            return None
        found = self.class_info(class_key)
        if found is None:
            return None
        info, cls_name = found
        qualname = f"{cls_name}.{method}"
        if qualname in info.functions:
            return f"{info.module}:{qualname}"
        for base in info.classes[cls_name].bases:
            base_key = self._canonical_class(base, info)
            if base_key is not None:
                resolved = self.method_on(base_key, method, _depth + 1)
                if resolved is not None:
                    return resolved
        return None

    def _canonical_class(self, dotted: str,
                         context: ModuleInfo) -> str | None:
        """Resolve a (possibly bare) class reference to a class key."""
        if dotted in context.classes:
            return f"{context.module}.{dotted}"
        if dotted in self._class_owner:
            return dotted
        # Import alias already canonicalised at extraction; try the
        # last-resort prefix walk (``pkg.mod.Class``).
        owner = self._module_prefix(dotted)
        if owner is not None:
            remainder = dotted[len(owner) + 1:]
            if remainder in self.modules[owner].classes:
                return f"{owner}.{remainder}"
        return None

    # -- local type inference ----------------------------------------------

    def local_types(self, info: ModuleInfo,
                    fn: FunctionInfo) -> dict[str, str]:
        """name -> class key, from ``x = ClassName(...)`` assignments
        plus the component-attribute heuristics for parameters."""
        types: dict[str, str] = {}
        for param in fn.params:
            if param in COMPONENT_TYPES:
                types[param] = COMPONENT_TYPES[param]
        for name, class_key in COMPONENT_TYPES.items():
            types[f"self.{name}"] = class_key
            types[f"self._{name}"] = class_key
        for assign in fn.assigns:
            value = assign["v"]
            if value.get("k") != "call" or value.get("tgt") is None:
                continue
            class_key = self.constructor_class(value["tgt"], info)
            if class_key is not None:
                types[assign["t"]] = class_key
        return types

    def constructor_class(self, tgt: str,
                          context: ModuleInfo) -> str | None:
        """Class key if ``tgt`` names a project class (a constructor)."""
        return self._canonical_class(tgt, context)

    # -- call resolution ---------------------------------------------------

    def resolve_call(self, call: Expr, info: ModuleInfo,
                     fn: FunctionInfo,
                     local_types: dict[str, str] | None = None,
                     ) -> str | None:
        """Function key a call lands on, or None when unresolvable."""
        tgt = call.get("tgt")
        method = call.get("method")
        recv = call.get("recv")
        if tgt is not None:
            # self.method() -> enclosing class (and bases).
            if tgt.startswith("self.") and fn.cls is not None:
                remainder = tgt[len("self."):]
                if "." not in remainder:
                    return self.method_on(
                        f"{info.module}.{fn.cls}", remainder
                    )
            elif "." not in tgt:
                # Bare name: module-level function or local class.
                if tgt in info.functions:
                    return f"{info.module}:{tgt}"
                if tgt in info.classes:
                    return self.method_on(
                        f"{info.module}.{tgt}", "__init__"
                    )
            else:
                owner = self._module_prefix(tgt)
                if owner is not None:
                    remainder = tgt[len(owner) + 1:]
                    owned = self.modules[owner]
                    if remainder in owned.functions:
                        return f"{owner}:{remainder}"
                    head, _, rest = remainder.partition(".")
                    if head in owned.classes:
                        return self.method_on(
                            f"{owner}.{head}", rest or "__init__"
                        )
                class_key = self._canonical_class(tgt, info)
                if class_key is not None:
                    return self.method_on(class_key, "__init__")
        if method is not None and recv is not None:
            types = local_types if local_types is not None else (
                self.local_types(info, fn)
            )
            recv_type = types.get(recv)
            if recv_type is None:
                # Component heuristic on the attribute's last segment:
                # ``anything.sim.schedule`` is the Simulator's schedule.
                tail = recv.rsplit(".", 1)[-1].lstrip("_")
                recv_type = COMPONENT_TYPES.get(tail)
            if recv_type is not None:
                return self.method_on(recv_type, method)
        return None

    def receiver_class(self, call: Expr, info: ModuleInfo,
                       fn: FunctionInfo,
                       local_types: dict[str, str] | None = None,
                       ) -> str | None:
        """Class key of a method call's receiver, when inferable."""
        recv = call.get("recv")
        if recv is None:
            return None
        types = local_types if local_types is not None else (
            self.local_types(info, fn)
        )
        recv_type = types.get(recv)
        if recv_type is not None:
            return recv_type
        tail = recv.rsplit(".", 1)[-1].lstrip("_")
        return COMPONENT_TYPES.get(tail)

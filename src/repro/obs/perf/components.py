"""Attribute kernel callbacks to grid components.

The profiler times individual event callbacks; this module decides which
*component* each callback belongs to, so hot-path wall time can be
reported per subsystem (``gridftp``, ``rft``, ``nws``, ``chaos``,
``catalog``, ``selection``, ...) rather than per function.

Attribution works off the callback's code object:

* a :class:`~repro.sim.process.Process` resume callback is charged to
  the module defining the process *generator* (the code that actually
  runs), not to ``repro.sim.process``;
* plain functions, lambdas and other bound methods are charged to the
  module defining them;
* builtins and C-level callables (no code object) fall back to
  ``other``.

The filename -> component mapping mirrors the package layout, with two
refinements worth their special case: ``gridftp/reliable.py`` is the
RFT layer (its retry/failover machinery dominates chaos workloads and
deserves its own row), and ``monitoring/nws/`` is NWS proper as opposed
to MDS/sysstat.
"""

__all__ = ["COMPONENT_OTHER", "ComponentClassifier", "component_of_path"]

COMPONENT_OTHER = "other"

_MARKER = "/repro/"

#: top-level package directory -> reported component.
_PACKAGE_COMPONENTS = {
    "replica": "catalog",
    "core": "selection",
    "sim": "kernel",
}


def component_of_path(filename):
    """Component name for a source filename (``other`` if unmapped)."""
    normalised = str(filename).replace("\\", "/")
    index = normalised.rfind(_MARKER)
    if index < 0:
        return COMPONENT_OTHER
    parts = normalised[index + len(_MARKER):].split("/")
    top = parts[0]
    if top.endswith(".py"):
        top = top[:-3]
    if top == "gridftp":
        return "rft" if parts[-1] == "reliable.py" else "gridftp"
    if top == "monitoring":
        if len(parts) > 1 and parts[1] == "nws":
            return "nws"
        return "monitoring"
    if top == "network" and parts[-1] == "solver.py":
        # The fair-share solver gets its own row: it is the network
        # layer's main hot path and the usual suspect when rebalances
        # dominate a profile.
        return "solver"
    return _PACKAGE_COMPONENTS.get(top, top)


def _code_of(callback):
    """The code object that best identifies a callback (None if C-level).

    For a process resume this is the generator's code — the simulation
    logic being driven — so every subsystem's processes are charged to
    their own module instead of uniformly to the process plumbing.
    """
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        generator = getattr(owner, "_generator", None)
        code = getattr(generator, "gi_code", None)
        if code is not None:
            return code
    function = getattr(callback, "__func__", callback)
    return getattr(function, "__code__", None)


class ComponentClassifier:
    """Memoised callback -> component lookup (keyed by code object)."""

    __slots__ = ("_cache",)

    def __init__(self):
        self._cache = {}

    def classify(self, callback):
        """Component name for one kernel callback."""
        code = _code_of(callback)
        if code is None:
            return COMPONENT_OTHER
        component = self._cache.get(code)
        if component is None:
            component = component_of_path(code.co_filename)
            self._cache[code] = component
        return component

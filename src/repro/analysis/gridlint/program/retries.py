"""GL105 — unthrottled retry loops against the data channel.

The transfer stack's whole robustness story rests on *paced* retries:
:class:`~repro.gridftp.backoff.BackoffPolicy` spaces attempts out,
attempt timeouts bound how long each one can hold a connection, and
circuit breakers stop the loop reaching a dead replica at all.  A
``while``/``for`` loop that re-drives the data channel with none of
those is a retry storm waiting for its first brownout: every failed
attempt immediately adds another transfer to the very resource that is
failing, which is how grey failures become congestion collapse.

The rule is interprocedural on the *reaching* side: a loop is charged
with touching the data channel when any call issued per iteration
either names ``repro.gridftp.datachannel`` directly or resolves
(through the project call graph, transitively) to a function that
does.  Reachability propagation stops at ``repro.gridftp`` itself —
that layer is the sanctioned implementation (same carve-out GL007
gives it), already polices its own pacing, and absorbs the obligation
for everyone who goes through :class:`ReliableFileTransfer` /
:class:`GridFtpClient` instead of the raw channel.

A charged loop is excused when some per-iteration call shows
mitigation:

* a delay primitive — ``.timeout(...)`` / ``.delay(...)`` /
  ``.raw_delay(...)`` / ``.sleep(...)``;
* anything routed through a backoff object (``backoff`` in the call
  target or receiver);
* an attempt bound passed by keyword (``timeout=`` /
  ``attempt_timeout=`` / ``backoff=``);
* an :class:`InterruptGuard` arming the attempt with a deadline.
"""

from __future__ import annotations

from repro.analysis.gridlint.findings import Finding
from repro.analysis.gridlint.program.model import (
    Expr,
    FunctionInfo,
    ModuleInfo,
)
from repro.analysis.gridlint.program.project import ProjectModel

__all__ = ["check_gl105"]

#: The raw transfer module every charged loop ultimately reaches.
_CHANNEL = "repro.gridftp.datachannel"

#: Modules exempt from the rule and opaque to reachability: the
#: sanctioned transfer layer (GL007 precedent).
_EXEMPT_PREFIX = "repro.gridftp"

#: Method names that pace a loop iteration.
_DELAY_METHODS = {"timeout", "delay", "raw_delay", "sleep"}

#: Keyword arguments that bound an attempt.
_BOUNDING_KW = {"timeout", "attempt_timeout", "backoff"}


def _is_exempt(module: str) -> bool:
    return module == _EXEMPT_PREFIX or module.startswith(
        _EXEMPT_PREFIX + "."
    )


def _hits_channel(call: Expr) -> bool:
    """The call names the data-channel module directly."""
    tgt = call.get("tgt")
    return bool(
        tgt is not None
        and (tgt == _CHANNEL or tgt.startswith(_CHANNEL + "."))
    )


def _mitigates(call: Expr) -> bool:
    """The call paces or bounds the iteration it sits in."""
    if call.get("method") in _DELAY_METHODS:
        return True
    for name in (call.get("tgt"), call.get("recv")):
        if name is not None and "backoff" in name.lower():
            return True
    if _BOUNDING_KW & set(call.get("kw", ())):
        return True
    tgt = call.get("tgt")
    if tgt is not None and tgt.rsplit(".", 1)[-1] == "InterruptGuard":
        return True
    return False


class _RetryPass:
    """Channel-reachability over the call graph, memoised per function."""

    def __init__(self, model: ProjectModel) -> None:
        self.model = model
        #: function key -> does calling it (transitively) reach the
        #: raw data channel outside the exempt layer?
        self._reaching: dict[str, bool] = {}

    def _reaches(self, key: str, stack: frozenset[str]) -> bool:
        cached = self._reaching.get(key)
        if cached is not None:
            return cached
        if key in stack:
            return False  # cycle: the initiator settles the answer
        module = key.split(":", 1)[0]
        if _is_exempt(module):
            self._reaching[key] = False
            return False
        fn = self.model.functions.get(key)
        info = self.model.modules.get(module)
        if fn is None or info is None:
            self._reaching[key] = False
            return False
        result = False
        types = self.model.local_types(info, fn)
        for call in fn.calls:
            if _hits_channel(call):
                result = True
                break
            callee = self.model.resolve_call(call, info, fn, types)
            if callee is not None and self._reaches(
                callee, stack | {key}
            ):
                result = True
                break
        self._reaching[key] = result
        return result

    def _charged_call(self, call: Expr, info: ModuleInfo, fn: FunctionInfo,
                      types: dict[str, str]) -> str | None:
        """Label of the channel-reaching call, or None."""
        if _hits_channel(call):
            return call.get("tgt")
        callee = self.model.resolve_call(call, info, fn, types)
        if callee is not None and self._reaches(callee, frozenset()):
            return call.get("tgt") or call.get("method") or callee
        return None

    def findings_for(self, info: ModuleInfo) -> list[Finding]:
        if _is_exempt(info.module):
            return []
        out: list[Finding] = []
        for qualname in sorted(info.functions):
            fn = info.functions[qualname]
            for loop in fn.loops:
                calls = loop["calls"]
                if any(_mitigates(call) for call in calls):
                    continue
                types = self.model.local_types(info, fn)
                charged = None
                for call in calls:
                    charged = self._charged_call(call, info, fn, types)
                    if charged is not None:
                        break
                if charged is None:
                    continue
                out.append(Finding(
                    path=info.path, line=loop["line"], col=0,
                    code="GL105",
                    message=(
                        f"loop re-drives the data channel (via "
                        f"`{charged}`) with no backoff, delay or "
                        "attempt timeout per iteration — a tight "
                        "retry turns one failing replica into a "
                        "retry storm; pace it with BackoffPolicy + "
                        "sim.timeout or bound each attempt"
                    ),
                ))
        return sorted(set(out))


def check_gl105(model: ProjectModel) -> dict[str, list[Finding]]:
    """Flag unpaced channel-reaching loops; findings keyed by module."""
    analysis = _RetryPass(model)
    out: dict[str, list[Finding]] = {}
    for name in sorted(model.modules):
        found = analysis.findings_for(model.modules[name])
        if found:
            out[name] = found
    return out

"""Process measurements shared by the simulator's benchmarks.

:class:`SimUsageTracker` sums the kernel's always-on diagnostic counters
over every simulator built inside a block (``fig_scale`` reports its
events/sec from them); :func:`peak_rss_bytes` and
:func:`environment_fingerprint` describe the process and host a
measurement ran in, for ``fig_scale`` and ``perfbench/``.
"""

import platform
import subprocess
import sys

from repro.sim.kernel import add_build_hook, remove_build_hook
from repro.units import KiB

__all__ = [
    "SimUsageTracker",
    "environment_fingerprint",
    "peak_rss_bytes",
]


class SimUsageTracker:
    """Collects every simulator built inside the context.

    After the block, :attr:`events_processed` / :attr:`events_scheduled`
    / :attr:`sim_seconds` sum the kernel's diagnostic counters over all
    tracked simulators — the deterministic denominator for events/sec.
    """

    def __init__(self):
        self.sims = []

    def __enter__(self):
        add_build_hook(self._on_build)
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        remove_build_hook(self._on_build)
        return False

    def _on_build(self, sim):
        self.sims.append(sim)

    @property
    def events_processed(self):
        return sum(sim.events_processed for sim in self.sims)

    @property
    def events_scheduled(self):
        return sum(sim.events_scheduled for sim in self.sims)

    @property
    def sim_seconds(self):
        return sum(sim.now for sim in self.sims)


def peak_rss_bytes():
    """Peak resident set size of this process, in bytes (0 if unknown)."""
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # already bytes on macOS
        return int(peak)
    return int(peak * KiB)  # kilobytes on Linux


def _git_sha():
    """HEAD commit of the working tree, if discoverable."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def environment_fingerprint():
    """Where this benchmark ran: interpreter, platform, git state."""
    import os

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
    }

"""Process measurements shared by the simulator's benchmarks.

:func:`peak_rss_bytes` and :func:`environment_fingerprint` describe the
process and host a measurement ran in, for ``fig_scale`` and
``perfbench/``.
"""

import platform
import subprocess
import sys

from repro.units import KiB

__all__ = ["environment_fingerprint", "peak_rss_bytes"]


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

"""sysstat utilities over simulated hosts.

The paper measures I/O state with iostat from the Linux sysstat
package; :class:`IoStat` is the simulated equivalent, reading the host
disk model's idle fraction.
"""

from repro.monitoring.sysstat.iostat import IoStat

__all__ = ["IoStat"]

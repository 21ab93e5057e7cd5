"""iostat: per-device I/O statistics.

Reports the disk's idle percentage, the ``IO_P`` input of the paper's
cost model.
"""

__all__ = ["IoStat"]


class IoStat:
    """iostat bound to one host's disk."""

    def __init__(self, host):
        self.host = host

    def __repr__(self):
        return f"<IoStat on {self.host.name}>"

    def instantaneous_idle(self):
        """Point-in-time I/O idle fraction (what the cost model samples)."""
        return self.host.disk.io_idle_fraction

"""Background load generators for CPUs and disks.

Both are Markov-modulated, like the network's
:class:`CrossTrafficProcess` (see :mod:`repro.sim.modulated`): they
hold a level for an exponentially distributed time, then jump to a
random level.  Each jump calls a ``notify`` callback (normally
``FlowNetwork.rebalance``) because changed CPU/disk headroom changes
transfer rates.
"""

from repro.sim.modulated import MarkovModulated

__all__ = ["CPULoadGenerator", "DiskLoadGenerator"]


class _MarkovLoadGenerator(MarkovModulated):
    """Apply each level through a setter, then ``notify``."""

    def __init__(self, sim, levels, mean_holding_time, setter, stream,
                 notify, jitter, ceiling):
        self.notify = notify
        self._set = setter
        super().__init__(
            sim, levels, mean_holding_time, stream,
            jitter=jitter, ceiling=ceiling,
        )

    def _apply(self, level):
        self._set(level)
        if self.notify is not None:
            self.notify()


class CPULoadGenerator(_MarkovLoadGenerator):
    """Modulates a CPU's background busy cores.

    ``levels`` are in busy core-equivalents (may be fractional).
    """

    def __init__(self, sim, cpu, levels, mean_holding_time,
                 stream=None, notify=None, jitter=0.0):
        self.cpu = cpu
        for level in levels:
            if level < 0:
                raise ValueError(f"negative CPU load level {level}")
        super().__init__(
            sim, levels, mean_holding_time, cpu.set_background_busy,
            stream or sim.streams.get(f"cpuload/{cpu.name}"),
            notify, jitter, float(cpu.cores),
        )


class DiskLoadGenerator(_MarkovLoadGenerator):
    """Modulates a disk's background utilisation.

    ``levels`` are utilisation fractions in [0, 1).
    """

    def __init__(self, sim, disk, levels, mean_holding_time,
                 stream=None, notify=None, jitter=0.0):
        self.disk = disk
        for level in levels:
            if not 0.0 <= level < 1.0:
                raise ValueError(f"disk load level out of range: {level}")
        super().__init__(
            sim, levels, mean_holding_time, disk.set_background_utilisation,
            stream or sim.streams.get(f"diskload/{disk.name}"),
            notify, jitter, 0.95,
        )

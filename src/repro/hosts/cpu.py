"""Multi-core CPU model.

The CPU serves two demand sources:

* *background jobs* — other users' computation, set by a
  :class:`CPULoadGenerator` as a number of busy core-equivalents;
* *data transfers* — moving bytes costs CPU (checksumming, copies,
  interrupts).  The cost is ``transfer_cost_per_byte`` core-seconds per
  byte, scaled inversely with clock frequency, and is imposed on flows
  through the CPU's :class:`ResourceChannel`.

The paper's cost model consumes the CPU idle percentage (``CPU_P``);
:attr:`idle_fraction` is that observable.
"""

from repro.hosts.reslink import ResourceChannel

__all__ = ["CPU"]

#: Core-seconds of CPU burned per transferred byte on a 2 GHz reference
#: core (one such core sustains ~200 MB/s of GridFTP traffic).
_REFERENCE_COST_PER_BYTE = 5e-9
_REFERENCE_GHZ = 2.0


class CPU:
    """A host CPU with ``cores`` cores at ``frequency_ghz``.

    The core count, clock and per-byte cost are fixed at construction;
    only :meth:`set_background_busy` moves the transfer capacity, and it
    reports the change through the CPU's channel.

    ``min_transfer_cores`` guarantees transfers a slice of CPU even on a
    saturated machine (the OS scheduler never starves them completely),
    so a loaded replica site slows fetches instead of deadlocking them.
    """

    def __init__(self, sim, name, cores=1, frequency_ghz=2.0,
                 transfer_cost_per_byte=None, min_transfer_cores=0.05):
        if cores < 1:
            raise ValueError("cores must be >= 1")
        if frequency_ghz <= 0:
            raise ValueError("frequency_ghz must be positive")
        if min_transfer_cores <= 0:
            raise ValueError("min_transfer_cores must be positive")
        self.sim = sim
        self.name = name
        self.cores = int(cores)
        self.frequency_ghz = float(frequency_ghz)
        if transfer_cost_per_byte is None:
            transfer_cost_per_byte = (
                _REFERENCE_COST_PER_BYTE * _REFERENCE_GHZ / frequency_ghz
            )
        if transfer_cost_per_byte <= 0:
            raise ValueError("transfer_cost_per_byte must be positive")
        self.transfer_cost_per_byte = float(transfer_cost_per_byte)
        self.min_transfer_cores = float(min_transfer_cores)
        self._background_busy = 0.0
        self.channel = ResourceChannel(
            f"cpu/{name}", self._transfer_capacity
        )

    def __repr__(self):
        return (
            f"<CPU {self.name} {self.cores}x{self.frequency_ghz}GHz "
            f"idle={self.idle_fraction:.2f}>"
        )

    # -- load inputs --------------------------------------------------------

    @property
    def background_busy_cores(self):
        return self._background_busy

    def set_background_busy(self, cores_busy):
        """Set background demand in core-equivalents (clamped to cores)."""
        if cores_busy < 0:
            raise ValueError("cores_busy must be non-negative")
        self._background_busy = min(float(cores_busy), float(self.cores))
        self.channel.report()

    # -- observables ---------------------------------------------------------

    @property
    def transfer_busy_cores(self):
        """Core-equivalents consumed by in-flight transfers right now."""
        return self.channel.allocated * self.transfer_cost_per_byte

    @property
    def busy_fraction(self):
        """Fraction of CPU busy (background + transfers)."""
        busy = self._background_busy + self.transfer_busy_cores
        return min(1.0, busy / self.cores)

    @property
    def idle_fraction(self):
        """The paper's CPU_P observable: fraction of CPU idle."""
        return 1.0 - self.busy_fraction

    # -- flow coupling ---------------------------------------------------------

    def _transfer_capacity(self):
        """Bytes/s of transfer work the CPU can currently sustain."""
        free_cores = max(
            self.min_transfer_cores,
            self.cores - self._background_busy,
        )
        return free_cores / self.transfer_cost_per_byte

"""Disk model.

A host's disk has a maximum sustained bandwidth shared by everything
touching it: transfer reads/writes (via the disk's
:class:`ResourceChannel`) and background I/O from other jobs (set by a
:class:`DiskLoadGenerator` as a utilisation fraction).

The paper's cost model consumes the I/O idle percentage (``IO_P``,
measured there with iostat); :attr:`io_idle_fraction` is that
observable.
"""

from repro.hosts.reslink import ResourceChannel

__all__ = ["Disk"]


class Disk:
    """A disk with ``bandwidth`` bytes/s and ``capacity_bytes`` of space.

    Assigning :attr:`bandwidth` and :meth:`set_background_utilisation`
    move the transfer capacity, and both report the change through the
    disk's channel.
    """

    def __init__(self, sim, name, bandwidth, capacity_bytes,
                 min_transfer_fraction=0.05):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if not 0.0 < min_transfer_fraction <= 1.0:
            raise ValueError("min_transfer_fraction must be in (0, 1]")
        self.sim = sim
        self.name = name
        self._bandwidth = float(bandwidth)
        self.capacity_bytes = float(capacity_bytes)
        self.min_transfer_fraction = float(min_transfer_fraction)
        self._background_util = 0.0
        self.channel = ResourceChannel(
            f"disk/{name}", self._transfer_capacity
        )

    def __repr__(self):
        return (
            f"<Disk {self.name} {self.bandwidth / 1e6:.0f}MB/s "
            f"idle={self.io_idle_fraction:.2f}>"
        )

    # -- load inputs --------------------------------------------------------

    @property
    def bandwidth(self):
        """Maximum sustained bandwidth, bytes/s."""
        return self._bandwidth

    @bandwidth.setter
    def bandwidth(self, value):
        if value <= 0:
            raise ValueError("bandwidth must be positive")
        self._bandwidth = float(value)
        self.channel.report()

    @property
    def background_utilisation(self):
        return self._background_util

    def set_background_utilisation(self, fraction):
        """Set background I/O demand as a utilisation fraction in [0, 1)."""
        if not 0.0 <= fraction < 1.0:
            raise ValueError(
                f"background utilisation must be in [0, 1): {fraction}"
            )
        self._background_util = float(fraction)
        self.channel.report()

    # -- observables ---------------------------------------------------------

    @property
    def transfer_utilisation(self):
        """Fraction of disk bandwidth consumed by transfers right now."""
        return min(1.0, self.channel.allocated / self._bandwidth)

    @property
    def utilisation(self):
        """Total disk utilisation (background + transfers), in [0, 1]."""
        return min(1.0, self._background_util + self.transfer_utilisation)

    @property
    def io_idle_fraction(self):
        """The paper's IO_P observable: fraction of disk time idle."""
        return 1.0 - self.utilisation

    @property
    def bytes_transferred(self):
        """Cumulative bytes moved through this disk by transfers."""
        return self.channel.bytes_carried

    # -- flow coupling ---------------------------------------------------------

    def _transfer_capacity(self):
        """Bytes/s available to transfers after background I/O."""
        free = max(
            self.min_transfer_fraction, 1.0 - self._background_util
        )
        return free * self._bandwidth

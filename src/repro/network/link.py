"""Directed network links.

A :class:`Link` carries traffic one way between two nodes.  Full-duplex
physical links are modelled as two directed links (see
:meth:`Topology.add_duplex_link`).

Besides its static capacity, latency and loss rate, a link has a dynamic
*background utilisation* in [0, 1): the fraction of capacity consumed by
cross-traffic that is not simulated flow-by-flow (campus traffic on the
2005 Taiwanese academic network, in the paper's terms).  The capacity
available to simulated flows is ``capacity * (1 - background_utilisation)``.

Every change to the available capacity (the background setter,
:meth:`Link.set_down`, :meth:`Link.set_up`) is reported to each
:class:`~repro.network.flow.FlowNetwork` on which the link is live, so
a reallocation reads only the links that moved.  The raw ``capacity``
is fixed at construction.
"""

__all__ = ["Link"]


class Link:
    """A directed link from ``src`` to ``dst``.

    Parameters
    ----------
    src, dst:
        Node names (strings).
    capacity:
        Raw capacity in bytes/s.
    latency:
        One-way propagation delay in seconds.
    loss_rate:
        Packet loss probability seen by TCP on this link.
    """

    def __init__(self, src, dst, capacity, latency=0.0, loss_rate=0.0):
        if capacity <= 0:
            raise ValueError(f"link capacity must be positive, got {capacity}")
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {loss_rate}")
        self.src = src
        self.dst = dst
        self.capacity = float(capacity)
        self.latency = float(latency)
        self.loss_rate = float(loss_rate)
        self._background = 0.0
        self._up = True
        #: Hashable identity of the link (direction-sensitive).
        self.key = (src, dst)
        #: Capacity left for simulated flows, bytes/s.  Maintained on
        #: every background/up-down change rather than derived per read
        #: — the allocator and sensors read it far more often than chaos
        #: writes it.
        self.available_capacity = self.capacity
        #: The flow networks on which the link is live; each hears of
        #: every change to ``available_capacity`` (they add and remove
        #: themselves).
        self.networks = ()
        #: bytes/s currently allocated to simulated flows (set by the
        #: flow network on every rebalance; diagnostic only).
        self.allocated = 0.0
        #: Cumulative bytes carried by simulated flows.
        self.bytes_carried = 0.0

    def __repr__(self):
        return (
            f"<Link {self.src}->{self.dst} "
            f"{self.capacity:.3g}B/s lat={self.latency * 1e3:.3g}ms>"
        )

    @property
    def background_utilisation(self):
        """Fraction of capacity eaten by un-simulated cross-traffic."""
        return self._background

    @background_utilisation.setter
    def background_utilisation(self, value):
        if not 0.0 <= value < 1.0:
            raise ValueError(f"background utilisation must be in [0,1): {value}")
        self._background = float(value)
        self._refresh_available()
        self._report()

    @property
    def is_up(self):
        """False while the link is failed (carries nothing)."""
        return self._up

    def set_down(self):
        """Fail the link: flows over it stall until :meth:`set_up`."""
        self._up = False
        self.available_capacity = 0.0
        self._report()

    def set_up(self):
        """Restore a failed link."""
        self._up = True
        self._refresh_available()
        self._report()

    def _refresh_available(self):
        if self._up:
            self.available_capacity = self.capacity * (1.0 - self._background)
        else:
            self.available_capacity = 0.0

    def _report(self):
        for network in self.networks:
            network.capacity_changed(self)

    @property
    def utilisation(self):
        """Total utilisation (background + simulated), in [0, 1]."""
        return min(
            1.0, self._background + self.allocated / self.capacity
        )

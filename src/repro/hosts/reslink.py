"""Resource channels: Link-like capacity constraints outside the topology.

The flow network treats anything with ``key``, ``available_capacity``,
``networks``, ``allocated`` and ``bytes_carried`` as a link, and
expects it to report every change of ``available_capacity`` to each
network in ``networks``.  A :class:`ResourceChannel` implements that
interface with a *dynamic* capacity delegated to its owner (a CPU or
disk model), so host-local contention participates in the same max-min
allocation as network links.
"""

__all__ = ["ResourceChannel"]


class ResourceChannel:
    """A dynamic-capacity constraint owned by a host resource.

    ``capacity_fn`` returns the bytes/s currently available to transfers
    through this channel.  A flow network reads it when the channel
    becomes live there and again after each :meth:`report`, so the
    owner must call :meth:`report` whenever something ``capacity_fn``
    reads changes.
    """

    def __init__(self, name, capacity_fn):
        self.name = name
        self._capacity_fn = capacity_fn
        #: Unique hashable identity (channels are never shared by name).
        self.key = ("resource", name)
        #: The flow networks on which the channel is live.
        self.networks = ()
        self.allocated = 0.0
        self.bytes_carried = 0.0

    def __repr__(self):
        return (
            f"<ResourceChannel {self.name} "
            f"cap={self.available_capacity:.4g}B/s "
            f"alloc={self.allocated:.4g}B/s>"
        )

    @property
    def available_capacity(self):
        capacity = self._capacity_fn()
        if capacity < 0:
            raise ValueError(
                f"resource channel {self.name} produced negative "
                f"capacity {capacity}"
            )
        return capacity

    def report(self):
        """Tell every network the channel is live on that its capacity
        may have moved."""
        for network in self.networks:
            network.capacity_changed(self)

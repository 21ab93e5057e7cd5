"""Shared resources for simulation processes.

:class:`Resource`, modelled on SimPy's, is a fixed number of slots with
a FIFO wait queue (e.g. an FTP server's connection limit).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from repro.sim.events import Event

if TYPE_CHECKING:
    from repro.sim.kernel import Simulator

__all__ = ["Resource"]


class Request(Event):
    """Pending acquisition of a :class:`Resource` slot.

    Usable as a context manager so callers cannot forget the release::

        with resource.request() as req:
            yield req
            ... hold the slot ...
    """

    __slots__ = ("resource",)

    def __init__(self, resource: Resource) -> None:
        super().__init__(resource.sim)
        self.resource = resource

    def __enter__(self) -> Request:
        return self

    def __exit__(self, exc_type: Any, exc_value: Any,
                 traceback: Any) -> bool:
        self.resource.release(self)
        return False


class Resource:
    """``capacity`` slots with FIFO queueing."""

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: deque[Request] = deque()

    def __repr__(self) -> str:
        return (
            f"<Resource {len(self.users)}/{self.capacity} used, "
            f"{len(self.queue)} queued>"
        )

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        """Ask for a slot; the returned event triggers once granted."""
        req = Request(self)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.succeed()
        else:
            self.queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Give back a slot (no-op if the request never got one)."""
        if request in self.users:
            self.users.remove(request)
        else:
            try:
                self.queue.remove(request)
            except ValueError:
                pass
            return
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()

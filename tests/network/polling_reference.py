"""Reference flow network for the capacity-report differential battery.

:class:`repro.network.flow.FlowNetwork` hands its solver only the
capacities of links that reported a change or just became live, writes
each re-solved link class's load once, and finds the earliest
completion in one inline loop.  :class:`PollingFlowNetwork` does what
it did before links reported: every reallocation re-reads the capacity
of every live link, every live link's ``allocated`` is recomputed from
its flows, and the wakeup is the minimum of :meth:`Flow.eta`.  It
ignores reports, so a capacity change that no mutator reports still
reaches it.  ``tests/network/test_capacity_reports.py`` requires the two
to agree bit for bit.

It lives under ``tests/`` because nothing in the library may call it.
"""

import math

from repro.network.flow import _COMPLETION_SLACK, FlowNetwork

__all__ = ["PollingFlowNetwork"]


class PollingFlowNetwork(FlowNetwork):
    """A flow network that polls every live link on every reallocation."""

    def _reallocate(self):
        finished = [
            flow for flow in self._flows.values()
            if flow.remaining <= _COMPLETION_SLACK
        ]
        for flow in finished:
            flow.remaining = 0.0
            flow.completed_at = self.sim.now
            del self._flows[flow.id]
            self._solver.remove_flow(flow.id)
            self._unregister_links(flow)
            self.completed.append(flow)
            flow.done.succeed(flow)
        for flow in finished:
            for link in flow.links:
                link.allocated = 0.0

        self._changed.clear()
        rates = self._solver.rates({
            entry[0]: entry[0].available_capacity
            for entry in self._links_by_key.values()
        })
        for fid, rate in rates.items():
            self._flows[fid].rate = rate
        # Every live link's load from scratch: its flows' rates summed
        # in flow insertion order from 0.0.
        loads = {}
        for flow in self._flows.values():
            for link in flow.links:
                loads[link] = loads.get(link, 0.0) + flow.rate
        for link, load in loads.items():
            link.allocated = load

        self._schedule_wakeup()

    def _schedule_wakeup(self):
        self._wakeup_version += 1
        version = self._wakeup_version
        eta = min(
            (flow.eta() for flow in self._flows.values()), default=math.inf
        )
        if math.isinf(eta):
            return
        delay = max(0.0, eta - self.sim.now)
        event = self.sim.event()
        event.callbacks.append(lambda _ev: self._on_wakeup(version))
        event._ok = True
        event._value = None
        self.sim.schedule(event, delay=delay)

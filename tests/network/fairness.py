"""Max-min fair bandwidth allocation with per-flow rate caps.

This is the classic progressive-filling (water-filling) algorithm: all
flows' rates rise together; whenever a link saturates, every flow through
it freezes at its current rate; whenever a flow hits its own cap (TCP
window limit, disk ceiling, ...), that flow freezes.  The result is the
unique max-min fair allocation subject to the caps.

Flows that share no link (directly or transitively) cannot influence each
other's rates, so allocation is computed per connected component over
shared links.  :func:`max_min_allocation` is the pure-function face of
:class:`~repro.network.solver.IncrementalMaxMinSolver`: a fresh solver
with every demand added, solved once, so it shares the library's one
water-filling kernel.  The property tests in
``tests/network/test_fairness.py`` and the differential batteries
(``test_fairness_incremental.py``, ``test_solver_churn.py``,
``test_fill_differential.py``) drive the solver through it; the last
two compare it bit-for-bit with the plain rescanning loop in
``tests/network/fill_reference.py``.  It lives under ``tests/`` because
nothing in the library calls it.
"""

from repro.network.solver import IncrementalMaxMinSolver

__all__ = ["FlowDemand", "max_min_allocation"]


class FlowDemand:
    """Input record for the allocator: a flow id, its links, and a cap."""

    __slots__ = ("flow_id", "links", "cap")

    def __init__(self, flow_id, links, cap=float("inf")):
        if not cap >= 0:
            # `not >=` rather than `<` so NaN caps are rejected too.
            raise ValueError(f"negative or NaN cap {cap}")
        self.flow_id = flow_id
        self.links = tuple(links)
        self.cap = float(cap)

    def __repr__(self):
        return f"<FlowDemand {self.flow_id} over {len(self.links)} links>"


def max_min_allocation(demands, link_capacity):
    """Compute max-min fair rates.

    Parameters
    ----------
    demands:
        Iterable of :class:`FlowDemand`.  A demand whose ``links`` tuple
        is empty (loopback) simply receives its cap.
    link_capacity:
        Mapping from link key to available capacity in bytes/s.
        Capacities must be finite and non-negative.

    Returns
    -------
    dict
        ``flow_id -> rate`` in bytes/s, in demand order.
    """
    demands = list(demands)
    solver = IncrementalMaxMinSolver()
    for demand in demands:
        solver.add_flow(demand.flow_id, demand.links, demand.cap)
    rates = solver.rates(link_capacity)
    return {demand.flow_id: rates[demand.flow_id] for demand in demands}

"""Reference routers for the routing differential battery.

:class:`repro.network.routing.Router` walks the tree path for pairs
inside one stub tree, keeps a few paused searches, one per source, for
the other pairs, and resumes a source's search for its next destination
instead of starting again from the source.  :class:`ReferenceRouter`
keeps the per-pair search it replaced, verbatim: every cache miss runs
a fresh search from ``src`` that stops when it settles ``dst``.  The
only addition is :attr:`ReferenceRouter.settled`, the number of nodes
its searches settled, which the tests compare with the router's own
counter.  ``tests/network/test_route_differential.py`` requires the
router to return the same link sequences and raise the same errors, and
``tests/network/route_invariants.py`` checks every route computed under
``pytest --sanitize`` against it.

Like the library's router, the reference adds to its frontier with
``append``, not ``heapq.heappush``, so ``heappop`` does not always
return the nearest node and a multi-region route can be longer than the
shortest (ROADMAP Finding 1).  :func:`textbook_distances` is the heap
Dijkstra the routes should agree with once that is fixed.

Both live under ``tests/`` because nothing in the library may call them.
"""

import heapq

from repro.network.routing import NoRouteError, Path

__all__ = ["ReferenceRouter", "route_cost", "textbook_distances"]


class ReferenceRouter:
    """The per-pair search, one fresh search per cache miss."""

    def __init__(self, topology):
        self.topology = topology
        self._cache = {}
        self._cache_version = topology.version
        #: Nodes settled by all searches so far.
        self.settled = 0

    def path(self, src, dst):
        """Return the :class:`Path` from ``src`` to ``dst``.

        Raises :class:`NoRouteError` if the nodes are disconnected.
        """
        if self._cache_version != self.topology.version:
            self._cache.clear()
            self._cache_version = self.topology.version
        key = (src, dst)
        if key not in self._cache:
            self._cache[key] = self._dijkstra(src, dst)
        return self._cache[key]

    def _dijkstra(self, src, dst):
        topo = self.topology
        if not topo.has_node(src):
            raise KeyError(f"unknown node {src!r}")
        if not topo.has_node(dst):
            raise KeyError(f"unknown node {dst!r}")
        if src == dst:
            return Path(src, dst, [])

        # (cost, hops, seq, node, incoming_link)
        best = {src: (0.0, 0)}
        parent = {}
        seq = 0
        frontier = [(0.0, 0, seq, src)]
        visited = set()
        while frontier:
            cost, hops, _, node = heapq.heappop(frontier)
            if node in visited:
                continue
            visited.add(node)
            self.settled += 1
            if node == dst:
                break
            for link in topo.outgoing(node):
                if link.dst in visited:
                    continue
                cand = (cost + link.latency, hops + 1)
                if link.dst not in best or cand < best[link.dst]:
                    best[link.dst] = cand
                    parent[link.dst] = link
                    seq += 1
                    frontier.append((cand[0], cand[1], seq, link.dst))

        if dst not in parent:
            raise NoRouteError(f"no route {src} -> {dst}")
        links = []
        node = dst
        while node != src:
            link = parent[node]
            links.append(link)
            node = link.src
        links.reverse()
        return Path(src, dst, links)


def route_cost(path):
    """``(latency, hops)`` of ``path``, summing latencies in path order
    from ``0.0`` as a search does."""
    latency = 0.0
    for link in path.links:
        latency += link.latency
    return latency, len(path.links)


def textbook_distances(topology, src):
    """Least ``(latency, hops)`` from ``src`` to every reachable node,
    by Dijkstra over a true heap."""
    best = {src: (0.0, 0)}
    frontier = [(0.0, 0, src)]
    done = set()
    while frontier:
        cost, hops, node = heapq.heappop(frontier)
        if node in done:
            continue
        done.add(node)
        for link in topology.outgoing(node):
            cand = (cost + link.latency, hops + 1)
            if link.dst not in best or cand < best[link.dst]:
                best[link.dst] = cand
                heapq.heappush(frontier, (cand[0], cand[1], link.dst))
    return best

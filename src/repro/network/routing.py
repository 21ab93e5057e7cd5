"""Latency-weighted routing over a :class:`Topology`.

Paths come from a Dijkstra-style search with link latency as the edge
weight (ties broken by hop count), standing in for the static IP
routing of the paper's testbed.  The search adds to its frontier with
``append`` rather than ``heapq.heappush``, so ``heappop`` does not
always return the nearest node.  On a tree-shaped grid such as the
paper's testbed there is only one route per pair, but a multi-region
route can be longer than the shortest one (ROADMAP Finding 1).  Fixing
that changes the routes of every multi-region exhibit and the pinned
perfbench references, so it waits for a change allowed to re-pin them.

Computed paths are cached and invalidated when the topology changes.
"""

import heapq

__all__ = ["NoRouteError", "Path", "Router"]


class NoRouteError(Exception):
    """No path exists between the requested endpoints."""


class Path:
    """An ordered sequence of links from ``src`` to ``dst``.

    A path between a node and itself is the empty *loopback* path.

    Latency, loss and raw capacity are fixed at link construction (only
    background utilisation and up/down state change at runtime), so the
    derived path figures are computed once here instead of per read —
    sensors read them on every probe.
    """

    __slots__ = ("src", "dst", "links", "latency", "rtt", "loss_rate",
                 "raw_capacity")

    def __init__(self, src, dst, links):
        self.src = src
        self.dst = dst
        self.links = tuple(links)
        #: One-way propagation delay in seconds.
        self.latency = sum(link.latency for link in self.links)
        #: Round-trip time in seconds (symmetric-path assumption).
        self.rtt = 2.0 * self.latency
        #: End-to-end loss probability (independent per-link losses).
        survive = 1.0
        for link in self.links:
            survive *= 1.0 - link.loss_rate
        self.loss_rate = 1.0 - survive
        #: Capacity of the narrowest link, ignoring background traffic.
        if self.links:
            self.raw_capacity = min(link.capacity for link in self.links)
        else:
            self.raw_capacity = float("inf")

    def __repr__(self):
        hops = " -> ".join([self.src] + [link.dst for link in self.links])
        return f"<Path {hops}>"

    def __iter__(self):
        return iter(self.links)

    def __len__(self):
        return len(self.links)

    @property
    def is_loopback(self):
        return not self.links

    @property
    def available_capacity(self):
        """Capacity of the narrowest link after background traffic."""
        if not self.links:
            return float("inf")
        return min(link.available_capacity for link in self.links)


#: How many paused per-source searches a router keeps.  An evicted
#: search restarts from its source on that source's next miss, which
#: yields the same routes, so this bounds memory, not behaviour.
_LIVE_SEARCHES = 4


class _Search:
    """One source's search, paused after settling its last target.

    ``node`` is the node settled last and not yet expanded (``None``
    once the frontier is exhausted); ``cost`` and ``hops`` are its
    distance.  Every settled node's parent link is final.
    """

    __slots__ = ("src", "frontier", "best", "parent", "visited", "seq",
                 "cost", "hops", "node")

    def __init__(self, src):
        self.src = src
        # The first pop settles ``src``; start just after it.
        self.frontier = []
        self.best = {src: (0.0, 0)}
        self.parent = {}
        self.visited = {src}
        self.seq = 0
        self.cost = 0.0
        self.hops = 0
        self.node = src

    def links_to(self, dst):
        """The settled ``dst``'s link chain from ``src``."""
        parent = self.parent
        src = self.src
        links = []
        node = dst
        while node != src:
            link = parent[node]
            links.append(link)
            node = link.src
        links.reverse()
        return links


class Router:
    """Latency-weighted router with a path cache.

    Routes come from the append-frontier search described in the module
    docstring, so they are not always latency-shortest (ROADMAP
    Finding 1).  A cache miss resumes its source's paused search, if
    one of the last :data:`_LIVE_SEARCHES` sources is still live,
    instead of searching again from the source.  Until a search settles
    its target it never reads the target, and a settled node's parent
    link never changes, so a resumed search returns exactly the route a
    fresh one would.
    """

    def __init__(self, topology):
        self.topology = topology
        self._cache = {}
        self._version = topology.version
        #: Live searches by source, least recently used first.
        self._searches = {}
        #: Node -> ``((dst, latency, link), ...)`` for this version.
        self._adjacency = {}
        #: Fresh searches started and nodes settled, over the router's
        #: life.
        self.searches = 0
        self.settled = 0

    def path(self, src, dst):
        """Return the :class:`Path` from ``src`` to ``dst``.

        Raises :class:`NoRouteError` if the nodes are disconnected.
        """
        if self._version == self.topology.version:
            path = self._cache.get((src, dst))
            if path is not None:
                return path
        return self._miss(src, dst)

    def _miss(self, src, dst):
        topo = self.topology
        if self._version != topo.version:
            self._cache.clear()
            self._searches.clear()
            self._adjacency.clear()
            self._version = topo.version
        if not topo.has_node(src):
            raise KeyError(f"unknown node {src!r}")
        if not topo.has_node(dst):
            raise KeyError(f"unknown node {dst!r}")
        if src == dst:
            path = Path(src, dst, [])
        else:
            searches = self._searches
            search = searches.pop(src, None)
            if search is None:
                search = _Search(src)
                self.searches += 1
                self.settled += 1
                if len(searches) >= _LIVE_SEARCHES:
                    del searches[next(iter(searches))]
            searches[src] = search
            if dst not in search.visited:
                self._resume(search, dst)
                if dst not in search.visited:
                    raise NoRouteError(f"no route {src} -> {dst}")
            path = Path(src, dst, search.links_to(dst))
        self._cache[(src, dst)] = path
        return path

    def _resume(self, search, dst):
        """Run ``search`` on until it settles ``dst`` or runs dry."""
        adjacency = self._adjacency
        frontier = search.frontier
        best = search.best
        parent = search.parent
        visited = search.visited
        heappop = heapq.heappop
        seq = search.seq
        cost = search.cost
        hops = search.hops
        node = search.node
        settled = 0
        while node is not None:
            out = adjacency.get(node)
            if out is None:
                out = adjacency[node] = tuple(
                    (link.dst, link.latency, link)
                    for link in self.topology.outgoing(node)
                )
            hops += 1
            for nbr, latency, link in out:
                if nbr in visited:
                    continue
                cand = (cost + latency, hops)
                old = best.get(nbr)
                if old is None or cand < old:
                    best[nbr] = cand
                    parent[nbr] = link
                    seq += 1
                    frontier.append((cand[0], hops, seq, nbr))
            while frontier:
                cost, hops, _, node = heappop(frontier)
                if node not in visited:
                    break
            else:
                node = None
                break
            visited.add(node)
            settled += 1
            if node == dst:
                break
        search.seq = seq
        search.cost = cost
        search.hops = hops
        search.node = node
        self.settled += settled

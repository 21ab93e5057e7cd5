"""Latency-weighted routing over a :class:`Topology`.

Paths are latency-weighted routes (ties broken by hop count), standing
in for the static IP routing of the paper's testbed.  Most pairs never
need a search:

* **Stub forest.**  Peeling the undirected graph, by repeatedly
  removing nodes of degree at most one, leaves the core (its 2-core)
  and a forest of stub trees, each hanging from one core node (or, for
  a component that is itself a tree, rooted at the node peeled last).
  On the generated grids, hosts and site switches are stubs and the
  region routers are core; dual-homed switches stay core.  Peeling is
  O(nodes + links) and is done once per ``Topology.version``, at its
  first cache miss.
* **Tree pairs are walked.**  A tree touches the rest of the graph only
  at its root, so a simple path between two of its nodes that left it
  would pass the root twice: the tree path is the only simple path
  between them.  A search's parent links always form a simple path
  (each parent was settled before its child), so for such a pair the
  search could only return the tree path, whatever order its frontier
  pops in.  The router therefore walks both nodes up to their common
  ancestor and joins the up-links to the down-links, at O(path
  length).  If a directed link on that walk is missing, there is no
  route, and the search is left to say so.
* **Every other pair is searched**, by a Dijkstra-style search resumed
  per source.  It adds to its frontier with ``append`` rather than
  ``heapq.heappush``, so ``heappop`` does not always return the nearest
  node and a route that crosses the core can be longer than the
  shortest one (ROADMAP Finding 1).  Fixing that changes the routes of
  every multi-region exhibit and the pinned perfbench references, so
  it waits for a change allowed to re-pin them.  The stub walk does
  not depend on it.

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


class _Stub:
    """A node of a stub tree: its attachment towards the tree's root.

    ``parent`` is the :class:`_Stub` of the neighbour it hangs from
    (``None`` at the root), ``depth`` its distance from ``root`` in
    hops, ``up`` the link to the parent and ``down`` the link back
    (either ``None`` where the topology has no such directed link).
    """

    __slots__ = ("parent", "depth", "root", "up", "down")

    def __init__(self, parent, depth, root, up, down):
        self.parent = parent
        self.depth = depth
        self.root = root
        self.up = up
        self.down = down


def _stub_forest(topology):
    """Peel ``topology`` into its stub forest: node -> :class:`_Stub`.

    Holds every peeled node and every core node a tree hangs from; a
    core node with no tree is absent.  O(nodes + links).
    """
    links = {}
    # Undirected neighbours, in dicts so that peeling is deterministic.
    nbrs = {node.name: {} for node in topology.nodes()}
    for link in topology.links():
        if link.src != link.dst:
            links[link.key] = link
            nbrs[link.src][link.dst] = None
            nbrs[link.dst][link.src] = None
    stack = [name for name, around in nbrs.items() if len(around) <= 1]
    peeled = []
    attach = {}
    while stack:
        node = stack.pop()
        peeled.append(node)
        around = nbrs[node]
        if around:
            parent, _ = around.popitem()
            attach[node] = parent
            rest = nbrs[parent]
            del rest[node]
            # Each node is pushed once: at degree <= 1 initially, or
            # when peeling drops it from two to one.
            if len(rest) == 1:
                stack.append(parent)
    forest = {}
    for node in reversed(peeled):
        parent = attach.get(node)
        if parent is None:
            forest[node] = _Stub(None, 0, node, None, None)
            continue
        above = forest.get(parent)
        if above is None:
            above = forest[parent] = _Stub(None, 0, parent, None, None)
        forest[node] = _Stub(
            above, above.depth + 1, above.root,
            links.get((node, parent)), links.get((parent, node)),
        )
    return forest


def _tree_links(forest, src, dst):
    """The tree path from ``src`` to ``dst`` if both hang in one stub
    tree and each of its directed links exists, else ``None``."""
    a = forest.get(src)
    b = forest.get(dst)
    if a is None or b is None or a.root != b.root:
        return None
    up = []
    down = []
    while a.depth > b.depth:
        up.append(a.up)
        a = a.parent
    while b.depth > a.depth:
        down.append(b.down)
        b = b.parent
    while a is not b:
        up.append(a.up)
        a = a.parent
        down.append(b.down)
        b = b.parent
    if None in up or None in down:
        return None
    down.reverse()
    up.extend(down)
    return up


class Router:
    """Latency-weighted router with a path cache.

    A cache miss between two nodes of one stub tree walks the tree (see
    the module docstring); the forest is rebuilt at the first miss of
    each topology version.  Any other miss resumes its source's paused
    search, if one of the last :data:`_LIVE_SEARCHES` sources is still
    live, instead of searching again from the source.  Until a search
    settles its target it never reads the target, and a settled node's
    parent link never changes, so a resumed search returns exactly the
    route a fresh one would.  The search's append frontier makes some
    routes across the core longer than the shortest (ROADMAP Finding
    1); a tree pair's route is its only simple path, so the walk agrees
    with any search.
    """

    def __init__(self, topology):
        self.topology = topology
        self._cache = {}
        self._version = topology.version
        #: Live searches by source, least recently used first.
        self._searches = {}
        #: Node -> ``((dst, latency, link), ...)`` for this version.
        self._adjacency = {}
        #: Node -> :class:`_Stub` for this version; ``None`` until the
        #: version's first miss.
        self._forest = None
        #: Fresh searches started and nodes settled, over the router's
        #: life.  Tree pairs start and settle none.
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
            self._forest = None
            self._version = topo.version
        if not topo.has_node(src):
            raise KeyError(f"unknown node {src!r}")
        if not topo.has_node(dst):
            raise KeyError(f"unknown node {dst!r}")
        if src == dst:
            path = Path(src, dst, [])
        else:
            forest = self._forest
            if forest is None:
                forest = self._forest = _stub_forest(topo)
            links = _tree_links(forest, src, dst)
            if links is None:
                links = self._search_links(src, dst)
            path = Path(src, dst, links)
        self._cache[(src, dst)] = path
        return path

    def _search_links(self, src, dst):
        """``dst``'s link chain from ``src``'s (resumed) search."""
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
        return search.links_to(dst)

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

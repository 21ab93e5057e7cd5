"""Globus MDS: the Monitoring and Discovery Service.

MDS2 organises information as per-host providers (GRIS — Grid Resource
Information Service) aggregated by an index service (GIIS — Grid Index
Information Service) that caches entries with a TTL.  The paper reads
the CPU state of candidate replica hosts through MDS; here the GIIS
query is a generator that charges a network round trip on cache misses
and nothing on hits, matching MDS's caching behaviour.
"""

__all__ = ["GIIS", "GRIS", "MdsUnavailableError"]


class MdsUnavailableError(Exception):
    """The GIIS is down (blackout); queries cannot be answered."""


class GRIS:
    """Per-host resource information provider."""

    def __init__(self, grid, host_name):
        self.grid = grid
        self.host = grid.host(host_name)
        self.snapshots_served = 0

    def __repr__(self):
        return f"<GRIS on {self.host.name}>"

    def snapshot(self):
        """Current resource description of the host (an LDAP-entry-like
        dict in real MDS)."""
        host = self.host
        self.snapshots_served += 1
        return {
            "hostname": host.name,
            "site": host.site,
            "time": self.grid.sim.now,
            "cpu.count": host.cpu.cores,
            "cpu.speed_ghz": host.cpu.frequency_ghz,
            "cpu.idle_fraction": host.cpu.idle_fraction,
            "memory.total_bytes": host.memory_bytes,
            "disk.total_bytes": host.disk.capacity_bytes,
            "disk.free_bytes": host.filesystem.free_bytes,
            "disk.io_idle_fraction": host.disk.io_idle_fraction,
        }


class GIIS:
    """Index service aggregating GRIS providers with a TTL cache."""

    def __init__(self, grid, host_name, ttl=30.0):
        if ttl < 0:
            raise ValueError("ttl must be non-negative")
        self.grid = grid
        self.host_name = host_name
        self.ttl = float(ttl)
        self._providers = {}
        self._cache = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self._available = True
        #: Queries refused while the index was blacked out.
        self.refused_queries = 0

    def __repr__(self):
        state = "" if self._available else " DOWN"
        return (
            f"<GIIS on {self.host_name}{state}, "
            f"{len(self._providers)} providers, ttl={self.ttl:g}s>"
        )

    @property
    def is_available(self):
        """False while the index service is blacked out."""
        return self._available

    def set_down(self):
        """Black out the index: queries raise :class:`MdsUnavailableError`."""
        self._available = False

    def set_up(self):
        """Restore a blacked-out index (its cache survives)."""
        self._available = True

    def register(self, gris):
        """Register a GRIS provider."""
        name = gris.host.name
        if name in self._providers:
            raise ValueError(f"GRIS for {name!r} already registered")
        self._providers[name] = gris

    def providers(self):
        return sorted(self._providers)

    def query(self, host_name):
        """Fetch a host's entry; a generator returning the info dict.

        Cache hits are free; misses cost a round trip from the GIIS host
        to the GRIS host (the LDAP search), as in MDS2.  While the index
        is blacked out every query raises :class:`MdsUnavailableError`
        (consumers degrade to their last known good entries).
        """
        if not self._available:
            self.refused_queries += 1
            raise MdsUnavailableError(
                f"GIIS on {self.host_name} is down"
            )
        if host_name not in self._providers:
            raise KeyError(f"no GRIS registered for {host_name!r}")
        now = self.grid.sim.now
        cached = self._cache.get(host_name)
        if cached is not None and now - cached["time"] <= self.ttl:
            self.cache_hits += 1
            return dict(cached)
        self.cache_misses += 1
        if host_name != self.host_name:
            rtt = self.grid.path(self.host_name, host_name).rtt
            yield self.grid.sim.timeout(rtt)
        entry = self._providers[host_name].snapshot()
        self._cache[host_name] = entry
        return dict(entry)

    def query_all(self):
        """Fetch every registered host's entry (generator returning dict)."""
        results = {}
        for name in self.providers():
            results[name] = yield from self.query(name)
        return results

    def invalidate(self, host_name=None):
        """Drop cached entries (all if ``host_name`` is None)."""
        if host_name is None:
            self._cache.clear()
        else:
            self._cache.pop(host_name, None)

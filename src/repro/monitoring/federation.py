"""Hierarchical (per-region) monitoring federation.

The paper's testbed monitors three sites with an all-pairs NWS mesh and
one GIIS — O(N^2) bandwidth sensors, affordable at N=12 hosts and
ruinous at a thousand sites.  Real deployments (and the topology
presets' ``"regional"`` monitoring layout) go hierarchical instead:

* every *region* runs its own GIIS (at the region hub host) indexing
  only its own GRIS providers, and its own NWS memory fed by regional
  sensors;
* bandwidth sensors follow the hierarchy — one pair per site
  (site representative <-> region hub) plus the hub <-> hub mesh —
  roughly ``2*sites + regions^2`` sensors instead of ``hosts^2``;
* the selection host runs the two federation frontends in this module,
  which present the exact interfaces
  :class:`~repro.monitoring.information.InformationService` already
  consumes, so replica selection is unchanged.

:class:`FederatedGIIS` answers host queries by forwarding to the
owning region's GIIS (charging the selection-host -> region-hub round
trip on top-level cache misses, as MDS GIIS-to-GIIS federation does).

:class:`FederatedNwsMemory` answers ``bandwidth`` forecasts for pairs
nobody measures directly by composing measured segments — candidate
rep -> candidate hub, hub -> hub, hub -> client rep — and returning the
bottleneck (minimum), the standard path-composition estimate.  Pairs
with no composable segments return ``(None, None)``, which the
information service already treats as a cold start (live probe).
"""

from repro.monitoring.mds import GIIS, MdsUnavailableError

__all__ = ["FederatedGIIS", "FederatedNwsMemory"]


class FederatedGIIS(GIIS):
    """Top-level GIIS delegating to per-region GIISes.

    Keeps the parent's TTL cache, hit/miss counters and blackout
    switch; only the fetch path differs — a top-level miss pays the
    round trip to the owning region's hub and then that GIIS's own
    query cost (its cache absorbs the hub -> host hop).
    """

    def __init__(self, grid, host_name, ttl=30.0):
        super().__init__(grid, host_name, ttl=ttl)
        #: region name -> region GIIS.
        self._regions = {}
        #: host name -> owning region GIIS.
        self._home = {}

    def __repr__(self):
        state = "" if self.is_available else " DOWN"
        return (
            f"<FederatedGIIS on {self.host_name}{state}, "
            f"{len(self._regions)} regions, {len(self._home)} hosts>"
        )

    def add_region(self, name, region_giis):
        """Federate one region GIIS (its providers become queryable)."""
        if name in self._regions:
            raise ValueError(f"region {name!r} already federated")
        self._regions[name] = region_giis
        for host in region_giis.providers():
            if host in self._home:
                raise ValueError(
                    f"host {host!r} already owned by another region"
                )
            self._home[host] = region_giis

    def regions(self):
        """Names of federated regions."""
        return sorted(self._regions)

    def region_giis(self, name):
        """The region GIIS federated under ``name``."""
        return self._regions[name]

    def providers(self):
        return sorted(self._home)

    def query(self, host_name):
        """Fetch a host's entry through its region (a generator).

        Top-level cache hits are free; misses pay the federation round
        trip (selection host -> region hub) and then the region GIIS's
        own query, whose cache usually absorbs the hub -> host hop.
        """
        if not self.is_available:
            self.refused_queries += 1
            raise MdsUnavailableError(
                f"GIIS on {self.host_name} is down"
            )
        region = self._home.get(host_name)
        if region is None:
            raise KeyError(f"no region GIIS owns {host_name!r}")
        now = self.grid.sim.now
        cached = self._cache.get(host_name)
        if cached is not None and now - cached["time"] <= self.ttl:
            self.cache_hits += 1
            return dict(cached)
        self.cache_misses += 1
        if region.host_name != self.host_name:
            rtt = self.grid.path(self.host_name, region.host_name).rtt
            yield self.grid.sim.timeout(rtt)
        entry = yield from region.query(host_name)
        self._cache[host_name] = dict(entry)
        return dict(entry)


class FederatedNwsMemory:
    """Selection-host frontend over the per-region NWS memories.

    Implements the :class:`~repro.monitoring.nws.memory.NwsMemory`
    surface the information service and the chaos engine use —
    ``forecast``/``latest``/``store``/``freeze``/``thaw`` — on top of
    the regional memories, composing unmeasured bandwidth pairs from
    measured segments.

    Parameters
    ----------
    sim:
        The simulator (time source for nothing yet, kept for interface
        parity with :class:`NwsMemory`).
    name:
        Registration name (``memory@<selection_host>``).
    region_of:
        host name -> region name.
    rep_of:
        host name -> its site's representative host (the host whose
        pair series the sensors actually measure).
    hub_of:
        region name -> the region's hub host.
    memories:
        region name -> that region's :class:`NwsMemory`.
    """

    def __init__(self, sim, name, region_of, rep_of, hub_of, memories):
        self.sim = sim
        self.name = name
        self._region_of = dict(region_of)
        self._rep_of = dict(rep_of)
        self._hub_of = dict(hub_of)
        self._memories = dict(memories)
        self._frozen = False

    def __repr__(self):
        state = " FROZEN" if self._frozen else ""
        return (
            f"<FederatedNwsMemory {self.name}{state} "
            f"{len(self._memories)} regions>"
        )

    # -- segment plumbing -------------------------------------------------

    def _segments(self, src, dst):
        """Measured (a, b) hops composing the src -> dst path, or None
        when either endpoint is unknown to the federation."""
        src_region = self._region_of.get(src)
        dst_region = self._region_of.get(dst)
        if src_region is None or dst_region is None:
            return None
        src_rep = self._rep_of[src]
        dst_rep = self._rep_of[dst]
        src_hub = self._hub_of[src_region]
        dst_hub = self._hub_of[dst_region]
        segments = []
        if src_rep != src_hub:
            segments.append((src_rep, src_hub))
        if src_hub != dst_hub:
            segments.append((src_hub, dst_hub))
        if dst_hub != dst_rep:
            segments.append((dst_hub, dst_rep))
        return segments

    def _segment_memory(self, a, b):
        """The regional memory owning the (a, b) sensor series, or None."""
        from repro.monitoring.nws.series import series_key

        key = series_key("bandwidth", a, b)
        for host in (a, b):
            memory = self._memories.get(self._region_of.get(host))
            if memory is not None and memory.has_series(key):
                return memory, key
        return None, key

    def _home_memory(self, key):
        """The regional memory owning an exact (non-composed) key."""
        resource, source, _target = key
        memory = self._memories.get(self._region_of.get(source))
        if memory is not None and memory.has_series(key):
            return memory
        for name in sorted(self._memories):
            if self._memories[name].has_series(key):
                return self._memories[name]
        return None

    # -- NwsMemory surface ------------------------------------------------

    def forecast(self, key):
        """(prediction, forecaster_name), composing bandwidth pairs.

        Exactly-measured series answer directly from their home
        memory.  Unmeasured bandwidth pairs compose the bottleneck of
        their measured segments (name ``"federated"``); anything else
        missing returns ``(None, None)`` — the information service's
        cold-start path.
        """
        home = self._home_memory(key)
        if home is not None:
            return home.forecast(key)
        resource, source, target = key
        if resource != "bandwidth" or target is None:
            return None, None
        segments = self._segments(source, target)
        if not segments:
            return None, None
        values = []
        for a, b in segments:
            memory, seg_key = self._segment_memory(a, b)
            if memory is None:
                return None, None
            value, _name = memory.forecast(seg_key)
            if value is None:
                return None, None
            values.append(value)
        return min(values), "federated"

    def latest(self, key):
        """Most recent (time, value), conservatively aged for composed
        pairs: the *oldest* segment reading, so staleness discounting
        sees the weakest link."""
        home = self._home_memory(key)
        if home is not None:
            return home.latest(key)
        resource, source, target = key
        if resource != "bandwidth" or target is None:
            return None
        segments = self._segments(source, target)
        if not segments:
            return None
        oldest = None
        for a, b in segments:
            memory, seg_key = self._segment_memory(a, b)
            if memory is None:
                return None
            reading = memory.latest(seg_key)
            if reading is None:
                return None
            if oldest is None or reading[0] < oldest[0]:
                oldest = reading
        return oldest

    def store(self, key, time, value):
        """Route a reading to its source host's regional memory."""
        source = key[1]
        memory = self._memories.get(self._region_of.get(source))
        if memory is None:
            raise KeyError(f"no regional memory owns host {source!r}")
        memory.store(key, time, value)

    def keys(self):
        """Union of every regional memory's stored keys."""
        merged = set()
        for name in sorted(self._memories):
            merged.update(self._memories[name].keys())
        return sorted(merged, key=str)

    def has_series(self, key):
        return self._home_memory(key) is not None

    def series(self, key):
        home = self._home_memory(key)
        if home is None:
            raise KeyError(key)
        return home.series(key)

    def region_memory(self, name):
        """The regional :class:`NwsMemory` for region ``name``."""
        return self._memories[name]

    # -- chaos surface ----------------------------------------------------

    @property
    def is_frozen(self):
        return self._frozen

    def freeze(self):
        """Stale-reading window across the whole federation."""
        self._frozen = True
        for name in sorted(self._memories):
            self._memories[name].freeze()

    def thaw(self):
        self._frozen = False
        for name in sorted(self._memories):
            self._memories[name].thaw()

    @property
    def measurements_dropped(self):
        """Measurements dropped while frozen, federation-wide."""
        return sum(
            self._memories[name].measurements_dropped
            for name in sorted(self._memories)
        )

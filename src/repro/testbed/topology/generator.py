"""Seeded, deterministic multi-region grid generation.

:func:`generate_topology` turns a :class:`GeneratorConfig` into a
valid :class:`~repro.testbed.topology.spec.TopologySpec`: regions
are split into core/metro/edge tiers, sites are dealt round-robin into
regions, gateway routers are wired core-mesh / metro-to-core /
edge-to-metro, and every capacity/latency/loss figure is drawn from a
per-tier band through one named
:class:`~repro.sim.random_streams.RandomStream` derived from
``(seed, name)`` — so the same config reproduces the same grid byte
for byte, and two configs differing only in ``seed`` produce
structurally similar but numerically independent grids.

Tier bands are disjoint by construction (edge uplinks top out below
the slowest metro uplink, metro below core), which is what makes the
spec's tier-monotonicity invariant hold for every seed rather than
merely most of them.
"""

import math

from repro.sim.random_streams import RandomStream
from repro.testbed.sites import SiteSpec
from repro.testbed.topology.spec import RegionSpec, TopologySpec, WanLinkSpec
from repro.units import GiB, MiB, mbit_per_s, milliseconds

__all__ = ["GeneratorConfig", "generate_topology"]

#: Site uplink bands per tier: (capacity Mbps lo/hi, latency ms lo/hi,
#: loss lo/hi).  Capacity bands are disjoint across tiers on purpose —
#: see the module docstring.
UPLINK_BANDS = {
    "edge": ((10.0, 90.0), (8.0, 40.0), (2e-4, 4e-3)),
    "metro": ((100.0, 950.0), (2.0, 10.0), (2e-5, 4e-4)),
    "core": ((1000.0, 10000.0), (0.5, 3.0), (1e-6, 5e-5)),
}

#: Backbone link bands keyed by the unordered tier pair of the two
#: gateway routers: (capacity Mbps lo/hi, latency ms lo/hi, loss lo/hi).
BACKBONE_BANDS = {
    ("core", "core"): ((2000.0, 10000.0), (5.0, 40.0), (1e-6, 1e-5)),
    ("core", "metro"): ((600.0, 2000.0), (2.0, 15.0), (1e-5, 1e-4)),
    ("metro", "metro"): ((400.0, 1200.0), (2.0, 12.0), (1e-5, 2e-4)),
    ("core", "edge"): ((100.0, 600.0), (1.0, 10.0), (5e-5, 1e-3)),
    ("edge", "metro"): ((100.0, 600.0), (1.0, 8.0), (5e-5, 1e-3)),
}

#: Host hardware menus (2005-era cluster nodes, as in the paper).
_CORE_MENU = (1, 2, 4)
_FREQUENCY_MENU = (0.9, 2.0, 2.8, 3.2)
_MEMORY_MENU = (256 * MiB, 512 * MiB, 1 * GiB, 2 * GiB)
_DISK_CAPACITY_MENU = (10e9, 60e9, 80e9, 200e9)
_DISK_BANDWIDTH_MENU = (25e6, 55e6, 60e6, 80e6)

#: LAN menus by tier (edge sites run older switches).
_LAN_CAPACITY = {
    "edge": mbit_per_s(100),
    "metro": mbit_per_s(1000),
    "core": mbit_per_s(1000),
}
_LAN_LATENCY = {"edge": 0.0002, "metro": 0.0001, "core": 0.0001}


class GeneratorConfig:
    """Knobs of one generated grid.  All defaults are deterministic.

    Parameters
    ----------
    n_sites:
        Total sites across all regions (>= 1).
    seed:
        Root seed; all randomness derives from ``(seed, name)``.
    name:
        Topology name (defaults to ``gen-<n_sites>``); part of the
        stream derivation, so two same-seed configs with different
        names draw independently.
    hosts_per_site:
        Either an int (every site identical) or an inclusive
        ``(lo, hi)`` band sampled per site.
    sites_per_region:
        Target region size; default ``ceil(sqrt(n_sites))`` clamped to
        [3, 40] — region counts stay in the tens at a thousand sites.
    region_plan:
        Explicit ``((tier, region_count), ...)`` overriding the
        fraction-based tier split (presets use this).
    core_fraction / metro_fraction:
        Share of regions assigned to the core / metro tiers when no
        explicit plan is given; the remainder is edge.
    metro_uplinks / edge_uplinks:
        Redundant parent links per metro region (into the core mesh)
        and per edge region (into the metro ring, or the core when no
        metro tier exists).
    latency_scale:
        Multiplier on every backbone latency band (transcontinental
        federations stretch distances without touching capacities).
    asymmetry:
        ``(lo, hi)`` band for the reverse-direction capacity factor of
        every backbone link.
    """

    def __init__(self, n_sites, seed=0, name=None, hosts_per_site=(1, 4),
                 sites_per_region=None, region_plan=None,
                 core_fraction=0.15, metro_fraction=0.35,
                 metro_uplinks=2, edge_uplinks=2, latency_scale=1.0,
                 asymmetry=(0.6, 1.0)):
        if n_sites < 1:
            raise ValueError("n_sites must be >= 1")
        if latency_scale <= 0:
            raise ValueError("latency_scale must be positive")
        self.n_sites = int(n_sites)
        self.seed = int(seed)
        self.name = name or f"gen-{n_sites}"
        if isinstance(hosts_per_site, int):
            hosts_per_site = (hosts_per_site, hosts_per_site)
        lo, hi = hosts_per_site
        if not 1 <= lo <= hi:
            raise ValueError("hosts_per_site band must satisfy 1 <= lo <= hi")
        self.hosts_per_site = (int(lo), int(hi))
        if sites_per_region is None:
            sites_per_region = min(40, max(3, math.isqrt(self.n_sites) + 1))
        if sites_per_region < 1:
            raise ValueError("sites_per_region must be >= 1")
        self.sites_per_region = int(sites_per_region)
        self.region_plan = (
            tuple((tier, int(count)) for tier, count in region_plan)
            if region_plan is not None else None
        )
        self.core_fraction = float(core_fraction)
        self.metro_fraction = float(metro_fraction)
        self.metro_uplinks = max(1, int(metro_uplinks))
        self.edge_uplinks = max(1, int(edge_uplinks))
        self.latency_scale = float(latency_scale)
        self.asymmetry = (float(asymmetry[0]), float(asymmetry[1]))


def _tier_plan(config):
    """((tier, count), ...) totalling the region count, core first."""
    if config.region_plan is not None:
        return config.region_plan
    n_regions = max(
        1, math.ceil(config.n_sites / config.sites_per_region)
    )
    if n_regions == 1:
        return (("core", 1),)
    core = max(1, round(config.core_fraction * n_regions))
    metro = max(
        1 if n_regions >= 3 else 0,
        round(config.metro_fraction * n_regions),
    )
    core = min(core, n_regions)
    metro = min(metro, n_regions - core)
    edge = n_regions - core - metro
    plan = [("core", core)]
    if metro:
        plan.append(("metro", metro))
    if edge:
        plan.append(("edge", edge))
    return tuple(plan)


def _deal_sites(config, regions):
    """Site count per region: round-robin so sizes differ by <= 1.

    Edge regions are the many/small ones, so the remainder is dealt
    from the end of the region list (edge first) to mimic real grids'
    long tail of small campuses.
    """
    n_regions = len(regions)
    base, extra = divmod(config.n_sites, n_regions)
    counts = [base] * n_regions
    for offset in range(extra):
        counts[n_regions - 1 - offset] += 1
    # Every region needs at least one site; steal from the largest.
    for index in range(n_regions):
        while counts[index] == 0:
            donor = max(range(n_regions), key=lambda i: counts[i])
            counts[donor] -= 1
            counts[index] += 1
    return counts


def _draw_site(stream, region_name, site_index, tier, config):
    """One SiteSpec with tier-banded uplink and menu hardware."""
    (cap_lo, cap_hi), (lat_lo, lat_hi), (loss_lo, loss_hi) = (
        UPLINK_BANDS[tier]
    )
    name = f"{region_name.upper()}S{site_index:02d}"
    lo, hi = config.hosts_per_site
    n_hosts = lo if lo == hi else stream.randint(lo, hi)
    hosts = tuple(f"{name.lower()}h{i}" for i in range(n_hosts))
    return SiteSpec(
        name=name,
        host_names=hosts,
        cores=stream.choice(_CORE_MENU),
        frequency_ghz=stream.choice(_FREQUENCY_MENU),
        memory_bytes=stream.choice(_MEMORY_MENU),
        disk_capacity=stream.choice(_DISK_CAPACITY_MENU),
        disk_bandwidth=stream.choice(_DISK_BANDWIDTH_MENU),
        lan_capacity=_LAN_CAPACITY[tier],
        lan_latency=_LAN_LATENCY[tier],
        wan_capacity=mbit_per_s(stream.uniform(cap_lo, cap_hi)),
        wan_latency=milliseconds(stream.uniform(lat_lo, lat_hi)),
        wan_loss_rate=stream.uniform(loss_lo, loss_hi),
    )


def _draw_link(stream, src_region, dst_region, config):
    """One asymmetric backbone link between two gateway routers."""
    pair = tuple(sorted((src_region.tier, dst_region.tier)))
    (cap_lo, cap_hi), (lat_lo, lat_hi), (loss_lo, loss_hi) = (
        BACKBONE_BANDS[pair]
    )
    capacity = mbit_per_s(stream.uniform(cap_lo, cap_hi))
    factor = stream.uniform(*config.asymmetry)
    latency = milliseconds(
        stream.uniform(lat_lo, lat_hi) * config.latency_scale
    )
    loss = stream.uniform(loss_lo, loss_hi)
    reverse_loss = stream.uniform(loss_lo, loss_hi)
    return WanLinkSpec(
        src=src_region.router_name,
        dst=dst_region.router_name,
        capacity=capacity,
        latency=min(latency, 0.9),
        loss_rate=loss,
        reverse_capacity=capacity * factor,
        reverse_loss_rate=reverse_loss,
    )


def generate_topology(config):
    """Generate the grid described by ``config`` (valid by construction;
    :func:`~repro.testbed.builder.build_testbed` checks it on use)."""
    stream = RandomStream(config.seed, f"topology/{config.name}")

    # -- regions and sites ------------------------------------------------
    plan = _tier_plan(config)
    region_shells = []     # (name, tier)
    tier_counter = {}
    for tier, count in plan:
        for _ in range(count):
            index = tier_counter.get(tier, 0)
            tier_counter[tier] = index + 1
            region_shells.append((f"{tier[0]}{index:02d}", tier))
    counts = _deal_sites(config, region_shells)

    regions = []
    for (region_name, tier), n_sites in zip(region_shells, counts):
        sites = tuple(
            _draw_site(stream, region_name, site_index, tier, config)
            for site_index in range(n_sites)
        )
        regions.append(RegionSpec(region_name, tier, sites))

    # -- backbone wiring ---------------------------------------------------
    by_tier = {}
    for region in regions:
        by_tier.setdefault(region.tier, []).append(region)
    cores = by_tier.get("core", [])
    metros = by_tier.get("metro", [])
    edges = by_tier.get("edge", [])

    links = []
    # Core regions form a full mesh.
    for i, src in enumerate(cores):
        for dst in cores[i + 1:]:
            links.append(_draw_link(stream, src, dst, config))
    # Metro regions multi-home into the core mesh.
    for offset, metro in enumerate(metros):
        parents = _pick_parents(
            stream, cores, config.metro_uplinks, offset
        )
        for parent in parents:
            links.append(_draw_link(stream, metro, parent, config))
    # Edge regions multi-home into the metro tier (or the core when no
    # metro tier exists).
    parent_pool = metros or cores
    for offset, edge in enumerate(edges):
        parents = _pick_parents(
            stream, parent_pool, config.edge_uplinks, offset
        )
        for parent in parents:
            links.append(_draw_link(stream, edge, parent, config))

    return TopologySpec(
        name=config.name,
        regions=regions,
        links=links,
        seed=config.seed,
        description=(
            f"generated: {len(regions)} regions "
            f"({', '.join(f'{t}={c}' for t, c in plan)}), "
            f"{config.n_sites} sites, seed {config.seed}"
        ),
    )


def _pick_parents(stream, pool, wanted, offset):
    """Choose uplink parents: a deterministic primary spread across the
    pool plus randomly sampled backups — every parent distinct."""
    if not pool:
        return []
    wanted = min(wanted, len(pool))
    primary = pool[offset % len(pool)]
    parents = [primary]
    if wanted > 1:
        backups = [region for region in pool if region is not primary]
        parents.extend(stream.sample(backups, wanted - 1))
    return parents

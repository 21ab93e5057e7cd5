"""Canned chaos campaigns over the paper's testbed.

Three ready-made campaigns exercise the three failure surfaces the
degradation layer exists for, each against the Table 1 topology
(client ``alpha1`` at THU choosing between ``alpha4``, ``hit0`` and
``lz02``):

* :func:`flaky_wan_link` — the WAN uplink of a replica site flaps and
  browns out: transfers stall mid-chunk, restart markers and backoff
  carry them through;
* :func:`hot_spot_server` — the paper's winning replica host is
  periodically pinned (CPU) and saturated (disk): cost-model selection
  should route around the hot spot while static policies keep hitting
  it;
* :func:`monitor_blackout` — sensors pause, the NWS memory freezes and
  the GIIS goes dark: selection must keep answering from stale and
  default factors without a single unhandled exception;
* :func:`replica_corruption` — replicas silently rot, truncate and
  drift to stale versions: the integrity layer must catch every bad
  block in the data channel, fail over, quarantine and repair.

Each factory returns a pure-data :class:`~repro.chaos.spec.Campaign`;
feed it to a :class:`~repro.chaos.engine.ChaosEngine`.
"""

from repro.chaos.spec import Campaign, EventSpec, Schedule
from repro.testbed.topology.presets import FLAT_ROUTER

__all__ = [
    "CAMPAIGNS",
    "flaky_wan_link",
    "hot_spot_server",
    "monitor_blackout",
    "regional_brownout",
    "replica_corruption",
]


def _uplink(site):
    """The (switch, backbone) endpoint pair of a site's WAN link."""
    return (f"{site.lower()}-switch", FLAT_ROUTER)


def flaky_wan_link(site="HIT", horizon=600.0, outage=20.0,
                   brownout=0.85):
    """WAN outages and brownouts on one site's uplink.

    A first outage fires deterministically early (so even short
    workloads meet it); further outages arrive as a Poisson process.
    Between outages, periodic brownouts soak the link in cross-traffic.
    All times scale with the horizon so quick runs see the same shape.
    """
    link = _uplink(site)
    return Campaign(
        f"flaky-wan-{site.lower()}",
        [
            EventSpec(
                "first-outage", "link_down",
                Schedule.at(0.05 * horizon),
                target=link, duration=outage,
            ),
            EventSpec(
                "outage", "link_down",
                Schedule.poisson(
                    rate=5.0 / horizon, start=0.15 * horizon
                ),
                target=link, duration=outage,
            ),
            EventSpec(
                "brownout", "bandwidth_brownout",
                Schedule.periodic(
                    start=0.1 * horizon, period=0.25 * horizon,
                    jitter=0.2,
                ),
                target=link, duration=0.075 * horizon,
                params={"utilisation": brownout},
            ),
        ],
        horizon=horizon,
    )


def hot_spot_server(host="alpha4", horizon=600.0):
    """Recurring CPU pinning and disk saturation on one replica host.

    Default target is ``alpha4`` — the candidate the paper's Table 1
    crowns — so a load-blind policy keeps choosing a server that chaos
    has turned into the worst one.
    """
    return Campaign(
        f"hot-spot-{host}",
        [
            EventSpec(
                "cpu-pin", "cpu_spike",
                Schedule.periodic(
                    start=0.05 * horizon, period=0.25 * horizon,
                    jitter=0.2,
                ),
                target=host, duration=0.125 * horizon,
            ),
            EventSpec(
                "disk-saturate", "disk_slowdown",
                Schedule.periodic(
                    start=0.12 * horizon, period=0.3 * horizon,
                    jitter=0.2,
                ),
                target=host, duration=0.1 * horizon,
                params={"utilisation": 0.95},
            ),
        ],
        horizon=horizon,
    )


def monitor_blackout(horizon=600.0, start=None, window=None):
    """Every monitoring source goes dark for one long window.

    Sensors pause, the NWS memory drops what little still arrives, and
    the GIIS refuses queries for most of the window.  No transfer may
    fail: selection degrades to stale/default factors and carries on.
    """
    if start is None:
        start = 0.1 * horizon
    if window is None:
        window = 0.5 * horizon
    return Campaign(
        "monitor-blackout",
        [
            EventSpec(
                "sensors-dark", "sensor_blackout",
                Schedule.at(start), target="*", duration=window,
            ),
            EventSpec(
                "memory-frozen", "nws_freeze",
                Schedule.at(start), duration=window,
            ),
            EventSpec(
                "giis-down", "mds_blackout",
                Schedule.at(start + 0.1 * window),
                duration=0.8 * window,
            ),
        ],
        horizon=horizon,
    )


def replica_corruption(logical_name, replica_hosts, horizon=600.0,
                       crash_host=None):
    """Storage-integrity chaos against one logical file's replica set.

    The first replica's copy rots early and keeps rotting at fresh
    offsets, the second silently truncates, the third drifts to a stale
    content generation mid-run; optionally one replica host also
    crashes and reboots, exercising the health registry's outage
    windows.  All damage is irreversible by design — only the repair
    service heals it, which is exactly what the fig_integrity
    experiment measures.
    """
    hosts = list(replica_hosts)
    if len(hosts) < 3:
        raise ValueError("replica_corruption needs >= 3 replica hosts")
    events = [
        EventSpec(
            "rot-early", "bit_rot",
            Schedule.at(0.05 * horizon),
            target=(hosts[0], logical_name),
            params={"offset": None, "length": 1.0},
        ),
        EventSpec(
            "rot-recurring", "bit_rot",
            Schedule.poisson(rate=4.0 / horizon, start=0.2 * horizon),
            target=(hosts[0], logical_name),
            params={"offset": 0.0, "length": 1.0},
        ),
        EventSpec(
            "truncate", "silent_truncation",
            Schedule.at(0.3 * horizon),
            target=(hosts[1], logical_name),
            params={"keep_fraction": 0.5},
        ),
        EventSpec(
            "go-stale", "stale_replica_version",
            Schedule.at(0.55 * horizon),
            target=(hosts[2], logical_name),
            params={"versions_behind": 1},
        ),
    ]
    if crash_host is not None:
        events.append(
            EventSpec(
                "replica-crash", "host_crash",
                Schedule.at(0.7 * horizon),
                target=crash_host, duration=0.1 * horizon,
            )
        )
    return Campaign(
        f"replica-corruption-{logical_name}", events, horizon=horizon
    )


def regional_brownout(spec, region_name, horizon=600.0, start=None,
                      window=None, utilisation=0.9, crash_hosts=(),
                      include_wan=True):
    """Brown out one whole region of a generated topology.

    Unlike the Table 1 campaigns above, this factory works against any
    :class:`~repro.testbed.topology.spec.TopologySpec`: every site
    uplink inside ``region_name`` — and, with ``include_wan``, every
    WAN link touching the region's gateway router — is soaked in
    cross-traffic for one long window, optionally crashing named hosts
    mid-window.  Replica hosts inside the region keep *answering*
    (connections are not refused) — they just become slow enough under
    load that attempts trip their timeouts, which is precisely the
    grey failure circuit breakers exist for.  ``include_wan=False``
    confines the damage to the region's own uplinks; in a transit-mesh
    topology the gateway's WAN links carry third-party traffic, so
    browning them degrades paths far beyond the region.
    """
    regions = {region.name: region for region in spec.regions}
    region = regions.get(region_name)
    if region is None:
        raise ValueError(
            f"no region {region_name!r} in topology "
            f"(have {sorted(regions)})"
        )
    if start is None:
        start = 0.2 * horizon
    if window is None:
        window = 0.5 * horizon
    events = []
    for site in region.sites:
        events.append(EventSpec(
            f"uplink-brownout-{site.name.lower()}", "bandwidth_brownout",
            Schedule.at(start),
            target=(site.switch_name, region.router_name),
            duration=window, params={"utilisation": utilisation},
        ))
    seen_pairs = set()
    for link in (spec.links if include_wan else ()):
        if region.router_name not in (link.src, link.dst):
            continue
        pair = frozenset((link.src, link.dst))
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        events.append(EventSpec(
            f"wan-brownout-{link.src.lower()}-{link.dst.lower()}",
            "bandwidth_brownout",
            Schedule.at(start), target=(link.src, link.dst),
            duration=window, params={"utilisation": utilisation},
        ))
    for host in crash_hosts:
        events.append(EventSpec(
            f"crash-{host}", "host_crash",
            Schedule.at(start + 0.25 * window),
            target=host, duration=0.5 * window,
        ))
    return Campaign(
        f"regional-brownout-{region.name.lower()}", events,
        horizon=horizon,
    )


#: Campaign factories by id (the fig_chaos experiment iterates these).
CAMPAIGNS = {
    "flaky_wan_link": flaky_wan_link,
    "hot_spot_server": hot_spot_server,
    "monitor_blackout": monitor_blackout,
}

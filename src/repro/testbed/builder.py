"""Builds the full simulated testbed with all services attached.

Every testbed is built from a :class:`~repro.testbed.topology.TopologySpec`
(``preset("paper3")``, the paper's three sites on the TANet router, by
default): per-region gateway routers joined by asymmetric WAN links,
with either the paper's flat ``"full"`` monitoring (all-pairs NWS mesh,
single GIIS) or the hierarchical ``"regional"`` layout (per-region
GIIS/NWS federated at the selection host, see
:mod:`repro.monitoring.federation`).
"""

from repro.core.server import ReplicaSelectionServer
from repro.grid import DataGrid
from repro.gridftp.ftp import FtpServer
from repro.gridftp.gridftp import GridFtpServer
from repro.hosts.load import CPULoadGenerator, DiskLoadGenerator
from repro.monitoring.federation import FederatedGIIS, FederatedNwsMemory
from repro.monitoring.information import InformationService
from repro.monitoring.mds import GIIS, GRIS
from repro.monitoring.nws import (
    BandwidthSensor,
    CpuSensor,
    NameServer,
    NwsMemory,
)
from repro.network.traffic import CrossTrafficProcess
from repro.replica.catalog import ReplicaCatalog

__all__ = ["Testbed", "build_testbed"]


class Testbed:
    """The assembled testbed: grid plus every attached service."""

    def __init__(self, grid, spec, roles, nameserver, nws_memory, giis,
                 information, catalog, selection_server):
        self.grid = grid
        #: The TopologySpec this testbed was built from.
        self.spec = spec
        #: Canonical (client_host, replica_hosts) roles.
        self.roles = roles
        self.sites = {site.name: site for site in spec.sites()}
        self.nameserver = nameserver
        self.nws_memory = nws_memory
        self.giis = giis
        self.information = information
        self.catalog = catalog
        self.selection_server = selection_server
        self.sensors = []
        self.load_generators = []
        self.cross_traffic = []
        #: Per-region NwsMemory / GIIS under "regional" monitoring.
        self.region_memories = {}
        self.region_giises = {}
        self.sensor_period = 10.0
        #: Worst-case host-to-host round trip, seconds.
        self.max_wan_rtt = 0.0
        #: Derived default for :meth:`warm_up`.
        self.recommended_warmup = 120.0

    def __repr__(self):
        return (
            f"<Testbed {sorted(self.sites)} "
            f"({len(self.grid.hosts)} hosts)>"
        )

    @property
    def sim(self):
        return self.grid.sim

    @property
    def obs(self):
        """The grid's observability bundle (metrics/spans/events)."""
        return self.grid.obs

    def host_names(self):
        return self.grid.host_names()

    def warm_up(self, duration=None):
        """Run the simulation so monitors accumulate history.

        ``duration=None`` uses :attr:`recommended_warmup`, which scales
        with the topology's worst WAN round trip and the sensor period
        — the fixed 120 s the default used to be under-warms
        transcontinental presets whose probes take seconds per round
        trip.
        """
        if duration is None:
            duration = self.recommended_warmup
        self.grid.run(until=self.sim.now + duration)


def _derived_warmup(max_wan_rtt, sensor_period):
    """Warm-up long enough for forecasts to settle on any topology.

    Three floors: 120 s (the paper's testbed), eight sensor periods
    (forecast batteries need a handful of samples), and 1500 worst-case
    round trips (what 120 s gives the paper's testbed's worst pair,
    preserved as a per-RTT budget for long-haul presets).
    """
    return max(120.0, 8.0 * sensor_period, 1500.0 * max_wan_rtt)


def _build_site(grid, site, uplink_router):
    """One site: switch, uplink, hosts with LAN links."""
    grid.add_router(site.switch_name, site=site.name)
    grid.connect(
        site.switch_name, uplink_router, site.wan_capacity,
        latency=site.wan_latency, loss_rate=site.wan_loss_rate,
    )
    for host_name in site.host_names:
        grid.add_host(
            host_name, site.name,
            cores=site.cores,
            frequency_ghz=site.frequency_ghz,
            disk_bandwidth=site.disk_bandwidth,
            disk_capacity=site.disk_capacity,
            memory_bytes=site.memory_bytes,
        )
        grid.connect(
            host_name, site.switch_name, site.lan_capacity,
            latency=site.lan_latency,
        )


def _attach_full_monitoring(grid, nameserver, nws_memory, giis,
                            sensor_period):
    """The paper's flat deployment: CPU sensors everywhere, bandwidth
    sensors between every ordered host pair."""
    sensors = []
    for host in grid.hosts.values():
        giis.register(GRIS(grid, host.name))
        sensors.append(
            CpuSensor(
                grid.sim, nws_memory, host, period=sensor_period,
                nameserver=nameserver,
            )
        )
    host_names = grid.host_names()
    for src in host_names:
        for dst in host_names:
            if src == dst:
                continue
            sensors.append(
                BandwidthSensor(
                    grid.sim, nws_memory, grid, src, dst,
                    period=sensor_period, nameserver=nameserver,
                )
            )
    return sensors


def _attach_regional_monitoring(grid, spec, nameserver, selection_host,
                                sensor_period):
    """Hierarchical deployment: per-region GIIS/NWS memory, sensors on
    the hierarchy only, federation frontends at the selection host.

    Sensor budget: one CPU sensor per host, one bandwidth pair per
    non-hub site (representative <-> hub) and the hub <-> hub mesh —
    about ``hosts + 2*sites + regions^2`` sensors instead of the flat
    layout's ``hosts^2``.

    Every sensor in a region shares one tick-group phase (region index
    spread over the period), so a thousand-site grid ticks a few dozen
    timers per period instead of thousands.
    """
    sensors = []
    region_memories = {}
    region_giises = {}
    region_of = {}
    rep_of = {}
    hub_of = {}
    ttl = min(30.0, sensor_period)
    n_regions = len(spec.regions)

    for index, region in enumerate(spec.regions):
        phase = sensor_period * index / n_regions
        hub = region.hub_host
        hub_of[region.name] = hub
        memory = NwsMemory(grid.sim, name=f"memory@{region.name}")
        nameserver.register("memory", memory.name, memory)
        region_memories[region.name] = memory
        region_giis = GIIS(grid, hub, ttl=ttl)
        region_giises[region.name] = region_giis
        for site in region.sites:
            rep = site.host_names[0]
            for host_name in site.host_names:
                region_of[host_name] = region.name
                rep_of[host_name] = rep
                region_giis.register(GRIS(grid, host_name))
                sensors.append(
                    CpuSensor(
                        grid.sim, memory, grid.host(host_name),
                        period=sensor_period, nameserver=nameserver,
                        phase=phase,
                    )
                )
            if rep != hub:
                for src, dst in ((rep, hub), (hub, rep)):
                    sensors.append(
                        BandwidthSensor(
                            grid.sim, memory, grid, src, dst,
                            period=sensor_period, nameserver=nameserver,
                            phase=phase,
                        )
                    )

    # Hub <-> hub mesh: each directed pair measured from the source
    # region (stored in the source region's memory, at its phase).
    for index, region in enumerate(spec.regions):
        phase = sensor_period * index / n_regions
        src_hub = hub_of[region.name]
        for other in spec.regions:
            if other.name == region.name:
                continue
            sensors.append(
                BandwidthSensor(
                    grid.sim, region_memories[region.name], grid,
                    src_hub, hub_of[other.name],
                    period=sensor_period, nameserver=nameserver,
                    phase=phase,
                )
            )

    fed_memory = FederatedNwsMemory(
        grid.sim, f"memory@{selection_host}",
        region_of=region_of, rep_of=rep_of, hub_of=hub_of,
        memories=region_memories,
    )
    nameserver.register("memory", fed_memory.name, fed_memory)
    fed_giis = FederatedGIIS(grid, selection_host, ttl=ttl)
    for region in spec.regions:
        fed_giis.add_region(region.name, region_giises[region.name])
    return sensors, fed_memory, fed_giis, region_memories, region_giises


def _attach_dynamics(testbed, grid, sites, uplinks, backbone_links):
    """Markov-modulated load on every host plus cross traffic on every
    WAN link (site uplinks and backbone links, both directions)."""
    rebalance = grid.network.rebalance
    for site in sites:
        for host_name in site.host_names:
            host = grid.host(host_name)
            testbed.load_generators.append(
                CPULoadGenerator(
                    grid.sim, host.cpu,
                    levels=[0.0, 0.25 * site.cores,
                            0.6 * site.cores, 0.9 * site.cores],
                    mean_holding_time=60.0,
                    notify=rebalance, jitter=0.05,
                )
            )
            testbed.load_generators.append(
                DiskLoadGenerator(
                    grid.sim, host.disk,
                    levels=[0.0, 0.2, 0.5, 0.8],
                    mean_holding_time=90.0,
                    notify=rebalance, jitter=0.05,
                )
            )
        router = uplinks[site.name]
        for direction in [
            (site.switch_name, router), (router, site.switch_name)
        ]:
            link = grid.topology.link(*direction)
            testbed.cross_traffic.append(
                CrossTrafficProcess(
                    grid.sim, grid.network, link,
                    levels=[0.05, 0.2, 0.4, 0.6],
                    mean_holding_time=45.0, jitter=0.05,
                )
            )
    for src, dst in backbone_links:
        link = grid.topology.link(src, dst)
        testbed.cross_traffic.append(
            CrossTrafficProcess(
                grid.sim, grid.network, link,
                levels=[0.05, 0.2, 0.4, 0.6],
                mean_holding_time=45.0, jitter=0.05,
            )
        )


def build_testbed(seed=0, monitoring=True,
                  sensor_period=10.0, dynamic=False,
                  catalog_host=None, selection_host=None,
                  weights=None, observe=None,
                  topology=None, monitoring_mode=None):
    """Construct the paper's testbed, or any topology.

    Parameters
    ----------
    seed:
        Root seed for all randomness.
    monitoring:
        Attach the NWS deployment and MDS.
    sensor_period:
        NWS sensor measurement period, seconds.
    dynamic:
        Start Markov-modulated background load on every host (CPU and
        disk) and cross-traffic on every WAN link — the "real and
        dynamic network situations" of the paper's abstract.
    catalog_host / selection_host:
        Where the catalog and selection/information servers run;
        default: the topology's client role (``alpha1`` at THU on the
        paper's testbed).
    weights:
        Cost-model weights; default the paper's 80/10/10.
    observe:
        Attach a live observability bundle (metrics, sim-time spans,
        structured events) to the grid's simulator; reach it as
        ``testbed.obs``.  Default: off, unless a ``repro.obs.capture()``
        context is open.
    topology:
        A :class:`~repro.testbed.topology.TopologySpec` or preset name
        (``"paper3"``, ``"scaled-100"``, ...); default ``"paper3"``.
        :func:`~repro.testbed.topology.flat` turns any site list into
        a spec.
    monitoring_mode:
        ``"full"`` or ``"regional"``; default: the spec's own
        ``monitoring`` attribute.
    """
    from repro.testbed.topology import preset

    if topology is None:
        topology = "paper3"
    if isinstance(topology, str):
        topology = preset(topology)
    topology.validate()
    mode = monitoring_mode or topology.monitoring
    if mode not in ("full", "regional"):
        raise ValueError(f"unknown monitoring mode {mode!r}")

    grid = DataGrid(seed=seed, observe=observe)

    # -- topology ---------------------------------------------------------
    sites = topology.sites()
    uplinks = {}
    backbone_links = []
    for region in topology.regions:
        grid.add_router(region.router_name)
    for link in topology.links:
        grid.topology.add_link(
            link.src, link.dst, link.capacity,
            latency=link.latency, loss_rate=link.loss_rate,
        )
        grid.topology.add_link(
            link.dst, link.src, link.reverse_capacity,
            latency=link.latency, loss_rate=link.reverse_loss_rate,
        )
        backbone_links.append((link.src, link.dst))
        backbone_links.append((link.dst, link.src))
    for region in topology.regions:
        for site in region.sites:
            uplinks[site.name] = region.router_name
            _build_site(grid, site, region.router_name)

    # -- data services on every host ----------------------------------------
    for site in sites:
        for host_name in site.host_names:
            FtpServer(grid, host_name)
            GridFtpServer(grid, host_name)

    roles = topology.default_roles()
    catalog_host = catalog_host or roles[0]
    selection_host = selection_host or roles[0]

    # -- monitoring -------------------------------------------------------------
    nameserver = NameServer()
    testbed_sensors = []
    region_memories = {}
    region_giises = {}
    if monitoring and mode == "regional":
        (testbed_sensors, nws_memory, giis,
         region_memories, region_giises) = _attach_regional_monitoring(
            grid, topology, nameserver, selection_host, sensor_period,
        )
    else:
        nws_memory = NwsMemory(grid.sim, name=f"memory@{selection_host}")
        nameserver.register("memory", nws_memory.name, nws_memory)
        giis = GIIS(grid, selection_host, ttl=min(30.0, sensor_period))
        if monitoring:
            testbed_sensors = _attach_full_monitoring(
                grid, nameserver, nws_memory, giis, sensor_period,
            )
        else:
            for host in grid.hosts.values():
                giis.register(GRIS(grid, host.name))

    information = InformationService(
        grid, selection_host, nws_memory, giis
    )
    catalog = ReplicaCatalog(grid, catalog_host)
    selection_server = ReplicaSelectionServer(
        grid, selection_host, catalog, information, weights=weights
    )

    testbed = Testbed(
        grid, topology, roles, nameserver, nws_memory, giis, information,
        catalog, selection_server,
    )
    testbed.sensors = testbed_sensors
    testbed.region_memories = region_memories
    testbed.region_giises = region_giises
    testbed.sensor_period = sensor_period
    testbed.max_wan_rtt = topology.max_wan_rtt()
    testbed.recommended_warmup = _derived_warmup(
        testbed.max_wan_rtt, sensor_period
    )

    # -- dynamics ---------------------------------------------------------------
    if dynamic:
        _attach_dynamics(testbed, grid, sites, uplinks, backbone_links)
    return testbed

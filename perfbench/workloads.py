"""The benchmark's three workloads, built from the library's public API.

Each workload has two phases, timed separately by the worker:

* ``setup(seed)`` — topology, ``build_testbed``, replica placement and
  arrival-trace generation; it returns a :class:`Prepared` before the
  simulator has processed a single event;
* ``Prepared.simulate()`` — warm-up plus the workload itself; it
  returns the outputs the run is checked against.

The seed drives every random stream of the simulation (background
load, cross traffic, sensor noise, arrivals).  Each topology is fixed,
so every seed asks for the same amount of structural work.
"""

import hashlib

from repro.chaos import ChaosEngine, regional_brownout
from repro.controlplane import FrontDoor, FrontDoorConfig, TenantSpec
from repro.core.baselines import CostModelSelector
from repro.experiments.harness import register_replicas, run_selection_trace
from repro.gridftp import BackoffPolicy
from repro.integrity import ReplicaHealthRegistry
from repro.testbed import build_testbed
from repro.testbed.topology import scaled
from repro.workloads import (
    ConstantRate,
    DiurnalProfile,
    FlashCrowdProfile,
    OpenLoopArrivals,
    ZipfPopularity,
)

__all__ = ["WORKLOADS", "Prepared", "Workload"]


class Prepared:
    """A workload after set-up: its simulator and the simulation phase."""

    def __init__(self, sim, simulate):
        self.sim = sim
        self.simulate = simulate


class Workload:
    """A named workload: ``setup(seed) -> Prepared``.

    ``events_per_segment`` sizes the timed segments of the simulation
    phase (about a tenth of a CPU second each).
    """

    def __init__(self, name, why, setup, events_per_segment):
        self.name = name
        self.why = why
        self.setup = setup
        self.events_per_segment = events_per_segment


def fetch_digest(fetches):
    """SHA-256 over every fetch's (round, source, elapsed) exactly."""
    text = ";".join(
        f"{index},{host},{elapsed!r}" for index, host, elapsed in fetches
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _selection_outputs(result, replicas):
    """Outputs shared by the two selection-trace workloads."""
    index_of = {host: i for i, host in enumerate(sorted(replicas))}
    return {
        "offered": result.rounds,
        "served": result.rounds,
        "selections": result.rounds,
        "oracle_matches": result.oracle_matches,
        "chosen": [index_of[host] for _, host, _ in result.fetches],
        "fetch_digest": fetch_digest(result.fetches),
    }


# -- paper3_selection --------------------------------------------------------

PAPER3_CLIENT = "alpha1"
PAPER3_REPLICAS = ("alpha4", "hit0", "lz02")
PAPER3_ROUNDS = 200


def setup_paper3(seed, rounds=PAPER3_ROUNDS):
    """The paper's three-site testbed; ``alpha1`` fetches a 64 MB file."""
    testbed = build_testbed(seed=seed, dynamic=True, sensor_period=10.0)
    register_replicas(testbed, "file-64mb", PAPER3_REPLICAS, 64)

    def simulate():
        testbed.warm_up()
        selector = CostModelSelector(testbed.grid, testbed.information)
        result = run_selection_trace(
            testbed, selector, PAPER3_CLIENT, "file-64mb",
            rounds=rounds, gap=60.0,
        )
        return _selection_outputs(result, PAPER3_REPLICAS)

    return Prepared(testbed.sim, simulate)


# -- grid_scale_1000 ---------------------------------------------------------

GRID_SITES = 1000
GRID_REPLICAS = 100
GRID_ROUNDS = 2


class ServerSelector:
    """The selector contract over the testbed's selection server, so a
    trace goes through ``score_candidates`` as a client request does."""

    name = "selection-server"

    def __init__(self, server):
        self.server = server

    def select(self, client_name, candidates):
        decision = yield from self.server.score_candidates(
            client_name, candidates
        )
        return decision.chosen


def setup_grid_scale(seed):
    """``scaled(GRID_SITES)`` with regional monitoring; the file is
    registered on ``GRID_REPLICAS`` sites spread over the grid."""
    spec = scaled(GRID_SITES, seed=0, hosts_per_site=1)
    testbed = build_testbed(
        topology=spec, seed=seed, sensor_period=60.0, dynamic=True,
        monitoring_mode="regional",
    )
    client, _ = testbed.roles
    _, replicas = spec.default_roles(replica_count=GRID_REPLICAS)
    register_replicas(testbed, "file-16mb", replicas, 16)

    def simulate():
        testbed.grid.network.rebalance()
        testbed.warm_up()
        result = run_selection_trace(
            testbed, ServerSelector(testbed.selection_server), client,
            "file-16mb", rounds=GRID_ROUNDS, gap=30.0,
        )
        return _selection_outputs(result, replicas)

    return Prepared(testbed.sim, simulate)


# -- frontdoor_brownout ------------------------------------------------------

DOOR_SITES = 100
DOOR_HORIZON = 10.0
DOOR_DRAIN = 10.0
DOOR_WARMUP = 30.0
DOOR_FILES = 12
DOOR_FILE_MB = 2
DOOR_BASE_RATE = 5.0
DOOR_REPLICAS = 6
DOOR_CLIENTS = 24
_TIER_ORDER = {"core": 0, "metro": 1, "edge": 2}


def _door_config():
    """The ``full`` policy: admission, bounded queue with a worker pool,
    per-replica circuit breakers and idempotent dedup."""
    return FrontDoorConfig(
        workers=128, queue_capacity=192, admission=True, breakers=True,
        idempotency=True, global_rate=44.0, global_burst=88.0,
        breaker_window=10, breaker_failure_threshold=0.5,
        breaker_min_samples=3, breaker_open_seconds=25.0,
        breaker_probe_quota=2, breaker_probe_successes=1,
        marker_interval_mb=8, transfer_attempts=4, attempt_timeout=8.0,
        backoff=BackoffPolicy(
            base=1.0, multiplier=2.0, cap=8.0, jitter=0.25,
            max_total_wait=30.0,
        ),
    )


def _door_tenants(horizon, base_rate):
    """Steady, diurnal and flash-crowd tenants."""
    profiles = [
        ("cms", ConstantRate(base_rate)),
        ("lhcb", DiurnalProfile(base_rate, amplitude=0.6, period=horizon)),
        ("atlas", FlashCrowdProfile(
            base_rate, peak_factor=16.0, start=0.3 * horizon,
            ramp=0.1 * horizon, hold=0.2 * horizon,
        )),
    ]
    specs = [
        TenantSpec(name, rate=7.2 * base_rate, burst=18.0 * base_rate)
        for name, _ in profiles
    ]
    return specs, profiles


def _door_cast(spec):
    """Half the replicas in the first metro region (the one browned
    out), half on other hubs; clients on the remaining core and metro
    sites, round-robin over regions."""
    regions = sorted(
        spec.regions, key=lambda r: (_TIER_ORDER.get(r.tier, 9), r.name)
    )
    metro = [r for r in regions if r.tier == "metro"]
    brown = metro[0] if metro else regions[-1]
    others = [r for r in regions if r.name != brown.name]
    brown_n = DOOR_REPLICAS // 2
    brown_hosts = [site.host_names[0] for site in brown.sites[:brown_n]]
    healthy_hosts = [
        region.hub_site.host_names[0]
        for region in others[: DOOR_REPLICAS - brown_n]
    ]
    taken = set(brown_hosts) | set(healthy_hosts)
    pools = [
        [s.host_names[0] for s in r.sites if s.host_names[0] not in taken]
        for r in others
        if _TIER_ORDER.get(r.tier, 9) <= _TIER_ORDER["metro"]
    ]
    pools = [pool for pool in pools if pool]
    clients = []
    for index in range(max(len(pool) for pool in pools)):
        clients.extend(pool[index] for pool in pools if index < len(pool))
    return brown.name, brown_hosts, healthy_hosts, clients[:DOOR_CLIENTS]


def setup_frontdoor(seed):
    """The ``full`` front door under a regional brownout on a 100-site
    grid, fed the three tenants' open-loop arrivals."""
    horizon, drain = DOOR_HORIZON, DOOR_DRAIN
    spec = scaled(DOOR_SITES, seed=0)
    testbed = build_testbed(topology=spec, seed=seed)
    grid = testbed.grid
    sim = grid.sim
    brown_region, brown_hosts, healthy_hosts, clients = _door_cast(spec)
    logicals = []
    for index in range(DOOR_FILES):
        name = f"dataset-{index:03d}"
        hosts = [
            brown_hosts[index % len(brown_hosts)],
            healthy_hosts[index % len(healthy_hosts)],
            healthy_hosts[(index + 1) % len(healthy_hosts)],
        ]
        register_replicas(testbed, name, hosts, DOOR_FILE_MB)
        logicals.append(name)
    tenant_specs, profiles = _door_tenants(horizon, DOOR_BASE_RATE)
    trace = OpenLoopArrivals(
        sim.streams.get("frontdoor/arrivals"), profiles, clients,
        ZipfPopularity(logicals, exponent=0.8),
        duplicate_fraction=0.25, duplicate_delay=10.0,
    ).generate(horizon)

    def simulate():
        health = ReplicaHealthRegistry(grid)
        testbed.selection_server.health = health
        testbed.warm_up(DOOR_WARMUP)
        campaign = regional_brownout(
            spec, brown_region, horizon=horizon + drain, utilisation=0.97,
            crash_hosts=(brown_hosts[0],), include_wan=False,
        )
        engine = ChaosEngine(
            grid, campaign, testbed=testbed, health=health
        ).start()
        door = FrontDoor(testbed, tenant_specs, _door_config()).start()
        outstanding = set()

        def runner(index, request):
            outstanding.add(index)
            yield from door.handle(request)
            outstanding.discard(index)

        def driver():
            start = sim.now
            for index, request in enumerate(trace):
                due = start + request.time
                if due > sim.now:
                    yield sim.timeout(due - sim.now)
                sim.process(runner(index, request))

        sim.process(driver())
        sim.run(until=sim.now + horizon + drain)
        engine.stop()
        summary = door.summary()
        return {
            "offered": summary["offered"],
            "served": summary["completed"] + summary["dedup_served"],
            "completed": summary["completed"],
            "failed": summary["failed"],
            "shed": summary["shed_throttle"] + summary["shed_queue"],
            "dedup": summary["dedup_joined"] + summary["dedup_replayed"],
            "outstanding": len(outstanding),
            "selections": len(testbed.selection_server.decisions),
        }

    return Prepared(sim, simulate)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "paper3_selection",
            "The paper's pattern: one client selects and fetches 64 MB "
            "from 3 sites, 200 rounds 60 s apart, past NWS's 1000-sample "
            "caps; NWS sensing and probe reads dominate.",
            setup_paper3,
            events_per_segment=5000,
        ),
        Workload(
            "frontdoor_brownout",
            "Full front door under a regional brownout on 100 sites, "
            "open-loop tenants: flow churn, solver re-solves, RFT "
            "retries, breakers and chaos.",
            setup_frontdoor,
            events_per_segment=200,
        ),
        Workload(
            "grid_scale_1000",
            "1000-site grid, regional monitoring, file on 100 sites: "
            "set-up, memory, cache-miss routing, cross-traffic re-solves "
            "and a deep event queue.",
            setup_grid_scale,
            events_per_segment=2000,
        ),
    )
}

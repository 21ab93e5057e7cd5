"""Ablation — replica selection in larger, dynamic grids.

The paper's future work (§5, item 3): "extend our Data Grid testbed for
analyzing the performance of replica selection in a dynamic and larger
number of sites environment".  This ablation generates synthetic grids
of 3–12 sites with heterogeneous WAN links, replicates a file on half
the sites, and compares cost-model selection against random selection
as the grid grows.
"""

from repro.core.baselines import CostModelSelector, RandomSelector
from repro.experiments.base import ExperimentResult
from repro.experiments.harness import register_replicas, run_selection_trace
from repro.testbed.builder import build_testbed
from repro.testbed.sites import SiteSpec
from repro.testbed.topology import flat
from repro.units import MiB, mbit_per_s

__all__ = ["run_ablation_scale", "synthetic_sites"]

#: WAN parameter menu cycled across synthetic sites: (capacity Mbps,
#: latency s, loss).  Capacities are uniform on purpose: the paper's
#: BW_P normalises by each path's *own* theoretical maximum, so it is
#: blind to absolute capacity differences (see DESIGN.md §5) — sites
#: here differ in latency, loss, and load instead.
_WAN_MENU = (
    (100, 0.002, 2e-5),
    (100, 0.005, 1e-4),
    (100, 0.010, 5e-4),
    (100, 0.018, 2e-3),
)


def synthetic_sites(n_sites, hosts_per_site=2):
    """Deterministically generate ``n_sites`` heterogeneous SiteSpecs."""
    if n_sites < 2:
        raise ValueError("need at least two sites")
    sites = []
    for index in range(n_sites):
        capacity_mbps, latency, loss = _WAN_MENU[index % len(_WAN_MENU)]
        name = f"S{index:02d}"
        sites.append(SiteSpec(
            name=name,
            host_names=tuple(
                f"{name.lower()}h{i}" for i in range(hosts_per_site)
            ),
            cores=1 + index % 2,
            frequency_ghz=(0.9, 2.0, 2.8)[index % 3],
            memory_bytes=512 * MiB,
            disk_capacity=60e9,
            disk_bandwidth=(25e6, 55e6, 60e6)[index % 3],
            lan_capacity=mbit_per_s(1000),
            lan_latency=0.0001,
            wan_capacity=mbit_per_s(capacity_mbps),
            wan_latency=latency,
            wan_loss_rate=loss,
        ))
    return sites


def run_ablation_scale(site_counts=(3, 6, 12), rounds=6, gap=60.0,
                       file_size_mb=64, seed=0, warmup=90.0):
    """One row per (grid size, policy)."""
    rows = []
    for n_sites in site_counts:
        for policy in ("cost-model", "random"):
            sites = synthetic_sites(n_sites)
            testbed = build_testbed(
                topology=flat(sites, f"synthetic-{n_sites}"), seed=seed,
                dynamic=True, sensor_period=15.0,
            )
            client = sites[0].host_names[0]
            # Replicas on every site except the client's.
            replica_hosts = [
                site.host_names[-1] for site in sites[1:]
            ]
            register_replicas(
                testbed, "file-a", replica_hosts, file_size_mb
            )
            testbed.warm_up(warmup)
            if policy == "cost-model":
                selector = CostModelSelector(
                    testbed.grid, testbed.information
                )
            else:
                selector = RandomSelector(testbed.grid)
            result = run_selection_trace(
                testbed, selector, client, "file-a",
                rounds=rounds, gap=gap,
            )
            rows.append({
                "sites": n_sites,
                "replicas": len(replica_hosts),
                "selector": policy,
                "mean_fetch_seconds": result.mean_seconds,
                "oracle_agreement": result.oracle_agreement,
            })

    return ExperimentResult(
        experiment_id="abl_scale",
        title=(
            "Selection quality vs grid size (future work #3): "
            f"{rounds} fetches of a {file_size_mb} MB file"
        ),
        headers=[
            "sites", "replicas", "selector", "mean_fetch_seconds",
            "oracle_agreement",
        ],
        rows=rows,
        notes=[
            "Expected shape: the cost model's advantage over random "
            "selection widens as the grid grows (more bad choices to "
            "avoid).",
        ],
    )

"""The paper's testbed as a spec: ``paper3`` and the ``flat`` layout.

Every testbed is built from a :class:`TopologySpec`; the default one is
``preset("paper3")``.  These tests hold that spec to the paper (its
sites, roles, router and monitoring) and the default build to the
paper's Fig. 2 structure.  The seed-0 trace digests pinned in
``tests/analysis/test_determinism_sweep.py`` hold its behaviour.
"""

import pytest

from repro.experiments.ablation_scale import synthetic_sites
from repro.testbed import PAPER_SITES, build_testbed
from repro.testbed.topology import FLAT_ROUTER, TopologySpec, flat, preset


def test_paper3_sites_are_the_paper_sites():
    spec = preset("paper3")
    assert tuple(spec.sites()) == PAPER_SITES
    assert [site.as_dict() for site in spec.sites()] == [
        site.as_dict() for site in PAPER_SITES
    ]


def test_paper3_roles_are_the_canonical_trio():
    assert preset("paper3").default_roles() == (
        "alpha1", ("alpha4", "hit0", "lz02")
    )


def test_paper3_monitoring_is_full():
    spec = preset("paper3")
    assert spec.monitoring == "full"
    assert spec.regions[0].router_name == "tanet"
    assert spec.links == ()


def test_default_build_is_the_paper_testbed():
    testbed = build_testbed(seed=5)
    hosts = [host for site in PAPER_SITES for host in site.host_names]
    assert testbed.spec.digest() == preset("paper3").digest()
    assert testbed.roles == preset("paper3").default_roles()
    assert sorted(testbed.host_names()) == sorted(hosts)
    assert sorted(testbed.sites) == sorted(site.name for site in PAPER_SITES)
    # One CPU sensor per host plus the all-pairs bandwidth mesh.
    assert len(testbed.sensors) == len(hosts) ** 2
    assert testbed.recommended_warmup == 120.0


@pytest.mark.parametrize("n_sites", [12, 13])
def test_flat_is_one_fully_monitored_region(n_sites):
    spec = flat(synthetic_sites(n_sites), "synthetic")
    assert len(spec.regions) == 1
    assert spec.regions[0].router_name == FLAT_ROUTER == "tanet"
    assert spec.links == ()
    assert spec.monitoring == "full"
    # A spec left to its own default goes regional above 12 sites.
    own = TopologySpec("own", spec.regions)
    assert own.monitoring == ("full" if n_sites <= 12 else "regional")


def test_flat_client_defaults_to_the_first_host():
    sites = synthetic_sites(3)
    testbed = build_testbed(topology=flat(sites, "synthetic"), seed=0)
    client, _ = testbed.roles
    assert client == sites[0].host_names[0]
    assert testbed.selection_server.host_name == client

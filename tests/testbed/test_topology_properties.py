"""Property battery over the topology generator.

Every hypothesis-generated config must yield a grid that is connected,
tier-monotone, dimensionally sane and byte-identical under the same
seed — the guarantees ``TopologySpec.validate`` and the spec digest
hang off.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.testbed import PAPER_SITES, build_testbed
from repro.testbed.topology import (
    TIER_RANK,
    GeneratorConfig,
    TopologySpec,
    TopologyValidationError,
    flat,
    generate_topology,
    preset,
    scaled,
)
from repro.testbed.topology.generator import UPLINK_BANDS
from repro.units import mbit_per_s

#: Keep generated grids small: the properties are size-independent and
#: CI runs this battery on every push.
configs = st.builds(
    GeneratorConfig,
    n_sites=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    hosts_per_site=st.tuples(
        st.integers(1, 2), st.integers(2, 4)
    ).map(lambda pair: (pair[0], max(pair))),
    sites_per_region=st.one_of(
        st.none(), st.integers(min_value=2, max_value=12)
    ),
    metro_uplinks=st.integers(1, 3),
    edge_uplinks=st.integers(1, 3),
    latency_scale=st.floats(
        min_value=0.5, max_value=8.0, allow_nan=False
    ),
)

COMMON = dict(deadline=None, max_examples=30)


@settings(**COMMON)
@given(config=configs)
def test_generated_grids_validate(config):
    """validate() passes: names unique, links sane, graph connected,
    tiers monotone, units in range."""
    spec = generate_topology(config)
    assert spec.validate() is spec
    assert spec.site_count() == config.n_sites


@settings(**COMMON)
@given(config=configs)
def test_generated_grids_are_connected(config):
    """Every region reaches every other (finite gateway latency)."""
    spec = generate_topology(config)
    names, dist = spec._region_latencies()
    for i in range(len(names)):
        for j in range(len(names)):
            assert dist[i][j] != float("inf"), (
                f"{names[i]} cannot reach {names[j]}"
            )


@settings(**COMMON)
@given(config=configs)
def test_tier_capacities_are_monotone(config):
    """No edge uplink beats any metro uplink; no metro beats any core."""
    spec = generate_topology(config)
    fastest = {}
    slowest = {}
    for region in spec.regions:
        for site in region.sites:
            rank = TIER_RANK[region.tier]
            fastest[rank] = max(
                fastest.get(rank, 0.0), site.wan_capacity
            )
            slowest[rank] = min(
                slowest.get(rank, float("inf")), site.wan_capacity
            )
    ranks = sorted(fastest)
    for lower, higher in zip(ranks, ranks[1:]):
        assert fastest[lower] <= slowest[higher]


@settings(**COMMON)
@given(config=configs)
def test_units_carry_correct_dimensions(config):
    """Capacities are bytes/s inside the per-tier Mbps bands; latencies
    are seconds under a second; loss rates are small fractions."""
    spec = generate_topology(config)
    for region in spec.regions:
        (cap_lo, cap_hi), (lat_lo, lat_hi), (loss_lo, loss_hi) = (
            UPLINK_BANDS[region.tier]
        )
        for site in region.sites:
            assert mbit_per_s(cap_lo) <= site.wan_capacity <= mbit_per_s(cap_hi)
            assert lat_lo / 1e3 <= site.wan_latency <= lat_hi / 1e3
            assert loss_lo <= site.wan_loss_rate <= loss_hi
            assert site.lan_capacity >= mbit_per_s(100)
            assert 0.0 < site.lan_latency < 0.001
    for link in spec.links:
        assert link.capacity > 0 and link.reverse_capacity > 0
        assert link.reverse_capacity <= link.capacity
        assert 0.0 < link.latency <= 0.9
        assert 0.0 <= link.loss_rate <= 0.05


@settings(**COMMON)
@given(config=configs)
def test_same_seed_generation_is_byte_identical(config):
    """Two generations from one config serialise identically."""
    first = generate_topology(config)
    second = generate_topology(config)
    assert first.to_dict() == second.to_dict()
    assert first.digest() == second.digest()


@settings(**COMMON)
@given(
    n_sites=st.integers(min_value=2, max_value=60),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_default_roles_are_well_formed(n_sites, seed):
    """Client exists, replicas exist, and the client never serves as
    its own replica site."""
    spec = scaled(n_sites, seed=seed)
    client, replicas = spec.default_roles()
    hosts = {
        host for site in spec.sites() for host in site.host_names
    }
    assert client in hosts
    assert replicas
    assert len(set(replicas)) == len(replicas)
    client_site = next(
        site for site in spec.sites() if client in site.host_names
    )
    for replica in replicas:
        assert replica in hosts
        assert replica not in client_site.host_names


def test_different_seeds_differ():
    assert scaled(50, seed=0).digest() != scaled(50, seed=1).digest()


def test_named_presets_are_stable_and_distinct():
    names = (
        "paper3", "fat_tree_campus", "transcontinental_federation",
        "degraded_backbone",
    )
    digests = {name: preset(name).validate().digest() for name in names}
    assert len(set(digests.values())) == len(names)
    for name in names:
        assert preset(name).digest() == digests[name]


def test_preset_rejects_unknown_names():
    with pytest.raises(KeyError):
        preset("paper4")
    with pytest.raises(KeyError):
        preset("scaled-")


def test_scaled_preset_name_parses():
    assert preset("scaled-25").digest() == scaled(25).digest()


def test_degraded_backbone_is_strictly_worse():
    base = preset("transcontinental_federation")
    bad = preset("degraded_backbone")
    base_links = {
        (link.src, link.dst): link for link in base.links
    }
    assert len(bad.links) == len(base.links)
    for link in bad.links:
        reference = base_links[(link.src, link.dst)]
        assert link.capacity < reference.capacity
        assert link.latency > reference.latency
        assert link.loss_rate > reference.loss_rate


def test_validation_rejects_tier_inversion():
    from repro.testbed.sites import SiteSpec
    from repro.testbed.topology import (
        RegionSpec, TopologySpec, WanLinkSpec,
    )

    def site(name, host, capacity):
        return SiteSpec(
            name=name, host_names=(host,), cores=1, frequency_ghz=1.0,
            memory_bytes=2**28, disk_capacity=1e10, disk_bandwidth=5e7,
            lan_capacity=mbit_per_s(100), lan_latency=1e-4,
            wan_capacity=capacity, wan_latency=0.01, wan_loss_rate=0.0,
        )

    spec = TopologySpec(
        name="inverted",
        regions=(
            RegionSpec("fast-edge", "edge",
                       (site("A", "a0", mbit_per_s(500)),)),
            RegionSpec("slow-core", "core",
                       (site("B", "b0", mbit_per_s(100)),)),
        ),
        links=(
            WanLinkSpec("fast-edge-gw", "slow-core-gw",
                        mbit_per_s(600), 0.01),
        ),
    )
    with pytest.raises(TopologyValidationError, match="inversion"):
        spec.validate()


def test_build_validates_the_spec_once(monkeypatch):
    """The generator returns its spec unchecked; the builder checks it."""
    names = []
    validate = TopologySpec.validate

    def counting(spec):
        names.append(spec.name)
        return validate(spec)

    monkeypatch.setattr(TopologySpec, "validate", counting)
    build_testbed(topology=scaled(40, hosts_per_site=1), monitoring=False)
    assert names == ["scaled-40"]


def test_build_rejects_an_invalid_hand_built_spec():
    spec = flat(PAPER_SITES + PAPER_SITES[:1], "duplicated")
    with pytest.raises(TopologyValidationError, match="duplicate site"):
        build_testbed(topology=spec)

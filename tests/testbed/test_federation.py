"""Unit tests of the regional monitoring federation."""

import pytest

from repro.monitoring.nws.series import series_key
from repro.testbed import build_testbed
from repro.testbed.topology import scaled

SPEC = scaled(20, seed=4)


@pytest.fixture(scope="module")
def warm_testbed():
    testbed = build_testbed(topology=SPEC, seed=1)
    testbed.warm_up(90.0)
    return testbed


def test_regional_build_shape(warm_testbed):
    testbed = warm_testbed
    assert testbed.spec is SPEC
    regions = {region.name for region in SPEC.regions}
    assert set(testbed.region_memories) == regions
    assert set(testbed.region_giises) == regions
    # Sensor budget: hosts CPU sensors + 2 per non-hub site + the
    # directed hub mesh.
    hosts = len(testbed.grid.hosts)
    n_regions = len(SPEC.regions)
    non_hub_sites = sum(
        len(region.sites) - 1 for region in SPEC.regions
    )
    expected = hosts + 2 * non_hub_sites + n_regions * (n_regions - 1)
    assert len(testbed.sensors) == expected


def test_federated_giis_routes_to_regions(warm_testbed):
    testbed = warm_testbed
    giis = testbed.giis
    host = sorted(testbed.grid.hosts)[-1]
    entry = testbed.grid.sim.run(
        until=testbed.grid.sim.process(giis.query(host))
    )
    assert entry["hostname"] == host
    assert giis.cache_misses >= 1
    before = giis.cache_hits
    entry_again = testbed.grid.sim.run(
        until=testbed.grid.sim.process(giis.query(host))
    )
    assert entry_again["hostname"] == host
    assert giis.cache_hits == before + 1


def test_federated_giis_query_all_covers_every_host(warm_testbed):
    testbed = warm_testbed
    assert testbed.giis.providers() == testbed.host_names()


def test_federated_forecast_composes_segments(warm_testbed):
    testbed = warm_testbed
    client, replicas = testbed.roles
    remote = next(
        r for r in replicas
        if testbed.spec.region_of(
            _site_of(testbed, r)
        ).name != testbed.spec.region_of(_site_of(testbed, client)).name
    )
    key = series_key("bandwidth", remote, client)
    # Nobody measures this pair directly...
    for name in sorted(testbed.region_memories):
        assert not testbed.region_memories[name].has_series(key)
    # ...yet the federation forecasts it from measured segments.
    value, name = testbed.nws_memory.forecast(key)
    assert value is not None and value > 0
    assert name == "federated"
    latest = testbed.nws_memory.latest(key)
    assert latest is not None
    assert 0 < latest[0] <= testbed.sim.now


def test_federated_forecast_unknown_pair_is_cold_start(warm_testbed):
    value, name = warm_testbed.nws_memory.forecast(
        series_key("bandwidth", "nope", "alsono")
    )
    assert (value, name) == (None, None)


def test_federation_freeze_thaw(warm_testbed):
    testbed = warm_testbed
    memory = testbed.nws_memory
    assert not memory.is_frozen
    dropped_before = memory.measurements_dropped
    memory.freeze()
    assert memory.is_frozen
    testbed.warm_up(30.0)
    assert memory.measurements_dropped > dropped_before
    memory.thaw()
    assert not memory.is_frozen
    for name in sorted(testbed.region_memories):
        assert not testbed.region_memories[name].is_frozen


def test_monitoring_mode_override_full():
    testbed = build_testbed(
        topology=scaled(14, seed=2), monitoring_mode="full"
    )
    hosts = len(testbed.grid.hosts)
    # All-pairs mesh plus one CPU sensor per host.
    assert len(testbed.sensors) == hosts * (hosts - 1) + hosts
    assert not testbed.region_memories


def test_derived_warmup_scales_with_rtt():
    near = build_testbed(topology=scaled(12, seed=0))
    far = build_testbed(
        topology="transcontinental_federation"
    )
    assert near.recommended_warmup >= 120.0
    assert far.recommended_warmup > near.recommended_warmup
    assert far.recommended_warmup == pytest.approx(
        max(120.0, 8.0 * far.sensor_period, 1500.0 * far.max_wan_rtt)
    )


def _site_of(testbed, host_name):
    return testbed.grid.host(host_name).site

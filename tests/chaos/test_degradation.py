"""Degradation-aware selection: stale, missing and poisoned inputs."""

import math

import pytest

from repro.chaos import Campaign, ChaosEngine, EventSpec, Schedule
from repro.core.cost_model import CostModel
from repro.core.degradation import DegradationPolicy, LastKnownGood
from repro.experiments.harness import register_replicas
from repro.experiments.table1 import LOAD_PROFILE
from repro.monitoring.information import SiteFactors
from repro.testbed import build_testbed
from repro.testbed.topology import preset

from tests.conftest import run_process

_, REPLICA_HOSTS = preset("paper3").default_roles()


class TestDegradationPolicy:
    def test_fresh_readings_pass_through(self):
        policy = DegradationPolicy(max_age=60.0)
        assert policy.decay(0.0) == 1.0
        assert policy.decay(60.0) == 1.0
        assert policy.apply(0.8, 30.0) == pytest.approx(0.8)
        assert not policy.is_stale(60.0)

    def test_stale_readings_halve_per_halflife(self):
        policy = DegradationPolicy(max_age=60.0, penalty_halflife=120.0)
        assert policy.is_stale(61.0)
        assert policy.decay(180.0) == pytest.approx(0.5)
        assert policy.decay(300.0) == pytest.approx(0.25)
        assert policy.apply(0.8, 180.0) == pytest.approx(0.4)

    def test_sanitize_replaces_non_finite(self):
        policy = DegradationPolicy(default_cpu_idle=0.5)
        for bad in (float("nan"), float("inf"), -float("inf"), None):
            clean, dirty = policy.sanitize("cpu_idle", bad)
            assert dirty and clean == 0.5

    def test_sanitize_clamps_out_of_range(self):
        policy = DegradationPolicy()
        assert policy.sanitize("io_idle", 1.7) == (1.0, True)
        assert policy.sanitize("io_idle", -0.2) == (0.0, True)
        assert policy.sanitize("io_idle", 0.3) == (0.3, False)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DegradationPolicy(max_age=-1.0)
        with pytest.raises(ValueError):
            DegradationPolicy(penalty_halflife=0.0)
        with pytest.raises(ValueError):
            DegradationPolicy(default_cpu_idle=1.5)

    def test_last_known_good_roundtrip(self):
        cache = LastKnownGood()
        assert cache.lookup(("cpu_idle", "x")) is None
        cache.record(("cpu_idle", "x"), 10.0, 0.7)
        assert cache.lookup(("cpu_idle", "x")) == (10.0, 0.7)
        cache.record(("cpu_idle", "x"), 20.0, 0.6)
        assert cache.lookup(("cpu_idle", "x")) == (20.0, 0.6)
        assert len(cache) == 1


class TestCostModelClamping:
    def factors(self, **overrides):
        values = {"bandwidth_fraction": 0.5, "cpu_idle": 0.5,
                  "io_idle": 0.5}
        values.update(overrides)
        return SiteFactors("client", "candidate", **values)

    def test_default_still_raises_on_nan(self):
        with pytest.raises(ValueError):
            CostModel().score_factors(
                self.factors(cpu_idle=float("nan"))
            )

    def test_clamping_model_never_raises(self):
        model = CostModel(clamp_invalid=True)
        score = model.score_factors(
            self.factors(bandwidth_fraction=float("nan"),
                         cpu_idle=float("inf"), io_idle=2.0)
        )
        assert math.isfinite(score.score)
        assert score.factors.bandwidth_fraction == 0.0
        assert score.factors.cpu_idle == 0.0
        assert score.factors.io_idle == 1.0
        assert model.values_clamped == 3

    def test_clamped_ranking_is_stable(self):
        model = CostModel(clamp_invalid=True)
        ranked = model.rank([
            self.factors(bandwidth_fraction=float("nan")),
            self.factors(),
        ])
        assert ranked[0].factors.bandwidth_fraction == 0.5


def build(seed=0, warmup=60.0, **policy_kwargs):
    testbed = build_testbed(seed=seed)
    if policy_kwargs:
        testbed.information.policy = DegradationPolicy(**policy_kwargs)
    register_replicas(testbed, "file-a", REPLICA_HOSTS, 16)
    testbed.warm_up(warmup)
    return testbed


class TestInformationDegradation:
    def test_healthy_grid_has_no_fallbacks(self):
        testbed = build()
        factors = run_process(
            testbed.grid,
            testbed.information.site_factors("alpha1", "hit0"),
        )
        assert factors.degraded == ()
        assert testbed.information.fallbacks == 0

    def test_frozen_memory_discounts_stale_forecast(self):
        testbed = build(max_age=30.0, penalty_halflife=60.0)
        grid = testbed.grid
        info = testbed.information
        fresh = run_process(
            grid, info.site_factors("alpha1", "hit0")
        ).bandwidth_fraction
        testbed.nws_memory.freeze()
        grid.sim.run(until=grid.sim.now + 200.0)
        stale = run_process(grid, info.site_factors("alpha1", "hit0"))
        assert "bandwidth_fraction" in stale.degraded
        assert stale.bandwidth_fraction < fresh
        assert stale.bandwidth_fraction >= info.policy.default_for(
            "bandwidth_fraction"
        )
        assert info.fallbacks >= 1
        assert testbed.nws_memory.measurements_dropped > 0

    def test_mds_blackout_serves_last_known_good(self):
        testbed = build(max_age=30.0, penalty_halflife=60.0)
        grid = testbed.grid
        info = testbed.information
        healthy = run_process(grid, info.cpu_idle("hit0"))
        testbed.giis.set_down()
        grid.sim.run(until=grid.sim.now + 100.0)
        degraded = run_process(grid, info.cpu_idle("hit0"))
        assert degraded < healthy
        assert degraded >= 0.0
        assert testbed.giis.refused_queries >= 1
        assert info.fallbacks >= 1

    def test_mds_blackout_without_history_uses_default(self):
        testbed = build()
        testbed.giis.set_down()
        value = run_process(
            testbed.grid, testbed.information.cpu_idle("lz02")
        )
        assert value == testbed.information.policy.default_for("cpu_idle")

    def test_crashed_host_io_falls_back(self):
        testbed = build()
        grid = testbed.grid
        info = testbed.information
        run_process(grid, info.io_idle("hit0"))  # prime last-known-good
        grid.host("hit0").crash()
        value = run_process(grid, info.io_idle("hit0"))
        assert 0.0 <= value <= 1.0
        assert info.fallbacks >= 1
        grid.host("hit0").reboot()

    def test_selection_survives_total_monitoring_blackout(self):
        testbed = build()
        grid = testbed.grid
        campaign = Campaign("dark", [
            EventSpec("sensors", "sensor_blackout", Schedule.at(0.5),
                      target="*", duration=None),
            EventSpec("memory", "nws_freeze", Schedule.at(0.5),
                      duration=None),
            EventSpec("giis", "mds_blackout", Schedule.at(0.5),
                      duration=None),
        ], horizon=50.0)
        engine = ChaosEngine(grid, campaign, testbed=testbed).start()
        grid.sim.run(until=grid.sim.now + 300.0)
        decision = run_process(
            grid, testbed.selection_server.select("alpha1", "file-a")
        )
        assert decision.chosen in REPLICA_HOSTS
        assert len(decision.scores) == len(REPLICA_HOSTS)
        engine.stop()


class TestTable1UnderBrownout:
    def test_brownout_on_losing_site_keeps_alpha4(self):
        """Table 1 regression: alpha4 must win even when a site it
        already beat (HIT's uplink) is browned out."""
        testbed = build_testbed(seed=0)
        grid = testbed.grid
        register_replicas(testbed, "file-a", REPLICA_HOSTS, 16)
        for host_name, (busy, disk_util) in LOAD_PROFILE.items():
            grid.host(host_name).cpu.set_background_busy(busy)
            grid.host(host_name).disk.set_background_utilisation(disk_util)
        grid.network.rebalance()
        testbed.warm_up(60.0)

        campaign = Campaign("hit-brownout", [
            EventSpec("soak", "bandwidth_brownout", Schedule.at(1.0),
                      target=("hit-switch", "tanet"), duration=None,
                      params={"utilisation": 0.9}),
        ], horizon=600.0)
        engine = ChaosEngine(grid, campaign, testbed=testbed).start()
        # Let the NWS observe the browned-out path before selecting.
        grid.sim.run(until=grid.sim.now + 60.0)

        decision = run_process(
            grid, testbed.selection_server.select("alpha1", "file-a")
        )
        engine.stop()
        assert decision.chosen == "alpha4"
        # The brownout must have actually registered: hit0's bandwidth
        # factor drops below the healthy same-cluster candidate's.
        by_candidate = {s.candidate: s for s in decision.scores}
        assert (
            by_candidate["hit0"].factors.bandwidth_fraction
            < by_candidate["alpha4"].factors.bandwidth_fraction
        )

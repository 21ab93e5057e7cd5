"""Runtime sanitizers: sim-time watchdog and resource-leak sweep."""

import heapq
import math

import pytest

from repro.analysis.sanitizers import (
    GlobalWatchdog,
    SimTimeWatchdog,
    WatchdogError,
    attach_watchdog,
    check_leaks,
    install_global_watchdog,
)
from repro.sim import Simulator


def drive(sim, delays):
    for delay in delays:
        sim.timeout(delay)
    sim.run()


class TestSimTimeWatchdog:
    def test_clean_run_reports_ok(self):
        sim = Simulator()
        watchdog = attach_watchdog(sim)
        drive(sim, [1.0, 2.5, 0.5])
        assert watchdog.ok
        assert watchdog.steps_checked == 3
        assert watchdog.violations == []

    @pytest.mark.no_sanitize
    def test_clock_regression_is_detected(self):
        sim = Simulator()
        watchdog = attach_watchdog(sim)
        drive(sim, [5.0])
        # Corrupt the clock the way a buggy model would, then let the
        # kernel process one more event from the rewound present.
        sim._now = 1.0
        sim.timeout(0.0)
        sim.step()
        assert not watchdog.ok
        assert watchdog.violations[0].kind == "clock-regression"
        assert "5.0" in watchdog.violations[0].detail

    @pytest.mark.no_sanitize
    def test_non_finite_clock_is_detected(self):
        sim = Simulator()
        watchdog = attach_watchdog(sim)
        sim._now = math.inf
        sim.timeout(0.0)  # inf + 0 stays inf
        sim.step()
        assert any(
            v.kind == "non-finite-clock" for v in watchdog.violations
        )

    @pytest.mark.no_sanitize
    def test_past_event_in_queue_is_detected(self):
        sim = Simulator()
        watchdog = attach_watchdog(sim)
        timeout = sim.timeout(2.0)
        stale = sim.event()
        stale._ok = True
        stale._value = None

        def splice(event):
            # Slip an event behind the clock while the t=2 event is
            # being processed, bypassing schedule()'s delay guard.
            heapq.heappush(sim._queue, (1.0, 1, -1, stale))

        timeout.callbacks.append(splice)
        sim.step()
        assert any(
            v.kind == "past-event-queued" for v in watchdog.violations
        )

    @pytest.mark.no_sanitize
    def test_strict_mode_raises(self):
        sim = Simulator()
        attach_watchdog(sim, strict=True)
        drive(sim, [1.0])
        sim._now = 0.5
        sim.timeout(0.0)
        with pytest.raises(WatchdogError, match="clock-regression"):
            sim.step()

    def test_detach_stops_checking(self):
        sim = Simulator()
        watchdog = attach_watchdog(sim)
        drive(sim, [1.0])
        watchdog.detach()
        watchdog.detach()  # idempotent
        drive(sim, [1.0])
        assert watchdog.steps_checked == 1

    def test_repr_mentions_state(self):
        sim = Simulator()
        watchdog = SimTimeWatchdog(sim)
        assert "armed" in repr(watchdog)
        watchdog.detach()
        assert "detached" in repr(watchdog)


class TestGlobalWatchdog:
    def test_arms_every_simulator_while_installed(self):
        guard = install_global_watchdog()
        try:
            first = Simulator()
            second = Simulator()
            drive(first, [1.0])
            drive(second, [2.0])
        finally:
            guard.uninstall()
        assert len(guard.watchdogs) == 2
        assert guard.violations() == []

    def test_uninstall_restores_plain_simulators(self):
        with GlobalWatchdog() as guard:
            Simulator()
        Simulator()  # constructed after uninstall: not watched
        assert len(guard.watchdogs) == 1

    @pytest.mark.no_sanitize
    def test_collects_violations_across_simulators(self):
        with GlobalWatchdog() as guard:
            sim = Simulator()
            drive(sim, [3.0])
            sim._now = 1.0
            sim.timeout(0.0)
            sim.step()
        kinds = [v.kind for v in guard.violations()]
        assert kinds == ["clock-regression"]

    def test_double_install_is_rejected(self):
        guard = install_global_watchdog()
        try:
            with pytest.raises(RuntimeError, match="already installed"):
                guard.install()
        finally:
            guard.uninstall()
        guard.uninstall()  # idempotent


class TestLeakCheck:
    def test_finished_spans_are_clean(self):
        sim = Simulator(observe=True)
        span = sim.obs.tracer.start_span("gridftp.transfer")
        sim.timeout(1.0)
        sim.run()
        span.finish()
        report = check_leaks(sim)
        assert report.ok
        assert report.describe() == "no leaks"

    def test_open_transfer_span_is_flagged_as_transfer_leak(self):
        sim = Simulator(observe=True)
        sim.obs.tracer.start_span("gridftp.transfer", replica="r1")
        report = check_leaks(sim)
        assert not report.ok
        assert report.leaks[0].kind == "unclosed-transfer"
        assert "never finished" in report.leaks[0].detail

    def test_open_generic_span_is_flagged_as_span_leak(self):
        sim = Simulator(observe=True)
        sim.obs.tracer.start_span("selector.rank")
        report = check_leaks(sim)
        assert [leak.kind for leak in report.leaks] == ["unclosed-span"]

    def test_accepts_bare_observability(self):
        sim = Simulator(observe=True)
        sim.obs.tracer.start_span("selector.rank")
        report = check_leaks(sim.obs)
        assert not report.ok

    def test_stale_queue_event_is_flagged(self):
        sim = Simulator()
        sim.timeout(1.0)
        sim._now = 5.0
        report = check_leaks(sim)
        assert [leak.kind for leak in report.leaks] == ["stale-event"]

    def test_disabled_observability_has_no_span_leaks(self):
        sim = Simulator(observe=False)
        report = check_leaks(sim)
        assert report.ok

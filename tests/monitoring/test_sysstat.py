"""Tests for the iostat clone."""

import pytest

from repro.monitoring.sysstat import IoStat

from tests.conftest import build_two_host_grid


class TestIoStat:
    def test_instantaneous_idle(self):
        grid = build_two_host_grid()
        host = grid.host("src")
        host.disk.set_background_utilisation(0.3)
        assert IoStat(host).instantaneous_idle() == pytest.approx(0.7)

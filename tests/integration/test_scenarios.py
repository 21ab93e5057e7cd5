"""Scenario battery: multi-component stories across the whole stack."""

from repro.testbed import build_testbed
from repro.units import megabytes

from tests.conftest import run_process


def test_background_jobs_and_transfers_contend_for_cpu():
    """A compute-loaded Li-Zen host serves transfers more slowly."""
    from repro.gridftp import GridFtpClient

    testbed = build_testbed(seed=83, monitoring=False)
    grid = testbed.grid
    # Tighten the CPU bottleneck: make the lz02 CPU the constraint by
    # giving it a huge per-byte transfer cost.
    host = grid.host("lz02")
    host.cpu.transfer_cost_per_byte = 1.0 / (2e6)  # 1 core = 2 MB/s
    host.filesystem.create("f", megabytes(8))

    client = GridFtpClient(grid, "lz01")
    idle_record = run_process(grid, client.get("lz02", "f", "idle-copy"))

    host.cpu.set_background_busy(host.cpu.cores)  # every core
    grid.network.rebalance()
    busy_record = run_process(grid, client.get("lz02", "f", "busy-copy"))
    assert busy_record.data_seconds > idle_record.data_seconds * 2


def test_striped_sources_with_background_disk_load():
    from repro.gridftp import GridFtpClient, striped_get

    testbed = build_testbed(seed=84, monitoring=False)
    grid = testbed.grid
    for name in ["hit0", "hit1"]:
        grid.host(name).filesystem.create("f", megabytes(64))
        grid.host(name).disk.bandwidth = 4e6
    grid.host("hit1").disk.set_background_utilisation(0.75)
    grid.network.rebalance()
    client = GridFtpClient(grid, "hit3")
    record = run_process(
        grid, striped_get(client, ["hit0", "hit1"], "f")
    )
    # The loaded disk's stripe (32 MB at ~1 MB/s) dominates: classic
    # straggler behaviour that co-allocation exists to fix.
    assert record.elapsed > 25.0
    assert "f" in grid.host("hit3").filesystem


def test_lan_fetch_dwarfs_wan_fetch():
    """Sanity: a LAN fetch completes orders faster than WAN options."""
    from repro.gridftp import GridFtpClient

    testbed = build_testbed(seed=85, monitoring=False)
    grid = testbed.grid
    grid.host("alpha2").filesystem.create("f", megabytes(64))
    grid.host("lz02").filesystem.create("f", megabytes(64))
    client = GridFtpClient(grid, "alpha1")
    lan = run_process(grid, client.get("alpha2", "f", "lan-copy"))
    wan = run_process(grid, client.get("lz02", "f", "wan-copy"))
    assert wan.elapsed > lan.elapsed * 20

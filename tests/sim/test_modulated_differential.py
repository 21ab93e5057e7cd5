"""Differential battery: the one-timer driver against the process it replaced.

Cross traffic and CPU/disk load jump among levels on
:class:`repro.sim.modulated.MarkovModulated`, which pushes one
bootstrap event and then re-arms one ``Timeout``.  The reference in
``modulated_reference.py`` is the generator process each class ran
before, yielding a new ``Timeout`` per jump.  On the same seed the two
must make the same ``(time, level)`` jumps and process the same event
stream, with the same scheduled and processed counts and queue high
water.  The other tests pin the driver's queue discipline: one live
entry per driver at every step (the bootstrap, then always the same
``Timeout``), and none once ``stop()`` has withdrawn it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hosts import CPU, CPULoadGenerator, Disk, DiskLoadGenerator
from repro.network import CrossTrafficProcess, FlowNetwork, Topology
from repro.sim import Event, Simulator, Timeout
from tests.sim.modulated_reference import ProcessModulated

LINKS = [("a", "b"), ("b", "a"), ("b", "c")]


def _grid(seed, flows, flow_gap):
    """Three nodes, a host's CPU and disk, and flows through both."""
    sim = Simulator(seed=seed)
    topo = Topology()
    for name in ("a", "b", "c"):
        topo.add_node(name)
    topo.add_duplex_link("a", "b", 1000.0)
    topo.add_duplex_link("b", "c", 800.0)
    net = FlowNetwork(sim, topo)
    cpu = CPU(sim, "h", cores=4, transfer_cost_per_byte=2e-3)
    disk = Disk(sim, "h", bandwidth=900.0, capacity_bytes=1e12)

    def workload():
        for _ in range(flows):
            net.start_flow(
                "a", "c", 20_000.0,
                extra_links=[cpu.channel, disk.channel],
            )
            yield sim.timeout(flow_gap)

    if flows:
        sim.process(workload())
    return sim, topo, net, cpu, disk


def _recorded(driver, log):
    """Log ``(time, level)`` at each of ``driver``'s jumps."""
    apply = driver._apply
    sim = driver.sim

    def recording_apply(level):
        log.append((sim.now, level))
        apply(level)

    driver._apply = recording_apply
    return driver


def _drivers(sim, topo, net, cpu, disk, jitter, holding):
    """The library's drivers, each logging its jumps."""
    logs = {}
    for src, dst in LINKS:
        logs[f"{src}->{dst}"] = log = []
        _recorded(CrossTrafficProcess(
            sim, net, topo.link(src, dst), levels=[0.05, 0.4, 0.7],
            mean_holding_time=holding, jitter=jitter,
        ), log)
    logs["cpu"] = log = []
    _recorded(CPULoadGenerator(
        sim, cpu, levels=[0.0, 1.5, 3.9], mean_holding_time=holding,
        notify=net.rebalance, jitter=jitter,
    ), log)
    logs["disk"] = log = []
    _recorded(DiskLoadGenerator(
        sim, disk, levels=[0.0, 0.5, 0.9], mean_holding_time=holding,
        notify=net.rebalance, jitter=jitter,
    ), log)
    return logs


def _references(sim, topo, net, cpu, disk, jitter, holding):
    """The same drivers as generator processes."""
    logs = {}
    for src, dst in LINKS:
        link = topo.link(src, dst)

        def apply(level, link=link):
            link.background_utilisation = level
            net.rebalance()

        logs[f"{src}->{dst}"] = ProcessModulated(
            sim, [0.05, 0.4, 0.7], holding,
            sim.streams.get(f"crosstraffic/{src}->{dst}"), apply,
            jitter=jitter, ceiling=0.95,
        ).history

    def apply_cpu(level):
        cpu.set_background_busy(level)
        net.rebalance()

    logs["cpu"] = ProcessModulated(
        sim, [0.0, 1.5, 3.9], holding, sim.streams.get("cpuload/h"),
        apply_cpu, jitter=jitter, ceiling=float(cpu.cores),
    ).history

    def apply_disk(level):
        disk.set_background_utilisation(level)
        net.rebalance()

    logs["disk"] = ProcessModulated(
        sim, [0.0, 0.5, 0.9], holding, sim.streams.get("diskload/h"),
        apply_disk, jitter=jitter, ceiling=0.95,
    ).history
    return logs


def _run(make, seed, flows, flow_gap, jitter, holding, horizon):
    sim, topo, net, cpu, disk = _grid(seed, flows, flow_gap)
    logs = make(sim, topo, net, cpu, disk, jitter, holding)
    processed = []
    sim.add_step_hook(
        lambda sim, event: processed.append((sim.now, type(event).__name__))
    )
    sim.run(until=horizon)
    counts = (sim.events_scheduled, sim.events_processed,
              sim.queue_high_water)
    return logs, processed, counts


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    flows=st.integers(0, 4),
    flow_gap=st.sampled_from([0.5, 7.0, 30.0]),
    jitter=st.sampled_from([0.0, 0.05, 0.3]),
    holding=st.sampled_from([0.5, 4.0, 45.0]),
)
def test_driver_matches_process_reference(seed, flows, flow_gap, jitter,
                                          holding):
    args = (seed, flows, flow_gap, jitter, holding, 120.0)
    logs, processed, counts = _run(_drivers, *args)
    ref_logs, ref_processed, ref_counts = _run(_references, *args)
    assert logs == ref_logs
    assert all(logs.values())
    assert processed == ref_processed
    assert counts == ref_counts


def _live(sim, driver):
    """``driver``'s live (not withdrawn) queued events."""
    return [
        entry[3] for entry in sim._queue
        if not entry[3].cancelled and entry[3].callbacks
        and getattr(entry[3].callbacks[0], "__self__", None) is driver
    ]


def test_solo_driver_keeps_one_queued_entry():
    sim = Simulator(seed=5)
    cpu = CPU(sim, "h", cores=2)
    gen = CPULoadGenerator(sim, cpu, levels=[0.1, 1.9], mean_holding_time=1.0)
    queued = []
    for _ in range(30):
        assert sim.queue_depth == 1
        queued.append(sim._queue[0][3])
        sim.step()
    # The bootstrap event, then one Timeout re-armed on every jump.
    assert type(queued[0]) is Event
    assert type(queued[1]) is Timeout
    assert all(event is queued[1] for event in queued[1:])
    assert gen.jumps == 30
    assert sim.events_scheduled == sim.events_processed + 1

    level = cpu.background_busy_cores
    gen.stop()
    assert sim.queue_cancelled() == sim.queue_depth == 1
    sim.run()
    assert sim.queue_depth == 0
    assert gen.jumps == 30
    assert cpu.background_busy_cores == level


def test_each_driver_keeps_one_live_entry_among_flows():
    sim, topo, net, cpu, disk = _grid(seed=7, flows=4, flow_gap=3.0)
    drivers = [
        CrossTrafficProcess(sim, net, topo.link(src, dst),
                            levels=[0.1, 0.6], mean_holding_time=2.0)
        for src, dst in LINKS
    ] + [
        CPULoadGenerator(sim, cpu, levels=[0.0, 3.0], mean_holding_time=2.0,
                         notify=net.rebalance),
        DiskLoadGenerator(sim, disk, levels=[0.0, 0.8],
                          mean_holding_time=2.0, notify=net.rebalance),
    ]
    seen = {id(driver): [] for driver in drivers}
    stopped = drivers[0]
    steps = 0
    while sim.peek() <= 60.0:
        if steps == 60:
            jumps = stopped.jumps
            stopped.stop()
        for driver in drivers:
            live = _live(sim, driver)
            if steps >= 60 and driver is stopped:
                assert live == []
                continue
            assert len(live) == 1
            if not seen[id(driver)] or seen[id(driver)][-1] is not live[0]:
                seen[id(driver)].append(live[0])
        sim.step()
        steps += 1
    assert steps > 120
    for driver in drivers:
        boot, timer = seen[id(driver)]
        assert type(boot) is Event
        assert type(timer) is Timeout
    assert stopped.jumps == jumps
    assert all(driver.jumps > jumps for driver in drivers[1:])


@pytest.mark.parametrize("kind", ["traffic", "cpu", "disk"])
def test_stop_before_bootstrap_withdraws_it(kind):
    sim, topo, net, cpu, disk = _grid(seed=3, flows=0, flow_gap=1.0)
    if kind == "traffic":
        driver = CrossTrafficProcess(
            sim, net, topo.link("a", "b"), levels=[0.5],
            mean_holding_time=1.0,
        )
    elif kind == "cpu":
        driver = CPULoadGenerator(sim, cpu, levels=[1.0],
                                  mean_holding_time=1.0)
    else:
        driver = DiskLoadGenerator(sim, disk, levels=[0.5],
                                   mean_holding_time=1.0)
    driver.stop()
    assert _live(sim, driver) == []
    sim.run()
    assert driver.jumps == 0
    assert topo.link("a", "b").background_utilisation == 0.0
    assert cpu.background_busy_cores == 0.0
    assert disk.background_utilisation == 0.0
    assert sim.events_processed == 0
    driver.stop()

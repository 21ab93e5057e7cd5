"""The layer boundaries the traced pass wraps, and what each should move.

Every entry is ``(span, owner, attribute, moves)``: the span name the
per-layer metrics are reported under (``<span>.calls``,
``<span>.self_s``), the class or module whose attribute is wrapped (as
``module:Class`` or ``module``), and the end-to-end metric and workload
a change to that layer should move.  Owners are resolved only by
:func:`targets`, so this table can be read without the library.

Class-level wrapping happens before any testbed is built, so callbacks
bound during construction (sensor timers, the load generators'
``rebalance``) go through the spans too.
"""

import importlib

__all__ = ["LAYERS", "SPANS", "targets"]

_FLOW = "sim_s_per_cpu_s on frontdoor_brownout"
_PROBE = "sim_s_per_cpu_s on paper3_selection"
_SCALE = "setup_s and cpu_s on grid_scale_1000"
_SELECT = "cpu_s on grid_scale_1000"
_DOOR = "sim_s_per_cpu_s and served_ratio on frontdoor_brownout"

LAYERS = (
    ("sim.step", "repro.sim.kernel:Simulator", "step",
     "sim_s_per_cpu_s on grid_scale_1000 and paper3_selection"),
    ("network.flow.start_flow", "repro.network.flow:FlowNetwork",
     "start_flow", _FLOW),
    ("network.flow.abort_flow", "repro.network.flow:FlowNetwork",
     "abort_flow", _FLOW),
    ("network.flow.rebalance", "repro.network.flow:FlowNetwork",
     "rebalance", _FLOW),
    ("network.flow.probe_rate", "repro.network.flow:FlowNetwork",
     "probe_rate", _PROBE),
    ("network.solver.rates", "repro.network.solver:IncrementalMaxMinSolver",
     "rates", _FLOW),
    ("network.solver.probe_rate",
     "repro.network.solver:IncrementalMaxMinSolver", "probe_rate", _PROBE),
    ("network.router.path", "repro.network.routing:Router", "path",
     _SELECT),
    ("monitoring.nws.sensor.measure_once",
     "repro.monitoring.nws.sensor:Sensor", "measure_once", _PROBE),
    ("monitoring.nws.memory.store", "repro.monitoring.nws.memory:NwsMemory",
     "store", _PROBE),
    ("monitoring.nws.forecast.update",
     "repro.monitoring.nws.forecasting:ForecasterBattery", "update",
     _PROBE),
    ("monitoring.federation.memory.forecast",
     "repro.monitoring.federation:FederatedNwsMemory", "forecast", _SCALE),
    ("monitoring.federation.memory.latest",
     "repro.monitoring.federation:FederatedNwsMemory", "latest", _SCALE),
    ("monitoring.federation.giis.query",
     "repro.monitoring.federation:FederatedGIIS", "query", _SCALE),
    ("testbed.build_testbed", "workloads", "build_testbed", _SCALE),
    ("testbed.warm_up", "repro.testbed.builder:Testbed", "warm_up", _SCALE),
    ("core.server.score_candidates",
     "repro.core.server:ReplicaSelectionServer", "score_candidates",
     _SELECT),
    ("core.cost_model.rank", "repro.core.cost_model:CostModel", "rank",
     _SELECT),
    ("gridftp.client.get", "repro.gridftp.gridftp:GridFtpClient", "get",
     _DOOR),
    ("gridftp.rft.get_logical",
     "repro.gridftp.reliable:ReliableFileTransfer", "get_logical", _DOOR),
    ("controlplane.frontdoor.handle",
     "repro.controlplane.frontdoor:FrontDoor", "handle",
     "served_ratio on frontdoor_brownout"),
)

#: Span names, in table order.
SPANS = tuple(layer[0] for layer in LAYERS)

#: Span name -> the end-to-end metric and workload it should move.
MOVES = {layer[0]: layer[3] for layer in LAYERS}


def _resolve(owner):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def targets():
    """``(span, owner, attribute)`` triples for ``Tracer.install``."""
    return [
        (span, _resolve(owner), attribute)
        for span, owner, attribute, _ in LAYERS
    ]

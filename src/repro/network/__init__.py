"""Flow-level network simulation.

The Data Grid testbed of the paper is three PC clusters joined by real
WAN links.  Here the network is simulated at *flow* granularity: active
transfers are flows over routed paths, and whenever the set of flows (or
the background cross-traffic) changes, every flow's rate is recomputed by
max-min fair sharing subject to per-flow caps.  Per-flow caps come from
the TCP model (window/RTT and Mathis loss limits) and from the endpoint
disk/CPU models — which is exactly the mechanism that makes parallel
GridFTP streams faster than one stream on a long fat pipe.
"""

from repro.network.flow import Flow, FlowNetwork
from repro.network.link import Link
from repro.network.routing import NoRouteError, Router
from repro.network.tcp import TCPModel, TCPParameters
from repro.network.topology import Node, Topology
from repro.network.traffic import CrossTrafficProcess

__all__ = [
    "CrossTrafficProcess",
    "Flow",
    "FlowNetwork",
    "Link",
    "NoRouteError",
    "Node",
    "Router",
    "TCPModel",
    "TCPParameters",
    "Topology",
]

"""Background traffic: the dynamic environment the monitors observe.

The paper stresses that "network bandwidth is an unstable and dynamic
factor".  :class:`CrossTrafficProcess` models that: a Markov-modulated
process varies a link's background utilisation between discrete levels
at exponential holding times.  This stands for campus/Internet traffic
that is not simulated flow-by-flow.
"""

from repro.sim.modulated import MarkovModulated

__all__ = ["CrossTrafficProcess"]


class CrossTrafficProcess(MarkovModulated):
    """Markov-modulated background utilisation on one link.

    Parameters
    ----------
    sim, network:
        Simulator and the :class:`FlowNetwork` to notify of changes.
    link:
        The :class:`Link` to modulate (its reverse direction, if any, is
        independent).
    levels:
        Utilisation levels in [0, 1); the process jumps among them.
    mean_holding_time:
        Mean sojourn time in each level, seconds.
    stream:
        A :class:`RandomStream`; defaults to one named after the link.
    jitter:
        Additive uniform noise applied on each jump, clamped to [0, 0.95].
    """

    def __init__(self, sim, network, link, levels, mean_holding_time,
                 stream=None, jitter=0.0):
        for level in levels:
            if not 0.0 <= level < 1.0:
                raise ValueError(f"utilisation level out of range: {level}")
        self.network = network
        self.link = link
        super().__init__(
            sim, levels, mean_holding_time,
            stream or sim.streams.get(f"crosstraffic/{link.src}->{link.dst}"),
            jitter=jitter, ceiling=0.95,
        )

    def _apply(self, level):
        self.link.background_utilisation = level
        self.network.rebalance()

"""Background traffic: the dynamic environment the monitors observe.

The paper stresses that "network bandwidth is an unstable and dynamic
factor".  :class:`CrossTrafficProcess` models that: a Markov-modulated
process varies a link's background utilisation between discrete levels
at exponential holding times.  This stands for campus/Internet traffic
that is not simulated flow-by-flow.
"""

from repro.sim import Interrupt

__all__ = ["CrossTrafficProcess"]


class CrossTrafficProcess:
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
        if not levels:
            raise ValueError("need at least one utilisation level")
        for level in levels:
            if not 0.0 <= level < 1.0:
                raise ValueError(f"utilisation level out of range: {level}")
        if mean_holding_time <= 0:
            raise ValueError("mean_holding_time must be positive")
        self.sim = sim
        self.network = network
        self.link = link
        self.levels = list(levels)
        self.mean_holding_time = float(mean_holding_time)
        self.jitter = float(jitter)
        self.stream = stream or sim.streams.get(
            f"crosstraffic/{link.src}->{link.dst}"
        )
        #: Level changes made so far (the first one at start-up).
        self.jumps = 0
        self.process = sim.process(self._run())

    def _run(self):
        try:
            while True:
                level = self.stream.choice(self.levels)
                if self.jitter > 0.0:
                    level += self.stream.uniform(-self.jitter, self.jitter)
                level = min(0.95, max(0.0, level))
                self.link.background_utilisation = level
                self.jumps += 1
                self.network.rebalance()
                yield self.sim.timeout(
                    self.stream.expovariate(1.0 / self.mean_holding_time)
                )
        except Interrupt:
            return

    def stop(self):
        """Stop modulating (leaves the last level in place)."""
        if self.process.is_alive:
            self.process.interrupt(cause="stopped")

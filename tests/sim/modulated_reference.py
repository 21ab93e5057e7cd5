"""Reference driver for the Markov-modulated differential battery.

:class:`repro.sim.modulated.MarkovModulated` drives cross traffic and
CPU/disk load with one bootstrap event and one re-armed ``Timeout``.
:class:`ProcessModulated` keeps the generator process it replaced: the
loop ``CrossTrafficProcess`` and the load generators each ran, with a
new ``Timeout`` yielded per jump and every draw made through the
:class:`RandomStream` wrappers.  ``apply(level)`` stands for what each
class did with a clamped level (set it, then rebalance or notify).
``tests/sim/test_modulated_differential.py`` requires the two to make
the same jumps at the same times with the same event counts.

It lives under ``tests/`` because nothing in the library may call it.
"""

from repro.sim import Interrupt

__all__ = ["ProcessModulated"]


class ProcessModulated:
    """Jump among levels from a generator process, one Timeout a jump."""

    def __init__(self, sim, levels, mean_holding_time, stream, apply,
                 jitter=0.0, ceiling=0.95):
        self.sim = sim
        self.levels = list(levels)
        self.mean_holding_time = float(mean_holding_time)
        self.jitter = float(jitter)
        self.ceiling = ceiling
        self.stream = stream
        self.apply = apply
        #: (time, level) jump log.
        self.history = []
        self.process = sim.process(self._run())

    def _run(self):
        try:
            while True:
                level = self.stream.choice(self.levels)
                if self.jitter > 0.0:
                    level += self.stream.uniform(-self.jitter, self.jitter)
                level = min(self.ceiling, max(0.0, level))
                self.apply(level)
                self.history.append((self.sim.now, level))
                yield self.sim.timeout(
                    self.stream.expovariate(1.0 / self.mean_holding_time)
                )
        except Interrupt:
            return

    def stop(self):
        if self.process.is_alive:
            self.process.interrupt(cause="stopped")

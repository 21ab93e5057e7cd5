"""Deterministic named random streams.

Every stochastic model in the reproduction (background CPU load, packet
loss, sensor noise, workload generation, ...) draws from a named stream
obtained from the simulator's :class:`StreamRegistry`.  Streams are
independent PRNGs seeded from ``(root_seed, name)``, so

* the whole experiment is reproducible from one root seed, and
* adding a new consumer of randomness never perturbs existing ones.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Any, MutableSequence, Sequence

__all__ = ["RandomStream", "StreamRegistry"]


def _derive_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStream:
    """A named, independently seeded source of randomness.

    Thin wrapper around :class:`random.Random` plus the weighted choice
    the grid models need.
    """

    def __init__(self, root_seed: int, name: str) -> None:
        self.name = name
        self._rng = random.Random(_derive_seed(root_seed, name))

    def __repr__(self) -> str:
        return f"<RandomStream {self.name!r}>"

    @property
    def rng(self) -> random.Random:
        """The underlying generator, for a hot caller that binds one of
        its methods once (a sensor's noise draw is its ``gauss``)."""
        return self._rng

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def random(self) -> float:
        return self._rng.random()

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival sample with the given rate (1/mean)."""
        return self._rng.expovariate(rate)

    def normal(self, mean: float, std: float) -> float:
        return self._rng.gauss(mean, std)

    def choice(self, sequence: Sequence[Any]) -> Any:
        return self._rng.choice(sequence)

    def shuffle(self, sequence: MutableSequence[Any]) -> None:
        self._rng.shuffle(sequence)

    def randint(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def sample(self, population: Sequence[Any], k: int) -> list[Any]:
        return self._rng.sample(population, k)

    def weighted_choice(self, items: Sequence[Any],
                        weights: Sequence[float]) -> Any:
        """Pick one of ``items`` with probability proportional to weights."""
        if len(items) != len(weights):
            raise ValueError("items and weights must have equal length")
        total = math.fsum(weights)
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        pick = self._rng.random() * total
        acc = 0.0
        for item, weight in zip(items, weights):
            acc += weight
            if pick < acc:
                return item
        return items[-1]


class StreamRegistry:
    """Registry handing out :class:`RandomStream` objects by name.

    Asking twice for the same name returns the same stream object, so
    components can share a stream by convention or isolate themselves by
    picking unique names.
    """

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = root_seed
        self._streams: dict[str, RandomStream] = {}

    def __repr__(self) -> str:
        return (
            f"<StreamRegistry seed={self.root_seed} "
            f"streams={sorted(self._streams)}>"
        )

    def get(self, name: str) -> RandomStream:
        """Return the stream registered under ``name``, creating it if new."""
        if name not in self._streams:
            self._streams[name] = RandomStream(self.root_seed, name)
        return self._streams[name]

    def names(self) -> list[str]:
        """Names of all streams created so far."""
        return sorted(self._streams)

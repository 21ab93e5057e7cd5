"""File popularity: which logical file a request wants.

Scientific data access is famously skewed — everyone reads this month's
dataset — so requests pick files by :class:`ZipfPopularity`.
"""

__all__ = ["ZipfPopularity"]


class ZipfPopularity:
    """Zipf-distributed choice over an ordered list of items.

    Item at rank r (1-based) has weight 1/r**exponent.
    """

    def __init__(self, items, exponent=1.0):
        if not items:
            raise ValueError("need at least one item")
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        self.items = list(items)
        self.weights = [
            1.0 / (rank ** exponent)
            for rank in range(1, len(self.items) + 1)
        ]

    def sample(self, stream):
        return stream.weighted_choice(self.items, self.weights)

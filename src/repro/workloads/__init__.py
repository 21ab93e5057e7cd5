"""Workload generation: open-loop arrivals and file popularity.

The paper's intro motivates Data Grids with data-intensive science —
high-energy physics, bioinformatics, virtual observatories — all of
which hammer replicated file sets with skewed popularity.  This package
generates those access patterns for the experiments and the benchmark.
"""

from repro.workloads.arrivals import (
    ArrivalRequest,
    ConstantRate,
    DiurnalProfile,
    FlashCrowdProfile,
    OpenLoopArrivals,
    offered_per_day,
)
from repro.workloads.traces import ZipfPopularity

__all__ = [
    "ArrivalRequest",
    "ConstantRate",
    "DiurnalProfile",
    "FlashCrowdProfile",
    "OpenLoopArrivals",
    "ZipfPopularity",
    "offered_per_day",
]

"""Seeded multi-region grid topologies (spec, generator, presets).

See :mod:`repro.testbed.topology.spec` for the declarative layer,
:mod:`repro.testbed.topology.generator` for the seeded generator, and
:mod:`repro.testbed.topology.presets` for the named scenarios
(``paper3``, ``fat_tree_campus``, ``transcontinental_federation``,
``degraded_backbone``, ``scaled(n)``, ``flat(sites, name)``).
``docs/topology.md`` has the catalog and the how-to-add-a-preset guide.
"""

from repro.testbed.topology.generator import GeneratorConfig, generate_topology
from repro.testbed.topology.presets import (
    FLAT_ROUTER,
    PRESET_NAMES,
    flat,
    paper3,
    preset,
    scaled,
)
from repro.testbed.topology.spec import (
    TIER_RANK,
    TIERS,
    RegionSpec,
    TopologySpec,
    TopologyValidationError,
    WanLinkSpec,
)

__all__ = [
    "TIERS",
    "TIER_RANK",
    "FLAT_ROUTER",
    "GeneratorConfig",
    "PRESET_NAMES",
    "RegionSpec",
    "TopologySpec",
    "TopologyValidationError",
    "WanLinkSpec",
    "flat",
    "generate_topology",
    "paper3",
    "preset",
    "scaled",
]

"""Named scenario presets.

Four fixed scenarios, the parametric ``scaled(n_sites)`` family, and
``flat(sites, name)`` for hand-picked site lists:

``flat(sites, name, roles=None)``
    The paper's layout for any site list: every site switch on the one
    backbone router :data:`FLAT_ROUTER`, the all-pairs NWS mesh and a
    single GIIS (``monitoring="full"`` at any size).

``paper3``
    The paper's own testbed — THU / Li-Zen / HIT behind the single
    TANet router — as ``flat(PAPER_SITES, "paper3")``.  Its sites ARE
    ``PAPER_SITES`` (same objects) and its roles are pinned to the
    canonical experiment trio.  It is the default of
    :func:`~repro.testbed.builder.build_testbed`.

``fat_tree_campus``
    A 28-site campus federation in a fat-tree shape: two core regions,
    four metros dual-homed into both cores, eight edge regions
    dual-homed into the metro tier.  Dense redundancy, short distances.

``transcontinental_federation``
    36 sites across three continents-worth of core regions with a 5x
    latency scale on every backbone link — the scenario whose warm-up
    the fixed 120 s default used to under-serve.

``degraded_backbone``
    The transcontinental federation after a backbone incident: every
    inter-region link at quarter capacity, 1.5x latency, and elevated
    loss.  Site uplinks are untouched, so tier invariants still hold.

``scaled(n_sites, seed=0)``
    The parametric family behind the ``fig_scale`` exhibit: 10 to
    1000+ sites, defaults from :class:`GeneratorConfig`.  Also
    reachable by name as ``preset("scaled-250")``.
"""

from repro.testbed.sites import PAPER_SITES
from repro.testbed.topology.generator import GeneratorConfig, generate_topology
from repro.testbed.topology.spec import RegionSpec, TopologySpec, WanLinkSpec

__all__ = ["FLAT_ROUTER", "PRESET_NAMES", "flat", "paper3", "preset",
           "scaled"]

#: The backbone router of every flat grid (TANet, in the paper).
FLAT_ROUTER = "tanet"


def flat(sites, name, roles=None):
    """``sites`` on one backbone router: the paper's flat layout.

    One ``core`` region behind :data:`FLAT_ROUTER`, no WAN links, and
    ``"full"`` monitoring however many sites there are.  ``roles``
    pins ``(client_host, replica_hosts)``; by default the client is the
    first host of the first site.  A one-site grid has no other site to
    draw replicas from, so it needs pinned roles, e.g.
    ``roles=(host, ())``.
    """
    return TopologySpec(
        name=name,
        regions=(
            RegionSpec(
                FLAT_ROUTER, "core", sites, router_name=FLAT_ROUTER
            ),
        ),
        monitoring="full",
        roles=roles,
    ).validate()


def paper3():
    """THU / Li-Zen / HIT on the TANet backbone (Fig. 2)."""
    return flat(
        PAPER_SITES, "paper3", roles=("alpha1", ("alpha4", "hit0", "lz02"))
    )


def fat_tree_campus():
    """28 sites, 2 cores / 4 metros / 8 edges, dual-homed throughout."""
    return generate_topology(GeneratorConfig(
        n_sites=28,
        seed=7,
        name="fat_tree_campus",
        hosts_per_site=(2, 4),
        region_plan=(("core", 2), ("metro", 4), ("edge", 8)),
        metro_uplinks=2,
        edge_uplinks=2,
    ))


def transcontinental_federation():
    """36 sites, 3 cores / 6 metros / 9 edges, 5x backbone latency."""
    return generate_topology(GeneratorConfig(
        n_sites=36,
        seed=11,
        name="transcontinental_federation",
        hosts_per_site=(1, 3),
        region_plan=(("core", 3), ("metro", 6), ("edge", 9)),
        latency_scale=5.0,
    ))


def degraded_backbone():
    """The transcontinental federation after a backbone incident."""
    base = transcontinental_federation()
    degraded = [
        WanLinkSpec(
            src=link.src,
            dst=link.dst,
            capacity=link.capacity * 0.25,
            latency=min(0.9, link.latency * 1.5),
            loss_rate=min(0.02, link.loss_rate * 20.0 + 2e-3),
            reverse_capacity=link.reverse_capacity * 0.25,
            reverse_loss_rate=min(
                0.02, link.reverse_loss_rate * 20.0 + 2e-3
            ),
        )
        for link in base.links
    ]
    return TopologySpec(
        name="degraded_backbone",
        regions=base.regions,
        links=degraded,
        seed=base.seed,
        monitoring=base.monitoring,
        description=(
            "transcontinental_federation with every backbone link at "
            "quarter capacity, 1.5x latency, elevated loss"
        ),
    ).validate()


def scaled(n_sites, seed=0, **overrides):
    """The parametric family: ``n_sites`` sites, generator defaults.

    Keyword overrides pass straight into :class:`GeneratorConfig`
    (e.g. ``hosts_per_site=1`` for the fig_scale sweep).
    """
    return generate_topology(GeneratorConfig(
        n_sites=n_sites,
        seed=seed,
        name=f"scaled-{n_sites}",
        **overrides,
    ))


_REGISTRY = {
    "paper3": paper3,
    "fat_tree_campus": fat_tree_campus,
    "transcontinental_federation": transcontinental_federation,
    "degraded_backbone": degraded_backbone,
}

#: Names preset() accepts (plus the parametric "scaled-<n>" family).
PRESET_NAMES = tuple(sorted(_REGISTRY)) + ("scaled-<n>",)


def preset(name, seed=0):
    """Look up a preset by name; ``scaled-<n>`` is parsed parametrically.

    ``seed`` only affects the scaled family — the named presets pin
    their own seeds so their digests are stable identities.
    """
    if name in _REGISTRY:
        return _REGISTRY[name]()
    if name.startswith("scaled-"):
        suffix = name[len("scaled-"):]
        if suffix.isdigit():
            return scaled(int(suffix), seed=seed)
    known = ", ".join(PRESET_NAMES)
    raise KeyError(f"unknown topology preset {name!r}; known: {known}")

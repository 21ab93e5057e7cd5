"""The replica catalog service.

Maps logical file names to the physical locations holding copies.  The
catalog runs on a host; remote queries are generators charging a round
trip (an LDAP search against the Globus replica catalog, in 2005 terms).
"""

import logging

from repro.integrity.manifest import ChecksumManifest, DEFAULT_BLOCK_BYTES
from repro.replica.logical_file import LogicalFile

__all__ = ["LogicalFileNotFoundError", "ReplicaCatalog", "ReplicaEntry"]

logger = logging.getLogger("repro.replica.catalog")


class LogicalFileNotFoundError(KeyError):
    """No such logical file in the catalog."""


class ReplicaEntry:
    """One physical replica location."""

    __slots__ = ("logical_name", "host_name", "physical_name",
                 "registered_at")

    def __init__(self, logical_name, host_name, physical_name,
                 registered_at):
        self.logical_name = logical_name
        self.host_name = host_name
        self.physical_name = physical_name
        self.registered_at = float(registered_at)

    def __repr__(self):
        return (
            f"<ReplicaEntry {self.logical_name!r} @ "
            f"{self.host_name}:{self.physical_name}>"
        )


class ReplicaCatalog:
    """The catalog service, attached to one grid host."""

    service_name = "replica-catalog"

    def __init__(self, grid, host_name):
        self.grid = grid
        self.host_name = host_name
        self._logical = {}
        self._replicas = {}
        self.queries_served = 0
        self._query_counter = grid.obs.metrics.counter("catalog.lookups")
        grid.register_service(host_name, self.service_name, self)

    def __repr__(self):
        return (
            f"<ReplicaCatalog on {self.host_name}, "
            f"{len(self._logical)} logical files>"
        )

    # -- registration (management-plane; instantaneous bookkeeping) -----------

    def create_logical_file(self, name, size_bytes, attributes=None,
                            block_bytes=DEFAULT_BLOCK_BYTES):
        """Register a new logical file name.

        Publish time is when the per-block checksum manifest is
        computed and attached — every later verification (data channel,
        repair audit) checks against this one authoritative manifest.
        """
        if name in self._logical:
            raise ValueError(f"logical file {name!r} already exists")
        lfn = LogicalFile(name, size_bytes, attributes)
        lfn.manifest = ChecksumManifest(
            name, size_bytes, block_bytes=block_bytes,
            version=lfn.version,
        )
        self._logical[name] = lfn
        self._replicas[name] = []
        return lfn

    def manifest_for(self, name):
        """The published checksum manifest of a logical file."""
        return self.logical_file(name).manifest

    def logical_file(self, name):
        if name not in self._logical:
            raise LogicalFileNotFoundError(name)
        return self._logical[name]

    def logical_names(self):
        return sorted(self._logical)

    def register_replica(self, logical_name, host_name,
                         physical_name=None):
        """Record that ``host_name`` holds a copy."""
        if logical_name not in self._logical:
            raise LogicalFileNotFoundError(logical_name)
        if not self.grid.topology.has_node(host_name):
            raise KeyError(f"unknown host {host_name!r}")
        physical_name = physical_name or logical_name
        for entry in self._replicas[logical_name]:
            if entry.host_name == host_name:
                raise ValueError(
                    f"{logical_name!r} already registered at {host_name}"
                )
        entry = ReplicaEntry(
            logical_name, host_name, physical_name, self.grid.sim.now
        )
        self._replicas[logical_name].append(entry)
        return entry

    def locations(self, logical_name):
        """Physical locations of a logical file (instant, local view)."""
        if logical_name not in self._logical:
            raise LogicalFileNotFoundError(logical_name)
        return list(self._replicas[logical_name])

    def find(self, **criteria):
        """Logical files whose attributes match all criteria."""
        return [
            lfn for lfn in self._logical.values() if lfn.matches(**criteria)
        ]

    # -- remote query (charges network time) ------------------------------------

    def query_locations(self, client_name, logical_name):
        """Remote lookup; a generator returning the entry list."""
        if client_name != self.host_name:
            rtt = self.grid.path(client_name, self.host_name).rtt
            yield self.grid.sim.timeout(rtt)
        self.queries_served += 1
        self._query_counter.inc()
        entries = self.locations(logical_name)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "%s asked for %r: %d location(s)", client_name,
                logical_name, len(entries),
            )
        return entries

"""Quarantine-driven replica repair.

A background process that heals the damage the health registry has
recorded: for every quarantined replica it finds a *verified* source
copy (full manifest audit, host up, not itself quarantined), rewrites
the quarantined physical file with a server-to-server GridFTP transfer,
audits the result, and — only on a clean audit — re-admits the replica
into selection.  A replica with no verifiable source stays quarantined
and is retried next cycle; the catalog never loses a location, so a
window where every copy is bad heals itself as soon as one source is
repaired or restored.
"""

import logging

from repro.gridftp.errors import TransferError
from repro.sim import Interrupt

__all__ = ["ReplicaRepairService"]

logger = logging.getLogger("repro.integrity.repair")


class ReplicaRepairService:
    """Periodic repair sweep over the health registry's quarantine list.

    Parameters
    ----------
    grid:
        The data grid.
    catalog:
        The :class:`~repro.replica.catalog.ReplicaCatalog` (for
        manifests and locations).
    client:
        The :class:`~repro.gridftp.gridftp.GridFtpClient` that steers
        the third-party repair transfers.
    health:
        The :class:`~repro.integrity.health.ReplicaHealthRegistry`.
    period:
        Seconds between repair sweeps.
    parallelism:
        Parallel streams for repair transfers (None = stream mode).
    """

    def __init__(self, grid, catalog, client, health, period=60.0,
                 parallelism=None):
        if period <= 0:
            raise ValueError("period must be positive")
        self.grid = grid
        self.catalog = catalog
        self.client = client
        self.health = health
        self.period = float(period)
        self.parallelism = parallelism
        #: (logical_name, host_name, source_host) per completed repair.
        self.repairs = []
        self.failed_attempts = 0
        self.process = None
        self._pending_timer = None

    def __repr__(self):
        return (
            f"<ReplicaRepairService every {self.period:g}s, "
            f"{len(self.repairs)} repairs>"
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Launch the periodic sweep as a simulation process."""
        if self.process is not None and self.process.is_alive:
            raise RuntimeError("repair service already running")
        self.process = self.grid.sim.process(self._driver())
        return self

    def stop(self):
        """Halt the sweep and cancel its pending wake-up timer."""
        if self.process is not None and self.process.is_alive:
            self.process.interrupt(cause="repair-stop")
        timer = self._pending_timer
        if timer is not None and not timer.processed \
                and not timer.cancelled:
            timer.cancel()
        self._pending_timer = None

    def _driver(self):
        while True:
            timer = self.grid.sim.timeout(self.period)
            timer.guard_tag = "integrity-repair-period"
            self._pending_timer = timer
            try:
                yield timer
            except Interrupt:
                if not timer.processed and not timer.cancelled:
                    timer.cancel()
                return
            finally:
                self._pending_timer = None
            yield from self.run_once()

    # -- one sweep ---------------------------------------------------------

    def run_once(self):
        """Attempt to repair every currently quarantined replica.

        A generator returning the list of repairs completed this sweep.
        """
        completed = []
        for record in self.health.quarantined_replicas():
            repaired = yield from self._repair_one(record)
            if repaired:
                completed.append(record)
        return completed

    def _verified_source(self, logical_name, manifest, exclude):
        """A replica host holding a full, clean, current copy."""
        for entry in self.catalog.locations(logical_name):
            host_name = entry.host_name
            if host_name == exclude:
                continue
            if self.health.is_quarantined(logical_name, host_name):
                continue
            host = self.grid.hosts.get(host_name)
            if host is None or not host.is_up:
                continue
            if entry.physical_name not in host.filesystem:
                continue
            stored = host.filesystem.stored(entry.physical_name)
            if manifest.audit(stored):
                return entry
        return None

    def _repair_one(self, record):
        logical_name, bad_host = record.logical_name, record.host_name
        try:
            lfn = self.catalog.logical_file(logical_name)
        except KeyError:
            return False
        manifest = getattr(lfn, "manifest", None)
        if manifest is None:
            return False
        entry = next(
            (e for e in self.catalog.locations(logical_name)
             if e.host_name == bad_host), None,
        )
        if entry is None:
            # No catalog entry at this host; nothing to heal.
            self.health.readmit(logical_name, bad_host)
            return False
        target = self.grid.hosts.get(bad_host)
        if target is None or not target.is_up:
            return False
        source = self._verified_source(logical_name, manifest, bad_host)
        if source is None:
            logger.warning(
                "no verified source to repair %r at %s this sweep",
                logical_name, bad_host,
            )
            return False

        obs = self.grid.obs
        span = obs.tracer.start_span(
            "integrity.repair", logical_name=logical_name,
            host=bad_host, source=source.host_name,
        )
        # No pre-delete: the third-party transfer replaces the bad
        # copy atomically on completion, so the replica stays fetchable
        # (and quarantined) while the repair is in flight.
        fs = target.filesystem
        try:
            yield from self.client.third_party(
                source.host_name, bad_host, source.physical_name,
                dst_name=entry.physical_name,
                parallelism=self.parallelism,
            )
        except TransferError as error:
            self.failed_attempts += 1
            span.set(error=type(error).__name__)
            span.finish()
            logger.warning(
                "repair transfer of %r to %s failed: %s", logical_name,
                bad_host, error,
            )
            return False
        stored = fs.stored(entry.physical_name)
        if not manifest.audit(stored):
            self.failed_attempts += 1
            span.set(error="audit-failed")
            span.finish()
            logger.error(
                "repaired copy of %r at %s failed its audit",
                logical_name, bad_host,
            )
            return False
        self.health.readmit(logical_name, bad_host)
        self.repairs.append((logical_name, bad_host, source.host_name))
        span.set(audited=True)
        span.finish()
        if obs.enabled:
            obs.metrics.counter("integrity.repairs").inc()
            obs.events.emit(
                "integrity.repair", logical_name=logical_name,
                host=bad_host, source=source.host_name,
            )
        logger.info(
            "repaired %r at %s from %s", logical_name, bad_host,
            source.host_name,
        )
        return True

"""The replica health registry: verification failures -> quarantine.

Vazhkudai, Tuecke and Foster note that replica selection must react to
storage-system *state*, not just bandwidth; this registry is that
state.  Every manifest verification failure against a replica is
recorded here, and a replica that keeps failing is *quarantined*: the
selection server skips it, the repair service
re-replicates it from a verified source, and only a clean audit
re-admits it.

The registry also tracks host outages (fed by the chaos engine's
``host_crash`` action), so :meth:`retry_after` can tell a client with
no live replica how long until the shortest quarantine or outage window
ends — a machine-readable hint that beats blind exponential backoff.
"""

import logging

__all__ = ["QuarantineRecord", "ReplicaHealthRegistry"]

logger = logging.getLogger("repro.integrity.health")


class QuarantineRecord:
    """One quarantined replica: why, since when, and until when."""

    __slots__ = ("logical_name", "host_name", "reason", "since", "until")

    def __init__(self, logical_name, host_name, reason, since, until):
        self.logical_name = logical_name
        self.host_name = host_name
        self.reason = reason
        self.since = float(since)
        self.until = float(until)

    def __repr__(self):
        return (
            f"<QuarantineRecord {self.logical_name!r} @ "
            f"{self.host_name} ({self.reason}) until {self.until:g}>"
        )

    def remaining(self, now):
        return max(0.0, self.until - now)


class ReplicaHealthRegistry:
    """Tracks per-replica verification failures, quarantines repeat
    offenders, and answers retry-window queries.

    Parameters
    ----------
    grid:
        The :class:`~repro.grid.DataGrid` (for the clock and obs).
    failure_threshold:
        Verification failures after which a replica is quarantined.
    quarantine_seconds:
        Nominal quarantine window; the repair service usually re-admits
        a replica well before it lapses, but if repair never succeeds
        the quarantine expires and selection may probe the replica
        again (it re-quarantines instantly if still corrupt).
    """

    def __init__(self, grid, failure_threshold=2,
                 quarantine_seconds=600.0):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if quarantine_seconds <= 0:
            raise ValueError("quarantine_seconds must be positive")
        self.grid = grid
        self.failure_threshold = int(failure_threshold)
        self.quarantine_seconds = float(quarantine_seconds)
        #: (logical_name, host_name) -> consecutive failure count.
        self._failures = {}
        #: (logical_name, host_name) -> QuarantineRecord.
        self._quarantined = {}
        #: host_name -> expected outage end (None = unknown).
        self._outages = {}
        self.failures_recorded = 0
        self.quarantines_total = 0
        self.readmissions_total = 0

    def __repr__(self):
        return (
            f"<ReplicaHealthRegistry {len(self._quarantined)} "
            f"quarantined, {self.failures_recorded} failures>"
        )

    @property
    def _now(self):
        return self.grid.sim.now

    # -- verification failures --------------------------------------------

    def record_failure(self, logical_name, host_name, reason="corrupt"):
        """Note one verification failure; quarantine past the threshold.

        Returns True when this failure tipped the replica into
        quarantine.
        """
        key = (logical_name, host_name)
        self._failures[key] = self._failures.get(key, 0) + 1
        self.failures_recorded += 1
        obs = self.grid.obs
        if obs.enabled:
            obs.metrics.counter(
                "integrity.verification_failures", reason=reason
            ).inc()
            obs.events.emit(
                "integrity.verification_failure",
                logical_name=logical_name, host=host_name,
                reason=reason, failures=self._failures[key],
            )
        logger.warning(
            "verification failure for %r at %s (%s; %d of %d tolerated)",
            logical_name, host_name, reason, self._failures[key],
            self.failure_threshold,
        )
        if (self._failures[key] >= self.failure_threshold
                and key not in self._quarantined):
            self.quarantine(logical_name, host_name, reason)
            return True
        return False

    def record_success(self, logical_name, host_name):
        """A clean verification resets the consecutive-failure count."""
        self._failures.pop((logical_name, host_name), None)

    def failure_count(self, logical_name, host_name):
        return self._failures.get((logical_name, host_name), 0)

    # -- quarantine lifecycle ---------------------------------------------

    def quarantine(self, logical_name, host_name, reason="corrupt"):
        """Place a replica under quarantine (idempotent refresh)."""
        record = QuarantineRecord(
            logical_name, host_name, reason, since=self._now,
            until=self._now + self.quarantine_seconds,
        )
        fresh = (logical_name, host_name) not in self._quarantined
        self._quarantined[(logical_name, host_name)] = record
        if fresh:
            self.quarantines_total += 1
        obs = self.grid.obs
        if obs.enabled:
            obs.metrics.counter("integrity.quarantines").inc()
            obs.events.emit(
                "integrity.quarantine", logical_name=logical_name,
                host=host_name, reason=reason, until=record.until,
            )
        logger.warning(
            "quarantined replica of %r at %s (%s) until t=%g",
            logical_name, host_name, reason, record.until,
        )
        return record

    def readmit(self, logical_name, host_name):
        """Lift a quarantine after a clean repair audit."""
        record = self._quarantined.pop((logical_name, host_name), None)
        if record is None:
            return None
        self._failures.pop((logical_name, host_name), None)
        self.readmissions_total += 1
        obs = self.grid.obs
        if obs.enabled:
            obs.metrics.counter("integrity.readmissions").inc()
            obs.events.emit(
                "integrity.readmit", logical_name=logical_name,
                host=host_name,
            )
        logger.info(
            "re-admitted replica of %r at %s", logical_name, host_name
        )
        return record

    def is_quarantined(self, logical_name, host_name):
        record = self._quarantined.get((logical_name, host_name))
        if record is None:
            return False
        if record.until <= self._now:
            # Lapsed without repair: selection may probe it again.
            del self._quarantined[(logical_name, host_name)]
            self._failures.pop((logical_name, host_name), None)
            return False
        return True

    def quarantined_replicas(self):
        """Active quarantine records, sorted for deterministic sweeps."""
        return [
            self._quarantined[key]
            for key in sorted(self._quarantined)
            if self.is_quarantined(*key)
        ]

    # -- host outages (fed by chaos host_crash) ----------------------------

    def note_host_down(self, host_name, expected_duration=None):
        """A host went dark; remember when it should return, if known."""
        self._outages[host_name] = (
            None if expected_duration is None
            else self._now + float(expected_duration)
        )

    def note_host_up(self, host_name):
        self._outages.pop(host_name, None)

    # -- retry hints -------------------------------------------------------

    def retry_after(self, logical_name, host_names):
        """Seconds until the shortest quarantine/outage window among the
        candidates ends, or None when no window is known.

        ``logical_name`` may be None (host-outage windows only).
        """
        now = self._now
        windows = []
        for host_name in host_names:
            if logical_name is not None:
                record = self._quarantined.get((logical_name, host_name))
                if record is not None and record.until > now:
                    windows.append(record.until - now)
            until = self._outages.get(host_name)
            if until is not None and until > now:
                windows.append(until - now)
        return min(windows) if windows else None

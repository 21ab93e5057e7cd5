"""Reliable file transfer with restart markers and block verification.

GridFTP emits *restart markers* as a transfer progresses; the Globus
Reliable File Transfer service uses them to resume interrupted
transfers from the last marker instead of from byte zero.  Modelled
here at marker granularity: the file moves as a sequence of
partial-transfer chunks (one chunk per marker interval), and on a fault
only the in-flight chunk's progress is lost.

The completion loop is driven by a
:class:`~repro.integrity.ranges.VerifiedRanges` merge of restart
markers and manifest verification results: every resume starts at the
first byte not yet *verified*, so a corrupted chunk costs at most the
one block that failed its checksum — the blocks of the chunk that
hashed clean are kept.  :meth:`ReliableFileTransfer.get_logical` adds
cross-replica failover: the source is (re-)chosen through the replica
selection server, a replica that serves corrupt blocks is reported to
the health registry (quarantined past the failure threshold), and when
*no* replica is live the selection server's
:class:`~repro.core.server.NoLiveReplicaError` ``retry_after`` hint
replaces generic exponential backoff.

Restart markers are version-tagged: markers recorded against one
replica's content version are never merged into the progress of a
failover replica holding a different version (see
:meth:`~repro.integrity.ranges.VerifiedRanges.adopt`).

Chaos hardening (see ``docs/chaos.md``):

* retries follow an exponential :class:`~repro.gridftp.backoff.BackoffPolicy`
  with seeded jitter, so retriers hammered by the same outage
  de-synchronise instead of faulting in lockstep;
* each chunk attempt runs under an optional *per-attempt timeout* — a
  stalled attempt (link down mid-flow, server crashed under us) is
  abandoned and retried instead of hanging forever;
* a refused connection (crashed server host) counts as a fault and is
  retried on the same schedule, so a rebooting server is ridden out.
"""

import logging

from repro.gridftp.backoff import BackoffPolicy
from repro.gridftp.errors import (
    CorruptBlockError,
    HostUnavailableError,
    TransferError,
)
from repro.gridftp.faults import InterruptGuard
from repro.integrity.ranges import VerifiedRanges, plan_next_fetch
from repro.sim import Interrupt
from repro.units import MiB

__all__ = ["AttemptTimeout", "ReliableFileTransfer",
           "ReliableTransferResult", "RetryBudgetExhaustedError",
           "TooManyAttemptsError"]

logger = logging.getLogger("repro.gridftp.reliable")


class TooManyAttemptsError(TransferError):
    """The transfer kept faulting past the attempt budget."""


class RetryBudgetExhaustedError(TooManyAttemptsError):
    """The backoff policy's retry budget ran out before the attempt cap.

    Distinct from plain :class:`TooManyAttemptsError` so callers can
    tell "the replicas kept faulting" from "we were not allowed to keep
    waiting" — but a subclass of it, so every existing handler still
    catches the exhaustion.  ``reason`` is the budget that ran out
    (``"max-attempts"`` / ``"max-total-wait"``), ``attempts`` the fault
    count and ``waited`` the cumulative backoff sleep so far.
    """

    def __init__(self, message, reason, attempts, waited):
        super().__init__(message)
        self.reason = reason
        self.attempts = int(attempts)
        self.waited = float(waited)


class AttemptTimeout(Exception):
    """Cause attached when a chunk attempt exceeds its time budget."""

    def __init__(self, seconds):
        super().__init__(f"attempt exceeded {seconds:g}s budget")
        self.seconds = seconds


class ReliableTransferResult:
    """Outcome of a reliable (restartable) transfer."""

    def __init__(self, filename, payload_bytes, attempts, faults,
                 bytes_retransmitted, started_at, finished_at, records,
                 timeouts=0, refused=0, corrupt_faults=0, failovers=0,
                 sources=None, verified_bytes=0.0,
                 delivered_corrupt_blocks=0, no_replica_waits=0):
        self.filename = filename
        self.payload_bytes = float(payload_bytes)
        self.attempts = int(attempts)
        self.faults = int(faults)
        self.bytes_retransmitted = float(bytes_retransmitted)
        self.started_at = float(started_at)
        self.finished_at = float(finished_at)
        #: TransferRecords of the successful chunk fetches.
        self.records = list(records)
        #: Faults that were stalled attempts cut off by the timeout.
        self.timeouts = int(timeouts)
        #: Faults that were refused connections (server host down).
        self.refused = int(refused)
        #: Faults that were chunks failing manifest verification.
        self.corrupt_faults = int(corrupt_faults)
        #: Times the transfer switched to a different replica host.
        self.failovers = int(failovers)
        #: Replica hosts bound over the transfer's lifetime, in order.
        self.sources = list(sources or [])
        #: Bytes of the payload covered by verified ranges at the end
        #: (equals payload_bytes for a verified complete transfer).
        self.verified_bytes = float(verified_bytes)
        #: With verification *off*: manifest blocks delivered that would
        #: not have verified — silently accepted corruption.
        self.delivered_corrupt_blocks = int(delivered_corrupt_blocks)
        #: Waits spent with no live replica (retry_after-hinted).
        self.no_replica_waits = int(no_replica_waits)

    def __repr__(self):
        return (
            f"<ReliableTransferResult {self.filename!r} "
            f"{self.attempts} attempts, {self.faults} faults, "
            f"{self.elapsed:.1f}s>"
        )

    @property
    def elapsed(self):
        return self.finished_at - self.started_at


class _Binding:
    """What a source binding reports back: verification outcomes to the
    health registry, operational faults to the fault listener."""

    health = None
    fault_listener = None

    def record_failure(self, server_name, reason):
        if self.health is not None:
            self.health.record_failure(
                self.filename, server_name, reason=reason
            )

    def record_success(self, server_name):
        if self.health is not None:
            self.health.record_success(self.filename, server_name)

    def note_fault(self, server_name, kind):
        if self.fault_listener is not None:
            self.fault_listener.on_fault(server_name, kind)

    def note_success(self, server_name):
        if self.fault_listener is not None:
            self.fault_listener.on_success(server_name)


class _FixedSource(_Binding):
    """Classic RFT binding: one named server, no failover."""

    can_failover = False

    def __init__(self, rft, server_name, remote_name, manifest, health):
        self.rft = rft
        self.server_name = server_name
        self.filename = remote_name
        self.manifest = manifest
        self.verify = manifest is not None
        self.health = health
        server = rft.grid.service(server_name, rft.client.server_service)
        self.payload = server.size_of(remote_name)

    def span_attrs(self):
        return {"server": self.server_name}

    def bind(self, avoid):
        version = self.manifest.version if self.verify \
            else _stored_version(self.rft.grid, self.server_name,
                                 self.filename)
        return self.server_name, self.filename, version
        yield  # pragma: no cover - makes this a generator


class _SelectedSource(_Binding):
    """Replica binding through the selection server; re-selects on
    every fault, skipping replicas that already misbehaved."""

    can_failover = True

    def __init__(self, rft, logical_name, selection, verify):
        self.rft = rft
        self.filename = logical_name
        self.selection = selection
        self.catalog = selection.catalog
        self.health = getattr(selection, "health", None)
        #: Optional per-host fault sink (``on_fault`` / ``on_success``)
        #: exposed by the selection adapter — the circuit-breaker seam.
        #: Unlike ``health`` (fed only verification outcomes), the
        #: listener hears *every* operational fault: timeouts, refused
        #: connections, corruption.
        self.fault_listener = getattr(selection, "fault_listener", None)
        lfn = self.catalog.logical_file(logical_name)
        self.payload = lfn.size_bytes
        self.manifest = lfn.manifest
        self.verify = bool(verify) and self.manifest is not None

    def span_attrs(self):
        return {"logical_name": self.filename, "verify": self.verify}

    def bind(self, avoid):
        decision = yield from self.selection.select(
            self.rft.client.host_name, self.filename
        )
        ranking = decision.ranking()
        pick = next((name for name in ranking if name not in avoid), None)
        if pick is None:
            # Every live replica misbehaved at least once; forgive and
            # probe the best-ranked one again rather than giving up.
            avoid.clear()
            pick = ranking[0]
        entry = next(
            e for e in self.catalog.locations(self.filename)
            if e.host_name == pick
        )
        version = self.manifest.version if self.verify \
            else _stored_version(self.rft.grid, pick, entry.physical_name)
        return pick, entry.physical_name, version


def _stored_version(grid, host_name, physical_name):
    host = grid.hosts.get(host_name)
    if host is None or physical_name not in host.filesystem:
        return None
    return host.filesystem.stored(physical_name).version


class ReliableFileTransfer:
    """RFT-style driver around a :class:`GridFtpClient`.

    Parameters
    ----------
    client:
        The GridFTP client to drive.
    marker_interval_bytes:
        Restart-marker granularity; progress within a chunk is lost on
        a fault (unless block verification salvages clean blocks).
    max_attempts:
        Failed chunk attempts tolerated before giving up.
    backoff:
        A :class:`~repro.gridftp.backoff.BackoffPolicy`; jitter draws
        come from the grid's seeded ``rft/backoff`` stream.  Default:
        a constant 5 s (``BackoffPolicy.constant(5.0)``).
    attempt_timeout:
        Per-chunk-attempt time budget, seconds; a stalled attempt is
        interrupted and retried.  ``None`` (default) disables the
        watchdog.
    fault_injector:
        Optional :class:`TransferFaultInjector` armed on every chunk
        (for tests/experiments; production faults would come from the
        environment).
    """

    def __init__(self, client, marker_interval_bytes=64 * MiB,
                 max_attempts=10, backoff=None, attempt_timeout=None,
                 fault_injector=None):
        if marker_interval_bytes <= 0:
            raise ValueError("marker_interval_bytes must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if attempt_timeout is not None and attempt_timeout <= 0:
            raise ValueError("attempt_timeout must be positive")
        self.client = client
        self.grid = client.grid
        self.marker_interval_bytes = float(marker_interval_bytes)
        self.max_attempts = int(max_attempts)
        self.backoff = backoff or BackoffPolicy.constant(5.0)
        self.attempt_timeout = (
            None if attempt_timeout is None else float(attempt_timeout)
        )
        self.fault_injector = fault_injector
        self._jitter_stream = self.grid.sim.streams.get("rft/backoff")

    def __repr__(self):
        return (
            f"<ReliableFileTransfer markers every "
            f"{self.marker_interval_bytes / MiB:.0f}MiB>"
        )

    def get(self, server_name, remote_name, local_name=None,
            parallelism=None, manifest=None, health=None):
        """Fetch a file from one named server, surviving faults.

        A generator returning a :class:`ReliableTransferResult`.  With
        ``manifest`` given, every chunk is verified block-by-block and
        a corrupt chunk keeps its clean blocks (verification failures
        are reported to ``health`` when wired).  No failover — the
        source is fixed; see :meth:`get_logical` for replica failover.
        """
        binding = _FixedSource(self, server_name, remote_name, manifest,
                               health)
        result = yield from self._run(binding, local_name or remote_name,
                                      parallelism)
        return result

    def get_logical(self, logical_name, selection, local_name=None,
                    parallelism=None, verify=True):
        """Fetch a logical file via the replica selection server.

        A generator returning a :class:`ReliableTransferResult`.  The
        source replica is chosen by ``selection`` and *re-chosen after
        every fault*: verified progress carries over (resume from the
        last verified byte on the new replica, re-fetching at most the
        one block that failed), corrupt replicas are reported to the
        selection server's health registry, and when no replica is
        live the wait is the error's ``retry_after`` hint instead of
        blind exponential backoff.

        ``verify=False`` disables manifest checking (restart markers
        only, version-tagged so markers never survive a version change
        across failover); silently delivered corruption is counted in
        ``delivered_corrupt_blocks``.
        """
        binding = _SelectedSource(self, logical_name, selection, verify)
        result = yield from self._run(binding, local_name or logical_name,
                                      parallelism)
        return result

    # -- the completion loop ------------------------------------------------

    def _run(self, binding, local_name, parallelism):
        sim = self.grid.sim
        obs = self.grid.obs
        payload = binding.payload
        started_at = sim.now
        span = obs.tracer.start_span(
            "rft.get", filename=binding.filename, payload_bytes=payload,
            **binding.span_attrs(),
        )
        from repro.core.server import NoLiveReplicaError

        block_bytes = (
            binding.manifest.block_bytes if binding.verify else None
        )
        chunk_name = f"{local_name}.chunk"
        ranges = None
        current = None
        avoid = set()
        sources = []
        attempts = faults = timeouts = refused = 0
        corrupt_faults = failovers = delivered_corrupt = 0
        no_replica_waits = 0
        retransmitted = 0.0
        backoff_waited = 0.0
        records = []

        while True:
            if current is None:
                try:
                    current = yield from binding.bind(avoid)
                except NoLiveReplicaError as error:
                    faults += 1
                    no_replica_waits += 1
                    obs.metrics.counter(
                        "rft.faults", kind="no-live-replica"
                    ).inc()
                    obs.events.emit(
                        "transfer.fault", filename=binding.filename,
                        fault_number=faults, fault_kind="no-live-replica",
                        retry_after=error.retry_after,
                    )
                    backoff_waited = yield from self._retry_or_give_up(
                        span, binding.filename, faults, backoff_waited,
                        "(no live replica)", error.retry_after, error,
                    )
                    continue
                server_name, physical_name, version = current
                if ranges is None:
                    ranges = VerifiedRanges(version=version)
                elif ranges.version != version:
                    carried = ranges
                    ranges = VerifiedRanges(version=version)
                    if not ranges.adopt(carried.ranges(), carried.version):
                        # Markers from the abandoned attempt describe a
                        # different content generation: discard them and
                        # move those bytes again.
                        retransmitted += carried.total_verified
                        logger.warning(
                            "discarding %.0fB of restart markers for %r: "
                            "replica version changed (%s -> %s)",
                            carried.total_verified, binding.filename,
                            carried.version, version,
                        )
                if sources and sources[-1] != server_name:
                    failovers += 1
                    obs.metrics.counter("rft.failovers").inc()
                    obs.events.emit(
                        "transfer.failover", filename=binding.filename,
                        source=server_name, abandoned=sources[-1],
                        verified_bytes=ranges.total_verified,
                    )
                if not sources or sources[-1] != server_name:
                    sources.append(server_name)
            else:
                server_name, physical_name, version = current

            plan = plan_next_fetch(
                ranges, payload, self.marker_interval_bytes,
                block_bytes=block_bytes,
            )
            if plan is None:
                if payload == 0 and not records:
                    plan = (0.0, 0.0)
                else:
                    break
            offset, chunk = plan
            attempts += 1
            chunk_span = span.child(
                "rft.chunk", offset=offset, chunk_bytes=chunk,
                attempt=attempts, server=server_name,
            )
            fetch = sim.process(
                self.client.get(
                    server_name, physical_name, chunk_name,
                    parallelism=parallelism, offset=offset, length=chunk,
                    manifest=binding.manifest if binding.verify else None,
                )
            )
            if self.fault_injector is not None:
                self.fault_injector.guard(fetch)
            timeout_guard = None
            if self.attempt_timeout is not None:
                budget = self.attempt_timeout
                timeout_guard = InterruptGuard(
                    sim, fetch, budget,
                    lambda budget=budget: AttemptTimeout(budget),
                    tag="rft-attempt-timeout",
                )
            fault_kind = None
            corrupt_error = None
            try:
                record = yield fetch
            except Interrupt as interrupt:
                fault_kind = (
                    "timeout"
                    if isinstance(interrupt.cause, AttemptTimeout)
                    else "fault"
                )
            except HostUnavailableError:
                fault_kind = "refused"
            except CorruptBlockError as error:
                fault_kind = "corrupt"
                corrupt_error = error
            finally:
                if timeout_guard is not None:
                    timeout_guard.disarm()
            if fault_kind is not None:
                # The chunk died; unverified progress is lost back to
                # the last marker, but blocks that hashed clean before
                # the corruption are kept.
                faults += 1
                timeouts += fault_kind == "timeout"
                refused += fault_kind == "refused"
                binding.note_fault(server_name, fault_kind)
                wasted = chunk
                if corrupt_error is not None:
                    corrupt_faults += 1
                    before = ranges.total_verified
                    for lo, hi in corrupt_error.good_spans:
                        ranges.add(lo, hi)
                    wasted = chunk - (ranges.total_verified - before)
                    binding.record_failure(server_name, reason="corrupt")
                    avoid.add(server_name)
                elif fault_kind == "refused":
                    avoid.add(server_name)
                retransmitted += wasted
                chunk_span.set(error=fault_kind).finish()
                obs.metrics.counter("rft.faults", kind=fault_kind).inc()
                obs.events.emit(
                    "transfer.fault", server=server_name,
                    filename=binding.filename, offset=offset,
                    chunk_bytes=chunk, fault_number=faults,
                    fault_kind=fault_kind,
                )
                if binding.can_failover:
                    current = None  # re-select the source
                backoff_waited = yield from self._retry_or_give_up(
                    span, binding.filename, faults, backoff_waited,
                    f"at offset {offset:.0f}", None, None,
                )
                continue
            chunk_span.finish()
            obs.metrics.counter("rft.chunks").inc()
            records.append(record)
            ranges.add(offset, offset + chunk)
            binding.note_success(server_name)
            if binding.verify:
                binding.record_success(server_name)
            elif binding.manifest is not None and chunk > 0:
                delivered_corrupt += self._count_delivered_corrupt(
                    binding.manifest, server_name, physical_name,
                    offset, chunk,
                )
            fs = self.client.host.filesystem
            if chunk_name in fs:
                fs.delete(chunk_name)
            if payload == 0:
                break

        # Assemble the final local file.
        fs = self.client.host.filesystem
        if local_name in fs:
            fs.delete(local_name)
        fs.create(
            local_name, payload,
            version=ranges.version if ranges.version is not None else 0,
        )
        verified_bytes = ranges.total_verified if binding.verify else 0.0
        span.set(attempts=attempts, faults=faults,
                 bytes_retransmitted=retransmitted,
                 failovers=failovers, verified_bytes=verified_bytes)
        span.finish()
        if retransmitted:
            obs.metrics.counter("rft.bytes_retransmitted").inc(
                retransmitted
            )
        if binding.verify and obs.enabled:
            obs.events.emit(
                "integrity.transfer_verified",
                filename=binding.filename, payload_bytes=payload,
                verified_bytes=verified_bytes, failovers=failovers,
                corrupt_faults=corrupt_faults,
            )
        return ReliableTransferResult(
            filename=binding.filename,
            payload_bytes=payload,
            attempts=attempts,
            faults=faults,
            bytes_retransmitted=retransmitted,
            started_at=started_at,
            finished_at=sim.now,
            records=records,
            timeouts=timeouts,
            refused=refused,
            corrupt_faults=corrupt_faults,
            failovers=failovers,
            sources=sources,
            verified_bytes=verified_bytes,
            delivered_corrupt_blocks=delivered_corrupt,
            no_replica_waits=no_replica_waits,
        )

    def _retry_or_give_up(self, span, filename, faults, waited, where,
                          retry_after, cause):
        """Wait out one fault's backoff, or give the transfer up.

        A generator returning the total backoff waited so far.  At the
        attempt cap it raises :class:`TooManyAttemptsError` (``where``
        ends its message); when the next wait would overrun the backoff
        policy's budget, :class:`RetryBudgetExhaustedError`.  Both close
        ``span`` and carry ``cause``.  A ``retry_after`` hint replaces
        the backoff delay, so no jitter is drawn for it.
        """
        if faults >= self.max_attempts:
            span.set(error="too-many-attempts", faults=faults)
            span.finish()
            raise TooManyAttemptsError(
                f"{filename!r}: gave up after {faults} failed attempts "
                f"{where}"
            ) from cause
        delay = (
            retry_after if retry_after is not None
            else self.backoff.delay(faults, self._jitter_stream)
        )
        exhausted = self.backoff.exhaustion(faults, waited + delay)
        if exhausted is not None:
            span.set(error="retry-budget", faults=faults)
            span.finish()
            raise RetryBudgetExhaustedError(
                f"{filename!r}: retry budget ({exhausted}) exhausted after "
                f"{faults} faults and {waited:.1f}s waited",
                exhausted, faults, waited,
            ) from cause
        self.grid.obs.metrics.counter("rft.retries").inc()
        yield self.grid.sim.timeout(delay)
        return waited + delay

    def _count_delivered_corrupt(self, manifest, server_name,
                                 physical_name, offset, chunk):
        """With verification off: how many bad blocks just slipped by."""
        host = self.grid.hosts.get(server_name)
        if host is None or physical_name not in host.filesystem:
            return 0
        stored = host.filesystem.stored(physical_name)
        _, bad = manifest.verify_range(stored, offset, offset + chunk)
        if bad and self.grid.obs.enabled:
            self.grid.obs.metrics.counter(
                "integrity.corrupt_blocks_delivered"
            ).inc(len(bad))
        return len(bad)

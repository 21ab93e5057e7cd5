"""GridFTP: GSI-secured FTP with parallel data channels.

The client mirrors ``globus-url-copy`` semantics:

* default transfers use stream mode over a single TCP connection (wire-
  compatible with plain FTP servers);
* requesting parallelism (``-p N``) switches the session to extended
  block mode (MODE E) with ``N`` TCP streams — even ``N = 1`` differs
  from "no parallelism" because of MODE E framing, exactly as the paper
  points out;
* partial file transfer retrieves an (offset, length) slice;
* third-party transfer steers data directly between two servers.
"""

from repro.gridftp.control import ControlChannel
from repro.gridftp.datachannel import run_data_transfer
from repro.gridftp.errors import CorruptBlockError, InvalidRangeError
from repro.gridftp.ftp import FtpClient, FtpServer
from repro.gridftp.gsi import GSIConfig, gsi_handshake
from repro.gridftp.modes import ExtendedBlockMode, StreamMode
from repro.gridftp.record import TransferRecord
from repro.gridftp.telemetry import TransferTelemetry

__all__ = ["GridFtpClient", "GridFtpServer"]


class GridFtpServer(FtpServer):
    """A GridFTP daemon (GSI authentication, MODE E capable)."""

    service_name = "gridftp"
    protocol = "gridftp"

    #: GSI replaces USER/PASS; the remaining login is the gridmap USER.
    login_commands = 1
    #: TYPE, MODE, OPTS RETR, PASV/SPAS, RETR/ERET.
    retrieve_commands = 5


class GridFtpClient(FtpClient):
    """A GridFTP client (``globus-url-copy``-style API)."""

    protocol = "gridftp"
    server_service = GridFtpServer.service_name

    def __init__(self, grid, host_name, gsi=None):
        super().__init__(grid, host_name)
        self.gsi = gsi or GSIConfig()

    def get(self, server_name, remote_name, local_name=None,
            parallelism=None, offset=0.0, length=None, manifest=None):
        """Retrieve a file (or a slice of one).

        A generator returning a :class:`TransferRecord`.

        Parameters
        ----------
        parallelism:
            ``None`` — stream mode, single connection (the default, like
            ``globus-url-copy`` without ``-p``).  An integer ``N >= 1``
            — MODE E with ``N`` parallel TCP streams.
        offset, length:
            Partial transfer: fetch ``length`` bytes starting at
            ``offset``.  ``length=None`` means "to end of file".
        manifest:
            A :class:`~repro.integrity.manifest.ChecksumManifest`; when
            given, every received block is checked against it and a
            :class:`~repro.gridftp.errors.CorruptBlockError` is raised
            on the first mismatch (the transfer's bytes still crossed
            the wire — only storage is refused).
        """
        local_name = local_name or remote_name
        server = self.grid.service(server_name, self.server_service)
        mode, streams = self._plan(parallelism)
        sim = self.grid.sim
        started_at = sim.now
        telemetry = TransferTelemetry(
            self.grid, self.protocol, server_name, self.host_name,
            remote_name,
        )

        with server.connections.request() as slot:
            yield slot
            channel = yield from ControlChannel.open(
                self.grid, self.host_name, server_name
            )
            telemetry.phase("connect")
            auth_seconds = yield from gsi_handshake(
                self.grid, self.host_name, server_name, self.gsi
            )
            telemetry.phase("auth")
            control_start = sim.now
            yield from channel.exchange(server.login_commands)
            yield from channel.exchange(server.retrieve_commands)
            payload = self._slice_size(
                server.size_of(remote_name), offset, length
            )
            control_seconds = sim.now - control_start
            telemetry.phase("control")

            result = yield from run_data_transfer(
                self.grid, server_name, self.host_name, payload,
                mode=mode, streams=streams,
                label=f"gridftp:{remote_name}",
            )
            telemetry.split_phase("startup", result.startup_seconds, "data")

            yield from channel.close()

        telemetry.phase("teardown")
        remote_fs = server.host.filesystem
        source_stored = (
            remote_fs.stored(remote_name)
            if remote_name in remote_fs else None
        )
        if manifest is not None and source_stored is not None:
            self._verify_received(
                manifest, source_stored, server_name, remote_name,
                offset, payload, telemetry,
            )
        self._store_local(local_name, payload, source=source_stored)
        record = TransferRecord(
            protocol=self.protocol,
            source=server_name,
            destination=self.host_name,
            filename=remote_name,
            payload_bytes=payload,
            wire_bytes=result.wire_bytes,
            streams=streams,
            mode_name=mode.name,
            started_at=started_at,
            auth_seconds=auth_seconds,
            control_seconds=control_seconds,
            startup_seconds=result.startup_seconds,
            data_seconds=result.data_seconds,
            finished_at=sim.now,
        )
        telemetry.finish(record)
        return record

    def _verify_received(self, manifest, stored, server_name, remote_name,
                         offset, payload, telemetry):
        """Check the received slice against the manifest (zero sim time —
        checksum arithmetic is free next to WAN transfer times, so
        enabling verification never perturbs fault-free timings).

        Raises :class:`CorruptBlockError` carrying every verified span
        of the slice, so the reliable layer re-fetches at most the one
        block containing the first unverified byte.
        """
        end = offset + payload
        good, bad = manifest.verify_range(stored, offset, end)
        obs = self.grid.obs
        if obs.enabled:
            obs.metrics.counter("integrity.blocks_verified").inc(len(good))
        if not bad:
            return
        good_spans = []
        for index in good:
            lo, hi = manifest.block_span(index)
            good_spans.append((max(lo, offset), min(hi, end)))
        first = bad[0]
        block_start, _ = manifest.block_span(first)
        verified = max(0.0, min(block_start, end) - offset)
        if obs.enabled:
            obs.metrics.counter(
                "integrity.corrupt_blocks", host=server_name
            ).inc(len(bad))
            obs.events.emit(
                "integrity.corrupt_block", filename=remote_name,
                host=server_name, block_index=first,
                corrupt_blocks=len(bad),
            )
        telemetry.abort("corrupt-block")
        raise CorruptBlockError(
            remote_name, server_name, first, block_start,
            verified_bytes=verified, good_spans=good_spans,
        )

    def third_party(self, src_server_name, dst_server_name, remote_name,
                    dst_name=None, parallelism=None):
        """Server-to-server transfer steered by this client.

        The client authenticates to both servers and issues the
        PASV/PORT pairing; data then flows directly between the servers.
        Returns a :class:`TransferRecord` whose source/destination are
        the two servers.
        """
        dst_name = dst_name or remote_name
        src_server = self.grid.service(src_server_name, self.server_service)
        dst_server = self.grid.service(dst_server_name, self.server_service)
        mode, streams = self._plan(parallelism)
        sim = self.grid.sim
        started_at = sim.now
        telemetry = TransferTelemetry(
            self.grid, "gridftp-third-party", src_server_name,
            dst_server_name, remote_name, steered_by=self.host_name,
        )

        with src_server.connections.request() as src_slot, \
                dst_server.connections.request() as dst_slot:
            yield src_slot
            yield dst_slot
            src_channel = yield from ControlChannel.open(
                self.grid, self.host_name, src_server_name
            )
            dst_channel = yield from ControlChannel.open(
                self.grid, self.host_name, dst_server_name
            )
            telemetry.phase("connect")
            auth_src = yield from gsi_handshake(
                self.grid, self.host_name, src_server_name, self.gsi
            )
            auth_dst = yield from gsi_handshake(
                self.grid, self.host_name, dst_server_name, self.gsi
            )
            telemetry.phase("auth")
            control_start = sim.now
            yield from src_channel.exchange(
                src_server.login_commands + src_server.retrieve_commands
            )
            yield from dst_channel.exchange(
                dst_server.login_commands + dst_server.retrieve_commands
            )
            payload = src_server.size_of(remote_name)
            control_seconds = sim.now - control_start
            telemetry.phase("control")

            result = yield from run_data_transfer(
                self.grid, src_server_name, dst_server_name, payload,
                mode=mode, streams=streams,
                label=f"gridftp-3pt:{remote_name}",
            )
            telemetry.split_phase("startup", result.startup_seconds, "data")
            yield from src_channel.close()
            yield from dst_channel.close()

        telemetry.phase("teardown")
        fs = dst_server.host.filesystem
        if dst_name in fs:
            fs.delete(dst_name)
        copied = fs.create(dst_name, payload)
        if src_server.has_file(remote_name):
            copied.copy_state_from(
                src_server.host.filesystem.stored(remote_name)
            )
        record = TransferRecord(
            protocol="gridftp-third-party",
            source=src_server_name,
            destination=dst_server_name,
            filename=remote_name,
            payload_bytes=payload,
            wire_bytes=result.wire_bytes,
            streams=streams,
            mode_name=mode.name,
            started_at=started_at,
            auth_seconds=auth_src + auth_dst,
            control_seconds=control_seconds,
            startup_seconds=result.startup_seconds,
            data_seconds=result.data_seconds,
            finished_at=sim.now,
        )
        telemetry.finish(record)
        return record

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _plan(parallelism):
        """Map the parallelism option to (mode, streams).

        ``globus-url-copy`` keeps stream mode unless parallelism is
        requested, then switches the servers into MODE E.
        """
        if parallelism is None:
            return StreamMode(), 1
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        return ExtendedBlockMode(), int(parallelism)

    @staticmethod
    def _slice_size(file_size, offset, length):
        if offset < 0:
            raise InvalidRangeError(f"negative offset {offset}")
        if offset > file_size:
            raise InvalidRangeError(
                f"offset {offset} beyond end of file ({file_size}B)"
            )
        if length is None:
            return file_size - offset
        if length < 0:
            raise InvalidRangeError(f"negative length {length}")
        if offset + length > file_size:
            raise InvalidRangeError(
                f"range [{offset}, {offset + length}) beyond end of "
                f"file ({file_size}B)"
            )
        return float(length)

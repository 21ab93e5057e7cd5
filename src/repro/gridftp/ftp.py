"""Plain FTP: the Fig. 3 baseline.

A wu-ftpd-style server speaking stream mode over a single TCP data
connection, with a USER/PASS login and the classic TYPE/SIZE/PASV/RETR
command sequence per retrieval.
"""

from repro.gridftp.control import ControlChannel
from repro.gridftp.datachannel import run_data_transfer
from repro.gridftp.errors import RemoteFileNotFoundError
from repro.gridftp.modes import StreamMode
from repro.gridftp.record import TransferRecord
from repro.gridftp.telemetry import TransferTelemetry
from repro.sim import Resource

__all__ = ["FtpClient", "FtpServer"]


class FtpServer:
    """An FTP daemon serving its host's filesystem."""

    service_name = "ftp"
    protocol = "ftp"

    def __init__(self, grid, host_name, max_connections=64):
        if max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        self.grid = grid
        self.host_name = host_name
        self.host = grid.host(host_name)
        self.connections = Resource(grid.sim, max_connections)
        grid.register_service(host_name, self.service_name, self)

    def __repr__(self):
        return f"<{type(self).__name__} on {self.host_name}>"

    def has_file(self, name):
        return name in self.host.filesystem

    def size_of(self, name):
        if not self.has_file(name):
            raise RemoteFileNotFoundError(
                f"{self.host_name}: no such file {name!r}"
            )
        return self.host.filesystem.size_of(name)

    #: Command/reply round trips for login (USER, PASS).
    login_commands = 2
    #: Round trips to set up one retrieval (TYPE, SIZE, PASV, RETR).
    retrieve_commands = 4


class FtpClient:
    """An FTP client running on one grid host."""

    protocol = "ftp"
    server_service = FtpServer.service_name

    def __init__(self, grid, host_name):
        self.grid = grid
        self.host_name = host_name
        self.host = grid.host(host_name)

    def __repr__(self):
        return f"<{type(self).__name__} on {self.host_name}>"

    def get(self, server_name, remote_name, local_name=None):
        """Retrieve a file; a generator returning a :class:`TransferRecord`.

        Usage from a simulation process::

            record = yield from client.get("gridhit3", "file-a")
        """
        local_name = local_name or remote_name
        server = self.grid.service(server_name, self.server_service)
        mode = StreamMode()
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
            # Plain FTP has no separate authentication: USER/PASS is
            # part of the control exchange, and the auth phase is empty.
            control_start = sim.now
            yield from channel.exchange(server.login_commands)
            yield from channel.exchange(server.retrieve_commands)
            payload = server.size_of(remote_name)
            control_seconds = sim.now - control_start
            telemetry.split_phase("control", control_seconds, "auth")

            result = yield from run_data_transfer(
                self.grid, server_name, self.host_name, payload,
                mode=mode, streams=1, label=f"{self.protocol}:{remote_name}",
            )
            telemetry.split_phase("startup", result.startup_seconds, "data")

            yield from channel.close()

        telemetry.phase("teardown")
        self._store_local(local_name, payload)
        record = TransferRecord(
            protocol=self.protocol,
            source=server_name,
            destination=self.host_name,
            filename=remote_name,
            payload_bytes=payload,
            wire_bytes=result.wire_bytes,
            streams=1,
            mode_name=mode.name,
            started_at=started_at,
            auth_seconds=0.0,
            control_seconds=control_seconds,
            startup_seconds=result.startup_seconds,
            data_seconds=result.data_seconds,
            finished_at=sim.now,
        )
        telemetry.finish(record)
        return record

    def _store_local(self, local_name, payload, source=None):
        """Materialise the received bytes locally.

        A full-file copy inherits the source's stored state (content
        version, corruption, truncation) — a byte copy of damage is
        damage.  Partial slices get a fresh file; the reliable layer
        tracks their integrity per-range.
        """
        fs = self.host.filesystem
        if local_name in fs:
            fs.delete(local_name)
        stored = fs.create(local_name, payload)
        if source is not None and source.size_bytes == payload:
            stored.copy_state_from(source)
        return stored

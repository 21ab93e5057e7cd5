"""Multi-source downloads: striping and co-allocation across replicas.

Every function here pulls one file from several source servers at once
(each must hold a full replica) and shares one skeleton: check that the
sources agree on the size, open a GSI-authenticated control channel to
each, run one worker process per source, close, and assemble the local
file.  They differ only in how the workers split the file:

* :func:`striped_get` — striped GridFTP (the paper's future-work item
  #1): an *even* slice per source, so the aggregate rate can exceed any
  one server's disk or access link, but the slowest server finishes
  last and dictates the transfer time;
* :func:`brute_force_coallocation_get` — the same even split, as the
  baseline co-allocation is measured against;
* :func:`conservative_coallocation_get` — demand-driven scheduling
  (including the paper's group's own follow-up work): the file is cut
  into fixed blocks; each server fetches the next unassigned block as
  soon as it finishes its previous one, so fast servers naturally carry
  more of the file and the tail shrinks to at most one block per server.
"""

from repro.gridftp.control import ControlChannel
from repro.gridftp.datachannel import run_data_transfer
from repro.gridftp.gsi import gsi_handshake
from repro.gridftp.modes import ExtendedBlockMode
from repro.gridftp.record import TransferRecord
from repro.gridftp.telemetry import TransferTelemetry
from repro.sim import AllOf
from repro.units import MiB

__all__ = [
    "CoallocationResult",
    "brute_force_coallocation_get",
    "conservative_coallocation_get",
    "striped_get",
]


class CoallocationResult:
    """A :class:`TransferRecord` plus per-server contribution counts."""

    def __init__(self, record, blocks_by_server):
        self.record = record
        #: server name -> number of blocks it delivered.
        self.blocks_by_server = dict(blocks_by_server)

    def __repr__(self):
        shares = ", ".join(
            f"{name}:{count}" for name, count in
            sorted(self.blocks_by_server.items())
        )
        return f"<CoallocationResult {shares}>"


def _multi_source_get(client, server_names, remote_name, local_name,
                      protocol, streams, label, plan):
    """The steps every multi-source download shares.

    A generator returning the :class:`TransferRecord`.  Control set-up
    is serial from the client's point of view (one client process
    drives every channel); the data phase runs one worker process per
    source, each under its own ``coalloc.worker`` span.
    ``plan(payload, sources, fetch)`` returns that worker,
    ``worker(server_name, span)``, a generator moving its share through
    ``fetch(server_name, nbytes)``.
    """
    if not server_names:
        raise ValueError("need at least one source server")
    if streams < 1:
        raise ValueError("streams per source must be >= 1")
    grid = client.grid
    sim = grid.sim
    mode = ExtendedBlockMode()
    started_at = sim.now
    servers = [
        grid.service(name, client.server_service) for name in server_names
    ]
    sizes = {server.size_of(remote_name) for server in servers}
    if len(sizes) != 1:
        raise ValueError(
            f"sources disagree on the size of {remote_name!r}: "
            f"{sorted(sizes)}"
        )
    payload = sizes.pop()
    source = "+".join(server_names)
    telemetry = TransferTelemetry(
        grid, protocol, source, client.host_name, remote_name,
        servers=len(server_names),
    )
    channels = []
    for name, server in zip(server_names, servers):
        channel = yield from ControlChannel.open(
            grid, client.host_name, name
        )
        yield from gsi_handshake(grid, client.host_name, name, client.gsi)
        yield from channel.exchange(
            server.login_commands + server.retrieve_commands
        )
        channels.append(channel)
    telemetry.phase("control")
    data_start = sim.now

    def fetch(server_name, nbytes):
        return run_data_transfer(
            grid, server_name, client.host_name, nbytes,
            mode=mode, streams=streams,
            label=f"{label}:{remote_name}@{server_name}",
        )

    worker = plan(payload, len(server_names), fetch)

    def run_worker(server_name):
        span = telemetry.child_span("coalloc.worker", server=server_name)
        yield from worker(server_name, span)
        span.finish()

    yield AllOf(
        sim, [sim.process(run_worker(name)) for name in server_names]
    )
    data_seconds = sim.now - data_start
    telemetry.phase("data")

    for channel in channels:
        yield from channel.close()
    client._store_local(local_name or remote_name, payload)
    telemetry.phase("teardown")

    record = TransferRecord(
        protocol=protocol,
        source=source,
        destination=client.host_name,
        filename=remote_name,
        payload_bytes=payload,
        wire_bytes=mode.wire_bytes(payload),
        streams=streams * len(server_names),
        mode_name=mode.name,
        started_at=started_at,
        auth_seconds=0.0,
        control_seconds=data_start - started_at,
        startup_seconds=0.0,
        data_seconds=data_seconds,
        finished_at=sim.now,
    )
    telemetry.finish(record)
    return record


def _even_split(payload, sources, fetch):
    """The ``plan`` giving each source one equal share of the file."""
    share = payload / sources

    def worker(server_name, span):
        span.set(share_bytes=share)
        yield from fetch(server_name, share)

    return worker


def striped_get(client, source_server_names, remote_name, local_name=None,
                streams_per_stripe=1):
    """Fetch ``remote_name`` striped across several servers.

    A generator (run it with ``yield from``) returning a
    :class:`TransferRecord`.  ``client`` is a
    :class:`repro.gridftp.GridFtpClient`; each stripe may itself use
    ``streams_per_stripe`` parallel streams.
    """
    record = yield from _multi_source_get(
        client, source_server_names, remote_name, local_name,
        "gridftp-striped", streams_per_stripe, "stripe", _even_split,
    )
    return record


def brute_force_coallocation_get(client, server_names, remote_name,
                                 local_name=None, streams_per_server=1):
    """Even-split co-allocation (one giant block per server).

    A generator returning a :class:`CoallocationResult`.  Provided as
    the baseline the conservative scheduler is measured against; the
    slowest server's share determines the completion time.
    """
    record = yield from _multi_source_get(
        client, server_names, remote_name, local_name,
        "gridftp-coalloc-bruteforce", streams_per_server, "coalloc-bf",
        _even_split,
    )
    return CoallocationResult(record, {name: 1 for name in server_names})


def conservative_coallocation_get(client, server_names, remote_name,
                                  local_name=None,
                                  block_bytes=16 * MiB,
                                  streams_per_server=1):
    """Demand-driven co-allocated download.

    A generator returning a :class:`CoallocationResult`.  Each source
    server runs a worker loop: grab the next block, transfer it, repeat
    until the block queue drains.
    """
    if block_bytes <= 0:
        raise ValueError("block_bytes must be positive")
    blocks_by_server = {name: 0 for name in server_names}

    def plan(payload, sources, fetch):
        blocks = []
        offset = 0.0
        while offset < payload:
            blocks.append(min(block_bytes, payload - offset))
            offset += block_bytes
        queue = list(reversed(blocks))  # pop() takes from the front

        def worker(server_name, span):
            while queue:
                block = queue.pop()
                block_span = span.child(
                    "coalloc.block", server=server_name, block_bytes=block
                )
                yield from fetch(server_name, block)
                block_span.finish()
                blocks_by_server[server_name] += 1
            span.set(blocks=blocks_by_server[server_name])

        return worker

    record = yield from _multi_source_get(
        client, server_names, remote_name, local_name,
        "gridftp-coalloc", streams_per_server, "coalloc", plan,
    )
    return CoallocationResult(record, blocks_by_server)

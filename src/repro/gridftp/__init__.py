"""Simulated data-transfer protocols: plain FTP and GridFTP.

GridFTP (Allcock et al. 2002) extends FTP with the features Data Grids
need; the ones the paper exercises are all modelled here:

* **GSI security** on the control channel (handshake latency + crypto CPU
  time) — :mod:`repro.gridftp.gsi`;
* **stream mode vs extended block mode (MODE E)** framing —
  :mod:`repro.gridftp.modes`;
* **parallel data transfer** (``-p N``, Fig. 4) — multiple TCP streams
  per transfer, each a separate flow with its own TCP cap;
* **partial file transfer** (offset + length);
* **third-party transfer** (client steers data between two servers);
* **striped transfer** (future-work feature: stripes pulled from several
  source hosts at once) and co-allocated downloads, which share one
  multi-source skeleton — :mod:`repro.gridftp.coallocation`.
"""

from repro.gridftp.coallocation import (
    CoallocationResult,
    brute_force_coallocation_get,
    conservative_coallocation_get,
    striped_get,
)
from repro.gridftp.backoff import BackoffPolicy
from repro.gridftp.control import ControlChannel
from repro.gridftp.errors import (
    AuthenticationError,
    CorruptBlockError,
    HostUnavailableError,
    RemoteFileNotFoundError,
    TransferError,
)
from repro.gridftp.ftp import FtpClient, FtpServer
from repro.gridftp.gridftp import GridFtpClient, GridFtpServer
from repro.gridftp.faults import (
    InterruptGuard,
    TransferFault,
    TransferFaultInjector,
)
from repro.gridftp.gsi import GSIConfig
from repro.gridftp.modes import ExtendedBlockMode, StreamMode
from repro.gridftp.record import TransferRecord
from repro.gridftp.reliable import (
    AttemptTimeout,
    ReliableFileTransfer,
    ReliableTransferResult,
    RetryBudgetExhaustedError,
    TooManyAttemptsError,
)

__all__ = [
    "AttemptTimeout",
    "AuthenticationError",
    "BackoffPolicy",
    "CoallocationResult",
    "ControlChannel",
    "CorruptBlockError",
    "HostUnavailableError",
    "InterruptGuard",
    "brute_force_coallocation_get",
    "conservative_coallocation_get",
    "ExtendedBlockMode",
    "FtpClient",
    "FtpServer",
    "GSIConfig",
    "GridFtpClient",
    "GridFtpServer",
    "ReliableFileTransfer",
    "ReliableTransferResult",
    "RemoteFileNotFoundError",
    "RetryBudgetExhaustedError",
    "StreamMode",
    "TooManyAttemptsError",
    "TransferError",
    "TransferFault",
    "TransferFaultInjector",
    "TransferRecord",
    "striped_get",
]

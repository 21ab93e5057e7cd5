"""Replica management: logical files and the catalog.

The Data Grid's replica layer (Allcock et al.): a *logical file* is a
name for content; *physical replicas* of it live on concrete hosts.  The
:class:`ReplicaCatalog` records the logical→physical mapping.
"""

from repro.replica.catalog import (
    LogicalFileNotFoundError,
    ReplicaCatalog,
    ReplicaEntry,
)
from repro.replica.logical_file import LogicalFile

__all__ = [
    "LogicalFile",
    "LogicalFileNotFoundError",
    "ReplicaCatalog",
    "ReplicaEntry",
]

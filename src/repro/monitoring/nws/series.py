"""Series keys."""

__all__ = ["series_key"]


def series_key(resource, source, target=None):
    """Canonical key for one monitored quantity.

    End-to-end resources (bandwidth) have both endpoints; host-local
    resources (cpu) leave ``target`` as None.
    """
    return (resource, source, target)

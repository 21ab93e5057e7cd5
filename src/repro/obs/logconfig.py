"""Stdlib logging for the reproduction.

Every instrumented module logs under the ``repro`` root logger
(``repro.gridftp.reliable``, ``repro.monitoring.nws.sensor``, ...):
debug-level decision logs, warning-level fault/retry logs.  Nothing is
emitted until a handler is attached — call :func:`configure_logging`
(or ``logging.basicConfig``) to see output.  The ``repro`` logger
carries a :class:`logging.NullHandler` from import on, so un-configured
warnings do not fall through to :data:`logging.lastResort` on stderr::

    from repro.obs import configure_logging
    configure_logging("DEBUG")
"""

import logging

__all__ = ["configure_logging", "repro_logger"]

_FORMAT = "%(levelname)s %(name)s: %(message)s"


def repro_logger():
    """The ``repro`` root logger all module loggers descend from."""
    return logging.getLogger("repro")


repro_logger().addHandler(logging.NullHandler())


def configure_logging(level="INFO", stream=None, fmt=_FORMAT):
    """Attach a stream handler to the ``repro`` logger and set its level.

    Idempotent: calling again adjusts the level instead of stacking
    handlers.  Returns the configured logger.
    """
    logger = repro_logger()
    if isinstance(level, str):
        level = getattr(logging, level.upper())
    logger.setLevel(level)
    for handler in logger.handlers:
        if getattr(handler, "_repro_configured", False):
            handler.setLevel(level)
            return logger
    handler = logging.StreamHandler(stream)
    handler.setLevel(level)
    handler.setFormatter(logging.Formatter(fmt))
    handler._repro_configured = True
    logger.addHandler(handler)
    return logger

"""Monitoring and information services.

Three subsystems feed the replica selection cost model, matching the
paper's measurement stack one-to-one:

* :mod:`repro.monitoring.nws` — a Network Weather Service clone
  (nameserver / memory / sensors / adaptive forecasters) supplying
  bandwidth measurements and short-term forecasts (``BW_P``);
* :mod:`repro.monitoring.mds` — a Globus MDS-style information service
  (GRIS per host, GIIS aggregation, TTL caching) supplying CPU state
  (``CPU_P``);
* :mod:`repro.monitoring.sysstat` — an iostat equivalent reading the
  simulated disk, supplying I/O state (``IO_P``).

:class:`repro.monitoring.information.InformationService` is the facade
the paper calls "the information server": one query point for all three
factors.
"""

from repro.monitoring.information import InformationService

__all__ = ["InformationService"]

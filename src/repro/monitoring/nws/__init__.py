"""The Network Weather Service (NWS) clone.

The real NWS (Wolski et al.) is three cooperating process kinds, all
reproduced here:

* :class:`NameServer` — naming/discovery: sensors and memories register
  themselves and are looked up by name;
* :class:`NwsMemory` — persistent storage of measurement series;
* :class:`Sensor` subclasses — periodic measurement processes for
  end-to-end bandwidth and CPU availability.

Forecasts come from a battery of simple predictors run in parallel, with
the historically most accurate one chosen per series — NWS's signature
"dynamic predictor selection" (:mod:`repro.monitoring.nws.forecasting`).
"""

from repro.monitoring.nws.forecasting import (
    ExponentialSmoothing,
    ForecasterBattery,
    LastValue,
    MedianWindow,
    RunningMean,
    SlidingWindowMean,
)
from repro.monitoring.nws.memory import NwsMemory
from repro.monitoring.nws.nameserver import NameServer
from repro.monitoring.nws.sensor import (
    BandwidthSensor,
    CpuSensor,
    Sensor,
)
from repro.monitoring.nws.series import series_key

__all__ = [
    "BandwidthSensor",
    "CpuSensor",
    "ExponentialSmoothing",
    "ForecasterBattery",
    "LastValue",
    "MedianWindow",
    "NameServer",
    "NwsMemory",
    "RunningMean",
    "Sensor",
    "SlidingWindowMean",
    "series_key",
]

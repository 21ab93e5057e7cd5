"""Fixture: unit conversions through repro.units helpers."""
from repro.units import MiB, mbit_per_s, to_mbit_per_s


def conversions(mbps, bytes_per_s):
    rate = mbit_per_s(mbps)
    back = to_mbit_per_s(bytes_per_s)
    memory = 512 * MiB
    plain = 3 * 7 / 2
    return rate, back, memory, plain

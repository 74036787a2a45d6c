"""A fixed slice of work that gauges how fast the shared machine runs right now.

A machine shared with other tenants changes speed by tens of percent
over minutes, which swamps the differences the benchmark is meant to
show.  The benchmark times this kernel before every job and scales the
job times by ``NOMINAL_S / mean kernel time``: times are reported in
seconds of a machine running at the nominal speed.  Start-up of a fresh
process varies on its own, so set-up times are scaled the same way by a
bare interpreter that imports numpy (``NOMINAL_START_S``).  The kernel does the kinds of
work the library does (rational phase reduction, complex exponentials,
hashing and sorting tuples, small dense SVDs and products) but is
written here, so no change to the library changes it.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

# mean kernel time, interleaved with jobs, on the machine the benchmark was calibrated on
# (2-vCPU x86_64 VM, Python 3.11.7, numpy 2.4.6 with OpenBLAS, one thread)
NOMINAL_S = 0.009
NOMINAL_START_S = 0.3

_MATRIX = np.exp(2j * np.pi * np.outer(np.arange(8), np.arange(8)) / 8)


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    for _ in range(3):
        phases = {}
        for i in range(1, 200):
            q = (Fraction(i % 97, 1 + i % 89) * Fraction(3, 7)) % 1
            t = 2.0 * math.pi * float(q)
            phases[(i % 17, q.denominator)] = complex(math.cos(t), math.sin(t))
        sorted(phases)
        for _ in range(10):
            np.linalg.svd(_MATRIX[:4, :4], compute_uv=False)
            _MATRIX.conj().T @ _MATRIX
    return time.perf_counter() - t0

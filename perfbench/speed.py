"""The cold host speed index, so that ``setup_s`` and ``first_op_s`` are
given at a reference host speed.

The benchmark runs on a shared host whose speed drifts by tens of percent
over seconds to minutes, and fresh processes feel it most: with the same
code and workload, the median set-up time of ten runs moved by half from one
set of runs to the next, twenty minutes later.  A drift that slow is not
averaged out by a longer run.  So every fresh process of a run (the probes
and the worker) also reports when numpy is imported, before it imports
``wco``: interpreter start until then is fixed work that does not touch the
program, done in the same processes and the same stretch of time as the
set-up and the first op it scales.

A time is reported as ``raw * REF_COLD_S / index``: what it would read while
the index reads ``REF_COLD_S``.  A change to the program moves a scaled time
by the same ratio as the raw one.  The raw times and the index samples are
printed beside them.

Warm ops are not scaled: fixed kernels timed between them (closed-form
values and Taylor coefficients from ``refs``, a reference matrix and its
eigenvalues) swung between two speeds a factor 1.8 apart while the ops moved
by a third as much, so scaling by them added spread instead of removing it.
"""

from __future__ import annotations

import statistics

# The index's median on the host the benchmark was written on (2 vCPUs of an
# Intel Xeon at 2.1 GHz, Python 3.11 with numpy and OpenBLAS on one thread).
REF_COLD_S = 0.13


def cold_scale(samples) -> float:
    """``REF_COLD_S / index``, the index being the median of a run's samples;
    multiply a time by it."""
    return REF_COLD_S / statistics.median(samples)

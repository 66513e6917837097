"""Machine-speed reference for normalising times.

On a shared, noisy box the same request can take twice as long from one
minute to the next, and the speed swings within a second too (CPU time grows
with wall time, so the cause is slower execution, not descheduling).  The
benchmark therefore times a fixed reference task right before and right
after every request and reports the request's time scaled by
``NOMINAL_S / reference time``: seconds at the speed where the reference
takes ``NOMINAL_S``.  The raw wall times go into the report line as well.

Set-up time is mostly file reads and module execution and does not follow
that reference, so it has its own: the launch of the same fresh interpreter
up to the end of ``import numpy``, which fermion5d cannot change and which
``import fermion5d`` would do first anyway.  Scaled by it, the spread of the
set-up time over 30 launches fell from 22% to 4% (standard deviation over
mean).

Measured on a 2-core box over six 30 s runs of ``verify``, this took the
spread of the median request time between runs (interquartile range over
median) from 22% raw to 3%.  Scaling by a run-wide or time-window reference
did worse (21% and 8-12%): the speed right at the request's edges is what
tracks it.

The reference is the signed scatter-accumulate loop of a 32 x 32 geometric
product written with small numpy operations driven from Python -- the same
kind of work the program does -- frozen here so that no change to fermion5d
can move it.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

#: Reference-task time that defines the time scale: a round value between
#: its fast (~3 ms) and loaded (~6 ms) readings on a shared 2-core box.
NOMINAL_S = 0.004

_N = 32
_ROWS = np.arange(_N)[:, None] ^ np.arange(_N)[None, :]
_SIGN = np.where(np.random.default_rng(1).random((_N, _N)) < 0.5, -1, 1).astype(np.int8)
_A = np.random.default_rng(0).uniform(-1.0, 1.0, size=_N)
_REPEATS = 40


def _task_s() -> float:
    start = time.perf_counter()
    for _ in range(_REPEATS):
        out = np.zeros(_N)
        for i in range(_N):
            out[_ROWS[i]] += _A[i] * (_SIGN[i] * _A)
    return time.perf_counter() - start


def reference_s() -> float:
    """Wall time of the reference task: the median of three runs, since the
    speed also swings on a scale of milliseconds."""
    return statistics.median(_task_s() for _ in range(3))


#: Launch-to-``import numpy`` time of a fresh interpreter that defines the
#: time scale of ``setup_s`` (typical on the same box: 0.14-0.19 s).
STARTUP_NOMINAL_S = 0.15


def factor(before: float, after: float) -> float:
    """Scale for a time measured between two reference runs."""
    return NOMINAL_S / ((before + after) / 2)

"""Reference kernel that tracks how fast the machine runs right now.

On a shared host the same work takes 15-45% longer during busy minutes.
The benchmark times this fixed kernel next to every measurement and scales
the measurement by ``NOMINAL_S / measured``, so that its timings read as
seconds at one fixed machine speed and busy periods cancel out.

The kernel mixes what fuselab spends its time on: vectorised numpy
arithmetic over arrays larger than the per-core caches, a Python loop of
small numpy calls on keyed Philox streams, and fresh pages for a large
temporary.
"""

from __future__ import annotations

import mmap
import time

import numpy as np

# Typical kernel time (min of REPEATS) on a 2-core Intel Xeon host with
# OPENBLAS_NUM_THREADS=1. It only sets the scale of the reported seconds.
NOMINAL_S = 0.03
REPEATS = 2

_RNG = np.random.default_rng(12345)
_BIG = _RNG.random((7, 65536))
_TMP = np.empty_like(_BIG)
_COL = np.empty(_BIG.shape[1])
_DOT = np.empty(_BIG.shape[1])
_W = _RNG.random(7)
_SMALL = _RNG.random((64, 7))
_FRESH_BYTES = 8 * 2**20


def _kernel() -> None:
    # The large arrays are preallocated: with temporaries, the kernel would
    # also time page faults, whose cost depends on the allocator's history.
    for _ in range(4):
        np.multiply(_BIG, 0.5, out=_TMP)
        np.add(_TMP, 0.25, out=_TMP)
        np.log(_TMP, out=_TMP)
        np.exp(_TMP, out=_TMP)
        np.sum(_TMP, axis=0, out=_COL)
        np.dot(_W, _BIG, out=_DOT)
        np.maximum(_COL, _DOT, out=_COL)
    for i in range(300):
        rng = np.random.Generator(np.random.Philox(key=[i, 7]))
        (rng.random(_SMALL.shape) < _SMALL).astype(np.float64) @ _W
    # A fresh mapping on every call faults its pages in, as fuselab's large
    # temporaries do; it is kept small so that it does not move peak RSS.
    with mmap.mmap(-1, _FRESH_BYTES) as region:
        view = np.frombuffer(region, dtype=np.float64)
        view.fill(1.0)
        view.sum()
        del view


def reference_s() -> float:
    """Fastest of a few runs of the kernel, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def speed_factor(*refs: float) -> float:
    """Scale that converts a timing taken between ``refs`` to nominal seconds."""
    return NOMINAL_S / (sum(refs) / len(refs))

"""Host-speed reference for the end-to-end times.

The benchmark host is shared and its speed wanders.  Within one minute the
same 1D ``solver.run`` took 1.08 to 2.03 s; over half an hour the raw
round of the 1D session moved between about 5 and 10.5 s.  Process CPU
time tracks wall time throughout, so the process is slowed, not
descheduled, and how much depends on what the code does.

A workload whose program time tracks a numpy-only reference kernel of its
own regime has that kernel timed right before and right after every timed
program call, and the call's time is scaled to a host on which the kernel
takes ``NOMINAL_S`` seconds:

    scaled = elapsed * NOMINAL_S / mean(reference before, reference after)

The kernels never touch voidtherm, so a faster program still reads
faster.  Raw times are printed beside the scaled ones.  A workload with
``regime=None`` is reported raw: no kernel tried tracked the single
ten-second operation of ``plate2d-verify`` (correlation at most 0.35) and
scaling widened its spread (see README.md).
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.015


class _Operands:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.bar = rng.normal(size=(3, 501))
        self.square = rng.uniform(0.0, 1.0, size=(129, 129))
        self.cube = rng.normal(size=(33, 33, 33))


def _small_arrays(ops):
    """Many numpy calls on 501-node arrays plus plain Python: the regime of
    1D stepping and of the CLI session."""
    acc = 0.0
    for _ in range(300):
        grad = np.gradient(ops.bar, 0.01, axis=1, edge_order=2)
        acc += float(np.einsum("ij,ij->", grad, ops.bar))
    table = {}
    for i in range(20000):
        table[i % 97] = table.get(i % 97, 0) + i
    return acc


def _grid_functions(ops):
    """Transcendental functions on a 129^2 grid and gradients of a 33^3
    field: the regime of manufactured sources and 3D stepping."""
    acc = 0.0
    for _ in range(12):
        acc += float((np.sin(np.pi * ops.square) * np.cos(np.pi * ops.square.T)).sum())
        acc += float(np.gradient(ops.cube, 0.03, axis=1, edge_order=2).sum())
    return acc


KERNELS = {"small-arrays": _small_arrays, "grid-functions": _grid_functions}


class Reference:
    """Times one kernel of ``KERNELS``; with ``regime=None`` it times
    nothing and leaves times unscaled."""

    REPEATS = 5

    def __init__(self, regime):
        self._kernel = None if regime is None else KERNELS[regime]
        self._ops = _Operands()

    def sample(self):
        """Median seconds of REPEATS back-to-back kernel runs; the median
        drops the sub-second bursts that one short run can land in."""
        if self._kernel is None:
            return NOMINAL_S
        times = []
        for _ in range(self.REPEATS):
            start = time.perf_counter()
            self._kernel(self._ops)
            times.append(time.perf_counter() - start)
        return sorted(times)[self.REPEATS // 2]


def scaled(elapsed, ref_before, ref_after):
    return elapsed * NOMINAL_S / (0.5 * (ref_before + ref_after))

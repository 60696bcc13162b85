"""Machine-normalised timing: wall time scaled by a pure-Python reference kernel.

On a shared host the speed of a Python loop drifts by tens of percent within
minutes, so raw wall time cannot carry a comparison between two runs.  The
kernel below does the kind of work the engine does (small frozen-object
allocation, tuple hashing, sorting, dict building) and is timed right before
every timed call.  A call's reference time is

    wall_time * REFERENCE_KERNEL_S / kernel_time

that is, what the call would have taken on a host where the kernel takes
REFERENCE_KERNEL_S.  Changes in host speed move both timings alike and cancel.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

KERNEL_ITEMS = 1500
KERNEL_DIGEST = 1699329581

REFERENCE_KERNEL_S = 0.0035
"""Median kernel time measured on the reference host (see README.md)."""


@dataclass(frozen=True)
class _Cell:
    row: int
    col: int


def reference_kernel() -> int:
    """Fixed pure-Python work; returns a digest so a broken kernel shows."""
    cells = [_Cell(i * 7919 % 1009, i % 37) for i in range(KERNEL_ITEMS)]
    table: dict[tuple[int, int], _Cell] = {}
    for c in cells:
        table[(c.row, c.col)] = c
    order = sorted(table, key=lambda k: (k[1], -k[0]))
    index = {k: i for i, k in enumerate(order)}
    digest = 0
    for k in order:
        digest = (digest * 31 + index[k] + hash(k) % 65521) % 2147483647
    return digest


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    digest = reference_kernel()
    elapsed = time.perf_counter() - t0
    if digest != KERNEL_DIGEST:
        raise RuntimeError(f"reference kernel digest {digest} != {KERNEL_DIGEST}")
    return elapsed


class Meter:
    """Times calls in reference seconds, each scaled by the kernel run just before it.

    Scaling each call by its own kernel time tracked host speed better than
    a median over the last few kernels: over ten runs of each workload the
    run-to-run spread of `case_ms_geomean` was 1.0-2.8% against 1.5-4.1%.
    """

    def __init__(self) -> None:
        self.kernels: list[float] = []

    def timed(self, fn):
        """Return (fn(), wall seconds, reference seconds).

        A garbage collection and a kernel run come first, untimed.  An
        exception from `fn` propagates; the caller counts it as a failure.
        """
        gc.collect()
        kernel = kernel_seconds()
        self.kernels.append(kernel)
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        return out, wall, wall * REFERENCE_KERNEL_S / kernel

"""Machine-speed calibration.

The machines this benchmark was written on change speed by up to 1.8x,
over spans from tens of milliseconds to minutes, because they are
shared.  Operation times are therefore scaled by a fixed kernel that does
not use the program under test: a mix of interpreter work (tuples,
sorting, dict updates) and small NumPy calls, like the program's own.
The kernel runs between operations.  An operation that took ``t`` seconds
counts as ``t * REFERENCE_KERNEL_S / k``, where ``k`` is the median of
the kernel samples right before and right after the operation and of
those within the operation's own length on either side.  Short
operations are scaled by the speed right around them; long ones, which
span many speed changes, by the speed over a span of their own length.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

# The kernel's time in the fast state of the 2-core Xeon the benchmark was
# written on; with it, scaled times read close to that machine's wall times.
REFERENCE_KERNEL_S = 0.00061

_MATRIX = np.arange(64, dtype=np.int64).reshape(8, 8)


def _kernel() -> int:
    acc = 0
    seen: dict[tuple[int, ...], int] = {}
    for i in range(300):
        key = tuple(sorted((i * 7919 + j) % 97 for j in range(6)))
        seen[key] = seen.get(key, 0) + 1
        if i % 6 == 0:
            acc += int(np.nonzero(np.mod(_MATRIX * i, 5)[i % 8])[0].size)
    return acc + len(seen)


def kernel_seconds(repeats: int = 3) -> float:
    """Best of ``repeats`` kernel runs: the current speed of the machine."""
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


class Timeline:
    """Kernel samples and operation times of one run, in ``perf_counter`` time."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.kernel: list[float] = []
        self.samples: list[tuple[str, int, float, float]] = []  # (mode, operation, start, seconds)

    def calibrate(self) -> None:
        t0 = perf_counter()
        kernel = kernel_seconds()
        self.at.append((t0 + perf_counter()) / 2)
        self.kernel.append(kernel)

    def record(self, mode: str, op: int, start: float, seconds: float) -> None:
        self.samples.append((mode, op, start, seconds))

    def factor(self, start: float, end: float, margin: float = 0.0) -> float:
        """Reference speed over current speed around [start, end].

        Uses the kernel samples within ``margin`` of the interval, and always
        the last sample before it and the first after it.
        """
        lo = min(bisect_left(self.at, start - margin), max(bisect_left(self.at, start) - 1, 0))
        hi = max(bisect_right(self.at, end + margin), bisect_right(self.at, end) + 1)
        return REFERENCE_KERNEL_S / statistics.median(self.kernel[lo:hi])

    def best(self, mode: str, n: int, scaled: bool = True) -> list[float]:
        """Each operation's best time in ``mode``, scaled to reference speed or not; inf if never timed."""
        best = [float("inf")] * n
        for sample_mode, op, start, seconds in self.samples:
            if sample_mode != mode:
                continue
            if scaled:
                seconds *= self.factor(start, start + seconds, seconds)
            best[op] = min(best[op], seconds)
        return best

"""Host-speed calibration: put call times at one fixed host speed.

On a shared host the same code can run up to about 1.7 times slower for
seconds or minutes at a time, when other tenants load the same cores.  A run
of tens of seconds cannot average that away.  So the benchmark runs a fixed
kernel next to the timed calls, about every ``INTERVAL_S``, and scales each
call's time by ``reference_s / kernel time`` measured in the seconds around it.  The kernel
does the same kind of work as the workload (interpreted Python, or NumPy array
work), so a slow host slows both alike; the kernel does not touch twohopsec,
so a slower program still shows in full.  The scaled times read as
milliseconds on a host where the kernel takes ``reference_s``, about what it
takes on an unloaded 2-vCPU x86-64 host under CPython 3.11.  The unscaled
times are reported beside them.
"""

from __future__ import annotations

import statistics
import time

INTERVAL_S = 0.5
REPEATS = 5
SMOOTH = 3


def python_kernel() -> int:
    """Interpreted integer arithmetic and dict stores, like argparse and the bound sums."""
    table, acc = {}, 0
    for i in range(20000):
        acc += i * i % 7
        table[i & 255] = acc
    return acc


def numpy_kernel() -> float:
    """Array draws, distances, path loss and a row sort, like one small Monte Carlo batch."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(0))
    gains = rng.standard_exponential((4096, 20))
    pos = rng.uniform(-0.5, 0.5, size=(4096, 20, 2))
    loss = np.maximum(np.hypot(pos[:, :, 0] - 0.1, pos[:, :, 1]), 0.05) ** -3.0
    order = np.argsort(-gains, axis=1, kind="stable")
    return float(np.sum(gains * loss)) + float(order[0, 0])


KERNELS = {"python": (python_kernel, 2.0e-3), "numpy": (numpy_kernel, 5.5e-3)}


class HostSpeed:
    """Kernel samples taken between timed calls, and the scaling they give."""

    def __init__(self, kind: str):
        self.kernel, self.reference_s = KERNELS[kind]
        self.samples = []
        self._last = float("-inf")

    def sample(self) -> None:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        self.samples.append(statistics.median(times))
        self._last = time.perf_counter()

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    @property
    def mark(self) -> int:
        """The index of the latest sample; a call made now lies between it and the next."""
        return len(self.samples) - 1

    def scaled(self, seconds: float, mark: int) -> float:
        """``seconds`` measured after sample ``mark``, at the reference host speed.

        The kernel time is the median of the samples within ``SMOOTH`` of the
        call, so one sample's noise does not reach the call's time.
        """
        kernel_s = statistics.median(self.samples[max(0, mark - SMOOTH + 1):mark + SMOOTH + 1])
        return seconds * self.reference_s / kernel_s

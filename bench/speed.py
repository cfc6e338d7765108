"""The host's speed during a run, read from a fixed reference kernel.

The test machine is a 2-vCPU guest on a shared host. For minutes at a
time the host runs every instruction of the guest 1.2-1.5x slower, CPU
time included, so no statistic over one run's samples can remove it.
What does remove it: time this fixed kernel between the sweeps of the
run and divide each timing of the run by the kernel's slowdown against
its quiet-machine time. The kernel does the two kinds of work the
program does -- column sorts with cumulative sums, as the stump search,
and an interpreted loop, as the harness and the CSA solve -- and it
never changes with the program, so a change to the program moves the
scaled timings and leaves the slowdown alone.
"""

import time

import numpy as np

# the kernel's 5th-percentile seconds on the test machine in a quiet minute
QUIET_S = 2.8e-3
PERCENTILE = 5


class Reference:
    """Samples of the reference kernel taken over one run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.features = rng.standard_normal((667, 31))
        self.positive = rng.random(667) < 0.5
        self.mass = rng.random(667)
        self.samples = []

    def kernel(self) -> float:
        start = time.perf_counter()
        order = np.argsort(self.features, axis=0, kind="stable")
        mass = self.mass[order]
        np.cumsum(np.where(self.positive[order], mass, 0.0), axis=0)
        np.cumsum(np.where(self.positive[order], 0.0, mass), axis=0)
        total = 0
        for i in range(15000):
            total += i * i % 7
        return time.perf_counter() - start

    def sample(self, seconds: float):
        """Time the kernel repeatedly for ``seconds``."""
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.samples.append(self.kernel())

    def slowdown(self) -> float:
        """How much slower than in a quiet minute the host ran over the samples."""
        return float(np.percentile(self.samples, PERCENTILE)) / QUIET_S

"""The host-speed probe: one fixed slice of the benchmark's own work.

The benchmark runs on a shared virtual machine whose speed is not its
own.  Over minutes the same pass of the same workload, and the same
import, took anywhere from 1x to 2x as long, with every workload and the
set-up moving together; within seconds the host also flips between
speeds about 1.4x apart.  No statistic over one 40 s run can see past a
slow phase that lasts the whole run.

So the benchmark measures the host beside the program.  A *slice* is a
fixed amount of pure-Python work -- dict lookups, integer arithmetic and
stores, the kind of work the simulator's interpreter loop does -- that
calls nothing in ``repro``.  Slices run between the timed units of a
pass (outside their timing), so they sample the host's speed throughout
the pass.  The times of passes are then reported in *reference
seconds*: host seconds times :data:`REFERENCE_S` over the mean time of
the slices taken during the same pass, i.e. the time the work would
take on a host that runs one slice in exactly :data:`REFERENCE_S`.  A change to the program
moves the program's time and not the slices', so it moves the reported
figures by the same share as it moves host time.
"""

from __future__ import annotations

import time

#: Loop iterations in one slice: about 5 ms on the 2-vCPU Xeon host the
#: benchmark was written on.
SLICE_ITERATIONS = 16000

#: The slice time the reported figures are scaled to.
REFERENCE_S = 0.005


def run_slice() -> int:
    """One slice of fixed work; returns a checksum so none is skipped."""
    table: "dict[int, int]" = {}
    total = 0
    for index in range(SLICE_ITERATIONS):
        key = (index * 40503) & 0x3FF
        total += table.get(key, index) ^ index
        table[key] = total & 0xFFFF
    return total


class HostProbe:
    """Slice timings taken through one phase of a run."""

    def __init__(self) -> None:
        self.samples: "list[float]" = []

    def sample(self, slices: int = 1) -> None:
        """Time ``slices`` slices, one sample each."""
        for _ in range(slices):
            start = time.perf_counter()
            run_slice()
            self.samples.append(time.perf_counter() - start)

    @property
    def factor(self) -> float:
        """Reference seconds per host second over the sampled phase.

        Below 1 when the host ran slower than the reference, so that
        multiplying a host time by it gives the time in reference
        seconds.
        """
        return REFERENCE_S * len(self.samples) / sum(self.samples)

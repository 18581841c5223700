"""A fixed reference workload that measures how fast the host runs now.

On a shared machine the CPU speed this process gets drifts by up to 2x
over minutes, and it moves every host-time figure with it. The
benchmark runs this kernel in short bursts, about every 0.4 s over the
whole run, and scales each host time by ``REFERENCE_S / mean(burst)``,
which
turns host seconds into seconds at a fixed reference speed. The kernel
is the benchmark's own code, so a change to the simulator cannot speed
it up or slow it down.

It mixes what the simulator's hot loops do: a heap-ordered event loop
resuming generator processes, attribute and dict updates on small
objects, float arithmetic, and a few small numpy calls.
"""

from __future__ import annotations

import functools
import heapq
import statistics
from time import perf_counter

import numpy as np

from e2ebench.patching import Patches

__all__ = ["REFERENCE_S", "Calibrator", "kernel"]

#: Nominal duration of one :func:`kernel` call; scaled host times are in
#: seconds at the speed where one call takes exactly this long.
REFERENCE_S = 0.02


class _Node:
    __slots__ = ("busy", "done", "load")

    def __init__(self) -> None:
        self.busy = 0.0
        self.done = 0
        self.load = {}


def _process(node: _Node, pid: int, steps: int):
    t = 0.0
    for step in range(steps):
        t += 0.5 + (pid * 7 + step) % 5 * 0.25
        node.busy += t * 1e-3
        node.done += 1
        node.load[step % 11] = node.load.get(step % 11, 0) + 1
        yield t


def kernel(processes: int = 128, steps: int = 150) -> float:
    """One calibration unit (about 20 ms on a 2 GHz Xeon); returns a
    checksum so that the work cannot be skipped."""
    nodes = [_Node() for _ in range(16)]
    col = np.zeros(16)
    heap = []
    seq = 0
    for pid in range(processes):
        heap.append((0.0, seq, _process(nodes[pid % 16], pid, steps), pid))
        seq += 1
    heapq.heapify(heap)
    events = 0
    while heap:
        _, _, proc, pid = heapq.heappop(heap)
        try:
            when = next(proc)
        except StopIteration:
            continue
        events += 1
        if events % 32 == 0:
            col[pid % 16] += when
            col[pid % 16] = float(col.max()) * 0.5
        seq += 1
        heapq.heappush(heap, (when, seq, proc, pid))
    return float(col.sum()) + sum(n.busy for n in nodes) + events


class Calibrator:
    """Runs a :func:`kernel` burst whenever ``every`` seconds have passed
    since the previous one, and keeps the burst durations.

    Between trials the benchmark calls :meth:`maybe` itself. Inside a
    trial, :meth:`install` makes ``Trace.log`` (which every layer calls)
    and ``Trace.sample`` (the progress sampler's tick, every simulated
    second) check first while :attr:`inside` is set, so long trials are
    sampled too; :attr:`spent` lets the caller take the bursts back out
    of the time it measured.
    """

    def __init__(self, every: float = 0.4) -> None:
        self.every = every
        self.samples: list[float] = []
        #: Host seconds spent in bursts so far.
        self.spent = 0.0
        #: Whether bursts may run from inside the simulator.
        self.inside = False
        self._next = float("-inf")
        self._patches = Patches()

    def burst(self) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self._next = t1 + self.every

    def maybe(self) -> None:
        if perf_counter() >= self._next:
            self.burst()

    def install(self) -> None:
        from repro.metrics.trace import Trace

        for name in ("log", "sample"):
            self._patches.wrap(Trace, name, self._hook)

    def _hook(self, original):
        cal = self

        @functools.wraps(original)
        def hooked(*args, **kwargs):
            if cal.inside and perf_counter() >= cal._next:
                cal.burst()
            return original(*args, **kwargs)

        return hooked

    def uninstall(self) -> None:
        self._patches.undo()

    def mean(self) -> float:
        """Mean burst duration. The mean, not the median: a measured
        host time adds up every slow stretch of the run, and the mean of
        evenly spaced bursts weighs slow stretches the same way."""
        return statistics.fmean(self.samples)

    def scale(self) -> float:
        """Factor that converts this run's host seconds into seconds at
        the reference speed."""
        return REFERENCE_S / self.mean()

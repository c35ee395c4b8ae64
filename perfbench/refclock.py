"""A reference clock that follows the CPU speed a run actually gets.

On a shared host, other tenants slow a run's CPU by up to half for minutes
at a time, and CPU time slows with wall time, so neither tells a slower
program from a busier host. ``ReferenceClock`` runs a fixed numpy-and-Python
kernel from SIGALRM every ``INTERVAL_S`` seconds while the run measures.
The kernel is benchmark code, so a change to the library cannot change its
cost; its mean time is the host's speed over the run. ``speed()`` converts
times measured in the run to the idle reference host's speed.

``now()`` excludes the time spent in the kernel, so the workloads' own
timings do not include it. The timer runs in the main thread: a handler
runs between bytecodes, never inside a numpy call, and no thread is started.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Mean kernel time on the host the benchmark was defined on (2.0 GHz Xeon
# vCPU, idle). Only the ratio between two runs matters, so any constant works;
# this one makes the reported times read as that host's idle times.
REFERENCE_MS = 1.0
INTERVAL_S = 0.05


class _Node:
    """A graph node like the engine's: a value, its parents and a closure."""
    __slots__ = ("value", "parents", "backward")

    def __init__(self, value, parents, backward):
        self.value = value
        self.parents = parents
        self.backward = backward


class ReferenceClock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._weights = [rng.standard_normal((16, 16)) * 0.1 for _ in range(4)]
        self._x = rng.standard_normal((16, 12))
        self.samples: list[float] = []   # seconds per kernel run
        self.spent = 0.0
        self._previous = None

    def _kernel(self, signum, frame) -> None:
        # Mostly interpreter work around tiny numpy calls, the mix that
        # dominates the library: host contention slows it as it slows them.
        start = time.perf_counter()
        total = 0.0
        for _ in range(40):
            x, nodes = self._x, []
            for w in self._weights:
                y = w @ x
                x = np.tanh(y + 0.1)
                nodes.append(_Node(x, (y,), lambda g, y=y: g * y))
            order = {id(node): i for i, node in enumerate(nodes)}
            total += len(order) + sum(float(v) for v in x[:, 0])
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def now(self) -> float:
        """Seconds on a clock that stops while the kernel runs."""
        return time.perf_counter() - self.spent

    def speed(self) -> float:
        """Idle-reference-host seconds per second measured in this run."""
        return REFERENCE_MS / (1000.0 * statistics.fmean(self.samples))

    def __enter__(self) -> "ReferenceClock":
        self._previous = signal.signal(signal.SIGALRM, self._kernel)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

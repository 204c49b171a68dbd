"""Host-speed reference for the benchmark's time metrics.

On a shared host the same op can take up to 1.9x longer from one minute to
the next, in phases longer than a run, and CPU time tracks wall time, so
no clock inside the process sees it. A fixed kernel of the benchmark's own
(breadth-first search over a fixed random graph with plain lists; no
megsolve code) runs between ops every ``PROBE_EVERY`` seconds. Each
measured time t is then reported at the reference speed,

    t * REF_SECONDS / (median kernel time within WINDOW seconds of t),

which removes the host's speed and keeps the program's: a change to
megsolve cannot speed up or slow the kernel. Over 100 s of one repeated
op, 8-op block medians spread 0.20 (IQR over median) raw and 0.06 scaled.
"""

from __future__ import annotations

import bisect
import random
import statistics
from collections import deque
from time import perf_counter

# Kernel time at the reference speed: its median on the machine the
# benchmark was written on. It only sets the scale of the reported times.
REF_SECONDS = 0.002
PROBE_EVERY = 0.2
WINDOW = 1.0
MIN_PROBES = 5


def _kernel_graph(n: int = 200, extra: int = 400) -> list[list[int]]:
    rng = random.Random(0)
    adj: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u].append(v)
        adj[v].append(u)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    return adj


_ADJ = _kernel_graph()


def kernel() -> int:
    """BFS from every fifth vertex; returns the sum of all distances."""
    n = len(_ADJ)
    total = 0
    for s in range(0, n, 5):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in _ADJ[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        total += sum(dist)
    return total


class Speed:
    """Kernel probes over time, and the scale they give to a time span."""

    def __init__(self):
        self.at: list[float] = []  # probe midpoints, increasing
        self.took: list[float] = []

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = perf_counter()
            kernel()
            t1 = perf_counter()
            self.at.append((t0 + t1) / 2)
            self.took.append(t1 - t0)

    def maybe_probe(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= PROBE_EVERY:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """REF_SECONDS over the median kernel time near [start, end]: the
        probes within WINDOW of the span, or the MIN_PROBES nearest."""
        lo = bisect.bisect_left(self.at, start - WINDOW)
        hi = bisect.bisect_right(self.at, end + WINDOW)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.at)):
            left = start - self.at[lo - 1] if lo > 0 else float("inf")
            right = self.at[hi] - end if hi < len(self.at) else float("inf")
            if left <= right:
                lo -= 1
            else:
                hi += 1
        return REF_SECONDS / statistics.median(self.took[lo:hi])

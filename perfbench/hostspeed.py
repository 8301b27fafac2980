"""How much slower than its fast state the host is running.

On a machine whose cores are shared with other tenants, the same Python
work takes either its normal time or about 1.7 times as long, switching
every few milliseconds, and the share of slow time drifts within seconds
and over minutes. Measured on a 2-core shared VM, that drift moved the
median attack latency of whole 30 s runs by up to a third. A run therefore
samples a fixed probe after every timed operation, outside the timed
region, and divides each operation's time by the slowdown around it: the
mean probe time of the nearby samples over FAST_PROBE_S. The probe is
benchmark code, and it runs with the garbage collector paused, so nothing
gridjam does can change its cost.

FAST_PROBE_S is a constant, not the fastest probe of the run, because a
run can spend all of its time in one state; a reference taken from the run
itself then sees no slowdown at all.
"""

import gc
import heapq
import statistics
import time

PROBE_SIDE = 16
LOCAL_REACH = 10
# The probe's time in the fast state of the VM the benchmark was tuned on
# (2 shared cores, Python 3.11): the 1st percentile of 16,700 probes. The
# corrected times are therefore those of that VM with a core to itself.
FAST_PROBE_S = 0.28e-3


def _probe():
    """Dijkstra on a fixed 16x16 weighted grid: the heap and dict work A* does."""
    dist = {0: 0}
    heap = [(0, 0)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        row, col = divmod(node, PROBE_SIDE)
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            r, c = row + dr, col + dc
            if 0 <= r < PROBE_SIDE and 0 <= c < PROBE_SIDE:
                nxt = r * PROBE_SIDE + c
                nd = d + 1 + nxt % 3
                if nd < dist.get(nxt, nd + 1):
                    dist[nxt] = nd
                    heapq.heappush(heap, (nd, nxt))
    return len(dist)


class SpeedProbe:
    """Probe timings of one run, and the slowdowns they imply."""

    def __init__(self):
        self.samples = []  # the mean probe time of each sample() call
        self.spent = 0.0  # wall seconds inside sample(), to subtract from enclosing timings

    def sample(self, count=3):
        t_start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(count):
                _probe()
            self.samples.append((time.perf_counter() - t0) / count)
        finally:
            if enabled:
                gc.enable()
        self.spent += time.perf_counter() - t_start

    def slowdown(self, first=0, last=None):
        """Mean of samples [first:last] over FAST_PROBE_S."""
        return statistics.fmean(self.samples[first:last]) / FAST_PROBE_S

    def local_slowdowns(self, first=0, last=None):
        """The slowdown around each of samples [first:last].

        Each is the mean of the LOCAL_REACH samples on either side and the
        sample itself; a sample follows one operation, so this spans from
        half a second to two seconds of work.
        """
        window = self.samples[first:last]
        return [
            statistics.fmean(window[max(0, i - LOCAL_REACH):i + LOCAL_REACH + 1]) / FAST_PROBE_S
            for i in range(len(window))
        ]

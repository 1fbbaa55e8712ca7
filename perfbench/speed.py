"""Machine-speed calibration of the benchmark's timings.

On shared hardware the same computation can run 1.5-2 times slower while
co-located load is busy, in bursts from a few tenths of a second to tens
of seconds that come and go independently of the program under test.
Raw wall times then vary by 15-40% from run to run.  A
:class:`SpeedProbe` thread therefore times a fixed reference computation
every :data:`PERIOD_S` on the CPU the benchmark is pinned to, and
:meth:`SpeedProbe.seconds` scales a measured interval by the mean of
``REFERENCE_S / r`` over the reference durations ``r`` sampled during
it.  On an uncontended machine, where the reference takes about
:data:`REFERENCE_S`, the result is plain wall time.

The reference is benchmark code, not solver code, so that no change to
the solver can move it; it allocates and links small objects, which is
the kind of work the solver does and the kind these bursts slow most.
"""

import bisect
import gc
import os
import statistics
import threading
import time

REFERENCE_S = 0.00027
"""Duration of :func:`reference` that normalized timings are scaled to:
its lower quartile, between bursts, on the 2-core Xeon VM the bounds in
BENCHMARK.json were set on."""
PERIOD_S = 0.05
"""Slow bursts last from a few tenths of a second to tens of seconds;
a sample every 50 ms follows them at a cost of about 0.5% of the CPU."""


class _Node:
    __slots__ = ("key", "value", "links")

    def __init__(self, key, value, links):
        self.key = key
        self.value = value
        self.links = links


def reference():
    """The fixed computation whose duration measures machine speed."""
    table = {}
    nodes = []
    for i in range(400):
        node = _Node(i % 101, (i, -i), [])
        previous = table.get(node.key)
        if previous is not None:
            previous.links.append(node)
        table[node.key] = node
        nodes.append(node)
    return sum(len(n.links) for n in nodes) + len({n.value for n in nodes})


def pin_to_one_cpu():
    """Confine the calling thread, the threads it starts and the
    processes it spawns to one CPU, so the probe measures the CPU that
    runs the work."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _sample():
    """One reference duration in this thread's CPU time (time another
    thread or process takes on the CPU does not count), with the
    collector off so that a collection of the program's heap does not
    count either."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        began = time.thread_time()
        reference()
        return time.thread_time() - began
    finally:
        if collecting:
            gc.enable()


class SpeedProbe(threading.Thread):
    """Samples the reference duration until :meth:`close`."""

    def __init__(self):
        super().__init__(name="perfbench-speed-probe", daemon=True)
        self._times = []          # perf_counter() at each sample
        self._samples = []        # reference seconds
        self._closing = threading.Event()
        self._guard = threading.Lock()

    def run(self):
        while not self._closing.wait(PERIOD_S):
            self._record()

    def _record(self):
        at = time.perf_counter()
        duration = _sample()
        with self._guard:
            self._times.append(at)
            self._samples.append(duration)

    def close(self):
        self._closing.set()
        self.join()

    def factor(self, start, end):
        """Mean of ``REFERENCE_S / r`` over the samples taken during the
        interval ``[start, end]`` (``perf_counter`` readings), or the
        nearest sample to a shorter one: the average speed, so an
        interval that spans a change of speed is scaled by both speeds in
        proportion."""
        if not self._samples:
            self._record()
        with self._guard:
            times, samples = self._times, self._samples
            lo = bisect.bisect_left(times, start - PERIOD_S / 2)
            hi = bisect.bisect_right(times, end + PERIOD_S / 2)
            near = samples[lo:hi]
            if not near:
                middle = (start + end) / 2
                near = [min(zip(times, samples),
                            key=lambda pair: abs(pair[0] - middle))[1]]
        return statistics.fmean(REFERENCE_S / r for r in near)

    def summary(self):
        """Sample count and reference-duration quartiles, for the
        ledger."""
        with self._guard:
            samples = list(self._samples)
        if len(samples) < 2:
            return {"samples": len(samples)}
        q1, q2, q3 = statistics.quantiles(samples, n=4)
        return {"samples": len(samples), "reference_q1_s": q1,
                "reference_median_s": q2, "reference_q3_s": q3}

    def seconds(self, start, end):
        """The interval ``[start, end]`` in seconds at reference speed."""
        return (end - start) * self.factor(start, end)

"""Speed gauge: how fast this machine runs Python right now.

On a shared host the speed of one core drifts by up to 2x within a few
seconds, and the drift swamps any difference between two commits.  The
gauge times a fixed pure-Python task between the benchmark's operations.
An operation's time is then rescaled to a machine on which that task takes
``REFERENCE_S``: its measured time x REFERENCE_S / the median duration of
the gauge samples on either side of it.  A change to ``semidist`` does not
touch the task, so it shows in full; a slower or faster host does not.
Unscaled figures are kept in the details line of every run.

The task mixes an integer loop with frozen-dataclass, tuple and dict
churn, the kind of work ``semidist`` does per call.  On ten 20 s runs of
mc_sweep this mix left a 2.6 % spread between quartiles, against 3.6 %
for either half alone and 13 % unscaled.
"""

import bisect
import math
import multiprocessing
import statistics
import time
from dataclasses import dataclass

# About the task's duration on a shared 2-core Intel Xeon host; it only
# fixes the unit of the scaled times.
REFERENCE_S = 0.003


@dataclass(frozen=True)
class _Point:
    a: float
    b: float


def reference_task() -> float:
    total = 0
    for i in range(20_000):
        total += i * i % 7
    table = {}
    for i in range(2_250):
        p = _Point(i * 0.5, i + 1.0)
        table[i % 97] = (p.a, p.b, math.sqrt(p.b))
    return total + sum(v[2] for v in table.values())


def _helper(conn) -> None:
    """Run the reference task on request and send back its duration."""
    while conn.recv():
        start = time.perf_counter()
        reference_task()
        conn.send(time.perf_counter() - start)


class SpeedGauge:
    """Samples of the reference task, taken at most every ``interval`` s.

    With ``cores`` > 1 each sample runs the task on that many cores at
    once (here and in ``cores - 1`` helper processes) and records the mean
    duration: a workload that keeps two cores busy runs at the speed of a
    loaded machine, not at the single-core boost speed.  Call ``close``
    to stop the helpers.
    """

    def __init__(self, interval: float = 0.1, cores: int = 1) -> None:
        self.interval = interval
        self.ends: list[float] = []
        self.took: list[float] = []
        self._pipes = []
        self._helpers = []
        context = multiprocessing.get_context("spawn")
        for _ in range(cores - 1):
            mine, theirs = context.Pipe()
            helper = context.Process(target=_helper, args=(theirs,), daemon=True)
            helper.start()
            self._pipes.append(mine)
            self._helpers.append(helper)
        if self._helpers:
            self.sample()  # waits until the helpers are up
            self.ends.clear()
            self.took.clear()
        self.sample()

    def sample(self) -> None:
        for pipe in self._pipes:
            pipe.send(True)
        start = time.perf_counter()
        reference_task()
        end = time.perf_counter()
        durations = [end - start] + [pipe.recv() for pipe in self._pipes]
        self.ends.append(end)
        self.took.append(statistics.fmean(durations))

    def close(self) -> None:
        for pipe in self._pipes:
            pipe.send(False)
        for helper in self._helpers:
            helper.join(timeout=10)
            if helper.is_alive():
                helper.kill()
                helper.join()

    def tick(self) -> None:
        """Take a sample if the last one is older than the interval."""
        if time.perf_counter() - self.ends[-1] >= self.interval:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor for a span [start, end]: REFERENCE_S over the median of
        the three samples before it, those inside it and the three after it
        (a median, because a sample hit by a context switch reads long)."""
        first = bisect.bisect_right(self.ends, start) - 3
        last = bisect.bisect_left(self.ends, end) + 3
        return REFERENCE_S / statistics.median(self.took[max(0, first) : last])

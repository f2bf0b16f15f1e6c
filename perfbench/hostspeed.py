"""Host-speed sampler: scales a job's wall time to a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host.  Other tenants slow a
vCPU down by up to about 2x, in bursts of tens of milliseconds to seconds,
so the wall time of the same job moves by 30 % and more from one run to the
next.  A second vCPU does not see the same bursts, so the speed cannot be
measured next to the job; it has to be measured on the job's own thread.

``Sampler.start`` arms a 10 ms interval timer.  Each SIGALRM runs a fixed
piece of pure-Python work (``_kernel``, about 0.25 ms) between two
bytecodes of the program and records how long it took.
``Sampler.scaled(a, b)`` then turns the wall interval [a, b] into seconds
at reference speed (``Sampler.clock`` gives the same for many intervals
at once): the time the kernel ran is left out, and each stretch of program
time between two kernel runs is multiplied by ``REF_KERNEL_S`` divided by
the mean duration of those two runs.  On a quiet host the
result is close to the wall time minus the sampler's own ~3 %; under
contention the slowdown the kernel sees is divided out.  Nothing about the
program enters the scale, so a faster program still reads faster.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01
_MODULUS = 10**60 + 7
# Duration of _kernel at reference speed: about its 5th percentile on the 2-vCPU
# Xeon (2.1 GHz, Python 3.11) the baselines in results/ were measured on.
REF_KERNEL_S = 2.0e-4


def _kernel() -> int:
    """A fixed mix of the work twotor's own Python code does.

    An integer loop, modular squaring of 60-digit integers (as in factoring)
    and building small tuples and a dict.  Contention slows these three by
    different factors; scaled by the integer loop alone, the measured job
    times still rose with the slowdown.
    """
    s = 0
    for i in range(1000):
        s += i * i
    x = 3**150
    for _ in range(150):
        x = (x * x + 1) % _MODULUS
    rows = [(i, i + 1.5, "r%d" % i) for i in range(200)]
    return s + x + len({r[2]: r for r in rows})


class Sampler:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside the kernel itself is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def kernel_median_s(self) -> float:
        """Median duration of the kernel over the samples taken so far."""
        durations = sorted(e - s for s, e in zip(self.starts, self.ends))
        return durations[len(durations) // 2] if durations else float("nan")

    def clock(self, times):
        """Map wall times (``perf_counter`` readings) to the scaled clock.

        The scaled clock stands still while the kernel runs.  Between the
        end of sample i - 1 and the start of sample i it runs at
        ``REF_KERNEL_S`` divided by the mean duration of those two samples;
        before the first and after the last sample, at the speed of that one
        sample.  Without samples it is the wall clock.  The scaled time of a
        wall interval [a, b] is ``clock(b) - clock(a)``.
        """
        import numpy as np  # not at module level: the child times the program's imports

        times = np.asarray(times, dtype=np.float64)
        if not self.starts:
            return times
        starts, ends = np.array(self.starts), np.array(self.ends)
        cost = ends - starts
        rate = REF_KERNEL_S / ((cost[:-1] + cost[1:]) / 2)
        at = np.concatenate(([0.0], np.cumsum((starts[1:] - ends[:-1]) * rate)))
        # one far knot on each side stands for the speed of the edge sample
        far = 1e6
        x = np.concatenate(([starts[0] - far], np.column_stack((starts, ends)).ravel(),
                            [ends[-1] + far]))
        y = np.concatenate(([-far * REF_KERNEL_S / cost[0]], np.repeat(at, 2),
                            [at[-1] + far * REF_KERNEL_S / cost[-1]]))
        return np.interp(times, x, y)

    def scaled(self, a: float, b: float) -> float:
        """Program time in the wall interval [a, b], in seconds at reference speed."""
        ca, cb = self.clock([a, b])
        return float(cb - ca)

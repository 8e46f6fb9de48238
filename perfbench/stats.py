"""Small summary helpers shared by both processes."""

from __future__ import annotations

import struct
import threading
import time

from repro.util.stats import percentile


def summary(values) -> dict:
    """Median, p99 and the sample count (p99 needs >= 1000 samples to have
    ten beyond it; the count is reported so a reader can check); zeros
    for no samples."""
    if not values:
        return {"p50": 0.0, "p99": 0.0, "n": 0}
    return {"p50": percentile(values, 50), "p99": percentile(values, 99), "n": len(values)}


#: Iterations of the probe's fixed piece of interpreter work: dict stores
#: of struct-packed bytes, which allocate nothing the cyclic GC tracks,
#: so a sample never runs a collection.
_PROBE_LOOPS = 600

#: A probe sample's CPU time at the host speed the figures are reported
#: at: a typical reading on the 2-core KVM Xeon guest the benchmark was
#: built on.
PROBE_REF_NS = 200_000


class SpeedProbe:
    """Samples how fast this process's CPU runs Python while a round runs.

    On a shared host the speed of a CPU swings by up to 2x from one tenth
    of a second to the next (another tenant on the sibling hyperthread
    does not show as steal time) and drifts from minute to minute.  A
    thread times the same ~0.2 ms of interpreter work every *period_s*;
    the mean of the samples that fall in a window is the window's
    slowdown against ``PROBE_REF_NS``.  The samples cost about 1% of the
    CPU, and their CPU time is known (:meth:`cpu_s`), so it can be taken
    out of a process total.
    """

    def __init__(self, period_s: float = 0.02) -> None:
        #: ``(start as time.time_ns, thread CPU ns, elapsed ns)`` per sample.
        self.samples: list[tuple[int, int, int]] = []
        self._period_s = period_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        pack = struct.Struct("<IIq").pack
        while True:
            w0 = time.time_ns()
            e0 = time.perf_counter_ns()
            c0 = time.thread_time_ns()
            table = {}
            for i in range(_PROBE_LOOPS):
                table[i & 1023] = pack(i, i ^ 0x5BD1, i * 7)
            c1 = time.thread_time_ns()
            self.samples.append((w0, c1 - c0, time.perf_counter_ns() - e0))
            if self._stop.wait(self._period_s):
                return

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _window(self, t0: int, t1: int) -> list[tuple[int, int, int]]:
        # A window too short to hold a sample takes the nearest one.
        inside = [s for s in self.samples if t0 <= s[0] <= t1]
        return inside or [min(self.samples, key=lambda s: abs(s[0] - t0))]

    def slowdown(self, t0: int, t1: int, elapsed: bool = False) -> float:
        """Mean sample time in ``[t0, t1]`` over ``PROBE_REF_NS``: by CPU
        time, or with *elapsed* by elapsed time, which also counts time
        the hypervisor gave the CPU to another guest."""
        window = self._window(t0, t1)
        return sum(s[2 if elapsed else 1] for s in window) / len(window) / PROBE_REF_NS

    def cpu_s(self, t0: int, t1: int) -> float:
        """CPU time the samples in ``[t0, t1]`` took."""
        return sum(s[1] for s in self.samples if t0 <= s[0] <= t1) / 1e9

"""Speed probes that put times measured on a drifting host on one scale.

The host's speed drifts by up to half between phases lasting a few seconds
(other tenants on shared cores; no steal time is visible), often in the
middle of an operation, and no statistic over one run removes that.  So a
probe process pinned to each CPU the benchmark uses times a fixed
pure-Python loop every ``PROBE_INTERVAL_S`` while the benchmark runs.  A time
measured from ``t0`` to ``t1`` is then reported at reference speed:

    (t1 - t0) * CAL_REF_S * mean(1 / loop time of the probes near [t0, t1])

that is, the work the host did in the interval divided by the reference
speed.  Such times compare between runs and commits on one machine; they
are not wall seconds, which the record keeps alongside.  The probes take a
few percent of their CPU, the same share on every run.

Run as a script, this module is one probe: ``python3 calib.py <cpu>`` pins
itself to ``cpu``, samples until its standard input closes, then prints one
``<perf_counter> <loop seconds>`` line per sample.
"""

import bisect
import os
import select
import subprocess
import sys
import time

#: Loop iterations of one calibration unit (about 60 microseconds).
CAL_LOOPS = 1000

#: Units per sample.  The sample is their median: a unit the scheduler
#: interrupts (the probe shares its CPU with the client) is an outlier.
CAL_UNITS = 9

#: Reference time of one calibration unit, close to its fastest time on the
#: baseline machine (2.1 GHz Xeon VM, Python 3.11).
CAL_REF_S = 6.25e-5

#: Pause between two probe samples.
PROBE_INTERVAL_S = 0.05

_TABLE = (0, 1, 2, 3, 4, 6)


def _unit() -> int:
    points = [0] * 6
    carries = 0
    for i in range(CAL_LOOPS):
        c = i % 6
        points[c] += _TABLE[c]
        if points[c] > 40:
            points[c] -= 40
            carries += 1
    return carries


def _sample() -> tuple[float, float]:
    """Midpoint time and median unit time of one sample."""
    start = time.perf_counter()
    times = []
    for _ in range(CAL_UNITS):
        t = time.perf_counter()
        _unit()
        times.append(time.perf_counter() - t)
    times.sort()
    return (start + time.perf_counter()) / 2, times[CAL_UNITS // 2]


def _probe(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    samples = []
    stdin = sys.stdin.fileno()
    while True:
        samples.append(_sample())
        ready, _, _ = select.select([stdin], [], [], PROBE_INTERVAL_S)
        if ready and not os.read(stdin, 64):
            break
    sys.stdout.write("".join(f"{t!r} {c!r}\n" for t, c in samples))


class Probes:
    """One probe process per CPU; ``stop`` ends them and returns a scale."""

    def __init__(self, cpus):
        self.procs = [
            subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), str(cpu)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            for cpu in cpus
        ]

    def stop(self) -> "SpeedScale":
        samples = []
        for proc in self.procs:  # communicate() closes stdin, which ends the probe
            try:
                out, _ = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
            if proc.returncode != 0:
                raise RuntimeError(f"speed probe exited with code {proc.returncode}")
            samples.extend(tuple(map(float, line.split())) for line in out.splitlines())
        return SpeedScale(samples)

    def kill(self) -> None:
        """Stop every probe that is still running, without reading it."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


class SpeedScale:
    """Converts wall intervals to reference seconds from probe samples."""

    def __init__(self, samples):
        samples = sorted(samples)
        if not samples:
            raise RuntimeError("no speed probe samples")
        self.times = [t for t, _ in samples]
        self.speeds = [1.0 / c for _, c in samples]

    def factor(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second over ``[t0, t1]``.

        Uses every sample within one and a half probe intervals of the
        interval, so a short interval still sees the samples on each side.
        """
        margin = 1.5 * PROBE_INTERVAL_S
        lo = bisect.bisect_left(self.times, t0 - margin)
        hi = bisect.bisect_right(self.times, t1 + margin)
        if lo == hi:  # no sample near: take the nearest one
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        return CAL_REF_S * sum(self.speeds[lo:hi]) / (hi - lo)

    def seconds(self, t0: float, t1: float) -> float:
        return (t1 - t0) * self.factor(t0, t1)


if __name__ == "__main__":
    _probe(int(sys.argv[1]))

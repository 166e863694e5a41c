"""Helpers shared by the benchmark workloads: paths, statistics, the host's
speed, forked operations and the result a workload returns."""
from __future__ import annotations

import bisect
import math
import os
import pickle
import resource
import select
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)          # the checkout the benchmark measures
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
OUT = os.path.join(HERE, "out")       # run artifacts (reports, spans, layer tables)


def checkout_is_complete() -> bool:
    """The package sources and the test oracles must both be present."""
    return (os.path.isfile(os.path.join(SRC, "sigmagroups", "__init__.py"))
            and os.path.isfile(os.path.join(TESTS, "oracles.py")))


def use_checkout() -> None:
    """Import sigmagroups and the oracles from the checkout's own sources."""
    for path in (TESTS, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


def out_path(name: str) -> str:
    os.makedirs(OUT, exist_ok=True)
    return os.path.join(OUT, name)


# ---------------------------------------------------------------------------
# statistics

def quantile(values: list[float], p: float) -> float:
    """The p-quantile by the Harrell-Davis estimator: a mean of all the
    sorted values, weighted by a Beta(p(n+1), (1-p)(n+1)) density.

    A run's times fall in clusters (one per group family, or per insoluble
    group), and the plain quantile jumps from one cluster to the next when a
    value crosses the boundary; the weighted mean moves smoothly.  Below ten
    values, the plain interpolated quantile.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    if n < 10:
        return statistics.quantiles(xs, n=100, method="inclusive")[round(100 * p) - 1]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    steps = 8   # Simpson's rule on each interval [(i-1)/n, i/n]
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        ys = [density(lo + k * h) for k in range(steps + 1)]
        weights.append(h / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2])))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def p50(values: list[float]) -> float:
    return quantile(values, 0.5)


def p90(values: list[float]) -> float:
    return quantile(values, 0.9)


def rss_mib(ru_maxrss_kib: int) -> float:
    return ru_maxrss_kib / 1024.0


def self_peak_rss_mib() -> float:
    return rss_mib(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


# ---------------------------------------------------------------------------
# the host's speed
#
# The benchmark shares a few CPUs of a host whose speed changes from one
# second to the next and drifts over minutes, by up to twice.  Every timing
# is therefore taken on one CPU and scaled by the host's speed while it ran,
# sampled on that CPU with a fixed reference kernel: a time in reference
# seconds is what the work would have taken had the kernel run in REF_S
# throughout.  The kernel is pure-Python work like the program's own (tuple
# permutations in a set), and the program's changes do not touch it, so a
# faster or slower program moves the scaled figures and a faster or slower
# host does not.  A sample is taken after every operation, and every
# SAMPLE_EVERY_S inside a long child, which is paused for it; an operation's
# speed is the mean of the samples taken just before, during and just after
# it.  The host's speed holds for a fraction of a second to a few seconds, so
# samples a second away tell less about an operation than adjacent ones.

REF_S = 0.010           # the reference kernel's seconds at reference speed
SAMPLE_EVERY_S = 0.5    # inside a child, a sample this often
WINDOW_S = 0.05         # samples this close to an operation set its speed


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU, so that
    speed samples and the work they scale run on the same CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _reference_kernel() -> int:
    """Close S_7 under a transposition and a 7-cycle, as image tuples."""
    n = 7
    gens = ((1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,))
    start = tuple(range(n))
    seen, todo = {start}, [start]
    while todo:
        p = todo.pop()
        for g in gens:
            q = tuple(g[i] for i in p)
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return len(seen)


class Speedometer:
    """A timeline of speed samples on this process's CPU, and of the pauses
    of children taken for them."""

    def __init__(self):
        for _ in range(3):      # warm the kernel's code paths
            _reference_kernel()
        self.at: list[float] = []          # perf_counter of each sample
        self.speeds: list[float] = []      # share of reference speed
        self.pauses: list[tuple[float, float]] = []
        self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        _reference_kernel()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.speeds.append(REF_S / (t1 - t0))

    def speed(self, start: float, end: float) -> float:
        """Mean speed of the samples from WINDOW_S before start to WINDOW_S
        after end, or of the nearest sample on each side if there are none."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), hi + 1
        return statistics.fmean(self.speeds[lo:hi])

    def scaled(self, start: float, end: float, seconds: float | None = None) -> float:
        """Reference seconds of work that ran from start to end (perf_counter
        readings): seconds if given, else the interval less its pauses,
        times the speed around it.  Take a sample after the work first."""
        if seconds is None:
            seconds = end - start - sum(max(0.0, min(end, b) - max(start, a))
                                        for a, b in self.pauses)
        return seconds * self.speed(start, end)

    def mean(self) -> float:
        return statistics.fmean(self.speeds)


def wait_sampled(pid: int, speedo: Speedometer, fds: tuple = ()) -> None:
    """Until child pid (on this process's CPU) exits or one of fds is
    readable, pause it every SAMPLE_EVERY_S for a speed sample.  The child
    is left unreaped."""
    exited = os.pidfd_open(pid)
    stopped = False
    try:
        while not select.select([exited, *fds], [], [], SAMPLE_EVERY_S)[0]:
            os.kill(pid, signal.SIGSTOP)
            stopped = True
            info = os.waitid(os.P_PID, pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
            if info.si_code != os.CLD_STOPPED:
                break
            os.waitid(os.P_PID, pid, os.WSTOPPED)   # take the stop report
            p0 = time.perf_counter()
            speedo.sample()
            os.kill(pid, signal.SIGCONT)
            stopped = False
            speedo.pauses.append((p0, time.perf_counter()))
    finally:
        os.close(exited)
        if stopped:         # never leave the child paused
            os.kill(pid, signal.SIGCONT)


# ---------------------------------------------------------------------------
# forked operations

@dataclass
class ForkResult:
    ok: bool
    value: object            # the function's return value, or the error text
    peak_rss_mib: float      # the child's own peak RSS


def run_forked(fn, *args, speedo: Speedometer | None = None) -> ForkResult:
    """Run fn(*args) in a forked child and return its pickled result.

    The child inherits the parent's imports and nothing computed after the
    fork survives it, so every call starts from the parent's state.  The
    caller must be single-threaded.  With a speedo, the child is paused for
    speed samples while it runs (wait_sampled).
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        os.close(rfd)
        try:
            payload = pickle.dumps((True, fn(*args)))
        except Exception as exc:  # reported to the parent as a failed operation
            payload = pickle.dumps((False, f"{type(exc).__name__}: {exc}"))
        with os.fdopen(wfd, "wb") as fh:
            fh.write(payload)
        os._exit(0)
    os.close(wfd)
    if speedo is not None:
        wait_sampled(pid, speedo, (rfd,))
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not data:
        return ForkResult(False, f"child exited with status {status}", rss_mib(usage.ru_maxrss))
    ok, value = pickle.loads(data)
    return ForkResult(ok, value, rss_mib(usage.ru_maxrss))


# ---------------------------------------------------------------------------
# results

@dataclass
class Sample:
    """One reported metric: its value, unit, and how many samples it summarises."""
    value: float
    unit: str
    samples: int


@dataclass
class Outcome:
    """What a workload run returns to run.py."""
    attempted: int
    failed: int
    base: str                                   # what one attempted operation is
    problems: list[str] = field(default_factory=list)   # failed correctness checks
    metrics: dict[str, Sample] = field(default_factory=dict)
    aliases: dict[str, str] = field(default_factory=dict)  # per-workload name -> metric
    speed: float | None = None   # the host's mean sampled speed, for untraced runs

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

"""Shared helpers: checkout layout, the homalg import guard, child processes
and the statistics every workload reports.

Everything here is standard library only.  The benchmark runs from the root
of a checkout and reads and writes nothing outside it.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden"
OUT = ROOT / ".perfbench_out"

# One fixed tail percentile, so the tail means the same thing in every run.
# It has at least ten samples beyond it only for classes of 100 items or more;
# README lists the classes where it has fewer, and every results file states
# each class's item count.
TAIL_PCT = 90


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no homalg sources next to us)."""


def import_homalg():
    """Import homalg from the checkout's src tree, never from elsewhere."""
    if not (SRC / "homalg" / "__init__.py").is_file():
        raise SetupError(f"no homalg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import homalg

    if Path(homalg.__file__).resolve().parent != (SRC / "homalg").resolve():
        raise SetupError(f"homalg imported from {homalg.__file__}, not {SRC}")
    return homalg


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, workdir, timeout=120.0):
    """Run one child to completion; returns (exit code, stdout, stderr,
    wall seconds, peak RSS in MB of that child alone).

    Output goes through files in `workdir` and the child is reaped with
    wait4, so its own rusage is read rather than the sum over all children.
    """
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                cwd=str(ROOT), env=child_env())
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"), wall, usage.ru_maxrss / 1024.0)


_SETUP_PROBE = (
    "import json, time\n"
    "t0 = time.perf_counter()\n"
    "import homalg\n"
    "t1 = time.perf_counter()\n"
    "n = len(homalg.catalog())\n"
    "t2 = time.perf_counter()\n"
    "print(json.dumps({'import_s': t1 - t0, 'catalog_s': t2 - t1, 'entries': n}))\n"
)


def measure_setup(workdir, clock, repeats=3):
    """Import homalg plus the first catalog() build, each in a fresh process.

    Returns the per-process samples, raw and at reference speed (the clock is
    calibrated right before and right after each child); the caller reports
    their median.
    """
    samples = []
    for _ in range(repeats):
        before = clock.calibrate(3)
        code, out, err, _, _ = run_child([sys.executable, "-c", _SETUP_PROBE], workdir)
        after = clock.calibrate(3)
        if code != 0:
            raise SetupError(f"set-up probe failed with exit {code}: {err.strip()[-400:]}")
        doc = json.loads(out.strip().splitlines()[-1])
        doc["raw_s"] = doc["import_s"] + doc["catalog_s"]
        doc["setup_s"] = doc["raw_s"] * REFERENCE_MS / ((before + after) / 2)
        samples.append(doc)
    return samples


# ---------------------------------------------------------------------------
# machine speed
#
# The 2-CPU virtual machine the baseline was measured on changes speed by 20-35% from one
# minute to the next (other tenants share its cores), and CPU time drifts as
# much as wall time.  A run therefore calibrates the machine with a fixed
# pure-Python reference loop between operations and reports every time at
# reference speed: measured time * REFERENCE_MS / reference-loop time nearby.
# The loop shares no code with homalg, so a change to homalg moves the
# reported times exactly as it moves the raw ones; results files keep both.

REFERENCE_MS = 3.0   # the reference loop's time on the machine the baseline used
CALIBRATE_EVERY_S = 0.2
WINDOW_S = 1.0


class _Vec:
    __slots__ = ("n", "d")

    def __init__(self, n, d):
        self.n, self.d = n, d

    def __eq__(self, other):
        return all(x * other.d == y * self.d for x, y in zip(self.n, other.n))


def _apply(tensor, x, y):
    out = [0] * len(x.n)
    for i, xi in enumerate(x.n):
        if not xi:
            continue
        plane = tensor[i]
        for j, yj in enumerate(y.n):
            if not yj:
                continue
            s = xi * yj
            for k, c in enumerate(plane[j]):
                if c:
                    out[k] += s * c
    return _Vec(tuple(out), x.d * y.d)


_DIM = 6
_TENSOR = [[[((i * 5 + j * 3 + k) % 7) - 3 for k in range(_DIM)] for j in range(_DIM)]
           for i in range(_DIM)]
_BASIS = [_Vec(tuple(int(i == j) for j in range(_DIM)), 1) for i in range(_DIM)]


def reference_loop():
    """A frozen miniature of homalg's hot path (basis-tuple enumeration,
    structure-tensor products on small-int tuples, a per-tuple memo and a
    cross-multiplied equality), so the machine's speed is read on the same
    kind of work.  It shares no code with homalg and never changes with it."""
    same = 0
    for x in _BASIS:
        for y in _BASIS:
            memo = {}
            for z in _BASIS:
                xy = memo.get(id(y))
                if xy is None:
                    xy = memo[id(y)] = _apply(_TENSOR, x, y)
                lhs = _apply(_TENSOR, xy, z)
                rhs = _apply(_TENSOR, x, _apply(_TENSOR, y, z))
                same += lhs == rhs
    return same


class SpeedClock:
    """Reference-loop samples over a run, and the factor that turns a time
    measured at some moment into a time at reference speed."""

    def __init__(self):
        self.at, self.ms = [], []
        self.last = -math.inf

    def calibrate(self, repeats=1):
        """Run the reference loop; returns the median of this call's samples."""
        got = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            reference_loop()
            t1 = time.perf_counter()
            self.at.append((t0 + t1) / 2)
            self.ms.append((t1 - t0) * 1000.0)
            got.append(self.ms[-1])
        self.last = time.perf_counter()
        return median(got)

    def tick(self):
        """Between operations: calibrate if the last sample is old, with three
        samples after a long operation, whose time rests on few samples."""
        idle = time.perf_counter() - self.last
        if idle >= CALIBRATE_EVERY_S:
            self.calibrate(3 if idle > 1.0 else 1)

    def factor(self, t):
        """REFERENCE_MS over the median loop time within WINDOW_S of t
        (at least the three samples nearest t)."""
        lo = bisect.bisect_left(self.at, t - WINDOW_S)
        hi = bisect.bisect_right(self.at, t + WINDOW_S)
        while hi - lo < 3 and (lo > 0 or hi < len(self.at)):
            if lo > 0 and (hi == len(self.at) or t - self.at[lo - 1] < self.at[hi] - t):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_MS / median(self.ms[lo:hi])

    def normalize(self, records):
        """Rewrite each record's ms at reference speed, keeping raw_ms;
        returns the records."""
        for r in records:
            if "t0" not in r:   # a crashed operation has no time
                continue
            r["raw_ms"] = r["ms"]
            r["ms"] = r["ms"] * self.factor(r["t0"] + r["ms"] / 2000.0)
        return records


def self_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# statistics

# Each run times a fixed set of distinct items (116 catalog outputs, 11 files,
# ...) whose costs differ item by item, so the order statistic at a given
# rank jumps from one item to the next whenever noise reorders two of them.
# A percentile is therefore read as the mean of the order statistics within
# BAND percentage points of it, which a swap inside the band does not move;
# with nine items or more the band holds at least three of them.
BAND = 5


def percentile(values, pct):
    """Mean of the sorted values whose rank lies within BAND points of pct."""
    ordered = sorted(values)
    n = len(ordered)
    lo = max(0, math.ceil((pct - BAND) * n / 100) - 1)
    hi = min(n, max(lo + 1, math.ceil((pct + BAND) * n / 100)))
    while n >= 9 and hi - lo < 3:
        lo, hi = (lo - 1, hi) if hi == n or (lo > 0 and (hi - lo) % 2) else (lo, hi + 1)
    return sum(ordered[lo:hi]) / (hi - lo)


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def latency_summary(ms_values):
    """p50 and tail of a latency sample, with its size and how many samples
    lie beyond the tail percentile."""
    n = len(ms_values)
    return {
        "p50": percentile(ms_values, 50),
        "tail": percentile(ms_values, TAIL_PCT),
        "tail_pct": TAIL_PCT,
        "n": n,
        "beyond_tail": n - math.ceil(TAIL_PCT * n / 100),
    }

"""How the cost of a file of constant size grows with its declared dimension.

    python3 tools/scaling.py --dims 500 1000 2000

Run from anywhere; it works in the checkout it sits in (homalg from src/).
For each N it writes the 4-line file with one product entry and one
`alpha` entry,

    algebra big dim N
      op mul: e1 * e1 = e1
      map alpha: e1 = e1
    end

and prints one JSON line:
  - `parse_ms`: `dsl.parse` of the text, the median of 5 runs;
  - `parse_kept_bytes` and `parse_peak_bytes`: what that parse keeps once it
    returns and its peak, under tracemalloc, after one unmeasured parse of
    the same text, so that module caches are warm;
  - `table_ms` and `table_ops`: the first table build on a freshly parsed
    tensor, `engine._tensor(t, "P")`, which builds the row and column masks
    and then P and Q, the per-output masks a chain of twists reads: its time
    (the median of 5 fresh tensors) and the Python bytecode it runs
    (`tools/opcount.counted`, which repeats exactly);
  - `check_ops`: the bytecode of `certify(a, HOM_ASSOCIATIVE)` on a freshly
    parsed algebra, after one unmeasured check of another parse, so that
    the plan is compiled and the data is not;
  - `report_s` and `report_rss_mb`: the wall time and peak RSS of one
    `homalg report` on the file, as a fresh child process reaped with wait4
    by a bare launcher process (see `_LAUNCHER`), so its own rusage is read.

The counts in bytes and instructions repeat from run to run; the times
depend on the machine and its load.  Stdlib only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from homalg import dsl  # noqa: E402
from homalg.engine import _tensor  # noqa: E402
from homalg.varieties import VarietyTag, certify  # noqa: E402


def one_entry_file(n: int) -> str:
    """The 4-line file of dimension n with one product and one map entry."""
    return f"algebra big dim {n}\n  op mul: e1 * e1 = e1\n  map alpha: e1 = e1\nend\n"


def _algebra_of(text):
    return dsl.parse(text).get("big").value


def _tensor_of(text):
    return _algebra_of(text).product("mul")


def parse_memory(text):
    """(bytes a parse of text keeps, its peak bytes), over what was traced
    before it, after one unmeasured parse."""
    dsl.parse(text)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        source = dsl.parse(text)
        kept, peak = tracemalloc.get_traced_memory()
        del source
    finally:
        if not tracing:
            tracemalloc.stop()
    return kept - before, peak - before


def _counted(fn) -> int:
    """Bytecode instructions of fn(), by `tools/opcount.counted`."""
    spec = importlib.util.spec_from_file_location("opcount", ROOT / "tools" / "opcount.py")
    opcount = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(opcount)
    return opcount.counted(fn)[1]


def table_ops(text) -> int:
    """Bytecode instructions of the first table build on a fresh tensor."""
    tensor = _tensor_of(text)
    return _counted(lambda: _tensor(tensor, "P"))


def check_ops(text) -> int:
    """Bytecode instructions of a Hom-associativity check of a fresh
    algebra, its plan compiled by a check of another parse."""
    certify(_algebra_of(text), VarietyTag.HOM_ASSOCIATIVE)
    algebra = _algebra_of(text)
    return _counted(lambda: certify(algebra, VarietyTag.HOM_ASSOCIATIVE))


def _median_ms(fn, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


# Spawns argv, reaps it with wait4 and prints its exit code, wall seconds and
# ru_maxrss.  Linux starts a child's ru_maxrss at the high-water mark of the
# process that forks it, so the report is spawned from this bare interpreter,
# smaller than any child that imports homalg, not from the measuring process.
_LAUNCHER = """\
import os, subprocess, sys, time
t0 = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, time.perf_counter() - t0, usage.ru_maxrss)
"""


def run_report(path):
    """(exit code, wall seconds, peak RSS in MB) of `homalg report path` as a
    child process of this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "homalg",
                          "report", str(path)], capture_output=True, text=True, env=env,
                         check=True)
    code, wall, rss = out.stdout.split()
    return int(code), float(wall), int(rss) / 1024.0


def measure(n: int, report: bool = True) -> dict:
    """Every measure of the one-entry file at dimension n (see the module
    docstring); without `report`, no child process is run."""
    text = one_entry_file(n)
    kept, peak = parse_memory(text)
    fresh = iter([_tensor_of(text) for _ in range(5)])
    out = {"dim": n, "parse_ms": round(_median_ms(lambda: dsl.parse(text)), 3),
           "parse_kept_bytes": kept, "parse_peak_bytes": peak,
           "table_ms": round(_median_ms(lambda: _tensor(next(fresh), "P")), 3),
           "table_ops": table_ops(text), "check_ops": check_ops(text)}
    if report:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"dim{n}.halg"
            path.write_text(text, encoding="utf-8")
            code, wall, rss = run_report(path)
        out |= {"report_exit": code, "report_s": round(wall, 3), "report_rss_mb": round(rss, 1)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dims", type=int, nargs="+", default=[500, 1000, 2000], metavar="N")
    args = parser.parse_args(argv)
    if min(args.dims) < 1:
        parser.error("every dimension must be at least 1")
    for n in args.dims:
        print(json.dumps(measure(n), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

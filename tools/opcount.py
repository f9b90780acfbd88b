"""Bytecode instructions per operation class of one warm workload pass.

    python3 tools/opcount.py --workload loop-certifiers --seed 0

Run from anywhere; it works in the checkout it sits in.  It imports homalg
from the checkout's src/ and the benchmark's workloads from perfbench/
(unedited), prepares the workload for the seed and runs one pass untraced,
so that plans, compiled data and caches are as warm as in a timed run.  It
then runs one more pass with every Python bytecode instruction executed
inside a timed operation counted (sys.settrace with opcode events), and
prints one JSON line: the instructions per operation class ("a", "b"), the
operations per class, and how many operations raised (exit status 1 if
any did).

Wall-clock metrics on a shared machine spread by several percent; these
counts repeat exactly for one checkout, workload and seed, so a speed claim
can be checked against a second measure that no other process disturbs.
Work done in C (builtins, int and Fraction arithmetic) is not counted, so
read the counts as the interpreted work a change adds or removes.  The
cli-files workload runs its commands through homalg.cli.main in this
process, as the traced benchmark run does.  String hashing is fixed
(PYTHONHASHSEED=0, the script re-executes itself once to set it) so that
set iteration order, and with it the count, does not change between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class _Clock:
    """The workloads' speed clock, which a count does not need."""

    def tick(self):
        pass


def counted(fn):
    """(result, instructions executed by fn and everything it calls)."""
    count = 0

    def opcodes(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return opcodes

    def calls(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return opcodes(frame, event, arg)

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        out = fn()
    finally:
        sys.settrace(previous)
    return out, count


def count_pass(workload, seed):
    """{"ops": {cls: instructions}, "operations": {cls: n}, "errors": n}, with
    perfbench/ on the import path."""
    from common import import_homalg
    from workloads import WORKLOADS

    hl = import_homalg()
    with tempfile.TemporaryDirectory() as tmp:
        kwargs = {"in_process": True} if workload == "cli-files" else {}
        wl = WORKLOADS[workload](hl, seed, Path(tmp), _Clock(), **kwargs)
        wl.prepare()
        wl.run_pass()

        def timed(fn):
            out, n = counted(fn)
            return out, 0.0, n  # the count stands in for the milliseconds

        wl.timed = timed
        records = wl.run_pass()
    ops, operations = {}, {}
    for r in records:
        ops[r["cls"]] = ops.get(r["cls"], 0) + int(r["ms"])
        operations[r["cls"]] = operations.get(r["cls"], 0) + 1
    return {"ops": dict(sorted(ops.items())), "operations": dict(sorted(operations.items())),
            "errors": sum("error" in r for r in records)}


def main(argv=None):
    os.chdir(ROOT)  # perfbench finds the checkout from the working directory
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                  *(sys.argv[1:] if argv is None else argv)])
    result = count_pass(args.workload, args.seed)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **result}, sort_keys=True))
    return 1 if result["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())

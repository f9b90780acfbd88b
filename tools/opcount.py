"""Bytecode instructions per operation class of one warm workload pass.

    python3 tools/opcount.py --workload loop-certifiers --seed 0

Run from anywhere; it works in the checkout it sits in.  It imports homalg
from the checkout's src/ and the benchmark's workloads from perfbench/
(unedited), prepares the workload for the seed and runs one pass untraced,
so that plans, compiled data and caches are as warm as in a timed run.  It
then runs one more pass with every Python bytecode instruction executed
inside a timed operation counted (sys.settrace with opcode events), and
prints one JSON line: the instructions per operation class ("a", "b"), per
class the instructions of each operation key (`items`: {key: count}, an
operation that ran more than once in the pass added up), the operations per
class, how many operations raised (exit status 1 if any did), and per class
the engine's work in that pass (`work`): the `check_clauses` calls, how
many of them the verdict memo answered, and the summed `tuples_checked`,
`tuples_evaluated` and `prefixes_visited` of their reports.  The keys of a
class add up to its total, so a claim that rests on one item (a p50 or a
tail) can be checked as an exact count.  The work counters wrap every module binding of
`check_clauses`; the wrappers' own instructions are not counted, so the
instruction counts are those of an unwrapped pass, and a change can show
both that it did less work and that it ran less code.

With `--functions N` the line also holds, per class, the N code objects
that ran the most instructions in the counted pass (`functions`: pairs of
"file:line name" and count, most first, ties by name), so a change shows
which functions it took work out of.

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
import contextlib
import importlib
import json
import os
import pkgutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class _Clock:
    """The workloads' speed clock, which a count does not need."""

    def tick(self):
        pass


# code objects whose frames `counted` leaves out (the calls they make are counted)
UNCOUNTED = set()

WORK = ("check_clauses", "memo_answers", "tuples_checked", "tuples_evaluated",
        "prefixes_visited")


def counted(fn, by_code=None):
    """(result, instructions executed by fn and everything it calls, but
    not in the frames of UNCOUNTED code).  Given a dict `by_code`, each
    code object's instructions are also added to it."""
    count = 0

    def opcodes(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
            if by_code is not None:
                code = frame.f_code
                by_code[code] = by_code.get(code, 0) + 1
        return opcodes

    def calls(frame, event, arg):
        if frame.f_code in UNCOUNTED:
            return None
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


@contextlib.contextmanager
def engine_work():
    """While active, every `check_clauses` call, through any module's binding
    of it, adds to the yielded dict of WORK counters; a memo answer is a
    `_Shape.recall` that returns a verdict.  The wrappers are UNCOUNTED."""
    import homalg

    for info in pkgutil.iter_modules(homalg.__path__):
        if info.name != "__main__":  # running that module runs the CLI
            importlib.import_module(f"homalg.{info.name}")
    engine = sys.modules["homalg.engine"]
    check, recall = engine.check_clauses, engine._Shape.recall
    work = dict.fromkeys(WORK, 0)

    def check_clauses(*args, **kwargs):
        report = check(*args, **kwargs)
        work["check_clauses"] += 1
        work["tuples_checked"] += report.tuples_checked
        work["tuples_evaluated"] += report.tuples_evaluated
        work["prefixes_visited"] += report.prefixes_visited
        return report

    def recalled(self, bound):
        got = recall(self, bound)
        work["memo_answers"] += got is not None
        return got

    bindings = [m for name, m in sys.modules.items()
                if name.startswith("homalg.") and getattr(m, "check_clauses", None) is check]
    UNCOUNTED.update((check_clauses.__code__, recalled.__code__))
    for module in bindings:
        module.check_clauses = check_clauses
    engine._Shape.recall = recalled
    try:
        yield work
    finally:
        for module in bindings:
            module.check_clauses = check
        engine._Shape.recall = recall


def _label(code) -> str:
    """"file:line name" of a code object, the file relative to the checkout."""
    path = Path(code.co_filename)
    with contextlib.suppress(ValueError):
        path = path.resolve().relative_to(ROOT)
    return f"{path.as_posix()}:{code.co_firstlineno} {code.co_qualname}"


def count_pass(wl, functions=0):
    """Prepare a workload object, run one warm pass, then count one more:
    {"ops": {cls: instructions}, "items": {cls: {key: instructions}},
    "operations": {cls: n}, "errors": n, "work": {cls: {counter: n}}}, and
    with `functions` also "functions": {cls: [[label, instructions], ...]},
    the top `functions` code objects (see _label; code objects with one
    label are added up)."""
    wl.prepare()
    wl.run_pass()
    deltas, codes = [], []

    def timed(fn):
        before = dict(work)
        codes.append({} if functions else None)
        out, n = counted(fn, codes[-1])
        deltas.append({k: work[k] - before[k] for k in WORK})
        # the count stands in for the milliseconds and the call's number for its start
        return out, len(deltas) - 1, n

    with engine_work() as work:
        wl.timed = timed
        records = wl.run_pass()
    ops, operations, done, by_label, by_key = {}, {}, {}, {}, {}
    for r in records:
        cls = r["cls"]
        ops[cls] = ops.get(cls, 0) + int(r["ms"])
        keys = by_key.setdefault(cls, {})
        keys[r["key"]] = keys.get(r["key"], 0) + int(r["ms"])
        operations[cls] = operations.get(cls, 0) + 1
        got = done.setdefault(cls, dict.fromkeys(WORK, 0))
        for k, n in deltas[r["t0"]].items() if "t0" in r else ():
            got[k] += n
        labels = by_label.setdefault(cls, {})
        for code, n in codes[r["t0"]].items() if functions and "t0" in r else ():
            labels[_label(code)] = labels.get(_label(code), 0) + n
    out = {"ops": dict(sorted(ops.items())),
           "items": {cls: dict(sorted(keys.items())) for cls, keys in sorted(by_key.items())},
           "operations": dict(sorted(operations.items())),
           "errors": sum("error" in r for r in records), "work": dict(sorted(done.items()))}
    if functions:
        out["functions"] = {cls: [[label, n] for label, n in sorted(
            labels.items(), key=lambda item: (-item[1], item[0]))[:functions]]
            for cls, labels in sorted(by_label.items())}
    return out


def main(argv=None):
    os.chdir(ROOT)  # perfbench finds the checkout from the working directory
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--functions", type=int, default=0, metavar="N",
                        help="also list, per class, the N code objects that ran the most")
    args = parser.parse_args(argv)
    if args.functions < 0:
        parser.error("--functions must be at least 0")
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                  *(sys.argv[1:] if argv is None else argv)])
    from common import import_homalg

    hl = import_homalg()
    with tempfile.TemporaryDirectory() as tmp:
        kwargs = {"in_process": True} if args.workload == "cli-files" else {}
        result = count_pass(WORKLOADS[args.workload](hl, args.seed, Path(tmp), _Clock(),
                                                     **kwargs), args.functions)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **result}, sort_keys=True))
    return 1 if result["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())

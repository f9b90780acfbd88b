"""homalg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload catalog-sweep --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  With --trace 0 the run measures whole
passes of the workload until the next pass would end after --seconds, checks
every output, and prints the end-to-end metrics.  With --trace 1 it runs one
untraced and one traced pass in-process, checks both, and prints the
per-layer metrics.  The last line of stdout is the JSON result; a fuller
results file goes to .perfbench_out/results/.  A run whose outputs fail a
check still exits 0 and reports correct=false; a checkout that cannot be
benchmarked exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time

from common import OUT, ROOT, SetupError, SpeedClock, import_homalg, latency_summary, \
    measure_setup, median, run_child, self_rss_mb
from golden import check
from tracing import Tracer
from workloads import WORKLOADS

# per-workload names of the class metrics, kept in the results file
WORKLOAD_NAMES = {
    "catalog-sweep": {"a": "certify_pass_ms", "b": "certify_perturbed_ms"},
    "loop-certifiers": {"a_per_s": "battery_verdicts_per_s", "b_per_s": "endo_maps_per_s"},
    "cli-files": {"a": "report_ms", "b": "construct_ms"},
}


def declared_units(trace):
    """{metric: unit} that BENCHMARK.json declares for this kind of run."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def class_summary(records, cls):
    """Rate over all of a class's time; latency over its distinct items, each
    item read as the median of its repeats, so the sample is the same set of
    items however many passes fitted into the run."""
    recs = [r for r in records if r["cls"] == cls]
    seconds = sum(r["ms"] for r in recs) / 1000.0
    per_item = {}
    for r in recs:
        if r["latency"]:
            per_item.setdefault(r["key"], []).append(r["ms"])
    units = sum(r["units"] for r in recs if r["latency"])
    lat = latency_summary([median(v) for v in per_item.values()])
    return {"rate": units / seconds, "units": units, "seconds": seconds,
            "repeats": sum(map(len, per_item.values())), **lat}


def failures(workload, passes, hl):
    """(failed operation count, messages) over all measured passes."""
    failed, messages = 0, []
    for records in passes:
        bad = check(workload, records, hl)
        failed += len({key for key, _ in bad})
        messages += [f"{key}: {msg}" for key, msg in bad]
    return failed, messages


def attempted(passes):
    return sum(1 for records in passes for r in records if r["latency"] or "error" in r)


def run_untraced(wl, seconds):
    """Whole passes while the next one is expected to end within `seconds`.

    Also returns the peak RSS after the first pass: later passes repeat the
    same work, and what they would add is the benchmark's own records.
    """
    passes, start = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(wl.run_pass())
        took = time.perf_counter() - t0
        if len(passes) == 1:
            rss = self_rss_mb()
        if time.perf_counter() - start + took > seconds:
            return passes, rss


def end_to_end(workload, passes, setup, rss):
    records = [r for p in passes for r in p]
    a, b = class_summary(records, "a"), class_summary(records, "b")
    values = {
        "setup_s": median([s["setup_s"] for s in setup]),
        "a_per_s": a["rate"], "b_per_s": b["rate"],
        "a_ms_p50": a["p50"], "a_ms_tail": a["tail"],
        "b_ms_p50": b["p50"], "b_ms_tail": b["tail"],
        "rss_peak_mb": rss,
    }
    named = {}
    for key, alias in WORKLOAD_NAMES[workload].items():
        if key in ("a", "b"):
            cls = a if key == "a" else b
            named[f"{alias}_p50"], named[f"{alias}_tail"] = cls["p50"], cls["tail"]
        else:
            named[alias] = values[key]
    if workload == "catalog-sweep":
        named["sweep_items_per_s"] = (a["units"] + b["units"]) / (a["seconds"] + b["seconds"])
    return values, named, {"a": a, "b": b}


def cli_import_ms(workdir, repeats=3):
    walls = []
    for _ in range(repeats):
        code, _out, err, wall, _rss = run_child([sys.executable, "-c", "import homalg.cli"],
                                                workdir)
        if code != 0:
            raise SetupError(f"import homalg.cli failed: {err.strip()[-300:]}")
        walls.append(wall * 1000.0)
    return median(walls)


def run_plain(args, hl, wl, clock, workdir):
    """Whole passes, every time at reference speed: the end-to-end metrics."""
    setup = measure_setup(workdir, clock)
    wl.prepare()
    passes, rss = run_untraced(wl, args.seconds)
    clock.calibrate()
    for records in passes:
        clock.normalize(records)
    if args.workload == "cli-files":
        rss = wl.child_rss_mb
    failed, messages = failures(args.workload, passes, hl)
    values, named, classes = end_to_end(args.workload, passes, setup, rss)
    named.update(rss_peak_mb=rss, setup_s=values["setup_s"])
    raw = [{**r, "ms": r.get("raw_ms", r["ms"])} for p in passes for r in p]
    extra = {"setup_samples": setup, "named": named, "classes": classes,
             "passes": len(passes), "raw_classes": {c: class_summary(raw, c) for c in "ab"},
             "raw_setup_s": median([s["raw_s"] for s in setup]),
             "reference_loop_ms": median(clock.ms)}
    return passes, failed, messages, values, extra


def run_traced(args, hl, wl, clock, workdir):
    """One untraced and one traced pass: the per-layer metrics.  The tracing
    overhead compares the two passes' operation times at reference speed."""
    tracer = Tracer()
    tracer.install()
    try:
        hl.catalog()
    finally:
        tracer.uninstall()
    catalog_s = tracer.layer_metrics()["forge.catalog.s"]
    wl.prepare()
    t0 = time.perf_counter()
    plain = wl.run_pass()
    t1 = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    try:
        traced = wl.run_pass()
    finally:
        tracer.uninstall()
    t2 = time.perf_counter()
    passes = [plain, traced]
    failed, messages = failures(args.workload, passes, hl)
    docs = {r["key"]: r.get("doc") for r in plain if r["latency"]}
    for r in traced:
        if r["latency"] and docs.get(r["key"]) != r.get("doc"):
            failed += 1
            messages.append(f"{r['key']}: traced verdict differs from untraced")
    checked, bad = tracer.check_coverage()
    failed += len(bad)
    messages += bad
    clock.calibrate()
    untraced_s, traced_s = (sum(r["ms"] for r in clock.normalize(p)) / 1000.0 for p in passes)
    values = tracer.layer_metrics()
    values.update({
        "forge.catalog.s": catalog_s,
        "cli.import_ms": cli_import_ms(workdir),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_share": traced_s / untraced_s - 1.0,
    })
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    tracer.write(results / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    extra = {"coverage_checked": checked, "untraced_pass_wall_s": t1 - t0,
             "traced_pass_wall_s": t2 - t1, "spans": len(tracer.spans)}
    return passes, failed, messages, values, extra


def run(args, workdir):
    hl = import_homalg()
    clock = SpeedClock()
    # the traced run drives the CLI in-process, through homalg.cli.main
    kwargs = {"in_process": True} if args.trace and args.workload == "cli-files" else {}
    wl = WORKLOADS[args.workload](hl, args.seed, workdir, clock, **kwargs)
    if args.trace:
        passes, failed, messages, values, extra = run_traced(args, hl, wl, clock, workdir)
    else:
        hl.catalog()
        passes, failed, messages, values, extra = run_plain(args, hl, wl, clock, workdir)
    units = declared_units(args.trace)
    if set(units) != set(values):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(values))} are measured or "
                           f"declared in BENCHMARK.json, not both")
    tries = attempted(passes)
    result = {"correct": failed == 0, "attempted": tries, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    extra.update(failed_share=failed / tries, failures=messages[:50])
    return result, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description="homalg benchmark, one run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for this process and every child it starts: on the machine the
    # baseline used, the two CPUs ran the same loop up to 1.8x apart at the
    # same moment, so a process that migrated changed speed mid-run and the
    # reference loop stopped describing the work it was meant to calibrate.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        started = time.perf_counter()
        result, extra = run(args, workdir)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, m in result["metrics"].items():
        print(f"{args.workload:16} {name:40} {m['value']:14.6g} {m['unit']}")
    for line in extra["failures"]:
        print(f"FAILED {line}")
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "elapsed_s": time.perf_counter() - started,
        "python": platform.python_version(), "machine": platform.machine(),
        "cpus": os.cpu_count(), "result": result, **extra,
    }
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Collect runs into a results file, report their spread, and compare two
results files by the pairing rule.

    # ten seeds per workload from the checkout in the current directory
    python3 perfbench/compare.py collect --seeds 0-9 --out a.json
    python3 perfbench/compare.py spread a.json

    # parent and change, alternating which side runs first
    python3 perfbench/compare.py pair --parent ../parent --change . \\
        --pairs 10 --out-parent p.json --out-change c.json
    python3 perfbench/compare.py analyze p.json c.json

A results file is {"benchmark": BENCHMARK.json, "runs": [run, ...]}; a run
holds the workload, seed, which side ran first, the run's JSON result line
and the per-workload metric names from its results file.  All runs go through
`python3 perfbench/run.py` in the checkout named, one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def load_benchmark(checkout):
    with open(Path(checkout) / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(checkout, workload, seed, seconds, trace=0):
    bench = load_benchmark(checkout)
    argv = list(bench["command"]) + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] in ("python3", "python") else argv[0]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {checkout}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail_path = (Path(checkout) / ".perfbench_out" / "results"
                   / f"{workload}-seed{seed}-trace{trace}.json")
    with open(detail_path, encoding="utf-8") as fh:
        detail = json.load(fh)
    return {"workload": workload, "seed": seed, "trace": trace, "result": result,
            "named": detail.get("named", {}), "elapsed_s": detail["elapsed_s"]}


def save(path, bench, runs):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"benchmark": bench, "runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def values(doc, workload, metric):
    return [r["result"]["metrics"][metric]["value"] for r in doc["runs"]
            if r["workload"] == workload and r["trace"] == 0]


def quartile_spread(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


# ---------------------------------------------------------------------------


def cmd_collect(args):
    bench = load_benchmark(".")
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    runs = []
    for workload in workloads:
        for seed in seeds_arg(args.seeds):
            run = one_run(".", workload, seed, bench["run_seconds"], args.trace)
            runs.append(run)
            res = run["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {run['elapsed_s']:.1f}s",
                  file=sys.stderr)
            save(args.out, bench, runs)
    if not args.trace:
        print_spread({"benchmark": bench, "runs": runs})
    return 0


def print_spread(doc):
    """Quartile spread of each end-to-end metric as a share of its median."""
    bench = doc["benchmark"]
    worst = 0.0
    print(f"{'workload':16} {'metric':14} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            vals = values(doc, w["name"], m["name"])
            if len(vals) < 2:
                continue
            spread = quartile_spread(vals)
            if m["name"] == "setup_s":
                verdict = "not bounded"
            else:
                worst = max(worst, spread / m["bound"])
                verdict = ("steady" if spread < m["bound"] / 3
                           else "within bound" if spread <= m["bound"] else "TOO WIDE")
            print(f"{w['name']:16} {m['name']:14} {statistics.median(vals):12.5g} "
                  f"{spread:8.3f} {m['bound']:6.2f}  {verdict}")
    print(f"widest spread is {worst:.2f} of its bound")


def cmd_spread(args):
    with open(args.file, encoding="utf-8") as fh:
        print_spread(json.load(fh))
    return 0


def cmd_pair(args):
    bench = load_benchmark(args.change)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    sides = {"parent": (args.parent, args.out_parent, []),
             "change": (args.change, args.out_change, [])}
    for workload in workloads:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for position, side in enumerate(order):
                checkout, out, runs = sides[side]
                run = one_run(checkout, workload, i, bench["run_seconds"])
                run["ran_first"] = position == 0
                runs.append(run)
                save(out, load_benchmark(checkout), runs)
            print(f"{workload} pair {i}: {order[0]} first", file=sys.stderr)
    return 0


def analyze(parent, change):
    """One row per workload and end-to-end metric: (workload, metric, verdict, detail)."""
    bench = change["benchmark"]
    rows = []
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            p = {r["seed"]: r["result"]["metrics"][m["name"]]["value"] for r in parent["runs"]
                 if r["workload"] == w["name"] and r["trace"] == 0}
            c = {r["seed"]: r["result"]["metrics"][m["name"]]["value"] for r in change["runs"]
                 if r["workload"] == w["name"] and r["trace"] == 0}
            seeds = sorted(set(p) & set(c))
            if len(seeds) < 2:
                continue
            sign = 1.0 if m["better"] == "higher" else -1.0
            wins = sum(1 for s in seeds if sign * (c[s] - p[s]) > 0)
            pv, cv = [p[s] for s in seeds], [c[s] for s in seeds]
            pq1, pmed, pq3 = statistics.quantiles(pv, n=4)
            pmed = statistics.median(pv)
            cmed = statistics.median(cv)
            gain = sign * (cmed - pmed)
            worse_share = -gain / pmed
            all_better = all(sign * (x - y) > 0 for x in cv for y in pv)
            if len(seeds) >= 10 and wins >= 0.9 * len(seeds) and gain > (pq3 - pq1):
                verdict = "gain"
            elif (pq3 - pq1) / pmed > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse_share > m["bound"]:
                verdict = "regression"
            else:
                verdict = "no regression"
            detail = (f"parent {pmed:.5g} [{pq1:.5g}, {pq3:.5g}]  change {cmed:.5g}  "
                      f"wins {wins}/{len(seeds)}  change/parent {cmed / pmed:.3f}")
            rows.append((w["name"], m["name"], verdict, detail))
    return rows


def cmd_analyze(args):
    with open(args.parent, encoding="utf-8") as fh:
        parent = json.load(fh)
    with open(args.change, encoding="utf-8") as fh:
        change = json.load(fh)
    for workload, metric, verdict, detail in analyze(parent, change):
        print(f"{workload:16} {metric:14} {verdict:14} {detail}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="collect and compare benchmark runs")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect", help="run seeds on this checkout into a results file")
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_collect)
    p = sub.add_parser("spread", help="quartile spread of each metric in a results file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_spread)
    p = sub.add_parser("pair", help="run parent and change alternately")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out-parent", required=True)
    p.add_argument("--out-change", required=True)
    p.set_defaults(fn=cmd_pair)
    p = sub.add_parser("analyze", help="apply the pairing rule to two results files")
    p.add_argument("parent")
    p.add_argument("change")
    p.set_defaults(fn=cmd_analyze)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

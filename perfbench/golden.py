"""Golden outputs and the seed-independent invariants.

Checking:  `check(workload, records, hl)` returns (item key, message) for
every failure.  A mismatch against the golden files, a crash, or a broken
invariant is a failure.

Recording (only when the program's verdicts are meant to change, never to
make a run pass):

    python3 perfbench/golden.py --record

rebuilds perfbench/golden/*.json from the checkout's homalg, covering every
input any seed can produce: the whole perturbation pool of every sweep
output, the whole sampling-seed pool of every battery rep, the endomorphism
lists, and every CLI command.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import GOLDEN, OUT, SpeedClock, import_homalg

_cache = {}


def load(name):
    if name not in _cache:
        with open(GOLDEN / f"{name}.json", encoding="utf-8") as fh:
            _cache[name] = json.load(fh)
    return _cache[name]


def oracle_status(hl, algebra):
    """brute_oracle's verdict, for the varieties whose identity set it decides
    exactly; None for the others."""
    V = hl.VarietyTag
    schema = {
        V.HOM_ASSOCIATIVE: "hom-associativity",
        V.HOM_LIE: "hom-jacobi",
        V.HOM_LEIBNIZ: "hom-leibniz",
        V.HOM_ASSOCIATIVE_DIALGEBRA: "dialgebra",
        V.HOM_ASSOCIATIVE_TRIALGEBRA: "trialgebra",
    }.get(algebra.variety)
    if schema is None:
        return None
    return hl.brute_oracle(schema, algebra.interpretation()).status


# ---------------------------------------------------------------------------
# checking


def _check_sweep(records, hl):
    gold = load("sweep")
    bad = []
    for r in records:
        if r["cls"] == "a":
            if r["doc"] != {"status": "pass"}:
                bad.append((r["key"], f"construction output does not certify: {r['doc']}"))
            if gold["outputs"].get(r["key"]) != r["doc"]:
                bad.append((r["key"], "differs from golden"))
            continue
        jid, idx = r["key"].rsplit("#", 1)
        expect = gold["perturbations"][jid][int(idx)]
        if expect != r["doc"]:
            bad.append((r["key"], f"{r['doc']} differs from golden {expect}"))
        oracle = oracle_status(hl, r["bent"])
        if oracle is not None and oracle != r["doc"]["status"]:
            bad.append((r["key"], f"engine says {r['doc']['status']}, brute oracle {oracle}"))
    return bad


def _check_loops(records, hl):
    battery, endo = load("battery"), load("endomorphisms")
    bad = []
    for r in records:
        if not r["latency"]:
            continue
        if r["cls"] == "b":
            if endo[r["key"]] != r["doc"]:
                bad.append((r["key"], "endomorphism list differs from golden"))
            continue
        a, b, c = (d["status"] == "pass" for d in r["doc"])
        if a != b:
            bad.append((r["key"], f"certifier {a} but graph criterion {b}"))
        if r["setting"].endswith("-di") and c != a:
            bad.append((r["key"], f"certifier {a} but Nijenhuis {c}"))
        if battery.get(r["key"]) != r["doc"]:
            bad.append((r["key"], f"verdicts {r['doc']} differ from golden "
                                  f"{battery.get(r['key'])}"))
    return bad


def _check_cli(records, hl):
    from workloads import CONSTRUCTS

    gold = load("cli")
    want_exit = {key: code for key, _, _, code in CONSTRUCTS}
    bad = []
    for r in records:
        expect = gold[r["cls"]].get(r["key"])
        if expect != r["doc"]:
            got = {k: r["doc"][k] for k in r["doc"] if k != "stdout"}
            bad.append((r["key"], f"output differs from golden ({got})"))
        if r["cls"] == "b" and r["doc"]["exit"] != want_exit[r["key"]]:
            bad.append((r["key"], f"exit {r['doc']['exit']}, "
                                  f"expected {want_exit[r['key']]}"))
    return bad


_CHECKS = {"catalog-sweep": _check_sweep, "loop-certifiers": _check_loops,
           "cli-files": _check_cli}


def check(workload, records, hl):
    """[(item key, failure message)] for the records of one pass."""
    bad = [(r["key"], f"crashed: {r['error']}") for r in records if "error" in r]
    fine = [r for r in records if "error" not in r and "doc" in r]
    return bad + _CHECKS[workload](fine, hl)


# ---------------------------------------------------------------------------
# recording


def _record_sweep(hl):
    from fractions import Fraction

    from workloads import DELTAS, candidate_positions, report_doc, sweep_jobs

    outputs, positions, perturbations, disagree = {}, {}, {}, []
    for jid, build in sweep_jobs(hl):
        out = build()
        outputs[jid] = report_doc(hl.certify(out, out.variety))
        tries = candidate_positions(jid, out)
        positions[jid] = next(
            (p for p in tries
             if not hl.certify(hl.perturb_product(out, p[0], p[1], 1), out.variety).ok),
            tries[0])
        sym, where = positions[jid]
        expect = []
        for delta in DELTAS:
            bent = hl.perturb_product(out, sym, where, Fraction(delta))
            doc = report_doc(hl.certify(bent, bent.variety))
            oracle = oracle_status(hl, bent)
            if oracle is not None and oracle != doc["status"]:
                disagree.append((jid, sym, where, delta))
            expect.append(doc)
        perturbations[jid] = expect
        print(f"  {jid}: {outputs[jid]['status']}, bumped at {sym}{where}: "
              f"{sorted({d['status'] for d in expect})}", file=sys.stderr)
    if disagree:
        raise SystemExit(f"brute oracle disagrees with the engine: {disagree[:5]}")
    return {"sweep": {"outputs": outputs, "perturbations": perturbations},
            "perturb_positions": positions}


def _record_battery(hl, pool_size=4, tries=12):
    from workloads import (
        SETTINGS, ambient_id, battery_grid, battery_negatives, battery_verdicts, candidate_key,
    )

    cat = hl.catalog()
    by_id = {e.id: e for e in cat}
    rep_name = {id(e.value): e.id for e in cat if e.kind == "rep"}
    seeds = {}
    for setting, spec in SETTINGS.items():
        for i, rid in enumerate(spec["reps"]):
            good = []
            for k in range(tries):
                s = 100 + i + 1000 * k
                try:
                    hl.sample_operator_candidates(by_id[rid].value, battery_grid(hl, s),
                                                  check=False)
                except hl.GenerationError:
                    continue
                good.append(s)
                if len(good) == pool_size:
                    break
            seeds[f"{setting}|{rid}"] = good
    verdicts = {}
    for setting, spec in SETTINGS.items():
        cands = list(battery_negatives(hl, by_id, setting))
        cands += [by_id[p].value for p in spec["positives"]]
        for rid in spec["reps"]:
            for s in seeds[f"{setting}|{rid}"]:
                cands += hl.sample_operator_candidates(by_id[rid].value, battery_grid(hl, s),
                                                       check=False)
        ambients = {}
        for cand in cands:
            if id(cand.rep) not in ambients:
                ambients[id(cand.rep)] = hl.hemisemi(
                    cand.rep, ambient_id(hl, setting, cand.rep), check=False)
            key = candidate_key(rep_name, setting, cand)
            doc = battery_verdicts(hl, setting, cand, ambients[id(cand.rep)])
            if verdicts.setdefault(key, doc) != doc:
                raise SystemExit(f"{key}: two verdicts for one candidate")
        print(f"  {setting}: {len(verdicts)} distinct candidates so far", file=sys.stderr)
    return {"sampling_seeds": seeds, "battery": verdicts}


def _record_endomorphisms(hl):
    from workloads import ENDO_ALGEBRAS, endo_grid, matrix_key

    by_id = {e.id: e for e in hl.catalog()}
    return {name: [matrix_key(f) for f in hl.find_endomorphisms(by_id[name].value,
                                                                endo_grid(hl))]
            for name in ENDO_ALGEBRAS}


def _record_cli(hl, workdir):
    from workloads import CliFiles

    cli = CliFiles(hl, 0, workdir, SpeedClock())
    cli.prepare()
    gold = {"a": {}, "b": {}}
    for r in cli.run_pass():
        if "error" in r:
            raise SystemExit(f"{r['key']}: {r['error']}")
        gold[r["cls"]][r["key"]] = r["doc"]
    return gold


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", required=True)
    parser.parse_args(argv)
    hl = import_homalg()
    workdir = OUT / "golden-record"
    workdir.mkdir(parents=True, exist_ok=True)
    recorders = {
        "sweep": lambda: _record_sweep(hl),
        "battery": lambda: _record_battery(hl),
        "endomorphisms": lambda: {"endomorphisms": _record_endomorphisms(hl)},
        "cli": lambda: {"cli": _record_cli(hl, workdir)},
    }
    GOLDEN.mkdir(exist_ok=True)
    for name, fn in recorders.items():
        print(f"recording {name}", file=sys.stderr)
        for fname, doc in fn().items():
            with open(GOLDEN / f"{fname}.json", "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

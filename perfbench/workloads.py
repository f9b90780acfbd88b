"""The three workloads.  Each is a closed loop: one client, one item at a
time, no threads, at most one CLI child at once.

A workload object builds its inputs from the seed (`prepare`), then runs
whole passes (`run_pass`).  A pass returns one record per operation:

    {"cls": "a" | "b", "key": str, "ms": float, "units": int,
     "latency": bool, "doc": verdict summary, "error": str (on a crash)}

Class "a" and class "b" are the workload's two kinds of operation; README
maps them to per-workload names (certify_pass_ms, report_ms, ...).
Records with latency=False (sampling, ambient set-up) count towards the
rate of their class but are not latency samples.  Checking happens after a
pass, never inside a timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
import time
import zlib
from fractions import Fraction

from common import ROOT, run_child

# ---------------------------------------------------------------------------
# verdict summaries shared by the workloads and the golden files


def frac_list(vec):
    return [str(c) for c in vec.coords]


def report_doc(report, sides=True):
    """Status plus witness (identity, 0-based tuple and, optionally, sides)."""
    doc = {"status": report.status}
    w = report.witness
    if w is not None:
        doc["witness"] = [w.identity, list(w.indices)]
        if sides:
            doc["witness"] += [frac_list(w.lhs_value), frac_list(w.rhs_value)]
    return doc


def matrix_key(linmap):
    return ";".join(",".join(str(x) for x in row) for row in linmap.matrix)


class Timed:
    """Base of the workloads: times one operation at a time, letting the
    speed clock calibrate in between (never inside a timed region)."""

    def __init__(self, hl, seed, workdir, clock):
        self.hl, self.workdir, self.clock = hl, workdir, clock
        self.rng = seeded_rng(self.name, seed)

    def timed(self, fn):
        """(result, start, milliseconds) of one call."""
        self.clock.tick()
        t0 = time.perf_counter()
        out = fn()
        return out, t0, (time.perf_counter() - t0) * 1000.0

    def attempt(self, cls, key, fn, units=1):
        """(result, record) of one timed operation.  A crash fails that
        operation, not the run: its record carries the error and no time."""
        try:
            out, t0, ms = self.timed(fn)
        except Exception as exc:
            return None, {"cls": cls, "key": key, "ms": 0.0, "units": units,
                          "latency": False, "error": repr(exc)}
        return out, {"cls": cls, "key": key, "t0": t0, "ms": ms, "units": units,
                     "latency": True}


def seeded_rng(*parts):
    """A Random seeded from strings/ints, stable across processes."""
    return random.Random(zlib.crc32("|".join(map(str, parts)).encode()))


# ---------------------------------------------------------------------------
# catalog-sweep


# The seed picks the size of the bump, never its position: the position sets
# how many tuples the engine checks before its first witness, and a position
# drawn per seed would make the perturbed timings depend on the seed.
DELTAS = ("1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2")
POSITION_TRIES = 64


def sweep_jobs(hl):
    """The 116 gated constructions over the whole catalog, in catalog order.

    Returns [(output id, thunk)]; each thunk runs one gated public
    construction.  Dicommutator inputs that are themselves induced are built
    ungated here, outside any timed region.
    """
    C = hl.ConstructionId
    V = hl.VarietyTag
    from homalg.operators import hemisemi_id_for

    homomorphic = {
        "bimodule": C.INDUCED_DIALGEBRA, "action": C.INDUCED_TRIALGEBRA,
        "lie-module": C.INDUCED_LEIBNIZ, "lie-action": C.INDUCED_TRILEIBNIZ,
        "jordan-module": C.INDUCED_JORDAN_DIALGEBRA,
        "jordan-action": C.INDUCED_JORDAN_TRIALGEBRA,
    }
    rel_avg = {
        "bimodule": C.INDUCED_DIALGEBRA, "action": C.INDUCED_DIALGEBRA,
        "lie-module": C.INDUCED_LEIBNIZ, "lie-action": C.INDUCED_LEIBNIZ,
        "jordan-module": C.INDUCED_JORDAN_DIALGEBRA,
        "jordan-action": C.INDUCED_JORDAN_DIALGEBRA,
    }
    cat = hl.catalog()
    by_id = {e.id: e for e in cat}
    jobs = []
    for e in cat:
        if e.kind == "rep":
            cid = hemisemi_id_for(e.value)
            jobs.append((f"hemisemi:{e.id}", lambda r=e.value, c=cid: hl.hemisemi(r, c)))
    dialgebras = [(i, by_id[i].value) for i in ("kx2_diass", "nil3_ddia")]
    for e in cat:
        if e.kind != "operator":
            continue
        table = homomorphic if e.check_kind == "homomorphic-rel-avg" else rel_avg
        cid = table[e.value.rep.kind]
        jobs.append((f"induce:{e.id}", lambda k=e.value, c=cid: hl.induce(k, c)))
        if cid is C.INDUCED_DIALGEBRA:
            dialgebras.append((f"induce:{e.id}", hl.induce(e.value, cid, check=False)))
    for name, dia in dialgebras:
        jobs.append((f"dicommutator:{name}", lambda d=dia: hl.functor(d, C.DICOMMUTATOR)))
    for e in cat:
        if e.kind == "algebra" and e.value.variety is V.HOM_ASSOCIATIVE:
            for cid in (C.MINUS, C.PLUS):
                jobs.append((f"{cid.value}:{e.id}", lambda a=e.value, c=cid: hl.functor(a, c)))
    return jobs


def candidate_positions(output_id, algebra):
    """Seed-independent (product, (i, j, k)) positions to try, in order.

    Golden recording keeps the first one whose unit bump breaks the variety
    (or the first one, if none does) and stores it in perturb_positions.json.
    """
    rng = seeded_rng("perturb", output_id)
    syms = sorted(algebra.products)
    n = algebra.dim
    return [(rng.choice(syms), (rng.randrange(n), rng.randrange(n), rng.randrange(n)))
            for _ in range(POSITION_TRIES)]


class CatalogSweep(Timed):
    name = "catalog-sweep"

    def prepare(self):
        from golden import load

        self.jobs = sweep_jobs(self.hl)
        self.positions = load("perturb_positions")
        # which bump each output gets, fixed for the run
        self.pick = {jid: self.rng.randrange(len(DELTAS)) for jid, _ in self.jobs}

    def run_pass(self):
        hl = self.hl
        order = list(self.jobs)
        self.rng.shuffle(order)
        records = []
        for jid, build in order:
            out, rec = self.attempt("a", jid, lambda: self._build_and_certify(build))
            records.append(rec)
            if out is None:
                continue
            algebra, report = out
            rec["doc"] = report_doc(report)
            idx = self.pick[jid]
            sym, where = self.positions[jid]
            bent = hl.perturb_product(algebra, sym, tuple(where), Fraction(DELTAS[idx]))
            report, rec = self.attempt("b", f"{jid}#{idx}",
                                       lambda: hl.certify(bent, bent.variety))
            records.append(rec)
            if report is not None:
                rec.update(doc=report_doc(report), bent=bent)
        return records

    def _build_and_certify(self, build):
        out = build()
        return out, self.hl.certify(out, out.variety)


# ---------------------------------------------------------------------------
# loop-certifiers


SETTINGS = {
    "assoc-di": dict(
        reps=("kx2_reg", "kx2t_reg", "ut2_reg"),
        positives=("kx2_tensor_mult", "kx3_sum2_sum", "ut2_tensor_mult"),
        kind="rel-avg",
    ),
    "lie-di": dict(
        reps=("sol2_adj", "sol2t2_adj", "ab2_sum2"),
        positives=("sol2_adj_id", "sol2_sum2_sum", "sol2t2_sum2_sum"),
        kind="rel-avg",
    ),
    "jordan-di": dict(
        reps=("j2_adj", "kx2_jmod", "kx2t_jact"),
        positives=("j2_adj_id", "j2_sum2_sum"),
        kind="rel-avg",
    ),
    "assoc-tri": dict(
        reps=("kx2_sum2", "kx2_act", "ut2_act"),
        positives=("kx2_sum2_p1", "kx2_sum2_p2", "kx2_act_id", "ut2_act_id"),
        kind="homomorphic-rel-avg",
    ),
    "lie-tri": dict(
        reps=("sol2_adj", "sol2_sum2", "ab2_adj"),
        positives=("sol2_adj_id", "sol2_sum2_p1", "ab2_adj_id"),
        kind="homomorphic-rel-avg",
    ),
    "jordan-tri": dict(
        reps=("j2_adj", "kx2_jact", "kx2t_jact"),
        positives=("j2_adj_id", "j2_sum2_p1", "kx2_jact_p1"),
        kind="homomorphic-rel-avg",
    ),
}
ENDO_ALGEBRAS = ("kx3", "kx3t2", "heis3")
SAMPLE_COUNT = 30
MAX_NEGATIVES = 12


def battery_grid(hl, seed):
    return hl.GridSpec(numerators=(-1, 0, 1, 2), denominators=(1,), seed=seed, count=SAMPLE_COUNT)


def endo_grid(hl):
    return hl.GridSpec(numerators=(-1, 0, 1))


def ambient_id(hl, setting, rep):
    from homalg.operators import hemisemi_id_for

    C = hl.ConstructionId
    if setting.endswith("tri"):
        return hemisemi_id_for(rep)
    return {
        "bimodule": C.HEMISEMI_DIASS, "action": C.HEMISEMI_DIASS,
        "lie-module": C.HEMISEMI_LEIB, "lie-action": C.HEMISEMI_LEIB,
        "jordan-module": C.HEMISEMI_DIJOR, "jordan-action": C.HEMISEMI_DIJOR,
    }[rep.kind]


def battery_negatives(hl, by_id, setting):
    """Single-entry perturbations of the positives that the certifier rejects."""
    kind = SETTINGS[setting]["kind"]
    out = []
    for pid in SETTINGS[setting]["positives"]:
        pos = by_id[pid].value
        for where in itertools.product(range(pos.map.dst_dim), range(pos.map.src_dim)):
            if len(out) >= MAX_NEGATIVES:
                break
            bent = hl.perturb_operator(pos, where, Fraction(1))
            if hl.certify_operator(bent, kind).status in ("fail", "not-admissible"):
                out.append(bent)
    return out


def candidate_key(rep_name, setting, cand):
    """Golden key of a battery candidate: setting, catalog rep id, matrix."""
    return f"{setting}|{rep_name[id(cand.rep)]}|{matrix_key(cand.map)}"


def battery_verdicts(hl, setting, cand, ambient):
    aid = ambient_id(hl, setting, cand.rep)
    a = hl.certify_operator(cand, SETTINGS[setting]["kind"])
    b = hl.graph_closure(cand, aid, ambient=ambient)
    c = hl.certify_operator(hl.nijenhuis_of(cand, aid, ambient=ambient), "nijenhuis")
    # graph and Nijenhuis witnesses are pinned without their sides, which a
    # refactor of those loops into the engine is expected to change
    return [report_doc(a), report_doc(b, sides=False), report_doc(c, sides=False)]


class LoopCertifiers(Timed):
    name = "loop-certifiers"

    def __init__(self, hl, seed, workdir, clock):
        super().__init__(hl, seed, workdir, clock)
        self.settings, self.endo_algebras = list(SETTINGS), list(ENDO_ALGEBRAS)

    def prepare(self):
        hl = self.hl
        cat = hl.catalog()
        self.by_id = {e.id: e for e in cat}
        self.rep_name = {id(e.value): e.id for e in cat if e.kind == "rep"}
        from golden import load

        pools = load("sampling_seeds")
        self.plan = {}
        for setting in self.settings:
            spec = SETTINGS[setting]
            seeds = [self.rng.choice(pools[f"{setting}|{rid}"]) for rid in spec["reps"]]
            fixed = [self.by_id[p].value for p in spec["positives"]]
            fixed += battery_negatives(hl, self.by_id, setting)
            self.plan[setting] = (seeds, fixed)

    def _candidates(self, setting, seeds, fixed):
        """Sampled plus fixed candidates, and each rep's hemisemi ambient."""
        hl, by_id = self.hl, self.by_id
        cands = []
        for rid, s in zip(SETTINGS[setting]["reps"], seeds):
            cands += hl.sample_operator_candidates(by_id[rid].value, battery_grid(hl, s),
                                                   check=False)
        cands += fixed
        ambients = {}
        for cand in cands:
            if id(cand.rep) not in ambients:
                ambients[id(cand.rep)] = hl.hemisemi(
                    cand.rep, ambient_id(hl, setting, cand.rep), check=False)
        return cands, ambients

    def battery_setting(self, setting, seeds, fixed, order_rng):
        hl = self.hl
        (cands, ambients), t0, ms = self.timed(lambda: self._candidates(setting, seeds, fixed))
        records = [{"cls": "a", "key": f"{setting}:prepare", "t0": t0, "ms": ms, "units": 0,
                    "latency": False}]
        order_rng.shuffle(cands)
        for cand in cands:
            amb = ambients[id(cand.rep)]
            doc, rec = self.attempt("a", candidate_key(self.rep_name, setting, cand),
                                    lambda: battery_verdicts(hl, setting, cand, amb))
            records.append(rec)
            if doc is not None:
                rec.update(doc=doc, setting=setting)
        return records

    def run_pass(self):
        hl = self.hl
        jobs = [("battery", s) for s in self.settings] + [("endo", a) for a in self.endo_algebras]
        self.rng.shuffle(jobs)
        records = []
        for what, name in jobs:
            if what == "battery":
                seeds, fixed = self.plan[name]
                records += self.battery_setting(name, seeds, fixed, self.rng)
                continue
            alg = self.by_id[name].value
            found, rec = self.attempt("b", name, lambda: hl.find_endomorphisms(alg, endo_grid(hl)),
                                      units=3 ** (alg.dim * alg.dim))
            records.append(rec)
            if found is not None:
                rec["doc"] = [matrix_key(f) for f in found]
        return records


# ---------------------------------------------------------------------------
# cli-files


CONSTRUCTS = (
    ("hemisemi-diass:kx3_sum3", "kx3.halg", ["--id", "hemisemi-diass", "--rep", "kx3_sum3"], 0),
    ("hemisemi-triass:kx3_sum2", "kx3.halg", ["--id", "hemisemi-triass", "--rep", "kx3_sum2"], 0),
    ("hemisemi-dijor:kx3t2_jmod", "jordan_derived.halg",
     ["--id", "hemisemi-dijor", "--rep", "kx3t2_jmod"], 0),
    ("hemisemi-leib:heis3_sum2", "lie.halg", ["--id", "hemisemi-leib", "--rep", "heis3_sum2"], 0),
    ("induced-dialgebra:kx2_tensor_mult", "kx2.halg",
     ["--id", "induced-dialgebra", "--operator", "kx2_tensor_mult"], 0),
    ("minus:ut2", "ut2.halg", ["--id", "minus", "--target", "ut2"], 0),
    ("tensor-square:kx3", "kx3.halg", ["--id", "tensor-square", "--target", "kx3"], 0),
    ("yau-twist:phi12", "trialgebra.halg", ["--id", "yau-twist", "--target", "tri11",
                                            "--map", "phi12"], 0),
    # diag(2,3) is not an endomorphism of tri11: the gate refuses it
    ("yau-twist:phi23", "trialgebra.halg", ["--id", "yau-twist", "--target", "tri11",
                                            "--map", "phi23"], 3),
)
DATA = "src/homalg/data"


def normalize_stdout(text, out_path=None):
    """CLI stdout with every `ms` field dropped and the output path masked."""
    lines = []
    for line in text.splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            lines.append(line)
            continue
        if isinstance(doc, dict):
            doc.pop("ms", None)
            if out_path is not None and doc.get("written") == out_path:
                doc["written"] = "<out>"
        lines.append(json.dumps(doc, sort_keys=True))
    return "\n".join(lines)


def cli_commands(workdir):
    """[(cls, key, argv after `homalg`, output path or None)] for one pass."""
    files = sorted(p.name for p in (ROOT / DATA).glob("*.halg"))
    cmds = [("a", f, ["report", f"{DATA}/{f}"], None) for f in files]
    for key, src, extra, _ in CONSTRUCTS:
        out = str(workdir / (key.replace(":", "_") + ".halg"))
        cmds.append(("b", key, ["construct", f"{DATA}/{src}"] + extra + ["--out", out], out))
    return cmds


class CliFiles(Timed):
    name = "cli-files"

    def __init__(self, hl, seed, workdir, clock, in_process=False):
        super().__init__(hl, seed, workdir, clock)
        self.in_process = in_process
        self.child_rss_mb = 0.0

    def prepare(self):
        self.cmds = cli_commands(self.workdir)

    def _invoke(self, argv):
        """(exit code, stdout): a fresh `python -m homalg` child, or
        homalg.cli.main in this process for the traced run."""
        if not self.in_process:
            code, out, _err, _wall, rss = run_child(
                [sys.executable, "-m", "homalg"] + argv, self.workdir)
            self.child_rss_mb = max(self.child_rss_mb, rss)
            return code, out
        from homalg.cli import main

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue()

    def run_pass(self):
        order = list(self.cmds)
        self.rng.shuffle(order)
        records = []
        for cls, key, argv, out_path in order:
            if out_path is not None and os.path.exists(out_path):
                os.unlink(out_path)
            got, rec = self.attempt(cls, key, lambda: self._invoke(argv))
            records.append(rec)
            if got is None:
                continue
            code, stdout = got
            rec["doc"] = {"exit": code, "stdout": normalize_stdout(stdout, out_path)}
            if out_path is not None and code == 0:
                with open(out_path, "rb") as fh:
                    rec["doc"]["written_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        return records


WORKLOADS = {w.name: w for w in (CatalogSweep, LoopCertifiers, CliFiles)}

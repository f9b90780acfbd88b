"""Replay of the recorded reports of the operator certifiers.

The golden file pins, for every case below, the report status, its
`tuples_checked` unless the status is "fail", and the witness (identity,
0-based tuple, both sides as Fraction strings), or the exception a case
raised.  The cases are:

* every catalog operator and each of its single-entry +-1 perturbations
  (`forge.perturb_operator`) under each operator kind that applies to its
  representation, and, over an associative action, the o-operator at the
  weights 0, 1 and -1/2;
* `nijenhuis_of` of each of these candidates, over the hemisemi-direct
  product `hemisemi_id_for` picks, under "nijenhuis" and the three averaging
  kinds;
* both halves of `lift_to_averaging` of each candidate over an associative
  representation, under the same four kinds (or the error the lift raises).

Record (only from certifiers whose witnesses are trusted):

    PYTHONPATH=src python tests/test_operator_golden.py --record
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

from homalg.constructions import hemisemi
from homalg.forge import catalog, perturb_operator
from homalg.operators import certify_operator, hemisemi_id_for, lift_to_averaging, nijenhuis_of
from homalg.reps import AssocBimodule, CertificationError

GOLDEN = Path(__file__).parent / "golden" / "operator_witnesses.json"

REP_KINDS = {
    "bimodule": ("rel-avg-left", "rel-avg-right", "rel-avg"),
    "action": ("rel-avg-left", "rel-avg-right", "rel-avg", "homomorphic-rel-avg"),
    "lie-module": ("rel-avg",),
    "lie-action": ("rel-avg", "homomorphic-rel-avg"),
    "jordan-module": ("rel-avg",),
    "jordan-action": ("rel-avg", "homomorphic-rel-avg"),
}
ALGEBRA_KINDS = ("nijenhuis", "averaging", "averaging-left", "averaging-right")
O_WEIGHTS = (Fraction(0), Fraction(1), Fraction(-1, 2))


def _with_perturbations(key, cand):
    """(key, candidate) for cand and each single-entry +-1 perturbation of it."""
    yield key, cand
    for i in range(cand.map.dst_dim):
        for j in range(cand.map.src_dim):
            for delta in (1, -1):
                yield f"{key}|{i},{j}{delta:+d}", perturb_operator(cand, (i, j), delta)


def report_doc(report):
    doc = {"status": report.status}
    if report.status != "fail":
        doc["tuples_checked"] = report.tuples_checked
    w = report.witness
    if w is not None:
        doc["witness"] = [
            w.identity, list(w.indices),
            [str(c) for c in w.lhs_value.coords], [str(c) for c in w.rhs_value.coords],
        ]
    return doc


def _algebra_cases(key, cand):
    for kind in ALGEBRA_KINDS:
        yield f"{key}|{kind}", lambda kind=kind: certify_operator(cand, kind)


def cases():
    """(key, thunk returning the report) for every pinned case, in file order."""
    for e in catalog():
        if e.kind != "operator":
            continue
        rep = e.value.rep
        what = hemisemi_id_for(rep)
        ambient = hemisemi(rep, what, check=False)
        for key, c in _with_perturbations(e.id, e.value):
            for kind in REP_KINDS[rep.kind]:
                yield f"{key}|{kind}", lambda c=c, kind=kind: certify_operator(c, kind)
            if rep.kind == "action":
                for w in O_WEIGHTS:
                    yield f"{key}|o-operator@{w}", lambda c=c, w=w: certify_operator(
                        c, "o-operator", weight=w)
            yield from _algebra_cases(f"nijenhuis_of:{what.value}:{key}",
                                      nijenhuis_of(c, what, ambient=ambient))
            if isinstance(rep, AssocBimodule):
                try:
                    lifted = lift_to_averaging(c)
                except CertificationError as exc:
                    yield f"lift:{key}", lambda exc=exc: exc
                    continue
                for half, lc in lifted._asdict().items():
                    yield from _algebra_cases(f"lift:{half}:{key}", lc)


def replay(thunks):
    out = {}
    for key, thunk in thunks:
        got = thunk()
        out[key] = {"raised": type(got).__name__} if isinstance(got, Exception) else report_doc(got)
    return out


def test_operator_witnesses_match_golden(cold_binds):
    """Replayed twice over the same candidates: the engine's verdict memo
    answers the whole second replay, and both match the golden."""
    want = json.loads(GOLDEN.read_text())
    thunks = list(cases())
    for n in range(2):
        del cold_binds[:]
        got = replay(thunks)
        assert sorted(got) == sorted(want)
        diff = [k for k in want if got[k] != want[k]]
        assert not diff, (f"replay {n + 1}: {len(diff)} cases differ, first {diff[0]}:"
                          f" {got[diff[0]]} != {want[diff[0]]}")
    assert not cold_binds


def test_golden_covers_every_clause():
    want = json.loads(GOLDEN.read_text())
    clauses = {d["witness"][0].split(":")[0] for d in want.values() if "witness" in d}
    assert clauses >= {"left", "right", "lie", "jordan", "homomorphic", "o-operator",
                       "nijenhuis", "averaging-left", "averaging-right"}, clauses
    statuses = {d.get("status") for d in want.values()}
    assert {"pass", "fail", "not-admissible"} <= statuses
    assert any("raised" in d for d in want.values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    docs = replay(cases())
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = [json.dumps(k) + ": " + json.dumps(d, sort_keys=True) for k, d in docs.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(docs)} cases to {GOLDEN}")

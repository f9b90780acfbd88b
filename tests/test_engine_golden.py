"""Replay of the engine's recorded verdicts and first witnesses.

The golden file pins, for every (schema, interpretation) pair below, the
status and the witness (identity, 0-based tuple, both sides as Fraction
strings) that naive lexicographic enumeration produces.  Any engine
optimisation must reproduce them exactly.  `tuples_checked` is pinned for
multilinear schemas only: polarized schemas may legitimately visit fewer
tuples (the engine skips permutations of a polarized copy block).

The pairs are:

* a unit bump (`forge.perturb_product`, delta 1) of every product of every
  catalog algebra and of every gated construction output of the catalog
  sweep, at one seeded position per product, against each defining schema
  of the instance's variety;
* `random_interpretations(200, seed=20260101)` against the associativity
  schema and, with the tensor bound to `circ`, the Hom-Jordan schemas.

Record (only from an engine whose witnesses are trusted):

    PYTHONPATH=src python tests/test_engine_golden.py --record
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from homalg.constructions import ConstructionId as C, functor, hemisemi, induce
from homalg.engine import check_schema
from homalg.forge import catalog, perturb_product, random_interpretations
from homalg.operators import hemisemi_id_for
from homalg.reps import minus_algebra, plus_algebra
from homalg.varieties import VarietyTag as V, associativity_schema, schemas_for

GOLDEN = Path(__file__).parent / "golden" / "engine_witnesses.json"

_HOMOMORPHIC = {
    "bimodule": C.INDUCED_DIALGEBRA, "action": C.INDUCED_TRIALGEBRA,
    "lie-module": C.INDUCED_LEIBNIZ, "lie-action": C.INDUCED_TRILEIBNIZ,
    "jordan-module": C.INDUCED_JORDAN_DIALGEBRA,
    "jordan-action": C.INDUCED_JORDAN_TRIALGEBRA,
}
_REL_AVG = {
    "bimodule": C.INDUCED_DIALGEBRA, "action": C.INDUCED_DIALGEBRA,
    "lie-module": C.INDUCED_LEIBNIZ, "lie-action": C.INDUCED_LEIBNIZ,
    "jordan-module": C.INDUCED_JORDAN_DIALGEBRA,
    "jordan-action": C.INDUCED_JORDAN_DIALGEBRA,
}


def instances():
    """(id, algebra) for the catalog algebras and the sweep's outputs.

    The outputs are those of the gated constructions; they are built
    ungated here because the gate does not change the value.
    """
    cat = catalog()
    by_id = {e.id: e for e in cat}
    out = [(e.id, e.value) for e in cat if e.kind == "algebra"]
    for e in cat:
        if e.kind == "rep":
            out.append((f"hemisemi:{e.id}",
                        hemisemi(e.value, hemisemi_id_for(e.value), check=False)))
    dialgebras = [(i, by_id[i].value) for i in ("kx2_diass", "nil3_ddia")]
    for e in cat:
        if e.kind != "operator":
            continue
        table = _HOMOMORPHIC if e.check_kind == "homomorphic-rel-avg" else _REL_AVG
        cid = table[e.value.rep.kind]
        induced = induce(e.value, cid, check=False)
        out.append((f"induce:{e.id}", induced))
        if cid is C.INDUCED_DIALGEBRA:
            dialgebras.append((f"induce:{e.id}", induced))
    for name, dia in dialgebras:
        out.append((f"dicommutator:{name}", functor(dia, C.DICOMMUTATOR, check=False)))
    for e in cat:
        if e.kind == "algebra" and e.value.variety is V.HOM_ASSOCIATIVE:
            out.append((f"minus:{e.id}", minus_algebra(e.value)))
            out.append((f"plus:{e.id}", plus_algebra(e.value)))
    return out


def pairs():
    """(key, schema, interpretation) for every pinned pair, in file order."""
    for iid, a in instances():
        for sym in sorted(a.products):
            rng = random.Random(f"{iid}|{sym}")
            where = tuple(rng.randrange(a.dim) for _ in range(3))
            bent = perturb_product(a, sym, where, Fraction(1))
            interp = bent.interpretation()
            tag = f"bump:{iid}|{sym}@{','.join(map(str, where))}"
            for schema in schemas_for(a.variety):
                yield f"{tag}|{schema.name}", schema, interp
    families = (("mul", [associativity_schema()]), ("circ", schemas_for(V.HOM_JORDAN)))
    for symbol, schemas in families:
        for n, interp in enumerate(random_interpretations(200, seed=20260101, symbol=symbol)):
            for schema in schemas:
                yield f"random:{symbol}#{n}|{schema.name}", schema, interp


def record_doc(schema, report):
    doc = {"status": report.status}
    if schema.is_multilinear():
        doc["tuples_checked"] = report.tuples_checked
    w = report.witness
    if w is not None:
        doc["witness"] = [
            w.identity, list(w.indices),
            [str(c) for c in w.lhs_value.coords], [str(c) for c in w.rhs_value.coords],
        ]
    return doc


def replay(cases):
    return {key: record_doc(schema, check_schema(schema, interp))
            for key, schema, interp in cases}


def test_engine_witnesses_match_golden(cold_binds):
    """Replayed twice over the same objects: the engine's verdict memo
    answers every check of the second replay, and both match the golden."""
    want = json.loads(GOLDEN.read_text())
    cases = list(pairs())
    for n in range(2):
        del cold_binds[:]
        got = replay(cases)
        assert sorted(got) == sorted(want)
        diff = [k for k in want if got[k] != want[k]]
        assert not diff, (f"replay {n + 1}: {len(diff)} pairs differ, first {diff[0]}:"
                          f" {got[diff[0]]} != {want[diff[0]]}")
    assert not cold_binds, f"{len(cold_binds)} checks of the second replay were not recalled"


def test_golden_covers_failures_of_both_kinds():
    want = json.loads(GOLDEN.read_text())
    polarized = {s.name for s in schemas_for(V.HOM_JORDAN) if not s.is_multilinear()}
    fails = [k for k, d in want.items() if d["status"] == "fail"]
    assert any(k.rsplit("|", 1)[1] in polarized for k in fails)
    assert any("tuples_checked" in want[k] for k in fails)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    docs = replay(pairs())
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = [json.dumps(k) + ": " + json.dumps(d, sort_keys=True) for k, d in docs.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(docs)} pairs to {GOLDEN}")

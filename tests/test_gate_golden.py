"""Replay of the recorded verdicts of three construction gates.

The golden file pins only verdicts, never witnesses: for `crossed_module_check`
the report status, for the gated `differential_dialgebra` and
`bimodule_map_dialgebra` builders whether they returned or which exception
they raised.  The cases are:

* `crossed_module_check` on every catalog `AssocAction`, with `d` set to each
  catalog operator over it and to its single-entry +-1 perturbations
  (`forge.perturb_operator`);
* the differential dialgebra on `nil3`, on `kx2` with the zero map and with
  `[[0,0],[0,1]]`, and on the single-entry +-1 perturbations of `nil3`'s `d`;
* the bimodule-map dialgebra on every catalog `AssocBimodule` with the
  identity map (where the dimensions allow) and each catalog operator over
  it, and their single-entry +-1 perturbations.

Record (only from gates whose verdicts are trusted):

    PYTHONPATH=src python tests/test_gate_golden.py --record
"""

import json
import sys
from pathlib import Path

from homalg.constructions import bimodule_map_dialgebra, crossed_module_check, differential_dialgebra
from homalg.engine import SemanticError
from homalg.exact import LinearMap, ShapeError
from homalg.forge import catalog, perturb_operator
from homalg.operators import OperatorCandidate
from homalg.reps import AssocAction, AssocBimodule, CertificationError
from homalg.varieties import AlgebraInstance

GOLDEN = Path(__file__).parent / "golden" / "gate_verdicts.json"


def _with_perturbations(key, cand):
    """(key, candidate) for cand and each single-entry +-1 perturbation of it."""
    yield key, cand
    for i in range(cand.map.dst_dim):
        for j in range(cand.map.src_dim):
            for delta in (1, -1):
                yield f"{key}|{i},{j}{delta:+d}", perturb_operator(cand, (i, j), delta)


def _outcome(fn):
    try:
        fn()
    except (CertificationError, SemanticError, ShapeError) as exc:
        return f"raised:{type(exc).__name__}"
    return "returned"


def _with_d(a, d):
    return AlgebraInstance(a.name, a.dim, a.products, a.maps | {"d": d}, a.variety)


def cases():
    """(key, thunk returning the verdict) for every pinned case, in file order."""
    cat = catalog()
    by_id = {e.id: e.value for e in cat}
    ops_over = {}
    for e in cat:
        if e.kind == "operator":
            ops_over.setdefault(id(e.value.rep), []).append((e.id, e.value))
    for e in cat:
        if e.kind == "rep" and isinstance(e.value, AssocAction):
            act = e.value
            for op_id, cand in ops_over.get(id(act), []):
                for key, c in _with_perturbations(f"crossed:{e.id}|{op_id}", cand):
                    yield key, lambda c=c, act=act: crossed_module_check(act.base, act, c.map).status

    nil3, kx2 = by_id["nil3"], by_id["kx2"]
    yield "differential:nil3", lambda: _outcome(lambda: differential_dialgebra(nil3, "d"))
    for label, d in (("zero", LinearMap.zero(2)), ("[[0,0],[0,1]]", LinearMap([[0, 0], [0, 1]]))):
        a = _with_d(kx2, d)
        yield f"differential:kx2|{label}", lambda a=a: _outcome(
            lambda: differential_dialgebra(a, "d"))
    nil3_d = OperatorCandidate(nil3, nil3.maps["d"])
    for key, c in list(_with_perturbations("differential:nil3", nil3_d))[1:]:
        a = _with_d(nil3, c.map)
        yield key, lambda a=a: _outcome(lambda: differential_dialgebra(a, "d"))

    for e in cat:
        if e.kind == "rep" and isinstance(e.value, AssocBimodule):
            rep = e.value
            maps = list(ops_over.get(id(rep), []))
            if rep.v_dim == rep.base.dim:
                maps.insert(0, ("identity", OperatorCandidate(rep, LinearMap.identity(rep.v_dim))))
            for map_id, cand in maps:
                for key, c in _with_perturbations(f"bimodule-map:{e.id}|{map_id}", cand):
                    yield key, lambda c=c, rep=rep: _outcome(
                        lambda: bimodule_map_dialgebra(rep, c.map))


def replay():
    return {key: verdict() for key, verdict in cases()}


def test_gate_verdicts_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = replay()
    assert sorted(got) == sorted(want)
    diff = [k for k in want if got[k] != want[k]]
    assert not diff, f"{len(diff)} cases differ, first {diff[0]}: {got[diff[0]]} != {want[diff[0]]}"


def test_golden_covers_both_verdicts_of_every_gate():
    want = json.loads(GOLDEN.read_text())
    for gate, ok in (("crossed", "pass"), ("differential", "returned"), ("bimodule-map", "returned")):
        verdicts = {v for k, v in want.items() if k.startswith(gate + ":")}
        assert ok in verdicts and len(verdicts) > 1, (gate, verdicts)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    docs = replay()
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = [json.dumps(k) + ": " + json.dumps(v) for k, v in docs.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(docs)} cases to {GOLDEN}")

"""Replay of the recorded structure of every shipped identity schema.

The golden file holds, per table, a structural key of each schema it returns:
its name, both sides as trees (node type, op and map symbols, twist powers,
`Fraction` weights in term order, each variable's name and sort), its
`variables`, `copy_blocks` and `polarized` flag, and which schema objects are
one object (`obj`, numbered in order of first appearance over the whole
record), so a rebuild that shares or splits objects differently shows too.
The tables are:

* `schemas_for(tag)` for every `VarietyTag`, the classical Jordan dialgebra
  lists, `associativity_schema()` and `multiplicative_schema` for three
  symbols;
* `reps._rep_schemas(kind)` for every representation kind;
* `operators._rep_clauses()`, `operators._algebra_clauses()` and
  `operators._o_operator_clauses` at four weights;
* the three gate tables of `constructions`.

Record (only from schema builders whose trees are trusted):

    PYTHONPATH=src python tests/test_schema_golden.py --record
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

from homalg.constructions import _bimodule_map_schemas, _crossed_module_schemas, _differential_schemas
from homalg.engine import OpApp, Sum, TwistApp, Var
from homalg.operators import _algebra_clauses, _o_operator_clauses, _rep_clauses
from homalg.reps import REP_KINDS, _rep_schemas
from homalg.varieties import (
    VarietyTag,
    associativity_schema,
    classical_jordan_dialgebra_multilinear,
    classical_jordan_dialgebra_schemas,
    multiplicative_schema,
    schemas_for,
)

GOLDEN = Path(__file__).parent / "golden" / "schemas.json"


def tree(e):
    """The structural key of an expression tree."""
    if isinstance(e, Var):
        return ["var", e.name, e.sort]
    if isinstance(e, TwistApp):
        return ["tw", e.map_symbol, e.power, tree(e.child)]
    if isinstance(e, OpApp):
        return ["op", e.op_symbol, tree(e.left), tree(e.right)]
    if isinstance(e, Sum):
        assert all(type(w) is Fraction for w, _ in e.terms)
        return ["sum", [[str(w), tree(t)] for w, t in e.terms]]
    raise TypeError(e)


def tables():
    """(table name, the schemas it gives in order) for every pinned table."""
    yield from ((f"schemas_for:{tag.value}", schemas_for(tag)) for tag in VarietyTag)
    yield "classical_jordan_dialgebra_schemas", classical_jordan_dialgebra_schemas()
    yield "classical_jordan_dialgebra_multilinear", classical_jordan_dialgebra_multilinear()
    yield "associativity_schema", [associativity_schema()]
    yield "multiplicative_schema", [multiplicative_schema(s) for s in ("mul", "left", "bullet")]
    yield from ((f"rep_schemas:{kind}", _rep_schemas(kind)) for kind in REP_KINDS)
    for (rep_kind, kind), clauses in _rep_clauses().items():
        yield f"rep_clauses:{rep_kind}:{kind}", clauses
    for kind, clauses in _algebra_clauses().items():
        yield f"algebra_clauses:{kind}", clauses
    for w in ("0", "1", "-1/2", "7/3"):
        yield f"o_operator_clauses:{w}", _o_operator_clauses(Fraction(w))
    yield "bimodule_map_schemas:f", _bimodule_map_schemas("f")
    yield "differential_schemas", _differential_schemas()
    yield "crossed_module_schemas", _crossed_module_schemas()


def replay():
    objs = {}  # id -> (ordinal, schema); the schema is kept so no id is reused
    out = {}
    for label, schemas in tables():
        keys = []
        for s in schemas:
            obj = objs.setdefault(id(s), (len(objs), s))[0]
            keys.append({"name": s.name, "lhs": tree(s.lhs), "rhs": tree(s.rhs),
                         "variables": [list(v) for v in s.variables],
                         "copy_blocks": [list(b) for b in s.copy_blocks],
                         "polarized": s.polarized, "obj": obj})
        out[label] = keys
    return out


def test_every_shipped_schema_matches_golden():
    want = json.loads(GOLDEN.read_text())
    got = replay()
    assert list(got) == list(want)
    for label in want:
        assert got[label] == want[label], label


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    docs = replay()
    GOLDEN.parent.mkdir(exist_ok=True)
    blocks = (f" {json.dumps(label)}: [\n" + ",\n".join(f"  {json.dumps(k)}" for k in keys) + "\n ]"
              for label, keys in docs.items())
    GOLDEN.write_text("{\n" + ",\n".join(blocks) + "\n}\n")  # one schema a line
    print(f"recorded {sum(map(len, docs.values()))} schemas in {len(docs)} tables to {GOLDEN}")

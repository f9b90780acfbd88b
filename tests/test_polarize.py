"""Polarization by full linearization against inclusion-exclusion.

`reference_polarize` is the inclusion-exclusion polarization: a variable x
of multiplicity m becomes x__1..x__m and each side P turns into the sum over
nonempty S of {1..m} of (-1)^(m-|S|) P(sum_{i in S} x__i).  `polarize` must
give the same polynomial on each side, so both evaluate alike on any
vectors, and an exhaustive check over either gives the same verdict,
witness and tuple count.
"""

import random
from fractions import Fraction

import pytest

from homalg.engine import (
    IdentitySchema,
    Interpretation,
    OpApp,
    Sum,
    TwistApp,
    Var,
    ZERO,
    _scan,
    check_clauses,
    evaluate,
    op,
    polarize,
    rewrite,
    tw,
    var,
)
from homalg.exact import LinearMap, StructureTensor, Vector
from homalg.forge import perturb_product
from homalg.varieties import VarietyTag, classical_jordan_dialgebra_schemas, schemas_for

from test_engine_golden import instances


def _reference_polarize_one(expr, name, fresh, sort, mult):
    terms = []
    members = [Var(f, sort) for f in fresh]
    for mask in range(1, 1 << mult):
        chosen = [members[i] for i in range(mult) if mask >> i & 1]
        summed = chosen[0] if len(chosen) == 1 else Sum(tuple((Fraction(1), c) for c in chosen))
        sign = Fraction(-1) ** (mult - len(chosen))
        terms.append((sign, rewrite(expr, vars={name: summed})))
    return Sum(tuple(terms))


def reference_polarize(schema):
    """The inclusion-exclusion polarization, with polarize's variables and
    copy blocks."""
    if schema.is_multilinear():
        return schema
    lhs, rhs = schema.lhs, schema.rhs
    new_vars, blocks = [], []
    for name, sort, mult in schema.variables:
        if mult <= 1:
            new_vars.append((name, sort, 1))
            continue
        fresh = [f"{name}__{i}" for i in range(1, mult + 1)]
        new_vars.extend((f, sort, 1) for f in fresh)
        blocks.append(fresh)
        lhs = _reference_polarize_one(lhs, name, fresh, sort, mult)
        rhs = _reference_polarize_one(rhs, name, fresh, sort, mult)
    return IdentitySchema(schema.name, lhs, rhs, variables=new_vars, polarized=True,
                          copy_blocks=blocks)


def shipped_schemas():
    """Every schema the package ships, each once."""
    out = {}
    for tag in VarietyTag:
        for s in schemas_for(tag):
            out[id(s)] = s
    for s in classical_jordan_dialgebra_schemas():
        out[id(s)] = s
    return list(out.values())


def _rat(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def random_interpretation(schema, dim, rng):
    """Random rational data for every op and map the schema reads, on one sort A."""
    _, _, _, ops, maps = _scan((schema.lhs, schema.rhs))
    return Interpretation(
        sorts={"A": dim},
        ops={s: (StructureTensor([[[_rat(rng) for _ in range(dim)] for _ in range(dim)]
                                  for _ in range(dim)]), ("A", "A", "A")) for s in sorted(ops)},
        maps={s: (LinearMap([[_rat(rng) for _ in range(dim)] for _ in range(dim)]), ("A", "A"))
              for s in sorted(maps)},
    )


def assert_same_polynomial(schema, seed, dim=2, draws=4):
    """Both sides of polarize(schema) and reference_polarize(schema) agree on
    random rational vectors over random data."""
    got, want = polarize(schema), reference_polarize(schema)
    assert got.variables == want.variables
    assert got.copy_blocks == want.copy_blocks
    assert got.polarized and got.is_multilinear()
    rng = random.Random(seed)
    interp = random_interpretation(schema, dim, rng)
    for _ in range(draws):
        env = {n: Vector([_rat(rng) for _ in range(dim)]) for n, _, _ in got.variables}
        for side in ("lhs", "rhs"):
            assert (evaluate(getattr(got, side), env, interp)
                    == evaluate(getattr(want, side), env, interp)), (schema.name, side)


NON_MULTILINEAR = ["jordan", "jordan-tri-0", "classical-jordan-di-1", "classical-jordan-di-2"]


def test_shipped_non_multilinear_schemas_are_the_four():
    names = sorted({s.name for s in shipped_schemas() if not s.is_multilinear()})
    assert names == sorted(NON_MULTILINEAR)


@pytest.mark.parametrize("name", NON_MULTILINEAR)
def test_shipped_schema_polarizes_to_the_inclusion_exclusion_polynomial(name):
    for schema in (s for s in shipped_schemas() if s.name == name):
        for seed in range(3):
            assert_same_polynomial(schema, seed, dim=2 + seed % 2)


x, y, z = var("x"), var("y"), var("z")


def _edge_cases():
    mul = lambda u, w: op("mul", u, w)
    return [
        # a side that does not read the repeated variable is multiplied by
        # (-1)^(m+1): -1 at even multiplicity, +1 at odd
        IdentitySchema("sign-2", mul(x, x), tw("alpha", y)),
        IdentitySchema("sign-3", mul(mul(x, x), x), mul(y, z)),
        IdentitySchema("sign-zero", mul(x, mul(x, x)), ZERO),
        # two repeated variables in one schema
        IdentitySchema("two", mul(mul(x, y), mul(x, y)), mul(mul(y, x), mul(y, x))),
        IdentitySchema("two-mixed", mul(mul(x, x), mul(y, mul(y, y))), tw("alpha", z)),
        # weighted sums
        IdentitySchema("weights",
                       Fraction(1, 2) * mul(x, mul(y, x)) - 3 * mul(tw("alpha", x), mul(x, y)),
                       Fraction(2, 3) * mul(mul(x, x), tw("alpha", y, 2))),
        # twist powers over and under the copies
        IdentitySchema("twists", tw("alpha", mul(tw("alpha", x, 2), tw("beta", x)), 3),
                       tw("beta", mul(x, x), 2) + tw("alpha", mul(x, x))),
        # multiplicity 4
        IdentitySchema("four", mul(mul(x, x), mul(x, x)) + mul(x, mul(x, mul(x, x))),
                       2 * mul(mul(mul(x, x), x), x)),
        IdentitySchema("four-sign", mul(mul(x, x), mul(x, x)), tw("alpha", y)),
    ]


@pytest.mark.parametrize("schema", _edge_cases(), ids=lambda s: s.name)
def test_edge_case_polarizes_to_the_inclusion_exclusion_polynomial(schema):
    for seed in range(3):
        assert_same_polynomial(schema, seed)


def _copy_sums(expr, copies):
    """The Sum nodes of expr with a term that is a bare copy variable."""
    found = []

    def walk(e):
        if isinstance(e, TwistApp):
            walk(e.child)
        elif isinstance(e, OpApp):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, Sum):
            if any(isinstance(t, Var) and t.name in copies for _, t in e.terms):
                found.append(e)
            for _, t in e.terms:
                walk(t)

    walk(expr)
    return found


def test_polarized_shipped_clauses_sum_no_copies():
    # every copy enters as a bare basis variable; inclusion-exclusion feeds
    # sums such as x__1 + x__3 to the kernels
    for schema in shipped_schemas():
        if schema.is_multilinear():
            continue
        for pol, sums in ((polarize(schema), False), (reference_polarize(schema), True)):
            copies = {n for block in pol.copy_blocks for n in block}
            assert bool(_copy_sums(pol.lhs, copies) + _copy_sums(pol.rhs, copies)) is sums


def _witness_fields(report):
    w = report.witness
    if w is None:
        return None
    return (w.identity, w.variables, w.indices, w.lhs_value._n, w.lhs_value._d,
            w.rhs_value._n, w.rhs_value._d)


def test_checks_agree_with_the_reference_on_jordan_type_outputs():
    """Each Jordan-type catalog output and a few unit bumps of each product:
    check_clauses over the polarized schema and over the reference give the
    same status, witness and tuples_checked."""
    cases = failing = 0
    for iid, a in instances():
        schemas = [s for s in schemas_for(a.variety) if not s.is_multilinear()]
        if not schemas:
            continue
        bents = [a]
        for sym in sorted(a.products):
            rng = random.Random(f"{iid}|{sym}")
            for _ in range(2):
                where = tuple(rng.randrange(a.dim) for _ in range(3))
                bents.append(perturb_product(a, sym, where, Fraction(1)))
        for b in bents:
            interp = b.interpretation()
            for schema in schemas:
                got = check_clauses((schema,), interp, "got")
                want = check_clauses((reference_polarize(schema),), interp, "got")
                assert (got.status, _witness_fields(got), got.tuples_checked) == (
                    want.status, _witness_fields(want), want.tuples_checked), (iid, schema.name)
                assert got.tuples_evaluated <= want.tuples_evaluated
                cases += 1
                failing += got.status == "fail"
    assert (cases, failing) == (113, 52)

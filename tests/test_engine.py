from fractions import Fraction

import pytest

from homalg.engine import (
    IdentitySchema,
    Interpretation,
    SemanticError,
    ZERO,
    check_all,
    check_clauses,
    check_schema,
    check_schema_random,
    evaluate,
    op,
    polarize,
    rewrite,
    tw,
    var,
)
from homalg.exact import LinearMap, StructureTensor, Vector
from homalg.varieties import associativity_schema


def interp_for(tensor, alpha=None, symbol="mul"):
    dim = tensor.left_dim
    return Interpretation(
        sorts={"A": dim},
        ops={symbol: (tensor, ("A", "A", "A"))},
        maps={"alpha": (alpha or LinearMap.identity(dim), ("A", "A"))},
    )


KX2 = StructureTensor.square_from_rule(
    2, {(0, 0): [1, 0], (0, 1): [0, 1], (1, 0): [0, 1]}
)
BAD = StructureTensor.square_from_rule(2, {(0, 0): [0, 1], (1, 1): [1, 0]})


def test_check_schema_passes_truncated_polynomials():
    assert check_schema(associativity_schema(), interp_for(KX2)).ok


def test_check_schema_first_witness_is_frozen():
    # c[0][0][1] = 1, c[1][1][0] = 1: first violating triple in lex order is
    # (e1, e1, e2) where (e1 e1) e2 = e2 e2 = e1 but e1 (e1 e2) = 0
    report = check_schema(associativity_schema(), interp_for(BAD))
    assert report.status == "fail"
    assert report.witness.indices == (0, 0, 1)
    assert report.witness.lhs_value == Vector.basis(2, 0)
    assert report.witness.rhs_value.is_zero()


def test_check_schema_zero_product_passes():
    assert check_schema(associativity_schema(), interp_for(StructureTensor.zero(3))).ok


def test_check_schema_deterministic():
    r1 = check_schema(associativity_schema(), interp_for(BAD))
    r2 = check_schema(associativity_schema(), interp_for(BAD))
    assert r1.witness.indices == r2.witness.indices
    assert r1.status == r2.status


def test_evaluation_cost_bound():
    # a passing 3-slot schema over dimension n runs exactly n^3 tuples
    report = check_schema(associativity_schema(), interp_for(KX2))
    assert report.tuples_checked == 2 ** 3
    report = check_schema(associativity_schema(), interp_for(StructureTensor.zero(3)))
    assert report.tuples_checked == 3 ** 3


def test_unbound_symbol_is_semantic_error():
    schema = IdentitySchema("nope", op("missing", var("x"), var("y")), ZERO)
    with pytest.raises(SemanticError):
        check_schema(schema, interp_for(KX2))


# ---------------------------------------------------------------------------
# polarization


def test_polarize_multilinear_identity_returned_unchanged():
    schema = associativity_schema()
    assert polarize(schema) is schema


def test_polarize_square_form_by_hand():
    # P(x) = x o x on the one-dimensional algebra e1 o e1 = e1.
    # Inclusion-exclusion gives L(a, b) = P(a+b) - P(a) - P(b) = 2 (a o b).
    schema = IdentitySchema("square", op("circ", var("x"), var("x")), ZERO)
    pol = polarize(schema)
    names = [n for n, _, _ in pol.variables]
    assert len(names) == 2 and pol.is_multilinear()
    one = StructureTensor([[[1]]])
    interp = interp_for(one, symbol="circ")
    e1 = Vector.basis(1, 0)
    val = evaluate(pol.lhs, {names[0]: e1, names[1]: e1}, interp)
    assert val.coords == (Fraction(2),)
    # vanishes iff the product is zero
    assert not check_schema(schema, interp).ok
    assert check_schema(schema, interp_for(StructureTensor.zero(1), symbol="circ")).ok


def test_polarize_hom_jordan_shape():
    from homalg.varieties import schemas_for, VarietyTag

    jordan = [s for s in schemas_for(VarietyTag.HOM_JORDAN) if s.name == "jordan"][0]
    assert dict((n, m) for n, _, m in jordan.variables) == {"x": 3, "y": 1}
    pol = polarize(jordan)
    assert len(pol.variables) == 4
    assert pol.is_multilinear()


def test_polarize_cube_matches_hand_expansion():
    # P(x) = (x o x) o x; on the 1-dim algebra with e o e = e the polarized
    # form evaluates to 3! = 6 on the all-e tuple.
    e = var("x")
    schema = IdentitySchema("cube", op("circ", op("circ", e, e), e), ZERO)
    pol = polarize(schema)
    assert len(pol.variables) == 3
    one = StructureTensor([[[1]]])
    interp = interp_for(one, symbol="circ")
    e1 = Vector.basis(1, 0)
    env = {n: e1 for n, _, _ in pol.variables}
    assert evaluate(pol.lhs, env, interp).coords == (Fraction(6),)


def test_non_homogeneous_schema_rejected():
    x = var("x")
    with pytest.raises(SemanticError):
        IdentitySchema("mixed", op("mul", x, x) + x, ZERO)


# ---------------------------------------------------------------------------
# random cross-checks


def test_random_agrees_on_pass():
    interp = interp_for(KX2)
    assert check_schema_random(associativity_schema(), interp, 50, 1).ok


def test_random_agrees_on_fail():
    interp = interp_for(BAD)
    assert not check_schema_random(associativity_schema(), interp, 50, 1).ok


def test_random_zero_product():
    interp = interp_for(StructureTensor.zero(2))
    for seed in range(5):
        assert check_schema_random(associativity_schema(), interp, 50, seed).ok


def test_twist_power_evaluation():
    alpha = LinearMap.diagonal([2, 3])
    interp = interp_for(KX2, alpha=alpha)
    x = var("x")
    val = evaluate(tw("alpha", x, 2), {"x": Vector.basis(2, 1)}, interp)
    assert val == Vector([0, 9])


# ---------------------------------------------------------------------------
# compiled evaluation


def _jordan_schema():
    from homalg.varieties import schemas_for, VarietyTag

    return [s for s in schemas_for(VarietyTag.HOM_JORDAN) if s.name == "jordan"][0]


def test_polarize_records_copy_blocks():
    pol = polarize(_jordan_schema())
    assert pol.copy_blocks == (("x__1", "x__2", "x__3"),)
    assert associativity_schema().copy_blocks == ()


def test_polarized_jordan_visits_sorted_copy_blocks_only():
    # x__1 <= x__2 <= x__3 and a free y: n * C(n+2, 3) tuples instead of n^4
    from math import comb

    from homalg.forge import truncated_polynomial_algebra
    from homalg.reps import plus_algebra

    for n in (1, 2, 3, 6):
        report = check_schema(_jordan_schema(),
                              plus_algebra(truncated_polynomial_algebra(n)).interpretation())
        assert report.ok
        assert report.tuples_checked == n * comb(n + 2, 3)
    assert report.tuples_checked == 336


def test_copy_like_names_are_not_copy_blocks():
    # variables merely named like polarized copies enumerate every tuple
    x1, x2 = var("x__1"), var("x__2")
    schema = IdentitySchema("named", op("mul", x1, x2), op("mul", x2, x1))
    assert schema.copy_blocks == ()
    commutative = StructureTensor.square_from_rule(3, {(0, 1): [0, 0, 1], (1, 0): [0, 0, 1]})
    assert check_schema(schema, interp_for(commutative)).tuples_checked == 3 ** 2
    # e1 e2 = e3 but e2 e1 = 0: naive enumeration fails first at (e1, e2)
    skew = StructureTensor.square_from_rule(3, {(0, 1): [0, 0, 1]})
    report = check_schema(schema, interp_for(skew))
    assert report.witness.indices == (0, 1)
    assert report.tuples_checked == 2
    assert report.witness.lhs_value == Vector([0, 0, 1])
    assert report.witness.rhs_value.is_zero()


def test_bad_copy_block_rejected():
    x, y, z = var("x"), var("y"), var("z")
    commutativity = (op("mul", x, y), op("mul", y, x))
    for block in [("x", "w"), ("y", "x"), ("x", "x")]:
        schema = IdentitySchema("bad", *commutativity, copy_blocks=[block])
        with pytest.raises(SemanticError):
            check_schema(schema, interp_for(KX2))
    two_blocks = IdentitySchema("overlap", op("mul", op("mul", x, y), z), ZERO,
                                copy_blocks=[("x", "y"), ("y", "z")])
    with pytest.raises(SemanticError):
        check_schema(two_blocks, interp_for(KX2))


def test_sides_with_different_denominators_compare_exactly():
    # left = -1/2 and right = -1 on one dimension: both sides of bar-left
    # have numerator 1, over denominators 2 and 1
    from homalg.varieties import schemas_for, VarietyTag

    interp = Interpretation(
        sorts={"A": 1},
        ops={"left": (StructureTensor([[[Fraction(-1, 2)]]]), ("A", "A", "A")),
             "right": (StructureTensor([[[-1]]]), ("A", "A", "A"))},
        maps={"alpha": (LinearMap.identity(1), ("A", "A"))},
    )
    schema = schemas_for(VarietyTag.HOM_ASSOCIATIVE_DIALGEBRA)[0]
    report = check_schema(schema, interp)
    assert report.status == "fail"
    assert report.witness.lhs_value == Vector([Fraction(1, 2)])
    assert report.witness.rhs_value == Vector([1])


def test_evaluate_matches_direct_exact_arithmetic():
    import random

    rng = random.Random(5)
    rat = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    mul = StructureTensor([[[rat() for _ in range(3)] for _ in range(3)] for _ in range(3)])
    alpha = LinearMap([[rat() for _ in range(3)] for _ in range(3)])
    interp = interp_for(mul, alpha=alpha)
    x, y, z = var("x"), var("y"), var("z")
    expr = op("mul", tw("alpha", op("mul", x, x), 2), y - Fraction(2, 3) * z) + x
    for _ in range(5):
        vx, vy, vz = (Vector([rat() for _ in range(3)]) for _ in range(3))
        a2 = alpha.power(2)
        want = mul.apply(a2.apply(mul.apply(vx, vx)), vy - vz.scale(Fraction(2, 3))) + vx
        assert evaluate(expr, {"x": vx, "y": vy, "z": vz}, interp) == want


def test_sorted_enumeration_finds_the_naive_first_witness():
    # a twisted non-Jordan algebra: the first violating tuple of all n^4
    # (evaluated term by term) is the witness of the sorted enumeration
    import itertools

    from homalg.forge import truncated_polynomial_algebra
    from homalg.reps import plus_algebra

    circ = plus_algebra(truncated_polynomial_algebra(3)).product("circ")
    alpha = LinearMap([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    interp = interp_for(circ, alpha=alpha, symbol="circ")
    pol = polarize(_jordan_schema())
    names = [n for n, _, _ in pol.variables]
    for combo in itertools.product(range(3), repeat=len(names)):
        env = {n: Vector.basis(3, i) for n, i in zip(names, combo)}
        lhs, rhs = evaluate(pol.lhs, env, interp), evaluate(pol.rhs, env, interp)
        if lhs != rhs:
            break
    report = check_schema(_jordan_schema(), interp)
    assert report.status == "fail"
    assert report.witness.indices == combo
    assert (report.witness.lhs_value, report.witness.rhs_value) == (lhs, rhs)
    assert report.tuples_checked < 3 ** 4


def test_map_across_sorts_evaluates_at_power_one():
    # K : V -> A is a valid symbol at power 1; it has no powers of its own
    K = LinearMap([[1, 0]])
    interp = Interpretation({"A": 1, "V": 2}, {}, {"K": (K, ("V", "A"))})
    u = var("u", "V")
    assert check_schema(IdentitySchema("k", tw("K", u), tw("K", u)), interp).ok
    report = check_schema(IdentitySchema("k-zero", tw("K", u), ZERO), interp)
    assert report.witness.indices == (0,)
    assert report.witness.lhs_value == Vector([1])
    assert evaluate(tw("K", u), {"u": Vector([3, 5])}, interp) == Vector([3])


def test_rewrite_substitutes_and_renames():
    x, y = var("x"), var("y")
    expr = tw("alpha", op("mul", x, y)) + op("mul", y, x)
    out = rewrite(expr, vars={"x": var("x", "V")}, maps={"alpha": "beta"}, ops={"mul": "vmul"})
    assert repr(out) == "1*beta^1(vmul(x,y)) + 1*vmul(y,x)"
    assert out.terms[0][1].child.left.sort == "V"
    assert repr(rewrite(expr)) == repr(expr)


def test_check_clauses_compares_every_clause_on_a_tuple_first():
    # e1 e1 = e2, e1 e2 = e1, e2 e1 = 0: commutativity first fails at (e1, e2),
    # but "vanishes" already fails at (e1, e1)
    t = StructureTensor.square_from_rule(2, {(0, 0): [0, 1], (0, 1): [1, 0]})
    x, y = var("x"), var("y")
    commutes = IdentitySchema("commutes", op("mul", x, y), op("mul", y, x))
    vanishes = IdentitySchema("vanishes", op("mul", x, y), ZERO)
    report = check_clauses([commutes, vanishes], interp_for(t), "pair")
    assert (report.check, report.witness.identity, report.witness.indices) == (
        "pair", "vanishes", (0, 0))
    assert report.witness.lhs_value == Vector([0, 1])
    assert report.tuples_checked == 1
    # clause by clause, the first clause's own first witness is reported
    assert check_all([commutes, vanishes], interp_for(t), "pair").witness.identity == "commutes"
    assert check_clauses([commutes], interp_for(KX2), "one").tuples_checked == 4


def test_check_clauses_needs_one_variable_list():
    x, y = var("x"), var("y")
    two = IdentitySchema("two", op("mul", x, y), op("mul", y, x))
    one = IdentitySchema("one", op("mul", x, x), ZERO)
    with pytest.raises(SemanticError, match="one variable list"):
        check_clauses([two, one], interp_for(KX2), "mixed")


def test_sparse_data_is_computed_once_per_object():
    t = StructureTensor.square_from_rule(2, {(0, 0): [1, 0], (0, 1): [0, 1]})
    alpha = LinearMap([[1, 0], [0, 2]])
    interp = interp_for(t, alpha)
    schema = IdentitySchema("twisted", tw("alpha", op("mul", var("x"), var("y"))), ZERO)
    assert t._compiled is None and alpha._compiled is None
    check_schema(schema, interp)
    rows, cols = t._compiled, alpha._compiled
    assert rows[0][1] == [(1, 1)] and cols[1] == [(1, 2)]
    check_schema(schema, interp)
    assert t._compiled is rows and alpha._compiled is cols


# ---------------------------------------------------------------------------
# evaluation plans: built once per clause tuple and shape, bound per call


def _plans(schema):
    return [p for clause_set in schema.plans.values() for ps in clause_set.by_shape.values() for p in ps]


def _fresh(schema):
    """A copy with no plans, so checking it compiles from scratch."""
    return IdentitySchema(schema.name, schema.lhs, schema.rhs, schema.variables,
                          schema.polarized, schema.copy_blocks)


def _same(a, b):
    assert (a.status, a.check, a.tuples_checked, a.detail) == (
        b.status, b.check, b.tuples_checked, b.detail)
    if a.witness is not None or b.witness is not None:
        wa, wb = a.witness, b.witness
        assert (wa.identity, wa.variables, wa.indices) == (wb.identity, wb.variables, wb.indices)
        assert (wa.lhs_value.coords, wa.rhs_value.coords) == (
            wb.lhs_value.coords, wb.rhs_value.coords)


def _bumped(tensor, i, j, k, by=1):
    coeffs = [[list(row) for row in plane] for plane in tensor.coeffs]
    coeffs[i][j][k] += by
    return StructureTensor(coeffs)


def test_a_rebound_plan_reports_what_a_cold_compile_reports():
    schema = associativity_schema()
    twist = LinearMap([[1, 0], [0, 2]])
    assert check_schema(schema, interp_for(KX2)).ok
    for tensor in (_bumped(KX2, 0, 1, 0), _bumped(KX2, 1, 1, 1, Fraction(1, 3)), BAD):
        for alpha in (None, twist):
            interp = interp_for(tensor, alpha)
            _same(check_schema(schema, interp), check_schema(_fresh(schema), interp))
    # one plan for the identity twist, one for diag(1, 2)
    assert len(_plans(schema)) == 2
    # a plan holds no dimensions: the same plan serves dimension 3
    kx3 = StructureTensor.square_from_rule(3, {(0, j): [int(k == j) for k in range(3)]
                                               for j in range(3)})
    assert check_schema(schema, interp_for(kx3)).ok
    assert len(_plans(schema)) == 2


def test_guards_separate_identity_powers_and_zero_products():
    x, y = var("x"), var("y")
    involutive = IdentitySchema("involutive", tw("alpha", x, 2), x)
    swap, shear = LinearMap([[0, 1], [1, 0]]), LinearMap([[1, 1], [0, 1]])
    assert check_schema(involutive, interp_for(KX2, swap)).ok
    sheared = check_schema(involutive, interp_for(KX2, shear))
    assert sheared.witness.indices == (1,)
    assert sheared.witness.lhs_value == Vector([2, 1])
    _same(sheared, check_schema(_fresh(involutive), interp_for(KX2, shear)))
    assert check_schema(involutive, interp_for(KX2, swap)).ok
    assert len(_plans(involutive)) == 2

    vanishes = IdentitySchema("vanishes", op("mul", x, y), ZERO)
    assert check_schema(vanishes, interp_for(StructureTensor.zero(2))).ok
    report = check_schema(vanishes, interp_for(KX2))
    assert report.witness.indices == (0, 0) and report.witness.lhs_value == Vector([1, 0])
    _same(report, check_schema(_fresh(vanishes), interp_for(KX2)))
    assert check_schema(vanishes, interp_for(StructureTensor.zero(2))).ok
    assert len(_plans(vanishes)) == 2


def test_a_schema_built_per_call_takes_its_plans_with_it():
    import gc
    import weakref

    x, y = var("x"), var("y")
    schema = IdentitySchema("per-call", op("mul", x, y), op("mul", y, x))
    assert check_schema(schema, interp_for(KX2)).ok
    assert _plans(schema)
    ref = weakref.ref(schema)
    del schema
    gc.collect()
    assert ref() is None


def test_random_and_evaluate_agree_with_a_cold_compile():
    schema = associativity_schema()
    for tensor in (KX2, BAD, _bumped(KX2, 1, 0, 0, Fraction(-1, 2))):
        interp = interp_for(tensor, LinearMap([[1, 0], [0, 3]]))
        for seed in range(3):
            _same(check_schema_random(schema, interp, 20, seed),
                  check_schema_random(_fresh(schema), interp, 20, seed))
        x, y = Vector([Fraction(1, 2), 3]), Vector([-1, Fraction(2, 3)])
        expr = op("mul", tw("alpha", var("x")), var("y"))
        alpha = interp.maps["alpha"][0]
        assert evaluate(expr, {"x": x, "y": y}, interp) == tensor.apply(alpha.apply(x), y)


def test_schema_builders_return_the_same_objects():
    from homalg.constructions import _bimodule_map_schemas, _differential_schemas
    from homalg.reps import _rep_schemas
    from homalg.varieties import VarietyTag, schemas_for

    for build, arg in ((schemas_for, VarietyTag.HOM_JORDAN), (_rep_schemas, "action"),
                       (_bimodule_map_schemas, "f")):
        assert build(arg) is build(arg) and isinstance(build(arg), tuple)
    assert _differential_schemas() is _differential_schemas()

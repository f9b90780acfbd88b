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


def test_random_needs_a_sample():
    for samples in (0, -1):
        with pytest.raises(SemanticError, match="at least one sample"):
            check_schema_random(associativity_schema(), interp_for(KX2), samples, 1)


def test_random_zero_product():
    interp = interp_for(StructureTensor.zero(2))
    for seed in range(5):
        assert check_schema_random(associativity_schema(), interp, 50, seed).ok


def test_evaluate_unbound_variable_is_semantic_error():
    v = Vector.basis(2, 0)
    with pytest.raises(SemanticError, match="unbound variable 'y'"):
        evaluate(op("mul", var("x"), var("y")), {"x": v}, interp_for(KX2))
    with pytest.raises(SemanticError, match="sort 'V' has no dimension binding"):
        evaluate(var("u", "V"), {"u": v}, interp_for(KX2))


def test_the_identity_flag_reads_the_maps_content():
    # the flag kept with a map's power-1 entry says "identity" for every map
    # equal to the identity, however it was built, and for no other map
    from homalg.engine import _power, twist_gap

    identities = [LinearMap.identity(3), LinearMap([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                  LinearMap([[Fraction(2, 2), 0, 0], [0, 1, 0], [0, 0, Fraction(3, 3)]]),
                  LinearMap.diagonal([1, 1, 1]),
                  LinearMap._make([[4, 0, 0], [0, 4, 0], [0, 0, 4]], 4, 3, 3),
                  LinearMap.identity(2).power(3), LinearMap.identity(1)]
    others = [LinearMap.diagonal([1, 1, 2]), LinearMap.zero(3), LinearMap.zero(2, 3),
              LinearMap([[0, 1], [1, 0]]), LinearMap([[1, 1], [0, 1]]),
              LinearMap([[1, 0], [0, 1], [0, 0]]), LinearMap([[1, 0, 0], [0, 1, 0]]),
              LinearMap._make([[4, 0], [0, 2]], 4, 2, 2), LinearMap.diagonal([-1, -1])]
    for lin in identities + others:
        twin = LinearMap(lin.matrix)  # equal content, another object
        assert _power(lin, 1)[3] is _power(twin, 1)[3] is (lin == LinearMap.identity(lin.src_dim))
    assert all(_power(lin, 1)[3] for lin in identities)
    # twist_gap decides K.beta == alpha.K for every mix of identity twists
    K = LinearMap([[1, 2], [0, 3]])
    twists = [LinearMap.identity(2), LinearMap._make([[5, 0], [0, 5]], 5, 2, 2),
              LinearMap([[0, 1], [1, 0]]), LinearMap.diagonal([1, 2]), LinearMap([[1, 1], [0, 1]])]
    verdicts = set()
    for alpha in twists:
        for beta in twists:
            gap = twist_gap(K._n, alpha, beta)
            assert (gap is None) == (K.compose(beta) == alpha.compose(K)), (alpha, beta)
            verdicts.add(gap is None)
    assert verdicts == {True, False}


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
    tensor_data, map_data = t._compiled, alpha._compiled
    (rows, row_masks, col_masks, p, q), (cols, col_support) = tensor_data, map_data
    assert rows[0][1] == [(1, 1)] and cols[1] == [(1, 2)]
    # e1 e1 and e1 e2 are nonzero, e2 e_j is zero; both columns of alpha are nonzero
    assert (row_masks, col_masks, col_support) == ([0b11, 0], [0b01, 0b01], 0b11)
    # this schema reads no op(c, n) with n past the last slot: no per-output masks
    assert p is None and q is None
    check_schema(schema, interp)
    assert t._compiled is tensor_data and alpha._compiled is map_data
    kept = list(tensor_data)

    # x (y z) and (x y) z need P (x (y z)) and Q ((y z) x)-style masks once
    x, y, z = var("x"), var("y"), var("z")
    nested = IdentitySchema("nested", op("mul", x, op("mul", y, z)),
                            op("mul", op("mul", z, y), x), variables=[("x", "A", 1),
                                                                      ("y", "A", 1),
                                                                      ("z", "A", 1)])
    check_schema(nested, interp)
    p, q = tensor_data[3], tensor_data[4]
    # coordinate k of e_i e_j: e1 e1 = e1, e1 e2 = e2
    assert p == [[0b01, 0b10], [0, 0]] and q == [[0b01, 0], [0, 0b01]]
    assert t._compiled is tensor_data and tensor_data[:3] == kept[:3]
    assert all(a is b for a, b in zip(tensor_data[:3], kept[:3]))
    for _ in range(2):
        check_schema(nested, interp)
        check_schema(_fresh(nested), interp)
        assert t._compiled is tensor_data
        assert tensor_data[3] is p and tensor_data[4] is q


def test_twist_powers_are_built_once_per_map(monkeypatch, cold_binds):
    # alpha^2 is the identity, so the plan is guarded on that flag; a second
    # check over a fresh tensor misses the verdict memo and re-reads the
    # guard, from the power data kept on alpha
    alpha = LinearMap([[0, 1], [1, 0]])
    xy = op("mul", var("x"), var("y"))
    schema = IdentitySchema("square-twist", tw("alpha", xy, 2), xy)
    first = check_schema(schema, interp_for(KX2, alpha))
    real, calls = LinearMap.power, []

    def power(self, k):
        calls.append(k)
        return real(self, k)

    monkeypatch.setattr(LinearMap, "power", power)
    bound = len(cold_binds)
    second = check_schema(schema, interp_for(StructureTensor(KX2.coeffs), alpha))
    assert len(cold_binds) == bound + 1  # a bound check, not a memo hit
    assert calls == []
    assert first.ok and second.ok
    assert check_schema(schema, interp_for(KX2, LinearMap([[0, 1], [2, 0]]))).status == "fail"
    assert calls == [2]


# ---------------------------------------------------------------------------
# evaluation plans: built once per clause tuple and shape, bound per call


def _plans(schema):
    return [p for clause_set in schema.plans.values() for entry in clause_set.by_shape.values()
            for p in entry.plans]


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


# ---------------------------------------------------------------------------
# support masks: the pruned last slot against a naive enumeration


def _naive_value(expr, env, interp):
    """An expression's value by plain exact arithmetic; None for a zero of no sort."""
    from homalg.engine import OpApp, Sum, TwistApp, Var

    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, TwistApp):
        child = _naive_value(expr.child, env, interp)
        if child is None:
            return None
        lin = interp.maps[expr.map_symbol][0]  # a map across sorts has power 1
        return (lin if expr.power == 1 else lin.power(expr.power)).apply(child)
    if isinstance(expr, OpApp):
        left, right = _naive_value(expr.left, env, interp), _naive_value(expr.right, env, interp)
        if left is None or right is None:
            return None
        return interp.ops[expr.op_symbol][0].apply(left, right)
    assert isinstance(expr, Sum)
    acc = None
    for w, term in expr.terms:
        value = _naive_value(term, env, interp)
        if value is not None:
            value = value.scale(w)
            acc = value if acc is None else acc + value
    return acc


def _naive_check(clauses, interp):
    """(status, clause, indices, lhs, rhs, tuples) over every tuple, sorted in copy blocks."""
    import itertools

    clauses = [polarize(c) for c in clauses]
    variables = clauses[0].variables
    slot = {name: p for p, (name, _, _) in enumerate(variables)}
    blocks = [[slot[name] for name in block] for block in clauses[0].copy_blocks]
    dims = [interp.sorts[sort] for _, sort, _ in variables]
    count = 0
    for combo in itertools.product(*map(range, dims)):
        if any(combo[a] > combo[b] for block in blocks for a, b in zip(block, block[1:])):
            continue
        count += 1
        env = {name: Vector.basis(d, i) for (name, _, _), d, i in zip(variables, dims, combo)}
        for c in clauses:
            lhs, rhs = _naive_value(c.lhs, env, interp), _naive_value(c.rhs, env, interp)
            if lhs is None and rhs is None:
                continue
            lhs = Vector.zero(rhs.dim) if lhs is None else lhs
            rhs = Vector.zero(lhs.dim) if rhs is None else rhs
            if lhs.coords != rhs.coords:
                return "fail", c.name, combo, lhs.coords, rhs.coords, count
    return "pass", None, None, None, None, count


def _observed(report):
    w = report.witness
    if w is None:
        return report.status, None, None, None, None, report.tuples_checked
    return (report.status, w.identity, w.indices, w.lhs_value.coords, w.rhs_value.coords,
            report.tuples_checked)


_ENTRIES = (1, -1, 2, Fraction(1, 2), Fraction(-3, 2))


def _sparse_tensor(rng, ld, rd, od):
    """A random tensor with some zero rows and columns, or the zero tensor."""
    density = rng.choice((0.0, 0.15, 0.3, 0.6))
    zero_rows = {i for i in range(ld) if rng.random() < 0.3}
    zero_cols = {j for j in range(rd) if rng.random() < 0.3}
    return StructureTensor([[[rng.choice(_ENTRIES)
                              if i not in zero_rows and j not in zero_cols
                              and rng.random() < density else 0
                              for _ in range(od)] for j in range(rd)] for i in range(ld)])


def _sparse_map(rng, src, dst):
    """A random map with zero columns; square ones may be identity or nilpotent."""
    kind = rng.choice(("sparse", "identity", "nilpotent") if src == dst else ("sparse",))
    if kind == "identity":
        return LinearMap.identity(src)
    zero_cols = {j for j in range(src) if rng.random() < 0.3}
    return LinearMap([[rng.choice(_ENTRIES)
                       if j not in zero_cols and rng.random() < 0.5
                       and (kind == "sparse" or j > i) else 0
                       for j in range(src)] for i in range(dst)])


def _assert_pruning_matches_naive(cases):
    statuses = set()
    for clauses, interp in cases:
        want = _naive_check(clauses, interp)
        assert _observed(check_clauses(clauses, interp, "diff")) == want, (clauses, want)
        statuses.add(want[0])
    assert statuses == {"pass", "fail"}


def _algebra_interp(rng, ops, n):
    return Interpretation({"A": n}, {s: (_sparse_tensor(rng, n, n, n), ("A", "A", "A"))
                                     for s in ops},
                          {"alpha": (_sparse_map(rng, n, n), ("A", "A"))})


def test_pruned_enumeration_matches_naive_on_sparse_algebras():
    import random

    from homalg.varieties import VarietyTag, schemas_for

    rng = random.Random(8)
    tags = {VarietyTag.HOM_ASSOCIATIVE: ("mul",), VarietyTag.HOM_LIE: ("bracket",),
            VarietyTag.HOM_LEIBNIZ: ("brace",), VarietyTag.HOM_JORDAN: ("circ",),
            VarietyTag.HOM_ASSOCIATIVE_DIALGEBRA: ("left", "right"),
            VarietyTag.HOM_ASSOCIATIVE_TRIALGEBRA: ("left", "right", "middle")}
    cases = []
    for tag, ops in tags.items():
        for schema in schemas_for(tag):
            for _ in range(12):
                n = rng.randint(1, 3 if schema.is_multilinear() else 2)
                cases.append(((schema,), _algebra_interp(rng, ops, n)))
    _assert_pruning_matches_naive(cases)


def test_pruned_enumeration_matches_naive_on_copy_blocks_ending_in_the_last_slot():
    # Hom-Jordan with y declared first: the block x__1 <= x__2 <= x__3 ends in
    # the last slot, whose lower bound is then the index of x__2
    import random

    jordan = _jordan_schema()
    y_first = IdentitySchema("jordan-y-first", jordan.lhs, jordan.rhs,
                             variables=[("y", "A", 1), ("x", "A", 3)])
    square = IdentitySchema("square", op("circ", var("x"), var("x")), ZERO)
    assert polarize(y_first).copy_blocks == (("x__1", "x__2", "x__3"),)
    rng = random.Random(9)
    cases = []
    for schema in (y_first, jordan, square):
        for _ in range(15):
            cases.append(((schema,), _algebra_interp(rng, ("circ",), rng.randint(1, 3))))
    _assert_pruning_matches_naive(cases)


def test_pruned_enumeration_matches_naive_on_operator_clauses():
    # cross-sort K : V -> A, inside products and as a one-variable side
    import random

    from homalg.operators import _algebra_clauses, _rep_clauses

    rng = random.Random(10)
    u = var("u", "V")
    tables = list(dict.fromkeys(_rep_clauses().values())) + [
        (IdentitySchema("k-vanishes", tw("K", u), ZERO),)]
    cases = []
    for clauses in tables:
        for _ in range(10):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            ops = {s: (_sparse_tensor(rng, n, m, m), ("A", "V", "V"))
                   for s in ("l", "r", "rho", "pi")}
            ops |= {s: (_sparse_tensor(rng, n, n, n), ("A", "A", "A"))
                    for s in ("mul", "bracket", "circ")}
            ops |= {s: (_sparse_tensor(rng, m, m, m), ("V", "V", "V"))
                    for s in ("vmul", "vbracket", "vstar")}
            maps = {"K": (_sparse_map(rng, m, n), ("V", "A"))}
            cases.append((clauses, Interpretation({"A": n, "V": m}, ops, maps)))
    for clauses in _algebra_clauses().values():
        for _ in range(10):
            n = rng.randint(1, 3)
            interp = _algebra_interp(rng, ("mu",), n)
            maps = {"T": (_sparse_map(rng, n, n), ("A", "A"))}
            cases.append((clauses, Interpretation(interp.sorts, interp.ops, maps)))
    _assert_pruning_matches_naive(cases)


def test_pruned_enumeration_matches_naive_on_cancelling_and_prefix_sides():
    # weighted sums whose terms cancel (mul2 is mul's data, or a bumped copy),
    # sums with a term that does not read the last slot, sides that do not
    # read it at all, and one-variable schemas
    import random

    x, y, z = var("x"), var("y"), var("z")
    xyz = [("x", "A", 1), ("y", "A", 1), ("z", "A", 1)]
    half = Fraction(1, 2)
    schemas = [
        IdentitySchema("cancel", op("mul", x, op("mul", y, z)),
                       half * op("mul2", x, op("mul", y, z)) + half * op("mul", x, op("mul2", y, z))),
        IdentitySchema("cancel-to-zero", op("mul", op("mul", x, y), z)
                       - op("mul2", op("mul", x, y), z), ZERO),
        IdentitySchema("prefix-side", op("mul", x, y), op("mul", op("mul", x, y), z),
                       variables=xyz),
        IdentitySchema("prefix-term", op("mul", tw("alpha", x), y) + op("mul", x, z),
                       op("mul2", x, y) + op("mul2", x, z), variables=xyz),
        IdentitySchema("unread-last", op("mul", x, y), op("mul2", y, x), variables=xyz),
        IdentitySchema("involutive", tw("alpha", x, 2), x),
        IdentitySchema("nilpotent", tw("alpha", x, 2), ZERO),
    ]
    rng = random.Random(11)
    cases = []
    for schema in schemas:
        for _ in range(12):
            n = rng.randint(1, 3)
            interp = _algebra_interp(rng, ("mul",), n)
            mul = interp.ops["mul"][0]
            mul2 = mul if rng.random() < 0.5 else _sparse_tensor(rng, n, n, n)
            ops = interp.ops | {"mul2": (mul2, ("A", "A", "A"))}
            cases.append(((schema,), Interpretation(interp.sorts, ops, interp.maps)))
    _assert_pruning_matches_naive(cases)


def _nested_schemas(sign):
    """Products, twists and sums (one with a term that does not read the last
    slot) under a product with a prefix value; sign weighs the second sum terms."""
    w, x, y, z = var("w"), var("x"), var("y"), var("z")
    yz = op("mul", y, z) + sign * op("mul2", z, y)
    return [
        IdentitySchema("deep", op("mul", w, op("mul2", x, op("mul", y, z))),
                       op("mul", op("mul2", tw("alpha", w), x), op("mul", y, z))),
        IdentitySchema("twisted-inner", op("mul", x, tw("alpha", op("mul", y, z))),
                       op("mul2", op("mul", z, tw("alpha", y)), x)),
        IdentitySchema("sum-inner", op("mul", x, yz), op("mul2", yz, tw("alpha", x))),
        IdentitySchema("prefix-term-inner",
                       op("mul", x, op("mul", x, y) + sign * op("mul2", y, z)),
                       op("mul", op("mul2", z, y) + 2 * tw("alpha", op("mul", x, y)), x),
                       variables=[("x", "A", 1), ("y", "A", 1), ("z", "A", 1)]),
        IdentitySchema("twisted-sum-inner", op("mul2", tw("alpha", x), tw("alpha", yz)),
                       tw("alpha", op("mul", x, yz))),
    ]


def test_pruned_enumeration_matches_naive_under_nested_products():
    # the per-coordinate rules on signed data, and a square whose polarization
    # multiplies two nodes that both read the last slot
    import random

    x, y = var("x"), var("y")
    schemas = _nested_schemas(-1)
    # a side = 0 fails first at that side's first nonzero tuple
    schemas += [IdentitySchema(f"{s.name}:{k}", e, ZERO, s.variables)
                for s in schemas for k, e in enumerate((s.lhs, s.rhs))]
    schemas.append(IdentitySchema("square-inner", op("mul", x, op("mul2", y, y)), ZERO))
    rng = random.Random(13)
    cases = []
    for schema in schemas:
        for _ in range(24):
            n = rng.randint(1, 3)
            interp = _algebra_interp(rng, ("mul",), n)
            mul = interp.ops["mul"][0]
            mul2 = mul if rng.random() < 0.3 else _sparse_tensor(rng, n, n, n)
            ops = interp.ops | {"mul2": (mul2, ("A", "A", "A"))}
            cases.append(((schema,), Interpretation(interp.sorts, ops, interp.maps)))
    _assert_pruning_matches_naive(cases)


# ---------------------------------------------------------------------------
# masks at the slot before the last: whole subtrees skipped, counted in closed form


def _full_prefixes(clauses, interp):
    """The proper prefixes a check with no masks would visit, sorted in copy blocks."""
    import itertools

    clauses = [polarize(c) for c in clauses]
    variables = clauses[0].variables
    slot = {name: p for p, (name, _, _) in enumerate(variables)}
    blocks = [[slot[name] for name in block] for block in clauses[0].copy_blocks]
    dims = [interp.sorts[sort] for _, sort, _ in variables]
    total = 0
    for length in range(1, len(dims)):
        for combo in itertools.product(*map(range, dims[:length])):
            total += all(combo[a] <= combo[b] for block in blocks
                         for a, b in zip(block, block[1:]) if b < length)
    return total


def _assert_slot_masks_match_naive(cases):
    """Status, witness and tuples_checked as naive enumeration finds them;
    some cases must skip prefixes, and both verdicts must occur."""
    statuses, skipped = set(), 0
    for clauses, interp in cases:
        want = _naive_check(clauses, interp)
        report = check_clauses(clauses, interp, "diff")
        assert _observed(report) == want, (clauses, want)
        full = _full_prefixes(clauses, interp)
        assert report.prefixes_visited <= full
        skipped += report.prefixes_visited < full
        statuses.add(want[0])
    assert statuses == {"pass", "fail"} and skipped


_XYZ = [("x", "A", 1), ("y", "A", 1), ("z", "A", 1)]


def test_a_witness_right_after_a_skipped_subtree_is_the_naive_one():
    # e2 e1 = e1 only.  Under x = e1 both sides of x(yz) = (xy)z vanish, so
    # the last-slot masks come out empty and the next x gets a mask on y.
    # Under x = e2, y = e1 gives zero for every z and is skipped; y = e2
    # fails at once, at z = e1: e2 (e2 e1) = e1 but (e2 e2) e1 = 0.
    t = StructureTensor.square_from_rule(2, {(1, 0): [1, 0]})
    x, y, z = var("x"), var("y"), var("z")
    schema = IdentitySchema("x(yz)", op("mul", x, op("mul", y, z)),
                            op("mul", op("mul", x, y), z))
    report = check_schema(schema, interp_for(t))
    assert report.witness.indices == (1, 1, 0)
    # x = e1 and its two y, then x = e2 and y = e2 only
    assert (report.tuples_checked, report.tuples_evaluated, report.prefixes_visited) == (7, 1, 5)
    assert _observed(report) == _naive_check((schema,), interp_for(t))


def test_every_index_of_the_slot_before_the_last_can_be_skipped():
    # e1 e1 = e2 only: x(yz) and (xy)z vanish everywhere although the
    # product does not.  Once x = e1 has met an empty last-slot mask, no y
    # is visited under x = e2.
    t = StructureTensor.square_from_rule(2, {(0, 0): [0, 1]})
    x, y, z = var("x"), var("y"), var("z")
    schema = IdentitySchema("x(yz)", op("mul", x, op("mul", y, z)),
                            op("mul", op("mul", x, y), z))
    report = check_schema(schema, interp_for(t))
    assert report.ok
    assert (report.tuples_checked, report.tuples_evaluated, report.prefixes_visited) == (8, 0, 4)
    # the same with y and z in one copy block: (x, y, z) with y <= z
    sorted_yz = IdentitySchema("x(yz)-sorted", schema.lhs, schema.rhs, copy_blocks=[("y", "z")])
    report = check_schema(sorted_yz, interp_for(t))
    assert report.ok and (report.tuples_checked, report.prefixes_visited) == (6, 4)


def test_slot_masks_match_naive_across_copy_blocks():
    # the slot before the last outside any block, sharing one with the last,
    # ending one that skips a slot, and inside a block that spans both
    import random

    w, x, y, z = var("w"), var("x"), var("y"), var("z")
    wxyz = [("w", "A", 1)] + _XYZ
    deep = (op("mul", w, op("mul2", x, op("mul", y, z))),
            op("mul", op("mul2", tw("alpha", w), x), op("mul", y, z)))
    three = (op("mul", x, op("mul", y, z)), op("mul2", op("mul", x, y), z))
    blocks = [
        (three, _XYZ, ()),
        (three, _XYZ, [("y", "z")]),
        (three, _XYZ, [("x", "y")]),
        (three, _XYZ, [("x", "z")]),
        (three, _XYZ, [("x", "y", "z")]),
        (deep, wxyz, [("w", "y", "z")]),
        (deep, wxyz, [("w", "y")]),
        (deep, wxyz, [("w", "x"), ("y", "z")]),
        (deep, wxyz, [("x", "z")]),
    ]
    rng = random.Random(14)
    cases = []
    for sides, variables, block in blocks:
        schema = IdentitySchema(f"blocks{block}", *sides, variables=variables, copy_blocks=block)
        for _ in range(14):
            n = rng.randint(1, 3)
            interp = _algebra_interp(rng, ("mul",), n)
            mul = interp.ops["mul"][0]
            mul2 = mul if rng.random() < 0.5 else _sparse_tensor(rng, n, n, n)
            ops = interp.ops | {"mul2": (mul2, ("A", "A", "A"))}
            cases.append(((schema,), Interpretation(interp.sorts, ops, interp.maps)))
    _assert_slot_masks_match_naive(cases)


def test_a_side_that_reads_only_the_last_slot_fills_the_mask():
    # y <= z, e1 e1 = e1 only, alpha(e1) = e1 and alpha(e2) = 0.  Under
    # x = e1 the sides alpha(z) and x(yz) agree, and at y = e2 both vanish
    # for the one z left, so the next x gets a mask on y.  Under x = e2 the
    # right side is zero for every y, but alpha(z) is not: y = e1 must be
    # visited, and fails at z = e1.
    t = StructureTensor.square_from_rule(2, {(0, 0): [1, 0]})
    x, y, z = var("x"), var("y"), var("z")
    schema = IdentitySchema("alpha(z)", tw("alpha", z), op("mul", x, op("mul", y, z)),
                            variables=_XYZ, copy_blocks=[("y", "z")])
    interp = interp_for(t, alpha=LinearMap([[1, 0], [0, 0]]))
    report = check_schema(schema, interp)
    assert report.witness.indices == (1, 0, 0) and report.tuples_checked == 4
    assert _observed(report) == _naive_check((schema,), interp)


def test_the_last_variable_stands_in_for_every_coordinate_at_each_prefix():
    # e2 e2 = e2 and e3 e1 = e3: (xy)z = x(yz) first fails at x = e3,
    # where (e3 e1) e1 = e3 but e3 (e1 e1) = 0.  The mask on y there reads z
    # as every coordinate, although the last prefix scanned left z at e3.
    t = StructureTensor.square_from_rule(3, {(1, 1): [0, 1, 0], (2, 0): [0, 0, 1]})
    x, y, z = var("x"), var("y"), var("z")
    schema = IdentitySchema("(xy)z", op("mul", op("mul", x, y), z), op("mul", x, op("mul", y, z)))
    report = check_schema(schema, interp_for(t))
    assert report.witness.indices == (2, 0, 0) and report.tuples_checked == 19
    assert _observed(report) == _naive_check((schema,), interp_for(t))


def test_slot_masks_match_naive_where_sides_skip_the_slot():
    # sides and terms that do not read the slot before the last: one that
    # reads an earlier slot and the last, one that reads the last slot
    # only, and products of a prefix value with the last variable; enough
    # prefixes above that the masks are reused across prefixes
    import random

    w, x, y, z = var("w"), var("x"), var("y"), var("z")
    wxyz = [("w", "A", 1), ("x", "A", 1), ("y", "A", 1), ("z", "A", 1)]
    schemas = [
        IdentitySchema("later-side", op("mul", x, z), op("mul2", op("mul", x, y), z),
                       variables=_XYZ),
        IdentitySchema("last-only-side", tw("alpha", z), op("mul", x, op("mul2", y, z)),
                       variables=_XYZ),
        IdentitySchema("later-term", op("mul", op("mul", x, y), z) + op("mul2", x, z),
                       op("mul2", x, op("mul", y, z)), variables=_XYZ),
        IdentitySchema("prefix-times-last", op("mul", op("mul2", x, z), y),
                       op("mul", x, op("mul2", z, y))),
        IdentitySchema("deep-later", op("mul", op("mul2", w, z), op("mul", x, y)),
                       op("mul2", op("mul", w, x), tw("alpha", op("mul", y, z))), variables=wxyz),
    ]
    rng = random.Random(17)
    cases = []
    for schema in schemas:
        for _ in range(40):
            n = rng.randint(3, 4 if len(schema.variables) == 3 else 3)
            interp = _algebra_interp(rng, ("mul",), n)
            mul = interp.ops["mul"][0]
            mul2 = mul if rng.random() < 0.3 else _sparse_tensor(rng, n, n, n)
            ops = interp.ops | {"mul2": (mul2, ("A", "A", "A"))}
            cases.append(((schema,), Interpretation(interp.sorts, ops, interp.maps)))
    _assert_slot_masks_match_naive(cases)


def _shipped_clause_sets():
    """Every clause tuple the package checks: the variety, representation,
    operator and gate tables and the multiplicative schema of every product
    symbol."""
    from homalg.constructions import (_bimodule_map_schemas, _crossed_module_schemas,
                                      _differential_schemas)
    from homalg.operators import _algebra_clauses, _o_operator_clauses, _rep_clauses
    from homalg.reps import REP_KINDS, _rep_schemas
    from homalg.varieties import REQUIRED_PRODUCTS, VarietyTag, multiplicative_schema, schemas_for

    one_by_one = [*(s for tag in VarietyTag for s in schemas_for(tag)),
                  *(s for kind in REP_KINDS for s in _rep_schemas(kind)),
                  *_differential_schemas(), *_bimodule_map_schemas("f"),
                  *_crossed_module_schemas(),
                  *map(multiplicative_schema, sorted(set().union(*REQUIRED_PRODUCTS.values())))]
    return ([(s,) for s in one_by_one] + list(_rep_clauses().values())
            + list(_algebra_clauses().values()) + [_o_operator_clauses(Fraction(1))])


def test_no_shipped_clause_has_a_side_that_skips_a_variable():
    # a side that reads a later slot but not the slot before the last costs
    # that slot its support recipe (see the later-side schema below); every
    # shipped side reads every variable or none
    from homalg.engine import _collect_sorts

    sets = _shipped_clause_sets()
    assert len(sets) == 122
    for clauses in sets:
        for clause in map(polarize, clauses):
            names = {name for name, _, _ in clause.variables}
            for side in (clause.lhs, clause.rhs):
                read = {}
                _collect_sorts(side, read)
                assert not read or read.keys() == names, (clause.name, side)


def test_a_side_that_skips_the_slot_before_the_last_leaves_it_unmasked():
    # e1 e_j = e1 and every other product zero: x z = (x y) z holds.  Under
    # x = e2 a last-slot mask comes out empty, and under x = e3 both sides
    # vanish for every y.  x z skips y, so y has no recipe and every y is
    # visited: 3 + 9 prefixes, where a mask on y would have skipped x = e3's.
    x, y, z = var("x"), var("y"), var("z")
    schema = IdentitySchema("later-side", op("mul", x, z), op("mul", op("mul", x, y), z),
                            variables=_XYZ)
    t = StructureTensor.square_from_rule(3, {(0, j): [1, 0, 0] for j in range(3)})
    report = check_schema(schema, interp_for(t))
    assert _observed(report) == _naive_check((schema,), interp_for(t))
    assert report.ok and report.prefixes_visited == _full_prefixes((schema,), interp_for(t)) == 12
    (clause_set,) = schema.plans.values()
    plans = [plan for entry in clause_set.by_shape.values() for plan in entry.plans]
    assert plans and all(plan.recipes[1] is None and plan.recipes[2] is not None
                         for plan in plans)


def test_slot_masks_match_naive_on_polarized_jordan():
    # x__1 <= x__2 <= x__3 then y, and y first so that the block ends in the
    # last slot; sparse, twisted and non-negative data
    import random

    jordan = _jordan_schema()
    y_first = IdentitySchema("jordan-y-first", jordan.lhs, jordan.rhs,
                             variables=[("y", "A", 1), ("x", "A", 3)])
    rng = random.Random(15)
    cases = []
    for schema in (jordan, y_first):
        for _ in range(16):
            n = rng.randint(1, 3)
            interp = _algebra_interp(rng, ("circ",), n)
            cases.append(((schema,), interp))
            tight = _nonnegative_interp(rng, n)
            cases.append(((schema,), Interpretation(
                tight.sorts, {"circ": tight.ops["mul"]}, tight.maps)))
    _assert_slot_masks_match_naive(cases)


def test_slot_masks_match_naive_on_the_jordan_families():
    # the four-slot multilinear Jordan dialgebra and trialgebra identities
    import random

    from homalg.varieties import VarietyTag, schemas_for

    rng = random.Random(16)
    cases = []
    for tag, ops in ((VarietyTag.HOM_JORDAN_DIALGEBRA, ("bullet",)),
                     (VarietyTag.HOM_JORDAN_TRIALGEBRA, ("circ", "bullet"))):
        for schema in schemas_for(tag):
            for _ in range(4):
                cases.append(((schema,), _algebra_interp(rng, ops, rng.randint(1, 3))))
    _assert_slot_masks_match_naive(cases)


def test_prefix_counts_are_summed_where_tuple_counts_are(seed_catalog):
    from homalg.operators import OperatorCandidate, certify_operator
    from homalg.varieties import schemas_for

    # a two-slot check visits its first slot once per index
    report = check_schema(IdentitySchema("comm", op("mul", var("x"), var("y")),
                                         op("mul", var("y"), var("x"))), interp_for(KX2))
    assert report.ok and report.prefixes_visited == 2
    # check_all over the variety schemas of a dialgebra, one by one and at once
    a = seed_catalog["kx2_diass"].value
    interp = a.interpretation()
    schemas = schemas_for(a.variety)
    reports = [check_schema(s, interp) for s in schemas]
    total = check_all(schemas, interp, "all")
    assert total.ok and all(r.prefixes_visited for r in reports)
    assert total.prefixes_visited == sum(r.prefixes_visited for r in reports)
    assert total.tuples_checked == sum(r.tuples_checked for r in reports)
    # an algebra operator is checked once per product symbol
    t = LinearMap.identity(a.dim)
    per_product = certify_operator(OperatorCandidate(a, t), "averaging")
    assert per_product.ok and per_product.prefixes_visited == a.dim * len(a.products)


# ---------------------------------------------------------------------------
# tuples_evaluated: with no cancellation the support masks are exact


def _positive(expr) -> bool:
    """Whether every weight of every sum in the expression is positive."""
    from homalg.engine import OpApp, Sum, TwistApp

    if isinstance(expr, Sum):
        return all(w > 0 and _positive(e) for w, e in expr.terms)
    if isinstance(expr, TwistApp):
        return _positive(expr.child)
    if isinstance(expr, OpApp):
        return _positive(expr.left) and _positive(expr.right)
    return True


def _nonzero_tuples(clauses, interp, decided):
    """How many of the first `decided` tuples (lexicographic) have a nonzero side."""
    import itertools

    variables = clauses[0].variables
    dims = [interp.sorts[sort] for _, sort, _ in variables]
    count = 0
    for combo in itertools.islice(itertools.product(*map(range, dims)), decided):
        env = {name: Vector.basis(d, i) for (name, _, _), d, i in zip(variables, dims, combo)}
        values = [_naive_value(e, env, interp) for c in clauses for e in (c.lhs, c.rhs)]
        count += any(v is not None and not v.is_zero() for v in values)
    return count


def _nonnegative_interp(rng, n):
    """Sparse tensors with entries 1, 2, 1/2, and a twist with no zero column,
    so that no sum of products can cancel and no twist can kill a value."""
    def tensor():
        density = rng.choice((0.15, 0.3, 0.6))
        return StructureTensor([[[rng.choice((1, 2, Fraction(1, 2))) if rng.random() < density
                                  else 0 for _ in range(n)] for _ in range(n)] for _ in range(n)])

    rows = [[rng.choice((1, 2)) if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(n)]
    for j in range(n):
        rows[rng.randrange(n)][j] = 1
    alpha = rng.choice((LinearMap.identity(n), LinearMap(rows)))
    return Interpretation({"A": n}, {"mul": (tensor(), ("A", "A", "A")),
                                     "mul2": (tensor(), ("A", "A", "A"))},
                          {"alpha": (alpha, ("A", "A"))})


def test_tuples_evaluated_are_the_tuples_with_a_nonzero_side():
    import random

    from homalg.varieties import VarietyTag, schemas_for

    rename = {"left": "mul", "right": "mul2", "middle": "mul", "brace": "mul"}
    schemas = []
    for tag in (VarietyTag.HOM_ASSOCIATIVE, VarietyTag.HOM_LEIBNIZ,
                VarietyTag.HOM_ASSOCIATIVE_DIALGEBRA, VarietyTag.HOM_ASSOCIATIVE_TRIALGEBRA):
        for s in schemas_for(tag):
            if s.is_multilinear() and _positive(s.lhs) and _positive(s.rhs):
                schemas.append(IdentitySchema(s.name, rewrite(s.lhs, ops=rename),
                                              rewrite(s.rhs, ops=rename), s.variables))
    assert len(schemas) >= 10
    schemas += _nested_schemas(1)
    rng = random.Random(12)
    seen = set()
    for schema in schemas:
        # each side against itself passes, so every tuple is decided
        sides = tuple(IdentitySchema(f"{schema.name}:{k}", e, e, schema.variables)
                      for k, e in enumerate((schema.lhs, schema.rhs)))
        for _ in range(6):
            interp = _nonnegative_interp(rng, rng.randint(1, 3))
            for clauses in ((schema,), sides):
                report = check_clauses(clauses, interp, "tight")
                assert report.tuples_evaluated == _nonzero_tuples(
                    clauses, interp, report.tuples_checked), schema.name
                seen.add((report.status, report.tuples_evaluated < report.tuples_checked))
    assert seen >= {("pass", True), ("fail", True)}


def test_a_product_is_evaluated_only_where_its_outer_factor_reads_the_inner_one():
    # e1 e_j = e2 for every j and e3 e1 = e1; everything else is zero.  After
    # the prefix (e3, e1), e1 z = e2 is nonzero for every z, but e3 e2 = 0:
    # x (y z) is zero on all of them.  Reading only "e1 z is nonzero" would
    # evaluate 12 tuples of this pass, every z after (e3, e1) included.
    t = StructureTensor.square_from_rule(3, {(0, 0): [0, 1, 0], (0, 1): [0, 1, 0],
                                             (0, 2): [0, 1, 0], (2, 0): [1, 0, 0]})
    x, y, z = var("x"), var("y"), var("z")
    schema = IdentitySchema("x(yz)", op("mul", x, op("mul", y, z)),
                            op("mul2", x, op("mul2", y, z)))
    interp = interp_for(t)
    interp = Interpretation(interp.sorts, interp.ops | {"mul2": (t, ("A", "A", "A"))},
                            interp.maps)
    report = check_schema(schema, interp)
    assert report.ok and report.tuples_checked == 27
    # e1(e1 z) for all three z, e1(e3 e1) and e3(e3 e1)
    assert report.tuples_evaluated == _nonzero_tuples((schema,), interp, 27) == 5


def test_catalog_certification_evaluates_a_pinned_number_of_tuples(seed_catalog):
    from homalg.constructions import hemisemi
    from homalg.operators import hemisemi_id_for
    from homalg.varieties import certify

    def work(reports):
        return (sum(r.tuples_checked for r in reports), sum(r.tuples_evaluated for r in reports),
                sum(r.prefixes_visited for r in reports))

    # the summed work of certify(a, a.variety) over the catalog's algebras
    # (695, 153, 326 while polarization fed sums of copies to the kernels; a
    # looser support rule, mask(n) for op(c, n), then evaluated 331)
    reports = [certify(e.value, e.value.variety) for e in seed_catalog.values()
               if e.kind == "algebra"]
    assert all(r.ok for r in reports) and len(reports) == 20
    assert work(reports) == (695, 147, 324)
    # and over the hemisemi-direct products of the catalog's reps, mostly
    # zero (166_730, 5_552, 7_239 while polarization fed sums of copies to
    # the kernels; without the mask at the slot before the last they then
    # visited 23,209 prefixes, and 9,824 with every later node reaching
    # every coordinate)
    outputs = [hemisemi(e.value, hemisemi_id_for(e.value), check=False)
               for e in seed_catalog.values() if e.kind == "rep"]
    reports = [certify(a, a.variety) for a in outputs]
    assert all(r.ok for r in reports) and len(reports) == 39
    assert work(reports) == (166_730, 4_792, 6_919)


# ---------------------------------------------------------------------------
# the verdict memo: a check of the same objects is decided once


def _verdicts(schema):
    """The memo entries of the checks whose first clause is schema."""
    return [v for clause_set in schema.plans.values() for entry in clause_set.by_shape.values()
            for v in entry.verdicts.values()]


def _fields(report):
    return (report.status, report.witness, report.tuples_checked, report.tuples_evaluated,
            report.prefixes_visited, report.detail)


def _memo_cases():
    """(clauses, interpretation): passing and failing, multilinear and
    polarized, one clause and two."""
    x, y = var("x"), var("y")
    commutes = IdentitySchema("commutes", op("mul", x, y), op("mul", y, x))
    vanishes = IdentitySchema("vanishes", op("mul", x, y), ZERO)
    twisted = interp_for(KX2, LinearMap([[1, 1], [0, 1]]))
    from homalg.forge import truncated_polynomial_algebra
    from homalg.reps import plus_algebra

    circ = plus_algebra(truncated_polynomial_algebra(3)).product("circ")
    return [
        ((associativity_schema(),), interp_for(KX2)),
        ((associativity_schema(),), interp_for(BAD)),
        ((associativity_schema(),), twisted),
        ((commutes, vanishes), interp_for(KX2)),
        ((commutes,), interp_for(KX2)),
        ((_jordan_schema(),), interp_for(circ, symbol="circ")),
        ((_jordan_schema(),), interp_for(circ, LinearMap([[1, 1, 0], [0, 1, 0], [0, 0, 2]]),
                                         symbol="circ")),
    ]


def test_a_memo_hit_reports_what_the_cold_check_reported(cold_binds):
    statuses = set()
    for clauses, interp in _memo_cases():
        clauses = tuple(_fresh(s) for s in clauses)
        first = check_clauses(clauses, interp, "first")
        assert len(cold_binds) == 1 and len(_verdicts(clauses[0])) == 1
        again = check_clauses(clauses, interp, "again")
        assert len(cold_binds) == 1, "the second check was not answered from the memo"
        assert again is not first and (first.check, again.check) == ("first", "again")
        assert _fields(again) == _fields(first)
        # and both are what a cold_binds compile of fresh schemas reports
        _same(again, check_clauses(tuple(_fresh(s) for s in clauses), interp, "again"))
        statuses.add(first.status)
        cold_binds.clear()
    assert statuses == {"pass", "fail"}


def test_a_bumped_constant_always_misses_and_finds_its_own_witness(cold_binds, seed_catalog):
    from homalg.forge import perturb_product
    from homalg.varieties import schemas_for

    a = seed_catalog["kx3"].value
    schemas = [_fresh(s) for s in schemas_for(a.variety)]
    for schema in schemas:
        assert check_schema(schema, a.interpretation()).ok
    seen = set()
    for where in ((0, 0, 0), (0, 1, 2), (1, 1, 0), (2, 0, 1)):
        for delta in (1, -1, Fraction(1, 2)):
            bent = perturb_product(a, "mul", where, delta)
            for schema in schemas:
                cold_binds.clear()
                report = check_schema(schema, bent.interpretation())
                assert len(cold_binds) == 1, (where, delta)
                _same(report, check_schema(_fresh(schema), bent.interpretation()))
                seen.add(report.witness.indices if report.witness else None)
    assert len(seen) > 2
    # the unbumped algebra is still answered from the memo
    cold_binds.clear()
    assert all(check_schema(s, a.interpretation()).ok for s in schemas) and not cold_binds


def test_equal_content_in_a_fresh_object_misses_with_an_identical_report(cold_binds):
    schema = _fresh(associativity_schema())
    for coeffs in (BAD.coeffs, KX2.coeffs):
        first = check_schema(schema, interp_for(StructureTensor(coeffs)))
        cold_binds.clear()
        copy = StructureTensor(coeffs)
        again = check_schema(schema, interp_for(copy))
        assert len(cold_binds) == 1
        assert _fields(again) == _fields(first)


def test_memo_entries_die_with_their_data_and_their_schema():
    import gc
    import weakref

    schema = _fresh(associativity_schema())
    kept = interp_for(StructureTensor(KX2.coeffs))
    check_schema(schema, kept)
    bent = _bumped(KX2, 0, 1, 0)
    interp = interp_for(bent, kept.maps["alpha"][0])
    check_schema(schema, interp)
    assert len(_verdicts(schema)) == 2
    # the memo holds no strong reference: the data goes when its last user does
    gone = weakref.ref(bent)
    del bent, interp
    gc.collect()
    assert gone() is None
    (entry,) = [e for cs in schema.plans.values() for e in cs.by_shape.values()]
    entry.sweep()
    # only the entry of the data still alive is left
    (left,) = _verdicts(schema)
    assert all(r() is o for r, o in zip(left[5:], (kept.ops["mul"][0], kept.maps["alpha"][0])))

    # a schema built per call takes its memo with it
    per_call = IdentitySchema("per-call", op("mul", var("x"), var("y")),
                              op("mul", var("y"), var("x")))
    assert check_schema(per_call, kept).ok and _verdicts(per_call)
    ref = weakref.ref(per_call)
    del per_call
    gc.collect()
    assert ref() is None


def test_the_same_objects_under_other_free_dimensions_miss(cold_binds):
    # w has a sort of its own that no symbol reads: its dimension scales the
    # count, and the same tensor and map objects must not recall it
    x, y, w = var("x"), var("y"), var("w", "B")
    schema = IdentitySchema("with-w", op("mul", x, y), op("mul", y, x),
                            variables=[("x", "A", 1), ("y", "A", 1), ("w", "B", 1)])
    base = interp_for(KX2)
    reports = []
    for b in (3, 5, 3):
        cold_binds.clear()
        interp = Interpretation({"A": 2, "B": b}, base.ops, base.maps)
        reports.append(check_schema(schema, interp))
        assert reports[-1].ok and reports[-1].tuples_checked == 4 * b
        assert len(cold_binds) == (0 if len(reports) == 3 else 1)
    skew = interp_for(StructureTensor.square_from_rule(2, {(0, 1): [0, 1]}))
    for b in (2, 4):
        interp = Interpretation({"A": 2, "B": b}, skew.ops, skew.maps)
        report = check_schema(schema, interp)
        _same(report, check_schema(_fresh(schema), interp))
        assert report.witness.indices == (0, 1, 0) and report.tuples_checked == b + 1


def test_the_memo_stays_bounded_over_fresh_objects():
    from collections import deque

    schema = _fresh(associativity_schema())
    alive = deque(maxlen=8)  # the last 8 interpretations stay alive
    largest = 0
    for n in range(1000):
        t = _bumped(KX2, n % 2, (n // 2) % 2, (n // 4) % 2, Fraction(n % 7 + 1, n % 3 + 1))
        alive.append(interp_for(t))
        check_schema(schema, alive[-1])
        largest = max(largest, len(_verdicts(schema)))
    # at most twice the live entries, plus the one that triggers a sweep
    assert largest <= 2 * 8 + 1, largest


def test_evaluate_and_random_checks_never_read_the_memo(cold_binds):
    schema = _fresh(associativity_schema())
    interp = interp_for(BAD)
    check_schema(schema, interp)
    check_schema(schema, interp)
    cold_binds.clear()
    for seed in range(3):
        _same(check_schema_random(schema, interp, 10, seed),
              check_schema_random(_fresh(schema), interp, 10, seed))
    assert len(cold_binds) == 6
    evaluate(op("mul", var("x"), var("y")), {"x": Vector([1, 0]), "y": Vector([0, 1])}, interp)
    assert len(cold_binds) == 7

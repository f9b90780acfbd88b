from fractions import Fraction

import pytest

from homalg.engine import (
    CheckReport,
    IdentitySchema,
    Interpretation,
    SemanticError,
    Sum,
    ZERO,
    check_all,
    check_clauses,
    check_schema,
    check_schema_random,
    evaluate,
    identity,
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


def test_a_check_validates_the_symbols_it_reads():
    # the dimensions of every op and map the clauses read are checked, cold
    # or against a kept plan; a symbol they do not read is not looked at
    from homalg.exact import ShapeError

    schema = _fresh(associativity_schema())
    wrong = StructureTensor.zero(3)
    ok = interp_for(KX2)
    unread = Interpretation(ok.sorts, ok.ops | {"spare": (wrong, ("A", "A", "A"))},
                            ok.maps | {"gamma": (LinearMap.identity(3), ("A", "A"))})
    for _ in range(2):  # cold, then over the kept plan
        assert check_schema(schema, unread).ok
        with pytest.raises(ShapeError):
            check_schema(schema, Interpretation(ok.sorts, {"mul": (wrong, ("A", "A", "A"))},
                                                ok.maps))
        with pytest.raises(ShapeError):
            check_schema(schema, Interpretation(ok.sorts, ok.ops,
                                                {"alpha": (LinearMap.identity(3), ("A", "A"))}))
    # an unbound symbol and a sort fault are named before the dimensions, as
    # in a fresh build
    with pytest.raises(SemanticError, match="unbound map symbol"):
        check_schema(schema, Interpretation(ok.sorts, {"mul": (wrong, ("A", "A", "A"))}, {}))
    with pytest.raises(SemanticError, match="left slot expects"):
        check_schema(schema, Interpretation({"A": 2, "B": 3}, {"mul": (wrong, ("B", "A", "A"))},
                                            ok.maps))


def _front_end_cases():
    """(label, call) per ill-formed input: a schema build, a check or an
    evaluation, each over the interpretation `front` below or a variant."""
    x, y, u, xb, yb = var("x"), var("y"), var("u", "V"), var("x", "B"), var("y", "B")
    front = Interpretation(
        {"A": 2, "B": 3, "V": 3},
        {"mul": (KX2, ("A", "A", "A")), "l": (StructureTensor.zero(2, 3, 3), ("A", "V", "V"))},
        {"alpha": (LinearMap.identity(2), ("A", "A")),
         "f": (LinearMap([[1, 0], [0, 1], [1, 1]]), ("A", "B")),
         "beta": (LinearMap.identity(3), ("V", "V"))})

    def variant(ops=None, maps=None):
        return Interpretation(front.sorts, front.ops | (ops or {}), front.maps | (maps or {}))

    zero_mul = variant(ops={"mul": (StructureTensor.zero(2), ("A", "A", "A"))})
    wide_mul = variant(ops={"mul": (StructureTensor.zero(3), ("A", "A", "A"))})
    wide_alpha = variant(maps={"alpha": (LinearMap([[1, 0, 0], [0, 1, 0]]), ("A", "A"))})
    with_w, xu = [("x", "A", 1), ("w", "C", 1)], [("x", "A", 1), ("u", "V", 1)]

    def schema(lhs, rhs, variables=None):
        return lambda: IdentitySchema("s", lhs, rhs, variables=variables)

    def check(lhs, rhs, interp=front, variables=None):
        return lambda: check_schema(IdentitySchema("s", lhs, rhs, variables=variables), interp)

    env = {"x": Vector([1, 2]), "y": Vector([Fraction(1, 2), 3]), "u": Vector([1, 0, 2])}

    def value(expr, names="xyu"):
        return lambda: evaluate(expr, {n: env[n] for n in names}, front)

    return [
        # IdentitySchema: a sort clash before an inhomogeneous sum, both before
        # "not homogeneous in variable"
        ("schema: sort clash", schema(op("mul", x, xb), x)),
        ("schema: clash on the rhs after an inhomogeneous lhs",
         schema(op("mul", x, y) + x, yb)),
        ("schema: inhomogeneous sum", schema(op("mul", x, y) + x, ZERO)),
        ("schema: inhomogeneous sum before an uneven variable",
         schema(op("mul", x, y) + y, op("mul", x, x))),
        ("schema: uneven variable", schema(op("mul", x, x), x)),
        ("schema: explicit variables raise none of the three",
         lambda: IdentitySchema("s", op("mul", x, xb) + x, ZERO,
                                variables=[("x", "A", 1)]).variables),
        # check_schema: sorts, in the order a tree is read, before dimensions
        ("check: explicit variables meet the sort clash as a slot fault",
         check(op("mul", x, xb) + x, ZERO, variables=[("x", "A", 1)])),
        ("check: unbound map", check(tw("nomap", x), x)),
        ("check: a twist reads its child first", check(tw("nomap", op("noop", x, y)),
                                                        op("mul", x, y))),
        ("check: cross-sort iteration", check(tw("f", x, 2), tw("f", x, 2))),
        ("check: iteration before the source sort", check(tw("f", u, 2), tw("f", u, 2))),
        ("check: source sort", check(tw("f", u), tw("f", u))),
        ("check: unbound op", check(op("noop", x, y), op("mul", x, y))),
        ("check: an op's binding before its factors",
         check(op("noop", tw("nomap", x), y), op("mul", x, y))),
        ("check: both factors before either slot", check(op("mul", u, tw("nomap", x)),
                                                         op("mul", x, u))),
        ("check: left slot before right slot", check(op("mul", u, u), op("mul", u, u))),
        ("check: right slot", check(op("mul", x, u), op("mul", x, u))),
        ("check: sum mixes sorts", check(tw("f", x) + x, tw("f", x))),
        ("check: sides have different sorts", check(tw("f", x), x)),
        ("check: a zero term's sort counts in a sum",
         check(op("l", x, u) + tw("f", x), ZERO, variables=xu)),
        ("check: a zero side's sort counts", check(op("l", x, u), tw("f", x), variables=xu)),
        ("check: a sort fault before a sort with no dimension",
         check(tw("f", x), x, variables=with_w)),
        ("check: sort with no dimension", check(x, x, variables=with_w)),
        ("check: a sort fault before the dimensions", check(op("mul", x, u), op("mul", x, u),
                                                            wide_mul)),
        ("check: tensor dimensions", check(op("mul", x, y), op("mul", y, x), wide_mul)),
        ("check: a non-square twist iterated", check(tw("alpha", x, 2), x, wide_alpha)),
        ("check: a non-square twist nested", check(tw("alpha", tw("alpha", x)), x, wide_alpha)),
        ("check: a sort fault after a non-square twist nested",
         check(tw("alpha", tw("alpha", x)), tw("f", x), wide_alpha)),
        ("check: an unbound map under a product over a zero tensor",
         check(op("mul", tw("nomap", x), y), op("mul", x, y), zero_mul)),
        ("check: a zero side keeps its sort", check(op("l", x, u), tw("beta", u))),
        ("check: a variable declared with another sort",
         check(op("mul", x, y), op("mul", y, x), variables=[("x", "B", 1), ("y", "A", 1)])),
        ("check: a later variable declared with another sort",
         check(op("mul", x, y), op("mul", y, x), variables=[("x", "A", 1), ("y", "B", 1)])),
        # evaluate: sort clashes, no homogeneity
        ("evaluate: sort clash", value(op("mul", x, xb))),
        ("evaluate: an inhomogeneous sum", value(op("mul", x, y) + x)),
        ("evaluate: sum mixes sorts", value(tw("f", x) + x)),
        ("evaluate: right slot", value(op("mul", x, u))),
        ("evaluate: unbound variable", value(op("mul", x, y), names="xu")),
        ("evaluate: a zero value keeps its sort", value(op("l", x, u))),
        ("evaluate: the zero sum", value(ZERO)),
    ]


def _front_end_outcome(call):
    """What a call raised, as (type, message), or what it gave."""
    try:
        got = call()
    except Exception as exc:  # the table records whatever is raised
        return type(exc).__name__, str(exc)
    if isinstance(got, Vector):
        return "value", tuple(map(str, got.coords))
    if isinstance(got, CheckReport):
        w = got.witness
        return (got.status, w.indices, tuple(map(str, w.lhs_value.coords)),
                tuple(map(str, w.rhs_value.coords)))
    return "ok", got


_FRONT_END = {
    "schema: sort clash": ("SemanticError", "variable x used with two sorts"),
    "schema: clash on the rhs after an inhomogeneous lhs":
        ("SemanticError", "variable y used with two sorts"),
    "schema: inhomogeneous sum":
        ("SemanticError", "sum terms are not homogeneous in the same variables"),
    "schema: inhomogeneous sum before an uneven variable":
        ("SemanticError", "sum terms are not homogeneous in the same variables"),
    "schema: uneven variable": ("SemanticError", "schema 's' is not homogeneous in variable 'x'"),
    "schema: explicit variables raise none of the three": ("ok", (("x", "A", 1),)),
    "check: explicit variables meet the sort clash as a slot fault":
        ("SemanticError", "s: op 'mul' right slot expects 'A', got 'B'"),
    "check: unbound map": ("SemanticError", "s: unbound map symbol 'nomap'"),
    "check: a twist reads its child first": ("SemanticError", "s: unbound op symbol 'noop'"),
    "check: cross-sort iteration": ("SemanticError", "s: cannot iterate map 'f' across sorts"),
    "check: iteration before the source sort":
        ("SemanticError", "s: cannot iterate map 'f' across sorts"),
    "check: source sort": ("SemanticError", "s: map 'f' applied to sort 'V'"),
    "check: unbound op": ("SemanticError", "s: unbound op symbol 'noop'"),
    "check: an op's binding before its factors": ("SemanticError", "s: unbound op symbol 'noop'"),
    "check: both factors before either slot": ("SemanticError", "s: unbound map symbol 'nomap'"),
    "check: left slot before right slot":
        ("SemanticError", "s: op 'mul' left slot expects 'A', got 'V'"),
    "check: right slot": ("SemanticError", "s: op 'mul' right slot expects 'A', got 'V'"),
    "check: sum mixes sorts": ("SemanticError", "s: sum mixes sorts"),
    "check: sides have different sorts": ("SemanticError", "s: sides have different sorts"),
    "check: a zero term's sort counts in a sum": ("SemanticError", "s: sum mixes sorts"),
    "check: a zero side's sort counts": ("SemanticError", "s: sides have different sorts"),
    "check: a sort fault before a sort with no dimension":
        ("SemanticError", "s: sides have different sorts"),
    "check: sort with no dimension": ("SemanticError", "s: sort 'C' has no dimension binding"),
    "check: a sort fault before the dimensions":
        ("SemanticError", "s: op 'mul' right slot expects 'A', got 'V'"),
    "check: tensor dimensions":
        ("ShapeError", "op 'mul': tensor dims (3, 3, 3) != sort dims (2, 2, 2)"),
    "check: a non-square twist iterated":
        ("ShapeError", "map 'alpha': matrix dims disagree with sorts"),
    "check: a non-square twist nested":
        ("ShapeError", "map 'alpha': matrix dims disagree with sorts"),
    "check: a sort fault after a non-square twist nested":
        ("SemanticError", "s: sides have different sorts"),
    "check: an unbound map under a product over a zero tensor":
        ("SemanticError", "s: unbound map symbol 'nomap'"),
    "check: a zero side keeps its sort": ("fail", (0, 0), ("0", "0", "0"), ("1", "0", "0")),
    "check: a variable declared with another sort":
        ("SemanticError", "s: variable 'x' declared with sort 'B', used with sort 'A'"),
    "check: a later variable declared with another sort":
        ("SemanticError", "s: variable 'y' declared with sort 'B', used with sort 'A'"),
    "evaluate: sort clash": ("SemanticError", "variable x used with two sorts"),
    "evaluate: an inhomogeneous sum": ("value", ("3/2", "6")),
    "evaluate: sum mixes sorts": ("SemanticError", "sum mixes sorts"),
    "evaluate: right slot": ("SemanticError", "op 'mul' right slot expects 'A', got 'V'"),
    "evaluate: unbound variable": ("SemanticError", "unbound variable 'y'"),
    "evaluate: a zero value keeps its sort": ("value", ("0", "0", "0")),
    "evaluate: the zero sum": ("value", ()),
}


def test_the_front_end_raises_what_it_raised():
    # each ill-formed input meets the same error, in the same order, however
    # the walks over its trees are arranged
    got = {label: _front_end_outcome(call) for label, call in _front_end_cases()}
    assert got == _FRONT_END


# ---------------------------------------------------------------------------
# the identity notation


def test_the_identity_notation_builds_what_the_expr_operators_build():
    from test_schema_golden import tree

    x, y, u, v = var("x"), var("y"), var("u", "V"), var("v", "V")
    cases = {
        "mul(x, alpha^2(y))": op("mul", x, tw("alpha", y, 2)),  # one bare term: no Sum
        "-mul(y, x)": -op("mul", y, x),
        "1 * x": 1 * x,
        "2 * mul(x, y) - 1/2 mul(y, x)": 2 * op("mul", x, y) - Fraction(1, 2) * op("mul", y, x),
        "l(x, u) + -7/3 * l(y, u)": op("l", x, u) + Fraction(-7, 3) * op("l", y, u),
        "0 * vmul(u, v) + beta(vmul(u, v))": 0 * op("vmul", u, v) + tw("beta", op("vmul", u, v)),
        "x - (y - mul(x, y))": x - (y - op("mul", x, y)),
        "2 * (x - y)": 2 * (x - y),
        "K(l(K(u), v) + r(K(v), u))": tw("K", op("l", tw("K", u), v) + op("r", tw("K", v), u)),
        "0": ZERO,
        "x-y": var("x-y"),  # a name as the DSL writes one
    }
    for text, want in cases.items():
        schema = identity("t", f"{text} = 0", v="u v", variables=())
        assert tree(schema.lhs) == tree(want) and schema.rhs is ZERO, text
    schema = identity("t", "d(vmul(u, v)) = mul(d(u), d(v))", v="u v")
    assert schema.variables == (("u", "V", 1), ("v", "V", 1))


def test_the_identity_reader_names_the_identity_in_every_error():
    cases = {
        "mul(x, y = mul(y, x)": "expected ')', got '='",
        "mul(x, y)) = mul(y, x)": "expected '=', got ')'",
        "mul(x, y) = mul(y, x": "expected ')', got 'the end'",
        "mul(x, y)": "expected '=', got 'the end'",
        "x = y = x": "unexpected '=' after the rhs",
        "mul(x, y) = mul(y, x) x": "unexpected 'x' after the rhs",
        "mul(x, y, x) = x": "'mul' is called with 3 arguments",
        " = mul(y, x)": "expected a term, got '='",
        "mul(x, y) = ": "expected a term, got 'the end'",
        "mul(x, ) = x": "expected a term, got ')'",
        "alpha^0(x) = x": "map 'alpha' needs a power k >= 1, got '0'",
        "alpha^(x) = x": "map 'alpha' needs a power k >= 1, got '('",
    }
    for text, message in cases.items():
        with pytest.raises(SemanticError) as caught:
            identity("bad", text)
        assert str(caught.value) == f"identity 'bad': {message}", text


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
                  LinearMap._make([[(0, 4)], [(1, 4)], [(2, 4)]], 4, 3, 3),
                  LinearMap.identity(2).power(3), LinearMap.identity(1)]
    others = [LinearMap.diagonal([1, 1, 2]), LinearMap.zero(3), LinearMap.zero(2, 3),
              LinearMap([[0, 1], [1, 0]]), LinearMap([[1, 1], [0, 1]]),
              LinearMap([[1, 0], [0, 1], [0, 0]]), LinearMap([[1, 0, 0], [0, 1, 0]]),
              LinearMap._make([[(0, 4)], [(1, 2)]], 4, 2, 2), LinearMap.diagonal([-1, -1])]
    for lin in identities + others:
        twin = LinearMap(lin.matrix)  # equal content, another object
        assert _power(lin, 1)[3] is _power(twin, 1)[3] is (lin == LinearMap.identity(lin.src_dim))
    assert all(_power(lin, 1)[3] for lin in identities)
    # twist_gap decides K.beta == alpha.K for every mix of identity twists
    K = LinearMap([[1, 2], [0, 3]])
    twists = [LinearMap.identity(2), LinearMap._make([[(0, 5)], [(1, 5)]], 5, 2, 2),
              LinearMap([[0, 1], [1, 0]]), LinearMap.diagonal([1, 2]), LinearMap([[1, 1], [0, 1]])]
    verdicts = set()
    for alpha in twists:
        for beta in twists:
            gap = twist_gap(K._cols, alpha, beta)
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
    assert t._masks is None and alpha._powers is None
    check_schema(schema, interp)
    tensor_data, map_data = t._masks, alpha._powers[1]
    row_masks, col_masks = tensor_data["rows"], tensor_data["cols"]
    cols, _, col_support, _ = map_data
    assert t._rows[0][1] == [(1, 1)] and cols[1] == [(1, 2)]
    # e1 e1 and e1 e2 are nonzero, e2 e_j is zero; both columns of alpha are nonzero
    assert (row_masks, col_masks, col_support) == ([0b11, 0], [0b01, 0b01], 0b11)
    # this schema reads no op(c, n) with n past the last slot: no per-output masks;
    # and no check reads the nonzero pairs that is_morphism reads.  The product
    # is read through alpha, whose cover (both columns) cuts no output
    # coordinate: the plain row masks, kept by kind and cover
    assert tensor_data.keys() == {"rows", "cols", ("rows", 0b11)}
    assert tensor_data["rows", 0b11] is row_masks
    check_schema(schema, interp)
    assert t._masks is tensor_data and alpha._powers[1] is map_data
    assert tensor_data.keys() == {"rows", "cols", ("rows", 0b11)}
    kept = dict(tensor_data)

    # x (y z) and (z y) x have three slots, so the check contracts: its joins
    # over the bare y and z read the row and column masks already kept, and
    # no check builds a table of its own
    x, y, z = var("x"), var("y"), var("z")
    nested = IdentitySchema("nested", op("mul", x, op("mul", y, z)),
                            op("mul", op("mul", z, y), x), variables=[("x", "A", 1),
                                                                      ("y", "A", 1),
                                                                      ("z", "A", 1)])
    for _ in range(2):
        check_schema(nested, interp)
        check_schema(_fresh(nested), interp)
        assert t._masks is tensor_data and tensor_data.keys() == kept.keys()
        assert all(tensor_data[k] is v for k, v in kept.items())


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


def test_a_fresh_operator_over_the_same_representation_rebuilds_no_table(monkeypatch,
                                                                         seed_catalog):
    # the tensors of a representation and of its ambient keep their row and
    # column masks read through K (or the Nijenhuis map T) per cover, and the
    # per-dimension constants are built once per dimension: a fresh K with
    # the nonzero columns of the last one rebuilds none of them
    import homalg.engine as engine
    from homalg.constructions import ConstructionId, hemisemi
    from homalg.operators import OperatorCandidate, certify_operator, nijenhuis_of

    rep = seed_catalog["kx2_reg"].value
    ambient = hemisemi(rep, ConstructionId.HEMISEMI_DIASS, check=False)

    def battery():
        cand = OperatorCandidate(rep, LinearMap([[1, 0], [2, 0]]))  # its second column is zero
        return [certify_operator(cand, "rel-avg"),
                certify_operator(nijenhuis_of(cand, ambient=ambient), "nijenhuis")]

    first = battery()
    tensors = [t for t, _ in rep.interpretation().ops.values()] + list(ambient.products.values())
    tensors = [t for t in tensors if t._masks is not None]  # those the checks read
    kept = [(t._masks, dict(t._masks)) for t in tensors]
    # K's zero column cuts the masks of l and r, and T those of the ambient's products
    assert sum(type(key) is tuple and key[1] not in (-1, 0b11, 0b1111)
               for _, tables in kept for key in tables) >= 4
    built, real = [], engine._tensor

    def tensor(t, kind):
        if t._masks is None or kind not in t._masks:
            built.append(kind)
        return real(t, kind)

    monkeypatch.setattr(engine, "_tensor", tensor)
    misses = engine._dim.cache_info().misses
    again = battery()
    assert built == [] and engine._dim.cache_info().misses == misses
    for t, (masks, tables) in zip(tensors, kept):
        assert t._masks is masks and masks == tables
        assert all(masks[k] is v for k, v in tables.items())
    assert [_fields(r) for r in again] == [_fields(r) for r in first]


def test_one_tensor_under_maps_of_two_covers_gives_each_its_naive_verdict(seed_catalog):
    # the Nijenhuis maps of candidates whose K have different nonzero columns,
    # checked back to back over the same ambient products: each check reads
    # the masks kept for its own cover
    import homalg.engine as engine
    from homalg.constructions import ConstructionId, hemisemi
    from homalg.operators import OperatorCandidate, _algebra_clauses, nijenhuis_of

    rep = seed_catalog["kx2_reg"].value
    ambient = hemisemi(rep, ConstructionId.HEMISEMI_DIASS, check=False)
    tables = list(_algebra_clauses().values())
    covers, statuses = set(), set()
    for _ in range(2):
        for rows in ([[1, 0], [1, 0]], [[0, 1], [0, 1]], [[2, 0], [0, 0]], [[0, 0], [0, 1]]):
            nij = nijenhuis_of(OperatorCandidate(rep, LinearMap(rows)), ambient=ambient)
            covers.add(engine._power(nij.map, 1)[2])
            maps = {"T": (nij.map, ("A", "A")), "alpha": (ambient.alpha, ("A", "A"))}
            for product in ambient.products.values():
                interp = Interpretation({"A": 4}, {"mu": (product, ("A", "A", "A"))}, maps)
                for clauses in tables:
                    want = _naive_check(clauses, interp)
                    assert _observed(check_clauses(clauses, interp, "covers")) == want, rows
                    statuses.add(want[0])
    # T is x + u -> K(u): its nonzero columns are those of K, shifted past A
    assert covers == {0b0100, 0b1000} and statuses == {"pass", "fail"}
    for product in ambient.products.values():
        assert covers <= {key[1] for key in product._masks if type(key) is tuple}


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


def test_a_map_across_sorts_never_splits_a_plan(seed_catalog):
    # K : V -> A is never the identity map of a sort, whatever its matrix: a
    # candidate whose K has the identity matrix binds the plan of any other
    from homalg.operators import _rep_clauses

    rep = seed_catalog["kx2_reg"].value
    clauses = tuple(_fresh(c) for c in _rep_clauses()["bimodule", "rel-avg"])
    interp = rep.interpretation()
    for rows in ([[1, 0], [0, 1]], [[1, 0], [2, 0]], [[1, 0], [0, 1]]):
        maps = interp.maps | {"K": (LinearMap(rows), ("V", "A"))}
        report = check_clauses(clauses, Interpretation(interp.sorts, interp.ops, maps), "k")
        _same(report, check_clauses(tuple(_fresh(c) for c in clauses),
                                    Interpretation(interp.sorts, interp.ops, maps), "k"))
    assert len(_plans(clauses[0])) == 1


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


def _naive_random(schema, interp, samples, seed):
    """(status, tuples_checked, detail) of check_schema_random's default draws,
    evaluated by plain exact arithmetic."""
    import random

    rng = random.Random(seed)
    for k in range(samples):
        env = {name: Vector([Fraction(rng.choice(range(-3, 4)), rng.choice((1, 2, 3)))
                             for _ in range(interp.sorts[sort])])
               for name, sort, _ in schema.variables}
        lhs, rhs = (_naive_value(e, env, interp) for e in (schema.lhs, schema.rhs))
        if (lhs is not None and not lhs.is_zero()) or (rhs is not None and not rhs.is_zero()):
            if lhs is None or rhs is None or lhs != rhs:
                return "fail", k + 1, f"sample {k} (seed {seed})"
    return "pass", samples, ""


def test_unpolarized_plans_carry_no_recipes(seed_catalog):
    # evaluate and check_schema_random never enumerate, so the plans they
    # keep (polar False) get no support recipe; their results are those of
    # plain exact arithmetic, on the catalog's algebras and on copies with
    # one structure constant bumped
    from homalg.varieties import schemas_for

    walked, statuses = set(), set()
    for e in seed_catalog.values():
        if e.kind != "algebra":
            continue
        interp = e.value.interpretation()
        (sym, (tensor, signature)), *_ = sorted(interp.ops.items())
        bumped = Interpretation(interp.sorts, interp.ops | {sym: (_bumped(tensor, 0, 0, 0),
                                                                  signature)}, interp.maps)
        for schema in schemas_for(e.value.variety):
            for data in (interp, bumped):
                report = check_schema_random(schema, data, 3, 7)
                want = _naive_random(schema, data, 3, 7)
                assert (report.status, report.tuples_checked, report.detail) == want
                statuses.add(want[0])
                env = {name: Vector([Fraction(k - 1, 2) for k in range(data.sorts[sort])])
                       for name, sort, _ in schema.variables}
                assert evaluate(schema.lhs, env, data) == _naive_value(schema.lhs, env, data)
            for (_, polar), clause_set in schema.plans.items():
                for entry in clause_set.by_shape.values() if not polar else ():
                    for plan in entry.plans:
                        assert all(recipe is None for recipe in plan.recipes), schema.name
                        assert plan.joins is None, schema.name
                        walked.add(plan)
    assert statuses == {"pass", "fail"} and len(walked) > 30


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


def test_pruned_enumeration_matches_naive_on_nijenhuis_graph_maps(seed_catalog):
    # the paper's Nijenhuis data: T(x + u) = K(u) on the hemisemi-direct
    # product, zero on all of A, for sampled candidates K over a bimodule,
    # an action, a Lie action and a Jordan action.  Every algebra-operator
    # table, and a clause that nests the twist symbols alpha and T, so that
    # masks read products through composites such as alpha.T and T.alpha.T
    from homalg.forge import GridSpec, sample_operator_candidates
    from homalg.operators import _algebra_clauses, nijenhuis_of

    u, v = var("u"), var("v")
    tu, tv = tw("T", u), tw("T", v)
    nested = IdentitySchema(
        "nested", tw("alpha", op("mu", tu, v) + tw("T", op("mu", u, tw("alpha", tv)))),
        tw("T", tw("alpha", op("mu", tu, tv) - tw("T", op("mu", u, v)))))
    tables = list(_algebra_clauses().values()) + [(nested,)]
    statuses, work = set(), [0, 0]
    for k, rid in enumerate(("kx2t_reg", "kx2_act", "sol2_adj", "j2_adj")):
        rep = seed_catalog[rid].value
        grid = GridSpec((-1, 0, 1, 2), (1,), k, 4)
        for cand in sample_operator_candidates(rep, grid, check=False):
            nij = nijenhuis_of(cand)
            a = nij.rep
            maps = {"T": (nij.map, ("A", "A")), "alpha": (a.alpha, ("A", "A"))}
            for product in a.products.values():
                interp = Interpretation({"A": a.dim}, {"mu": (product, ("A", "A", "A"))}, maps)
                for clauses in tables:
                    want = _naive_check(clauses, interp)
                    report = check_clauses(clauses, interp, "nijenhuis-data")
                    assert _observed(report) == want, (rid, clauses, want)
                    assert report.tuples_evaluated <= report.tuples_checked
                    statuses.add(want[0])
                    work[0] += report.tuples_checked
                    work[1] += report.tuples_evaluated
    # 905 tuples evaluated when a twist's mask was its child's, blind to T's zero columns
    assert statuses == {"pass", "fail"} and work == [2114, 175]


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
        # twists over sums: chains of two twist powers above a product and above z
        IdentitySchema("twist-over-sum",
                       tw("alpha", op("mul", x, yz) + sign * tw("alpha", op("mul2", x, yz))),
                       op("mul2", tw("alpha", x, 2), tw("alpha", yz))),
        IdentitySchema("twist-over-last", tw("alpha", z + sign * tw("alpha", z)),
                       tw("alpha", z, 2)),
    ]


def test_pruned_enumeration_matches_naive_under_nested_products():
    # the per-coordinate rules on signed data, and a square whose polarization
    # sums both orders of the copies y__1, y__2 as the two factors of mul2
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
# random clause sets against naive enumeration

# op symbol -> (left sort, right sort, output sort): an op for every pair of sorts
_RANDOM_OPS = {"mul": ("A", "A", "A"), "l": ("A", "V", "V"), "r": ("V", "A", "V"),
               "vmul": ("V", "V", "V")}
_RANDOM_WEIGHTS = (1, -1, 2, Fraction(1, 2))


def _random_tree(rng, leaves, seen):
    """(expression, sort) of a random product tree over the leaves, in their
    order, each a (name, sort) read once; twists of one or two maps, powers
    1 or 2 and K : V -> A land on random subtrees."""
    if len(leaves) == 1:
        (name, sort), = leaves
        expr = var(name, sort)
    else:
        k = rng.randint(1, len(leaves) - 1)
        (left, ls), (right, rs) = _random_tree(rng, leaves[:k], seen), _random_tree(
            rng, leaves[k:], seen)
        symbol = next(s for s, sig in _RANDOM_OPS.items() if sig[:2] == (ls, rs))
        expr, sort = op(symbol, left, right), _RANDOM_OPS[symbol][2]
    for _ in range(rng.choice((0, 0, 1, 2))):  # no twist, one, or a chain of two
        if sort == "V" and rng.random() < 0.5:
            expr, sort = tw("K", expr), "A"
            seen.add("K")
        else:
            power = rng.randint(1, 2)
            expr = tw("alpha" if sort == "A" else "beta", expr, power)
            seen.add(power)
    return expr, sort


def _random_side(rng, leaves, seen):
    """Zero, or a sum of one or two weighted trees of sort A, each over all
    the leaves in a random order (a V-sorted tree goes through K)."""
    if rng.random() < 0.15:
        return ZERO
    terms = []
    for _ in range(rng.choice((1, 1, 2))):
        expr, sort = _random_tree(rng, rng.sample(leaves, len(leaves)), seen)
        if sort == "V":
            expr = tw("K", expr)
            seen.add("K")
        terms.append((rng.choice(_RANDOM_WEIGHTS), expr))
    return terms[0][1] if len(terms) == 1 and terms[0][0] == 1 else Sum(terms)


def _random_case(rng, pool):
    """(clauses, interpretation, facts): one to three clauses over one list of
    one to four variables of sorts A and V, at most one of them read twice,
    and sparse data whose tuple count stays small.  The tensors of earlier
    cases in `pool` are read again, under fresh maps, half of the time."""
    from math import prod

    names = [f"x{k}" for k in range(rng.randint(1, 4))]
    sorts = {name: rng.choice("AAV") for name in names}
    twice = rng.choice(names) if rng.random() < 0.4 else None
    variables = [(name, sorts[name], 2 if name == twice else 1) for name in names]
    leaves = [(name, sorts[name]) for name, _, mult in variables for _ in range(mult)]
    seen = set()
    clauses = tuple(IdentitySchema(f"c{k}", _random_side(rng, leaves, seen),
                                   _random_side(rng, leaves, seen), variables=variables)
                    for k in range(rng.randint(1, 3)))
    while True:  # at most 81 tuples before copy blocks are sorted
        dims = {"A": rng.randint(1, 3), "V": rng.randint(1, 3)}
        if prod(dims[sort] for _, sort in leaves) <= 81:
            break
    n, m = dims["A"], dims["V"]
    ops = pool.get((n, m)) if rng.random() < 0.5 else None
    if ops is None:
        ops = pool[n, m] = {s: (_sparse_tensor(rng, dims[a], dims[b], dims[c]), (a, b, c))
                            for s, (a, b, c) in _RANDOM_OPS.items()}
    maps = {"alpha": (_sparse_map(rng, n, n), ("A", "A")),
            "beta": (_sparse_map(rng, m, m), ("V", "V")),
            "K": (_sparse_map(rng, m, n), ("V", "A"))}
    facts = {"polarized": twice is not None, "clauses": len(clauses), "K": "K" in seen,
             "power 2": 2 in seen, "zero side": any(ZERO in (c.lhs, c.rhs) for c in clauses)}
    return clauses, Interpretation(dims, ops, maps), facts


def test_random_clause_sets_match_naive_and_the_memo_repeats_them(cold_binds):
    # seeded and bounded: the status, the witness with both sides and
    # tuples_checked of naive enumeration, tensors read again under other
    # maps; then the same objects again, which the memo answers field for
    # field without binding a plan; `evaluate` of every side at one basis
    # tuple, drawn from a generator of its own, gives the naive value; and
    # `check_schema_random` of every clause gives the naive verdict on its
    # draws (see _assert_evaluate_and_random_match_naive)
    import random

    rng, pick = random.Random(27), random.Random(28)
    statuses, seen, pool = set(), {}, {}
    for case in range(200):
        clauses, interp, facts = _random_case(rng, pool)
        want = _naive_check(clauses, interp)
        report = check_clauses(clauses, interp, "random")
        assert _observed(report) == want, (clauses, want)
        assert report.tuples_evaluated <= report.tuples_checked
        _assert_evaluate_and_random_match_naive(clauses, interp, want, pick, case)
        cold_binds.clear()
        again = check_clauses(clauses, interp, "random")
        assert not cold_binds, "the second check was not answered from the memo"
        assert _fields(again) == _fields(report)
        statuses.add(want[0])
        for fact, value in facts.items():
            seen.setdefault(fact, set()).add(value)
    assert statuses == {"pass", "fail"}
    # every kind of case the generator makes came up
    assert all(values == {True, False} for fact, values in seen.items() if fact != "clauses")
    assert seen["clauses"] == {1, 2, 3}


def _assert_evaluate_and_random_match_naive(clauses, interp, want, pick, seed,
                                            homogeneous=True):
    """`evaluate` of every side at one basis tuple drawn from pick, and
    `check_schema_random` of every clause on its seeded draws, give the
    values of plain exact arithmetic; a set of homogeneous clauses that
    passes naive enumeration passes every random check."""
    env = {name: Vector.basis(interp.sorts[s], pick.randrange(interp.sorts[s]))
           for name, s, _ in clauses[0].variables}
    for side in [side for c in clauses for side in (c.lhs, c.rhs)]:
        naive, got = _naive_value(side, env, interp), evaluate(side, env, interp)
        assert got.is_zero() if naive is None else got == naive, (side, env)
    for c in clauses:
        report = check_schema_random(c, interp, 2, seed)
        naive = _naive_random(c, interp, 2, seed)
        assert (report.status, report.tuples_checked, report.detail) == naive, c
        assert not homogeneous or want[0] == "fail" or naive[0] == "pass", c


def test_random_clause_sets_outside_the_mask_contract_match_naive():
    # the cases of _random_case with one more variable declared through
    # variables= that no side reads, at a random place, and, where no
    # variable is read twice, half of the time a first side that sums trees
    # over different variables: every root reads some slots but not all, or
    # a sum's terms read different slots, so the plans are outside the mask
    # contract and enumerated in full.  Status, witness and tuples_checked
    # are naive enumeration's, and so are `evaluate` and the random checks
    import random

    rng, pick = random.Random(29), random.Random(30)
    statuses, recipes, pool, mixed = set(), set(), {}, 0
    for case in range(150):
        clauses, interp, _ = _random_case(rng, pool)
        variables = list(clauses[0].variables)
        variables.insert(rng.randint(0, len(variables)), ("xu", rng.choice("AV"), 1))
        sides = [(c.lhs, c.rhs) for c in clauses]
        names = [(name, sort) for name, sort, _ in variables if name != "xu"]
        homogeneous = not (len(names) > 1 and all(mult == 1 for _, _, mult in variables)
                           and rng.random() < 0.5)
        if not homogeneous:
            mixed += 1
            seen = set()
            terms = [(w, tree if sort == "A" else tw("K", tree)) for w, (tree, sort) in (
                (rng.choice(_RANDOM_WEIGHTS), _random_tree(rng, leaves, seen))
                for leaves in (names, rng.sample(names, rng.randint(1, len(names) - 1))))]
            sides[0] = (Sum(terms), sides[0][1])
        clauses = tuple(IdentitySchema(f"u{k}", lhs, rhs, variables=variables)
                        for k, (lhs, rhs) in enumerate(sides))
        want = _naive_check(clauses, interp)
        report = check_clauses(clauses, interp, "unmasked")
        assert _observed(report) == want, (clauses, want)
        assert report.tuples_evaluated <= report.tuples_checked
        _assert_evaluate_and_random_match_naive(clauses, interp, want, pick, case, homogeneous)
        statuses.add(want[0])
        for (_, polar), clause_set in clauses[0].plans.items():
            for entry in clause_set.by_shape.values() if polar else ():
                recipes.update(all(r is None for r in plan.recipes) for plan in entry.plans)
    assert statuses == {"pass", "fail"} and True in recipes and mixed > 5


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
    # e2 e1 = e1 only.  Under x = e1 both sides of x(yz) = (xy)z vanish: the
    # contraction's tables are empty, and no tuple is evaluated.  Under
    # x = e2 the sides differ first at y = e2, z = e1: e2 (e2 e1) = e1 but
    # (e2 e2) e1 = 0.
    t = StructureTensor.square_from_rule(2, {(1, 0): [1, 0]})
    x, y, z = var("x"), var("y"), var("z")
    schema = IdentitySchema("x(yz)", op("mul", x, op("mul", y, z)),
                            op("mul", op("mul", x, y), z))
    report = check_schema(schema, interp_for(t))
    assert report.witness.indices == (1, 1, 0)
    # the two indices of slot 0; the one tuple with a nonzero side is the witness
    assert (report.tuples_checked, report.tuples_evaluated, report.prefixes_visited) == (7, 1, 2)
    assert _observed(report) == _naive_check((schema,), interp_for(t))


def test_a_contracted_check_visits_only_the_indices_of_slot_0():
    # e1 e1 = e2 only: x(yz) and (xy)z vanish everywhere although the
    # product does not.  Each x contracts y and z at once: two prefixes, and
    # no tuple with a nonzero side.
    t = StructureTensor.square_from_rule(2, {(0, 0): [0, 1]})
    x, y, z = var("x"), var("y"), var("z")
    schema = IdentitySchema("x(yz)", op("mul", x, op("mul", y, z)),
                            op("mul", op("mul", x, y), z))
    report = check_schema(schema, interp_for(t))
    assert report.ok
    assert (report.tuples_checked, report.tuples_evaluated, report.prefixes_visited) == (8, 0, 2)
    # the same with y and z in one copy block: (x, y, z) with y <= z
    sorted_yz = IdentitySchema("x(yz)-sorted", schema.lhs, schema.rhs, copy_blocks=[("y", "z")])
    report = check_schema(sorted_yz, interp_for(t))
    assert report.ok and (report.tuples_checked, report.prefixes_visited) == (6, 2)


def test_a_contracted_sum_reads_a_bare_variable_whole():
    # a sum with a bare later variable as a term, at the last slot and the
    # middle one, gets that variable's table of basis values; status,
    # witness and tuples_checked are naive enumeration's, with y and z in
    # one copy block or none
    import random

    x, y, z = var("x"), var("y"), var("z")
    under = IdentitySchema("under", op("mul", x, op("mul", y, z + tw("alpha", z))),
                           op("mul2", op("mul", x, y), z), variables=_XYZ)
    middle = IdentitySchema("middle", op("mul", op("mul", x, tw("alpha", y) - 2 * y), z),
                            op("mul2", x, op("mul2", y, z)), variables=_XYZ)
    rng, cases = random.Random(36), []
    for schema in (under, middle):
        for block in ((), [("y", "z")]):
            schema = IdentitySchema(schema.name, schema.lhs, schema.rhs, variables=_XYZ,
                                    copy_blocks=block)
            for _ in range(12):
                n = rng.randint(1, 3)
                interp = _algebra_interp(rng, ("mul", "mul2"), n)
                cases.append(((schema,), interp))
    statuses = set()
    for clauses, interp in cases:
        want = _naive_check(clauses, interp)
        report = check_clauses(clauses, interp, "whole")
        assert _observed(report) == want, (clauses[0].name, want)
        statuses.add(want[0])
        (clause_set,) = clauses[0].plans.values()
        assert all(plan.joins for entry in clause_set.by_shape.values() for plan in entry.plans)
    assert statuses == {"pass", "fail"}


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


# the product symbols of the variety and algebra-operator tables
_PRODUCT_SYMBOLS = ("mul", "bracket", "brace", "circ", "left", "right", "middle", "bullet",
                    "prec", "succ", "dot", "mu")


def _bumped_op(interp, rng):
    """interp with one structure constant of one op, drawn from rng, raised
    by 1, the bump forge.perturb_product makes in a product."""
    sym = rng.choice(sorted(interp.ops))
    t, sig = interp.ops[sym]
    where = rng.randrange(t.left_dim), rng.randrange(t.right_dim), rng.randrange(t.out_dim)
    return Interpretation(interp.sorts, interp.ops | {sym: (_bumped(t, *where), sig)},
                          interp.maps)


def _catalog_interpretations(seed_catalog, rng):
    """Catalog data for every shipped clause set.  Per catalog algebra, and
    per seeded `perturb_product` bump of it: every product symbol of the
    variety and operator tables bound to the product of that name, else to
    one of its products in turn, with alpha, d (its own, else a drawn one)
    and T.  Per catalog rep, and per seeded bump of one of its ops: its
    interpretation with K, f and d bound to one V -> A map, a catalog
    operator's on that rep where there is one, else a drawn one."""
    from homalg.forge import perturb_product

    operator_maps = {}
    for e in seed_catalog.values():
        if e.kind == "operator":
            operator_maps.setdefault(id(e.value.rep), e.value.map)
    out = []
    for e in seed_catalog.values():
        value = e.value
        if e.kind == "algebra":
            n, syms = value.dim, sorted(value.products)
            sym = rng.choice(syms)
            where = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            for a in (value, perturb_product(value, sym, where, 1)):
                ops = {s: (a.products.get(s) or a.product(syms[k % len(syms)]), ("A",) * 3)
                       for k, s in enumerate(_PRODUCT_SYMBOLS)}
                d = a.maps.get("d") or _sparse_map(rng, n, n)
                out.append(Interpretation({"A": n}, ops, {
                    "alpha": (a.alpha, ("A", "A")), "d": (d, ("A", "A")),
                    "T": (_sparse_map(rng, n, n), ("A", "A"))}))
        elif e.kind == "rep":
            k = operator_maps.get(id(value)) or _sparse_map(rng, value.v_dim, value.base.dim)
            interp = value.interpretation(**dict.fromkeys("Kfd", (k, ("V", "A"))))
            out += [interp, _bumped_op(interp, rng)]
    return out


def test_every_shipped_clause_set_matches_naive_enumeration_on_catalog_data(seed_catalog):
    # the safety net of any change to check_clauses: every clause set the
    # package checks (_shipped_clause_sets, and the o-operator table at
    # more weights), on every catalog interpretation that binds the symbols
    # it reads with their sorts, gives naive enumeration's status, witness
    # with both sides and tuples_checked.  To bound the naive side's time,
    # 3-slot sets read dimensions up to 6 and 4-slot sets up to 2
    import random

    from homalg.engine import _scan
    from homalg.operators import _o_operator_clauses

    rng = random.Random(36)
    pool = _catalog_interpretations(seed_catalog, rng)
    sets = _shipped_clause_sets() + [_o_operator_clauses(Fraction(w))
                                     for w in (-1, 2, Fraction(1, 2))]
    checked, statuses = {}, set()
    for clauses in sets:
        _, _, _, ops, maps = _scan([e for c in clauses for e in (c.lhs, c.rhs)])
        slots = len(polarize(clauses[0]).variables)
        for interp in pool:
            if (not ops.keys() <= interp.ops.keys() or not maps.keys() <= interp.maps.keys()
                    or max(interp.sorts.values()) > (2 if slots > 3 else 6 if slots > 2 else 9)):
                continue
            try:
                report = check_clauses(clauses, interp, "oracle")
            except SemanticError:  # a symbol read is bound across other sorts
                continue
            want = _naive_check(clauses, interp)
            assert _observed(report) == want, (clauses[0].name, want)
            checked.setdefault(clauses, set()).add(want[0])
            statuses.add(want[0])
    assert all(checked.get(clauses) for clauses in sets), [
        clauses[0].name for clauses in sets if not checked.get(clauses)]
    assert statuses == {"pass", "fail"}
    assert sum(len(got) == 2 for got in checked.values()) > len(sets) // 2


def test_no_shipped_clause_has_a_side_that_skips_a_variable():
    # a side that reads a later slot but not the slot before the last costs
    # that slot its support recipe (see the later-side schema below); every
    # shipped side reads every variable or none
    from homalg.engine import _scan

    sets = _shipped_clause_sets()
    assert len(sets) == 122
    for clauses in sets:
        for clause in map(polarize, clauses):
            names = {name for name, _, _ in clause.variables}
            for side in (clause.lhs, clause.rhs):
                read = _scan((side,))[0]
                assert not read or read.keys() == names, (clause.name, side)


def test_a_side_that_skips_the_slot_before_the_last_leaves_it_unmasked():
    # e1 e_j = e1 and every other product zero: x z = (x y) z holds.  Under
    # x = e2 a last-slot mask comes out empty, and under x = e3 both sides
    # vanish for every y.  x z skips y, so the plan is outside the mask
    # contract: no slot has a recipe and every y is visited, 3 + 9
    # prefixes, where a mask on y would have skipped x = e3's.
    x, y, z = var("x"), var("y"), var("z")
    schema = IdentitySchema("later-side", op("mul", x, z), op("mul", op("mul", x, y), z),
                            variables=_XYZ)
    t = StructureTensor.square_from_rule(3, {(0, j): [1, 0, 0] for j in range(3)})
    report = check_schema(schema, interp_for(t))
    assert _observed(report) == _naive_check((schema,), interp_for(t))
    assert report.ok and report.prefixes_visited == _full_prefixes((schema,), interp_for(t)) == 12
    (clause_set,) = schema.plans.values()
    plans = [plan for entry in clause_set.by_shape.values() for plan in entry.plans]
    assert plans and all(recipe is None for plan in plans for recipe in plan.recipes)


def test_a_last_slot_without_a_recipe_is_enumerated_in_full():
    # z is declared but neither side reads it, so the plan is outside the
    # mask contract and its last slot has no recipe: a pass evaluates every
    # tuple it decides, and a failure stops at the naive witness
    x, y = var("x"), var("y")
    schema = IdentitySchema("unread-last", op("mul", x, y), op("mul", y, x), variables=_XYZ)
    one_sided = StructureTensor.square_from_rule(2, {(0, 1): [1, 0]})
    passing, failing = (check_schema(schema, interp_for(t)) for t in (KX2, one_sided))
    for report, t in ((passing, KX2), (failing, one_sided)):
        assert _observed(report) == _naive_check((schema,), interp_for(t))
    assert passing.ok and passing.tuples_evaluated == passing.tuples_checked == 8
    assert failing.witness.indices == (0, 1, 0) and failing.tuples_checked == 3
    (clause_set,) = schema.plans.values()
    plans = [plan for entry in clause_set.by_shape.values() for plan in entry.plans]
    assert plans and all(plan.recipes[-1] is None for plan in plans)


def test_every_polarized_plan_of_the_shipped_clauses_masks_or_contracts(seed_catalog):
    # the mask contract is no stricter than the package needs.  Certify the
    # catalog, every operator under each of its kinds and the gated
    # constructions, and every algebra met for multiplicativity and in each
    # variety its products fit; then every polarized plan kept on a shipped
    # clause set of one or two slots has a recipe at its last slot, and one
    # of three or more slots contracts and builds no recipe
    from homalg.constructions import (FUNCTORS, INDUCED, bimodule_map_dialgebra,
                                      crossed_module_check, differential_dialgebra, functor,
                                      hemisemi, induce)
    from homalg.forge import unital_nilpotent_3dim
    from homalg.operators import (OperatorCandidate, _algebra_clauses, certify_operator,
                                  hemisemi_id_for, operator_kinds_for)
    from homalg.reps import AssocAction, AssocBimodule, CertificationError, certify_rep, regular
    from homalg.varieties import REQUIRED_PRODUCTS, VarietyTag, certify, certify_multiplicative

    algebras = [e.value for e in seed_catalog.values() if e.kind == "algebra"]

    def gated(build, *args):
        try:
            algebras.append(build(*args))
        except CertificationError:  # a refused build has run its gate
            pass

    for e in seed_catalog.values():
        value = e.value
        if e.kind == "rep":
            assert certify_rep(value).ok
            gated(hemisemi, value, hemisemi_id_for(value))
        elif e.kind == "operator":
            for kind in operator_kinds_for(value.rep):
                certify_operator(value, kind)
            if isinstance(value.rep, AssocAction):
                certify_operator(value, "o-operator", weight=1)
            for cid, row in INDUCED.items():
                if row.takes == e.check_kind and all(
                        hasattr(value.rep, tensor) for tensor, _ in row.products.values()):
                    gated(induce, value, cid)
    for a in list(algebras):
        for cid, row in FUNCTORS.items():
            if row.takes is a.variety:
                gated(functor, a, cid)
    kx2 = seed_catalog["kx2"].value
    gated(differential_dialgebra, unital_nilpotent_3dim(), "d")
    gated(bimodule_map_dialgebra, regular(kx2, AssocBimodule), LinearMap.identity(2))
    assert crossed_module_check(kx2, regular(kx2, AssocAction), LinearMap.identity(2)).ok
    for a in algebras:
        certify_multiplicative(a)
        for tag in VarietyTag:
            if set(REQUIRED_PRODUCTS[tag]) <= set(a.products):
                certify(a, tag)
        for kind in _algebra_clauses():
            certify_operator(OperatorCandidate(a, LinearMap.identity(a.dim)), kind)

    walked = set()
    for clauses in _shipped_clause_sets():
        clause_set = clauses[0].plans.get((tuple(clauses[1:]), True))
        for entry in clause_set.by_shape.values() if clause_set else ():
            for plan in entry.plans:
                recipes = plan.recipes
                if len(recipes) < 3:
                    assert recipes[-1] is not None and plan.joins is None, clauses[0].name
                else:
                    assert plan.joins and recipes == [None] * len(recipes), clauses[0].name
                walked.add(clauses)
    assert walked == set(_shipped_clause_sets())


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
    """Sparse tensors with entries 1, 2, 1/2, and a non-negative twist: the
    identity, one with no zero column, a nilpotent one (strictly upper
    triangular) or a rank-deficient one (some zero columns), so that no sum
    of products can cancel and a twist kills exactly the values it is zero on."""
    def tensor():
        density = rng.choice((0.15, 0.3, 0.6))
        return StructureTensor([[[rng.choice((1, 2, Fraction(1, 2))) if rng.random() < density
                                  else 0 for _ in range(n)] for _ in range(n)] for _ in range(n)])

    kind = rng.choice(("identity", "full", "nilpotent", "deficient"))
    rows = [[rng.choice((1, 2)) if rng.random() < 0.4 and (kind != "nilpotent" or j > i) else 0
             for j in range(n)] for i in range(n)]
    if kind == "full":
        for j in range(n):
            rows[rng.randrange(n)][j] = 1
    elif kind == "deficient":
        for j in rng.sample(range(n), rng.randint(1, n)):
            for row in rows:
                row[j] = 0
    alpha = LinearMap.identity(n) if kind == "identity" else LinearMap(rows)
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
    # prefix-term-inner declares x once but reads it twice, inside a sum
    # whose terms read different slots: it is outside the mask contract,
    # enumerated in full, and checked against naive enumeration above
    schemas += [s for s in _nested_schemas(1) if s.name != "prefix-term-inner"]
    rng = random.Random(12)
    seen = set()
    for schema in schemas:
        # the twists have zero columns too (see _nonnegative_interp): a mask
        # sees through the twists above its node.  Each side against itself
        # passes, so every tuple is decided
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

    # the summed work of certify(a, a.variety) over the catalog's algebras.
    # Plans of three or more slots contract, so they count the tuples with a
    # nonzero side and the indices of slot 0 (695, 147, 324 while they
    # masked the last slot and the one before it; 695, 153, 326 while
    # polarization fed sums of copies to the kernels)
    reports = [certify(e.value, e.value.variety) for e in seed_catalog.values()
               if e.kind == "algebra"]
    assert all(r.ok for r in reports) and len(reports) == 20
    assert work(reports) == (695, 141, 139)
    # and over the hemisemi-direct products of the catalog's reps, mostly
    # zero (166_730, 4_792, 6_919 while masked; 166_730, 5_552, 7_239 while
    # polarization fed sums of copies to the kernels; without the mask at
    # the slot before the last they then visited 23,209 prefixes)
    outputs = [hemisemi(e.value, hemisemi_id_for(e.value), check=False)
               for e in seed_catalog.values() if e.kind == "rep"]
    reports = [certify(a, a.variety) for a in outputs]
    assert all(r.ok for r in reports) and len(reports) == 39
    assert work(reports) == (166_730, 4_742, 2_074)


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
    # only the entry of the data still alive is left: the other went with its data
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


def test_checks_over_fresh_data_leave_no_entry_behind():
    # each check's objects are gone before the next one, as a fresh operator
    # map is after its candidate: its entry goes with them, so the memo holds
    # no dead entry between checks; the entries of live data all stay
    schema = _fresh(associativity_schema())
    for n in range(50):
        interp = interp_for(_bumped(KX2, n % 2, 1, 0, n + 1))
        check_schema(schema, interp)
        assert len(_verdicts(schema)) == 1
        del interp
        assert _verdicts(schema) == []
    kept = [interp_for(_bumped(KX2, 0, 1, 0, n + 1)) for n in range(4)]
    for interp in kept:
        check_schema(schema, interp)
    assert len(_verdicts(schema)) == 4
    del kept[:2]
    assert len(_verdicts(schema)) == 2


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


# ---------------------------------------------------------------------------
# kernels and compiled data: the zero paths against a dense reference


def _dense_to_sparse(dense):
    return [(k, x) for k, x in enumerate(dense) if x]


def _sparse_ints(rng, dim, nonzero):
    """A sparse integer vector with `nonzero` entries, in index order."""
    return [(k, rng.choice((-2, -1, 1, 2, 3))) for k in sorted(rng.sample(range(dim), nonzero))]


def _paths(parts, got):
    """Which kernel path a result came from: by the number of contributions,
    and for two or more whether they cancelled to zero."""
    return min(parts, 2), parts >= 2 and not got


def test_kernels_match_a_dense_reference_on_sparse_data():
    import random

    from homalg.engine import _op_kernel, _power, _sum_kernel, _twist_kernel

    rng = random.Random(23)
    seen = {"op": set(), "tw": set(), "sum": set()}
    for _ in range(600):
        ld, rd, od = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        planes = [[[rng.choice((0, 0, -1, 1, 2)) if rng.random() < 0.6 else 0 for _ in range(od)]
                   if rng.random() < 0.6 else [0] * od for _ in range(rd)]
                  if rng.random() < 0.7 else [[0] * od for _ in range(rd)] for _ in range(ld)]
        if ld > 1 and rng.random() < 0.4:  # plane 1 cancels plane 0
            planes[1] = [[-x for x in row] for row in planes[0]]
        tensor = StructureTensor(planes)
        a = _sparse_ints(rng, ld, rng.randint(0, ld))
        b = _sparse_ints(rng, rd, rng.randint(0, rd))
        if ld > 1 and rng.random() < 0.3:
            a = [(0, 2), (1, 2)]
        dense = [0] * od
        parts = 0
        for i, x in a:
            for j, y in b:
                parts += any(planes[i][j])
                for k in range(od):
                    dense[k] += x * y * planes[i][j][k]
        got = _op_kernel(0, 1, 2, 3)([a, b, tensor._rows, od])
        assert got == _dense_to_sparse(dense), (planes, a, b)
        seen["op"].add(_paths(parts, got))

        # a map from dimension od to rd, with zero columns
        lin = LinearMap([[rng.choice((0, 0, -1, 1, 2)) if rng.random() < 0.5 else 0
                          for _ in range(od)] for _ in range(rd)])
        v = _sparse_ints(rng, od, rng.randint(0, od))
        if od > 1 and rng.random() < 0.3:  # column 1 cancels column 0
            lin = LinearMap([[r[0], -r[0], *r[2:]] for r in lin.matrix])
            v = [(0, 3), (1, 3)]
        mat = lin.matrix  # over lin._d == 1
        dense = [sum(x * mat[i][j] for j, x in v) for i in range(rd)]
        parts = sum(any(r[j] for r in mat) for j, _ in v)
        got = _twist_kernel(0, 1, 2)([v, _power(lin, 1)[0], rd])
        assert lin._d == 1 and got == _dense_to_sparse(dense), (mat, v)
        seen["tw"].add(_paths(parts, got))

        children = [_sparse_ints(rng, od, rng.randint(0, od)) for _ in range(3)]
        terms = [(rng.choice((-2, -1, 1, 3)), c) for c in range(rng.randint(0, 3))]
        if rng.random() < 0.25:
            children[1] = [(k, -x) for k, x in children[0]]
            terms = [(2, 0), (2, 1)]
        dense = [0] * od
        for f, c in terms:
            for k, x in children[c]:
                dense[k] += f * x
        got = _sum_kernel(3, 4)([*children, terms, od])
        assert got == _dense_to_sparse(dense), (children, terms)
        seen["sum"].add(_paths(sum(1 for _, c in terms if children[c]), got))
    # no contribution, one, several, and several that cancel, for each kernel
    for kind, paths in seen.items():
        assert paths == {(0, False), (1, False), (2, False), (2, True)}, (kind, paths)


def _naive_tables(t, covers):
    """Every table `engine._tensor` keeps, from the dense coefficients: the
    row and column masks, P, Q, the chained masks under each cover and the
    nonzero pairs."""
    c = t.coeffs
    ld, rd, od = t.left_dim, t.right_dim, t.out_dim
    p = [[sum(1 << j for j in range(rd) if c[i][j][k]) for k in range(od)] for i in range(ld)]
    q = [[sum(1 << i for i in range(ld) if c[i][j][k]) for k in range(od)] for j in range(rd)]
    out = {"rows": [sum(1 << j for j in range(rd) if any(c[i][j])) for i in range(ld)],
           "cols": [sum(1 << i for i in range(ld) if any(c[i][j])) for j in range(rd)],
           "P": p, "Q": q,
           "pairs": [[(j, t._rows[i][j]) for j in range(rd) if any(c[i][j])]
                     for i in range(ld)]}
    for cover in covers:
        ks = [k for k in range(od) if cover >> k & 1]
        out["rows", cover] = [sum(1 << j for j in range(rd) if any(c[i][j][k] for k in ks))
                              for i in range(ld)]
        out["cols", cover] = [sum(1 << i for i in range(ld) if any(c[i][j][k] for k in ks))
                              for j in range(rd)]
    return out


def test_tensor_tables_match_a_naive_reference_whatever_is_asked_first():
    # seeded random sparse tensors of non-square shapes with zero planes, the
    # zero tensor and single entries, built by every builder (so zero planes
    # come shared, and also as planes of their own); each first request order
    # builds the tables a naive reading of the dense coefficients gives, and
    # a table asked for again is the one kept
    import random

    from homalg.engine import _tensor

    rng = random.Random(34)
    seen = set()
    for n in range(120):
        ld, rd, od = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 5)
        kind = n % 4
        if kind == 0:
            t = _sparse_tensor(rng, ld, rd, od)
        elif kind == 1:
            t = StructureTensor.zero(ld, rd, od)
        elif kind == 2:  # a single entry
            k, x = rng.randrange(od), rng.choice(_ENTRIES)
            t = StructureTensor.from_sparse(ld, rd, od, {(rng.randrange(ld), rng.randrange(rd)):
                                                         [(k, x)]})
        else:  # planes of their own, zero ones included, as a tensor built elsewhere has
            t = _sparse_tensor(rng, ld, rd, od)
            t = StructureTensor._make([list(plane) for plane in t._rows], t._d, ld, rd, od)
        covers = sorted({-1, 0, (1 << od) - 1, rng.getrandbits(od), rng.getrandbits(od)})
        want = _naive_tables(t, covers)
        seen.add((kind, any(want["rows"]), 0 in want["rows"]))
        # masks only, P first, Q first, the pairs first, a chained table first
        for first in ("rows", "P", "Q", "pairs", ("cols", covers[-1])):
            fresh = StructureTensor._make(t._rows, t._d, ld, rd, od)
            _tensor(fresh, first)
            if first in ("rows", "pairs"):  # no per-output table is built unasked
                assert fresh._masks.keys() == {"rows", "cols", first}
            elif first in ("P", "Q"):  # both in one pass
                assert fresh._masks.keys() == {"rows", "cols", "P", "Q"}
            keys = [first] + [key for key in want if key != first]
            got = {key: _tensor(fresh, key) for key in keys}
            assert got == want, (n, first)
            assert all(_tensor(fresh, key) is got[key] for key in keys)
            assert fresh._masks.keys() == want.keys()
    # random tensors with zero planes and without, all-zero ones, and single entries
    assert {(0, True, True), (0, True, False), (1, False, True), (2, True, True)} <= seen


def test_every_tensor_stores_only_its_sparse_rows(seed_catalog, monkeypatch):
    # the rows the kernels read are the tensor's one stored form: per
    # argument pair a list of (k, nonzero int numerator), k strictly
    # ascending, [] for a zero row; checked over the catalog, every output
    # of the benchmark's catalog sweep, each output bumped by 1/2 at its
    # sweep position, and each product with its first nonzero constant
    # cancelled
    from pathlib import Path

    import homalg
    from homalg.engine import _power, _tensor
    from homalg.forge import perturb_product

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from golden import load
    from workloads import sweep_jobs

    tensors, maps = {}, {}
    for entry in seed_catalog.values():
        value = entry.value
        if entry.kind == "operator":
            maps[id(value.map)] = value.map
            continue
        interp = value.interpretation()
        tensors.update((id(t), t) for t, _ in interp.ops.values())
        maps.update((id(m), m) for m, _ in interp.maps.values())
    positions, cancelled = load("perturb_positions"), []
    for jid, build in sweep_jobs(homalg):
        out = build()
        sym, where = positions[jid]
        bent = [perturb_product(out, sym, tuple(where), Fraction(1, 2)).product(sym)]
        for sym, t in out.products.items():
            first = [(i, j, row[0]) for i, plane in enumerate(t._rows)
                     for j, row in enumerate(plane) if row][:1]
            for i, j, (k, x) in first:
                bent.append(perturb_product(out, sym, (i, j, k), Fraction(-x, t._d)).product(sym))
                cancelled.append(len(bent[-1]._rows[i][j]) == len(t._rows[i][j]) - 1)
        tensors.update((id(t), t) for t in [*out.products.values(), *bent])
    assert len(tensors) > 550 and len(maps) > 40 and len(cancelled) > 150 and all(cancelled)
    for t in tensors.values():
        rows = t._rows
        assert type(rows) is list and len(rows) == t.left_dim
        for plane in rows:
            assert type(plane) is list and len(plane) == t.right_dim
            for row in plane:
                assert type(row) is list and all(type(e) is tuple for e in row)
                ks = [k for k, _ in row]
                assert ks == sorted(set(ks)) and all(0 <= k < t.out_dim for k in ks)
                assert all(type(x) is int and x for _, x in row)
        coeffs = t.coeffs
        assert [[_dense_to_sparse([x * t._d for x in row]) for row in plane]
                for plane in coeffs] == rows
        back = StructureTensor(coeffs)
        assert back == t and hash(back) == hash(t) and back.coeffs == coeffs
        row_masks, col_masks = _tensor(t, "rows"), _tensor(t, "cols")
        assert row_masks == [sum(1 << j for j, row in enumerate(plane) if row) for plane in rows]
        assert col_masks == [sum(1 << i for i, plane in enumerate(rows) if plane[j])
                             for j in range(t.right_dim)]
    for m in maps.values():
        cols, _, mask, _ = _power(m, 1)
        assert cols is m._cols and type(cols) is list and len(cols) == m.src_dim
        for col in cols:
            ks = [k for k, _ in col]
            assert type(col) is list and ks == sorted(set(ks)) and all(0 <= k < m.dst_dim for k in ks)
            assert all(type(x) is int and x for _, x in col)
        assert cols == [_dense_to_sparse([m.matrix[i][j] * m._d for i in range(m.dst_dim)])
                        for j in range(m.src_dim)]
        assert mask == sum(1 << j for j, col in enumerate(cols) if col)
    # a map into dimension 0 has no rows to zip, yet one empty column per source index
    assert _power(LinearMap.zero(3, 0), 1)[::2] == ([[], [], []], 0)
    assert _power(LinearMap.zero(0, 2), 1)[::2] == ([], 0)


def test_one_plan_rebound_over_changing_denominators_matches_cold_compiles(cold_binds):
    x, y = var("x"), var("y")
    lhs = op("mul", tw("alpha", x), y) + Fraction(1, 2) * op("mul", x, tw("alpha", y))
    # it holds when alpha is a scalar, and fails for the shear
    schema = IdentitySchema("mixed", lhs, Fraction(3, 2) * op("mul", tw("alpha", x), y))
    base = [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]
    statuses = set()
    for n, d in enumerate((1, 2, 3, 1, 3, 2, 2, 1)):
        tensor = StructureTensor([[[Fraction(c, d) for c in row] for row in plane]
                                  for plane in base])
        twist = [[1, 1], [0, 2]] if n % 2 else [[5, 0], [0, 5]]
        alpha = LinearMap([[Fraction(c, 4 - d) for c in row] for row in twist])
        assert (tensor._d, alpha._d) == (d, 4 - d)
        interp = interp_for(tensor, alpha)
        report = check_clauses([schema], interp, "mixed")
        _same(report, check_clauses([_fresh(schema)], interp, "mixed"))
        statuses.add(report.status)
        for leaf in (1, 2, 3):
            _same(check_schema_random(schema, interp, 6, d, denominators=(leaf,)),
                  check_schema_random(_fresh(schema), interp, 6, d, denominators=(leaf,)))
            u, v = Vector([Fraction(1, leaf), 2]), Vector([-1, Fraction(3, leaf)])
            want = (tensor.apply(alpha.apply(u), v) + tensor.apply(u, alpha.apply(v)).scale(
                Fraction(1, 2)))
            assert evaluate(lhs, {"x": u, "y": v}, interp) == want
    # one plan for the exhaustive checks and one for the random ones, each
    # bound once per check over every denominator in turn
    exhaustive, drawn = _plans(schema)
    assert [sum(p is plan for p in cold_binds) for plan in (exhaustive, drawn)] == [8, 24]
    assert statuses == {"pass", "fail"}

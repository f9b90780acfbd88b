import random
from fractions import Fraction

import pytest

from homalg.engine import CheckReport, SemanticError, Witness, check_schema
from homalg.exact import LinearMap, StructureTensor, Vector
from homalg.forge import (
    GridSpec,
    diagonal_dialgebra,
    find_endomorphisms,
    kx2_phitwist,
    truncated_polynomial_algebra,
    two_dim_trialgebra,
    two_dim_trialgebra_literal,
    unital_nilpotent_3dim,
)
from homalg.constructions import ConstructionId, differential_dialgebra, functor
from homalg.reps import CertificationError
from homalg.varieties import (
    AlgebraInstance,
    VarietyTag,
    certify,
    certify_multiplicative,
    classical_jordan_dialgebra_multilinear,
    classical_jordan_dialgebra_schemas,
    is_morphism,
)

V = VarietyTag


def test_two_dim_trialgebra_completion_certifies():
    assert certify(two_dim_trialgebra(1, 1), V.HOM_ASSOCIATIVE_TRIALGEBRA).ok


def test_two_dim_trialgebra_literal_reading_fails():
    # as first stated (no left diagonal) the bar identity already breaks
    report = certify(two_dim_trialgebra_literal(1, 1), V.HOM_ASSOCIATIVE_TRIALGEBRA)
    assert report.status == "fail"
    assert report.witness.identity == "bar-left"


def test_twisted_trialgebras_certify():
    assert certify(two_dim_trialgebra(2, 3), V.HOM_ASSOCIATIVE_TRIALGEBRA).ok
    assert certify(two_dim_trialgebra(-1, 5), V.HOM_ASSOCIATIVE_TRIALGEBRA).ok


def test_certify_fail_witness():
    bad = AlgebraInstance(
        "bad", 2,
        {"mul": StructureTensor.square_from_rule(2, {(0, 0): [0, 1], (1, 1): [1, 0]})},
        {"alpha": LinearMap.identity(2)},
    )
    report = certify(bad, V.HOM_ASSOCIATIVE)
    assert report.status == "fail" and report.witness.indices == (0, 0, 1)


def test_certify_missing_product_is_semantic_error():
    kx2 = truncated_polynomial_algebra(2)
    with pytest.raises(SemanticError):
        certify(kx2, V.HOM_LIE)


def test_certify_multiplicative():
    tri = two_dim_trialgebra(1, 1)
    assert certify_multiplicative(tri).ok
    # composing with a twist that is not an endomorphism breaks it: the
    # untwisted products with alpha = diag(2, 3) give alpha(e1 . e1) = 2 e1
    # but alpha(e1) . alpha(e1) = 4 e1
    products = dict(tri.products)
    skewed = AlgebraInstance("skewed", 2, products, {"alpha": LinearMap.diagonal([2, 3])})
    report = certify_multiplicative(skewed)
    assert report.status == "fail"
    assert report.witness.lhs_value == Vector([2, 0])
    assert report.witness.rhs_value == Vector([4, 0])


def test_certify_multiplicative_reuses_its_schemas(monkeypatch):
    import homalg.varieties as varieties

    # product symbols no other test uses, so the schemas' plans are this test's alone
    tri = two_dim_trialgebra(1, 1)
    fresh = {f"{sym}_reuse": t for sym, t in tri.products.items()}
    a = AlgebraInstance("reuse", 2, fresh, dict(tri.maps))
    seen = []
    real_check_all = varieties.check_all

    def recording_check_all(schemas, interp, check_id):
        seen.append(tuple(schemas))
        return real_check_all(schemas, interp, check_id)

    monkeypatch.setattr(varieties, "check_all", recording_check_all)
    assert certify_multiplicative(a).ok and certify_multiplicative(a).ok
    first, second = seen
    assert len(first) == len(fresh) and all(s is t for s, t in zip(first, second))
    for schema in first:
        (clause_set,) = schema.plans.values()
        assert [len(entry.plans) for entry in clause_set.by_shape.values()] == [1]


def test_is_morphism_identity_and_zero():
    kx2 = truncated_polynomial_algebra(2)
    assert is_morphism(LinearMap.identity(2), kx2, kx2).ok
    report = is_morphism(LinearMap.zero(2), kx2, kx2)
    # one prefix per basis vector of the one product, two pairs under each
    assert report.ok and (report.prefixes_visited, report.tuples_checked) == (2, 4)


def test_is_morphism_diag23_on_trialgebra_fails():
    # the hand check on basis pairs: phi(e1 * e1) = 2 e1 but
    # phi(e1) * phi(e1) = 4 e1, for every product with the e1 diagonal
    tri = two_dim_trialgebra(1, 1)
    report = is_morphism(tri.maps["phi23"], tri, tri)
    assert report.status == "fail"
    assert (report.prefixes_visited, report.tuples_checked) == (1, 1)
    assert report.witness.lhs_value == Vector([2, 0])
    assert report.witness.rhs_value == Vector([4, 0])


def test_is_morphism_diag12_on_trialgebra_passes():
    tri = two_dim_trialgebra(1, 1)
    assert is_morphism(tri.maps["phi12"], tri, tri).ok



def test_is_morphism_twist_witness_is_the_first_failing_basis_vector():
    # alpha = diag(1, 0): f(alpha e1) = f(e1) = e1 = alpha(f e1), but
    # f(alpha e2) = 0 while alpha(f e2) = alpha(e1 + e2) = e1
    kx2t = kx2_phitwist()
    report = is_morphism(LinearMap([[1, 1], [0, 1]]), kx2t, kx2t)
    assert report.status == "fail"
    w = report.witness
    assert (w.identity, w.variables, w.indices) == ("twist-intertwine", (("x", "A"),), (1,))
    assert (w.lhs_value, w.rhs_value) == (Vector([0, 0]), Vector([1, 0]))

def test_is_morphism_symbol_mismatch():
    kx2 = truncated_polynomial_algebra(2)
    tri = two_dim_trialgebra(1, 1)
    with pytest.raises(SemanticError):
        is_morphism(LinearMap.zero(2), kx2, tri)


def test_classical_degeneration_jordan_dialgebra():
    # for untwisted instances the short (polarized) classical identity list
    # and the displayed multilinear list agree with the certifier
    kx2 = truncated_polynomial_algebra(2)
    dia = diagonal_dialgebra(kx2)
    jd = functor(dia, ConstructionId.ANTI_DICOMMUTATOR, check=False)
    assert certify(jd, V.HOM_JORDAN_DIALGEBRA).ok
    interp = jd.interpretation()
    for schema in classical_jordan_dialgebra_schemas():
        assert check_schema(schema, interp).ok, schema.name
    for schema in classical_jordan_dialgebra_multilinear():
        assert check_schema(schema, interp).ok, schema.name


def test_classical_degeneration_detects_failure():
    bad = AlgebraInstance(
        "badjd", 2,
        {"bullet": StructureTensor.square_from_rule(2, {(0, 0): [0, 1], (1, 0): [1, 0]})},
        {"alpha": LinearMap.identity(2)},
    )
    short = [check_schema(s, bad.interpretation()).ok
             for s in classical_jordan_dialgebra_schemas()]
    multi = [check_schema(s, bad.interpretation()).ok
             for s in classical_jordan_dialgebra_multilinear()]
    assert not all(short) and not all(multi)


def test_di_to_tri_zero_middle_only_for_degenerate_triples():
    # adjoining a zero middle product forces (x left y) left alpha(z) = 0,
    # so it certifies exactly when triple products vanish
    nil3 = unital_nilpotent_3dim()
    dd = differential_dialgebra(nil3, "d")
    assert certify(functor(dd, ConstructionId.DI_TO_TRI), V.HOM_ASSOCIATIVE_TRIALGEBRA).ok
    kx2_dia = diagonal_dialgebra(truncated_polynomial_algebra(2))
    with pytest.raises(CertificationError):
        functor(kx2_dia, ConstructionId.DI_TO_TRI)
    report = certify(
        functor(kx2_dia, ConstructionId.DI_TO_TRI, check=False),
        V.HOM_ASSOCIATIVE_TRIALGEBRA,
    )
    assert report.status == "fail" and report.witness.identity == "middle-compat-1"


def test_all_tags_have_disjoint_witnessable_schemas():
    # antisymmetry and commutativity are separate schemas so their witnesses
    # are distinguishable from the main identities
    from homalg.varieties import schemas_for

    lie_names = [s.name for s in schemas_for(V.HOM_LIE)]
    assert "antisymmetry" in lie_names and "jacobi" in lie_names
    jordan_names = [s.name for s in schemas_for(V.HOM_JORDAN)]
    assert "commutativity" in jordan_names and "jordan" in jordan_names


def reference_is_morphism(f, src, dst):
    """`is_morphism` as a pair-by-pair loop over `Vector`s, kept as the
    reference for its integer-numerator kernel."""
    f_alpha, alpha_f = f.compose(src.alpha), dst.alpha.compose(f)
    if f_alpha != alpha_f:
        for j in range(src.dim):
            lhs, rhs = f_alpha.column(j), alpha_f.column(j)
            if lhs != rhs:
                break
        return CheckReport("fail", "morphism", witness=Witness(
            "twist-intertwine", (("x", "A"),), (j,), lhs, rhs),
            detail="f . alpha != alpha' . f")
    count = prefixes = 0
    for sym in sorted(src.products):
        ts, td = src.products[sym], dst.products[sym]
        for i in range(src.dim):
            prefixes += 1
            fi = f.column(i)
            for j in range(src.dim):
                count += 1
                lhs = f.apply(ts.row(i, j))
                rhs = td.apply(fi, f.column(j))
                if lhs != rhs:
                    return CheckReport("fail", "morphism", witness=Witness(
                        f"morphism:{sym}", (("x", "A"), ("y", "A")), (i, j), lhs, rhs),
                        tuples_checked=count, tuples_evaluated=count,
                        prefixes_visited=prefixes)
    return CheckReport("pass", "morphism", tuples_checked=count, tuples_evaluated=count,
                       prefixes_visited=prefixes)


def morphism_record(report):
    """Everything a morphism report states, sides as their exact _n and _d."""
    w = report.witness
    witness = w and (w.identity, w.variables, w.indices,
                     w.lhs_value._n, w.lhs_value._d, w.rhs_value._n, w.rhs_value._d)
    return (report.status, report.check, report.detail, witness, report.tuples_checked,
            report.tuples_evaluated, report.prefixes_visited)


def random_map(rng, src_dim, dst_dim, den):
    return LinearMap([[Fraction(rng.choice((-2, -1, 0, 0, 1, 2)), den) for _ in range(src_dim)]
                      for _ in range(dst_dim)])


def untwisted(a):
    """a with its twist replaced by the identity, so every map reaches the product check."""
    return AlgebraInstance(f"{a.name}-untwisted", a.dim, a.products,
                           {"alpha": LinearMap.identity(a.dim)})


def test_is_morphism_matches_the_vector_loop(seed_catalog):
    rng = random.Random(17)
    algebras = [e.value for e in seed_catalog.values() if e.kind == "algebra"]
    cases = []
    for a in algebras:
        n = a.dim
        fixed = [LinearMap.identity(n), LinearMap.zero(n), *a.maps.values()]
        cases += [(f, a, a) for f in fixed]
        for b in (a, untwisted(a)):
            cases += [(random_map(rng, n, n, den), b, b) for den in (1, 2) for _ in range(10)]
    # same product symbols, different dimensions (m != n), both ways round
    for small, big in (("kx2", "kx3"), ("zero2", "zero3"), ("ab2", "heis3"), ("kx2", "ut2")):
        for src, dst in ((small, big), (big, small)):
            a, b = seed_catalog[src].value, seed_catalog[dst].value
            cases += [(random_map(rng, a.dim, b.dim, den), a, b)
                      for den in (1, 2) for _ in range(10)]
            cases.append((LinearMap.zero(a.dim, b.dim), a, b))
    # kx2 -> kx3, 1 -> 1, x -> x^2; kx3 -> kx2, 1 -> 1, x -> x, x^2 -> 0
    kx2, kx3 = seed_catalog["kx2"].value, seed_catalog["kx3"].value
    into, onto = LinearMap([[1, 0], [0, 0], [0, 1]]), LinearMap([[1, 0, 0], [0, 1, 0]])
    assert is_morphism(into, kx2, kx3).ok and is_morphism(onto, kx3, kx2).ok
    cases += [(into, kx2, kx3), (onto, kx3, kx2)]
    # exactly one twist the identity, in equal and in different dimensions,
    # both ways round; the intertwining part of each random map reaches the
    # products
    mixed = []
    for twisted, plain in (("kx2t", "kx2"), ("kx3t2", "kx3"), ("sol2t2", "sol2"),
                           ("j2t2", "j2"), ("tri23", "tri11"), ("kx3t2", "kx2"),
                           ("kx2t", "kx3")):
        t, u = seed_catalog[twisted].value, seed_catalog[plain].value
        for src, dst in ((t, u), (u, t)):
            mixed.append((LinearMap.zero(src.dim, dst.dim), src, dst))
            for den in (1, 2):
                for _ in range(6):
                    f = random_map(rng, src.dim, dst.dim, den)
                    mixed += [(f, src, dst), (intertwining_part(f, src, dst), src, dst)]
    cases += mixed
    # a sparse tensor: heis3's endomorphisms over {-1, 0, 1}, each as found
    # and with one entry bumped, every entry in turn
    heis3 = seed_catalog["heis3"].value
    endos = find_endomorphisms(heis3, GridSpec((-1, 0, 1)))
    assert len(endos) == 657
    for e, f in enumerate(endos):
        rows = [list(row) for row in f.matrix]
        rows[e % 9 // 3][e % 3] += 1
        cases += [(f, heis3, heis3), (LinearMap(rows), heis3, heis3)]
    statuses, one_identity = set(), set()
    for f, src, dst in cases:
        got, want = is_morphism(f, src, dst), reference_is_morphism(f, src, dst)
        assert morphism_record(got) == morphism_record(want), (src.name, dst.name, f.matrix)
        status = (got.status, got.witness and got.witness.identity.split(":")[0])
        statuses.add(status)
        if (src.alpha == LinearMap.identity(src.dim)) != (dst.alpha == LinearMap.identity(dst.dim)):
            one_identity.add(status)
    expected = {("pass", None), ("fail", "twist-intertwine"), ("fail", "morphism")}
    assert statuses == one_identity == expected


def intertwining_part(f, src, dst):
    """f with each entry f[r][c] zeroed unless the diagonal twists agree there,
    alpha[c][c] == alpha'[r][r], so that f.alpha == alpha'.f."""
    a, b = src.alpha.matrix, dst.alpha.matrix
    assert all(x == 0 for m in (a, b) for r, row in enumerate(m) for c, x in enumerate(row)
               if r != c)
    return LinearMap([[x if a[c][c] == b[r][r] else 0 for c, x in enumerate(row)]
                      for r, row in enumerate(f.matrix)])


def scalar_twist(a, s, scale=1):
    """a with the twist s * id, its numerators and denominator multiplied by
    scale: the same map over a larger denominator."""
    eye = LinearMap.diagonal([s] * a.dim)
    alpha = LinearMap._make([[(i, x * scale) for i, x in col] for col in eye._cols], eye._d * scale,
                            a.dim, a.dim)
    return AlgebraInstance(f"{a.name}-scaled", a.dim, a.products, {"alpha": alpha})


def test_is_morphism_twist_check_scales_each_side_by_its_own_twist(seed_catalog):
    # s * id commutes with every map, so the twist check passes only when
    # each composite is scaled by the other twist's denominator; random
    # twists with unequal denominators give twist witnesses over both
    rng = random.Random(29)
    statuses = set()
    for name in ("kx2", "kx3", "ut2", "heis3", "sol2"):
        a = seed_catalog[name].value
        n = a.dim
        for s in (Fraction(1, 2), Fraction(-2, 3), 3):
            src, dst = scalar_twist(a, s, 1), scalar_twist(a, s, 5)
            twisted = AlgebraInstance(a.name, n, a.products,
                                      {"alpha": random_map(rng, n, n, rng.choice((2, 3)))})
            for f in [LinearMap.identity(n), *(random_map(rng, n, n, den) for den in (1, 2, 2))]:
                for x, y in ((src, dst), (dst, src), (twisted, dst), (src, twisted)):
                    got, want = is_morphism(f, x, y), reference_is_morphism(f, x, y)
                    assert morphism_record(got) == morphism_record(want), (name, s, f.matrix)
                    statuses.add((got.status, got.witness and got.witness.identity.split(":")[0]))
    assert statuses == {("pass", None), ("fail", "twist-intertwine"), ("fail", "morphism")}

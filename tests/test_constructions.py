import itertools
from fractions import Fraction

import pytest

from homalg.constructions import (
    FUNCTORS,
    HEMISEMI,
    INDUCED,
    ConstructionId,
    bimodule_map_dialgebra,
    crossed_module_check,
    differential_dialgebra,
    functor,
    graph_closure,
    hemisemi,
    induce,
    twist_products,
    yau_twist,
)
from homalg.engine import CheckReport, Witness
from homalg.exact import LinearMap, Vector
from homalg.forge import (
    GridSpec,
    catalog_entry,
    diagonal_dialgebra,
    kx2_phitwist,
    multiplication_operator,
    perturb_operator,
    projection_operator,
    sample_operator_candidates,
    truncated_polynomial_algebra,
    two_dim_trialgebra,
    unital_nilpotent_3dim,
    zero_algebra,
)
from homalg.operators import OperatorCandidate, certify_operator, hemisemi_id_for, nijenhuis_of
from homalg.reps import (
    AssocAction,
    AssocBimodule,
    CertificationError,
    JordanAction,
    JordanModule,
    LieAction,
    LieModule,
    direct_sum,
    regular,
    symmetrized,
    tensor_square_bimodule,
)
from homalg.varieties import AlgebraInstance, VarietyTag, certify

C = ConstructionId
V = VarietyTag


@pytest.fixture(scope="module")
def kx2():
    return truncated_polynomial_algebra(2)


def test_hemisemi_diass_regular(kx2):
    out = hemisemi(regular(kx2, AssocBimodule), C.HEMISEMI_DIASS)
    assert out.dim == 4
    assert certify(out, V.HOM_ASSOCIATIVE_DIALGEBRA).ok


def test_hemisemi_triass_direct_sum(kx2):
    out = hemisemi(direct_sum(kx2, 1, AssocAction), C.HEMISEMI_TRIASS)
    assert out.dim == 4
    assert certify(out, V.HOM_ASSOCIATIVE_TRIALGEBRA).ok


def test_hemisemi_zero_rep():
    z = zero_algebra(2)
    out = hemisemi(direct_sum(z, 1, AssocAction), C.HEMISEMI_TRIASS)
    assert all(t.is_zero() for t in out.products.values())


def test_hemisemi_wrong_rep_kind(kx2):
    from homalg.engine import SemanticError

    with pytest.raises(SemanticError):
        hemisemi(regular(kx2, AssocBimodule), C.HEMISEMI_LEIB)


def test_graph_theorem_positive_and_negative(kx2):
    ts = tensor_square_bimodule(kx2)
    mult = multiplication_operator(ts)
    assert graph_closure(mult, C.HEMISEMI_DIASS).ok
    bad = OperatorCandidate(regular(kx2, AssocBimodule), LinearMap([[1, 0], [1, 0]]))
    report = graph_closure(bad, C.HEMISEMI_DIASS)
    assert report.status == "fail"
    # zero map: the graph is V itself and all products land back in it
    zero = OperatorCandidate(regular(kx2, AssocBimodule), LinearMap.zero(2))
    report = graph_closure(zero, C.HEMISEMI_DIASS)
    assert report.ok
    # one prefix per product and generator, two tuples under each
    assert (report.prefixes_visited, report.tuples_checked) == (2 * 2, 2 * 2 * 2)



def test_graph_closure_witness_sets_a_part_against_k_of_v_part():
    # K is the sum operator of kx2 + kx2 with K[0][0] raised by one; the left
    # product of the generators of u1 and u2 is (0,2 | 0,1,0,0), whose A-part
    # (0,2) differs from K(0,1,0,0) = (0,1)
    bad = perturb_operator(catalog_entry("kx2_sum2_sum").value, (0, 0), 1)
    for what in (C.HEMISEMI_DIASS, C.HEMISEMI_TRIASS):
        w = graph_closure(bad, what).witness
        assert (w.identity, w.indices) == ("graph:left", (0, 1))
        assert w.lhs_value == Vector([0, 2])
        assert w.rhs_value == bad.map.apply(Vector([0, 1, 0, 0])) == Vector([0, 1])


def test_graph_closure_twist_witness_sets_a_part_against_k_of_v_part():
    # alpha = diag(1, 0) on kx2t: the twist sends the generator K(u2) + u2 =
    # (1,0 | 0,1) to (1,0 | 0,0), whose V-part maps to 0 under K
    rep = regular(kx2_phitwist(), AssocBimodule)
    report = graph_closure(OperatorCandidate(rep, LinearMap([[0, 1], [0, 0]])), C.HEMISEMI_DIASS)
    w = report.witness
    assert (w.identity, w.indices) == ("twist-closure", (1,))
    assert (w.lhs_value, w.rhs_value) == (Vector([1, 0]), Vector([0, 0]))

def test_induced_dialgebra(kx2):
    mult = multiplication_operator(tensor_square_bimodule(kx2))
    out = induce(mult, C.INDUCED_DIALGEBRA)
    assert out.dim == 4
    assert certify(out, V.HOM_ASSOCIATIVE_DIALGEBRA).ok


def test_induced_trialgebra_projection(kx2):
    p1 = projection_operator(direct_sum(kx2, 2, AssocAction), 0)
    out = induce(p1, C.INDUCED_TRIALGEBRA)
    assert certify(out, V.HOM_ASSOCIATIVE_TRIALGEBRA).ok


def test_induced_zero_operator(kx2):
    zero = OperatorCandidate(regular(kx2, AssocBimodule), LinearMap.zero(2))
    out = induce(zero, C.INDUCED_DIALGEBRA)
    assert all(t.is_zero() for t in out.products.values())


def test_induce_rejects_uncertified_operator(kx2):
    bad = OperatorCandidate(regular(kx2, AssocBimodule), LinearMap([[1, 0], [1, 0]]))
    with pytest.raises(CertificationError):
        induce(bad, C.INDUCED_DIALGEBRA)


def test_commuting_square_dialgebra_to_jordan(kx2):
    # anti-dicommutator of the induced dialgebra coincides, as structure
    # constants, with the Jordan structure induced over the symmetrized base
    ts = tensor_square_bimodule(kx2)
    mult = multiplication_operator(ts)
    path1 = functor(induce(mult, C.INDUCED_DIALGEBRA), C.ANTI_DICOMMUTATOR)
    jmod = symmetrized(ts)
    path2 = induce(OperatorCandidate(jmod, mult.map), C.INDUCED_JORDAN_DIALGEBRA)
    assert path1.product("bullet") == path2.product("bullet")
    assert certify(path1, V.HOM_JORDAN_DIALGEBRA).ok


def test_dicommutator_of_dialgebras(kx2):
    for dia in (diagonal_dialgebra(kx2),
                differential_dialgebra(unital_nilpotent_3dim(), "d")):
        out = functor(dia, C.DICOMMUTATOR)
        assert certify(out, V.HOM_LEIBNIZ).ok


def test_minus_on_commutative_base_is_abelian(kx2):
    out = functor(kx2, C.MINUS)
    assert out.product("bracket").is_zero()
    assert certify(out, V.HOM_LIE).ok


def test_tri_to_leibniz_on_twisted_example():
    tri = two_dim_trialgebra(2, 3, name="t23")
    out = functor(tri, C.TRI_TO_LEIBNIZ)
    assert certify(out, V.HOM_LEIBNIZ_TRIALGEBRA).ok
    # both products share their diagonal entries, so the brace collapses and
    # only the middle commutator survives: [e1, e2] = 3 e2 = -[e2, e1]
    brace, bracket = out.product("brace"), out.product("bracket")
    assert brace.is_zero()
    assert bracket.coeff(0, 1, 1) == 3 and bracket.coeff(1, 0, 1) == -3


def test_opposite_dialgebra(kx2):
    mult = multiplication_operator(tensor_square_bimodule(kx2))
    dia = induce(mult, C.INDUCED_DIALGEBRA)
    assert certify(functor(dia, C.OPPOSITE_DIALGEBRA), V.HOM_ASSOCIATIVE_DIALGEBRA).ok


def test_tridendriform_from_trialgebra():
    tri = two_dim_trialgebra(-1, 5, name="tm15")
    out = functor(tri, C.TRIDENDRIFORM)
    assert certify(out, V.HOM_TRIDENDRIFORM).ok
    assert out.product("prec") == tri.product("left").scale(-1)


def test_yau_twist_identity_map_is_identity():
    tri = two_dim_trialgebra(1, 1)
    out = yau_twist(tri, "alpha")  # alpha = id here
    for sym in tri.products:
        assert out.product(sym) == tri.product(sym)


def test_yau_twist_zero_map(kx2):
    from homalg.varieties import AlgebraInstance

    maps = kx2.maps | {"z": LinearMap.zero(2)}
    a = AlgebraInstance(kx2.name, kx2.dim, kx2.products, maps, kx2.variety)
    out = yau_twist(a, "z")
    assert all(t.is_zero() for t in out.products.values())
    assert out.alpha.is_zero()


def test_yau_twist_rejects_non_endomorphism():
    tri = two_dim_trialgebra(1, 1)
    with pytest.raises(CertificationError) as err:
        yau_twist(tri, "phi23")
    assert err.value.report.witness is not None


def test_yau_twist_endomorphism_pipeline():
    tri = two_dim_trialgebra(1, 1)
    out = yau_twist(tri, "phi12")
    assert certify(out, V.HOM_ASSOCIATIVE_TRIALGEBRA).ok
    assert out.alpha == LinearMap.diagonal([1, 2])


def test_twist_products_mechanical():
    tri = two_dim_trialgebra(1, 1)
    out = twist_products(tri, LinearMap.diagonal([2, 3]), "tri23x")
    assert out.product("right") == two_dim_trialgebra(2, 3).product("right")


def test_differential_dialgebra_preconditions(kx2):
    nil3 = unital_nilpotent_3dim()
    out = differential_dialgebra(nil3, "d")
    assert certify(out, V.HOM_ASSOCIATIVE_DIALGEBRA).ok
    # K[x]/(x^2) admits only the zero differential: d(1) = d(x) = 0
    from homalg.varieties import AlgebraInstance

    a = AlgebraInstance(kx2.name, 2, kx2.products,
                        kx2.maps | {"d": LinearMap.zero(2)}, kx2.variety)
    zd = differential_dialgebra(a, "d")
    assert all(t.is_zero() for t in zd.products.values())
    bad = AlgebraInstance(kx2.name, 2, kx2.products,
                          kx2.maps | {"d": LinearMap([[0, 0], [0, 1]])}, kx2.variety)
    with pytest.raises(CertificationError):
        differential_dialgebra(bad, "d")


def test_bimodule_map_dialgebra(kx2):
    # the identity on the regular bimodule of a unital algebra is a bimodule
    # map; its dialgebra has both products equal to the multiplication
    rep = regular(kx2, AssocBimodule)
    out = bimodule_map_dialgebra(rep, LinearMap.identity(2))
    assert out.product("left") == kx2.product("mul")
    assert out.product("right") == kx2.product("mul")
    assert certify(out, V.HOM_ASSOCIATIVE_DIALGEBRA).ok
    with pytest.raises(CertificationError):
        bimodule_map_dialgebra(rep, LinearMap([[0, 1], [0, 0]]))


def test_bimodule_map_is_relative_averaging(kx2):
    rep = regular(kx2, AssocBimodule)
    assert certify_operator(OperatorCandidate(rep, LinearMap.identity(2)), "rel-avg").ok


def test_crossed_module_examples(kx2):
    act = regular(kx2, AssocAction)
    assert crossed_module_check(kx2, act, LinearMap.identity(2)).ok
    # zero differential with zero action and product
    z = zero_algebra(2)
    zact = regular(z, AssocAction)
    assert crossed_module_check(z, zact, LinearMap.zero(2)).ok
    # d = 0 against a nonzero product fails the compatibility
    report = crossed_module_check(kx2, act, LinearMap.zero(2))
    assert report.status == "fail"
    assert report.witness.identity in ("peiffer-left", "peiffer-right", "morphism")


def test_equivalence_battery_small(kx2):
    # certifier, graph and lifted-Nijenhuis verdicts coincide over the
    # dialgebra-type ambient
    from homalg.forge import GridSpec, sample_operator_candidates

    rep = regular(kx2, AssocBimodule)
    ambient = hemisemi(rep, C.HEMISEMI_DIASS, check=False)
    grid = GridSpec(numerators=(-1, 0, 1), denominators=(1,), seed=3, count=60)
    for cand in sample_operator_candidates(rep, grid):
        a = certify_operator(cand, "rel-avg").ok
        b = graph_closure(cand, C.HEMISEMI_DIASS, ambient=ambient).ok
        c = certify_operator(
            nijenhuis_of(cand, C.HEMISEMI_DIASS, ambient=ambient), "nijenhuis"
        ).ok
        assert a == b == c


def test_yau_twist_preserves_certification_over_found_endomorphisms(seed_catalog):
    from homalg.forge import GridSpec, find_endomorphisms
    from homalg.varieties import AlgebraInstance

    grid = GridSpec(numerators=(0, 1, 2), denominators=(1,))
    for aid in ("kx2", "tri11", "sol2", "j2"):
        a = seed_catalog[aid].value
        for k, phi in enumerate(find_endomorphisms(a, grid, mode="diagonal")):
            named = AlgebraInstance(a.name, a.dim, a.products,
                                    a.maps | {"phi": phi}, a.variety)
            out = yau_twist(named, "phi")  # the output gate re-certifies
            assert certify(out, a.variety).ok, (aid, k)


def test_hemisemi_all_catalog_reps(seed_catalog):
    from homalg.operators import hemisemi_id_for

    for entry in seed_catalog.values():
        if entry.kind != "rep":
            continue
        cid = hemisemi_id_for(entry.value)
        out = hemisemi(entry.value, cid, check=False)
        assert certify(out, out.variety).ok, (entry.id, cid.value)


def test_bimodule_map_route_agrees_with_induced_route(kx2):
    # the coordinate sum on A^2 is a bimodule map, and its dialgebra is the
    # same structure the induced-dialgebra theorem builds from it
    from homalg.forge import sum_operator

    rep = direct_sum(kx2, 2, AssocAction)
    s = sum_operator(rep)
    via_map = bimodule_map_dialgebra(rep, s.map)
    via_induce = induce(s, C.INDUCED_DIALGEBRA)
    assert via_map.product("left") == via_induce.product("left")
    assert via_map.product("right") == via_induce.product("right")


def test_catalog_builds_construct_no_fraction(seed_catalog, monkeypatch):
    # the constructions assemble integer numerators: building every hemisemi
    # product of a catalog rep, every induced structure of a catalog operator
    # and every functor of a catalog algebra or induced dialgebra (the
    # catalog sweep's builds among them) makes no Fraction
    from fractions import Fraction

    from homalg.operators import hemisemi_id_for

    entries = list(seed_catalog.values())
    reps = [e.value for e in entries if e.kind == "rep"]
    operators = [e.value for e in entries if e.kind == "operator"]
    algebras = [e.value for e in entries if e.kind == "algebra"]
    assert (len(reps), len(operators)) == (39, 44)
    calls = []
    real = Fraction.__new__

    def new(cls, *args, **kwargs):
        calls.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", new)
    built = [hemisemi(rep, hemisemi_id_for(rep), check=False) for rep in reps]
    for c in operators:
        for cid, row in INDUCED.items():
            if all(getattr(c.rep, attr, None) is not None for attr, _ in row.products.values()):
                built.append(induce(c, cid, check=False))
    sources = algebras + [a for a in built if a.variety is V.HOM_ASSOCIATIVE_DIALGEBRA]
    for cid, row in FUNCTORS.items():
        built += [functor(a, cid, check=False) for a in sources if a.variety is row.takes]
    assert calls == []
    assert len(built) > 116
    assert {a.name.rsplit("-", 1)[-1] for a in built} >= {"minus", "plus", "dicommutator"}


def test_hemisemi_id_for_each_representation_class(kx2):
    from homalg.engine import SemanticError
    from homalg.operators import hemisemi_id_for

    lie = regular(functor(kx2, C.MINUS), LieAction)
    jordan = regular(functor(kx2, C.PLUS), JordanAction)
    cases = [
        (regular(kx2, AssocBimodule), C.HEMISEMI_DIASS),
        (regular(kx2, AssocAction), C.HEMISEMI_TRIASS),
        (LieModule(lie.base, lie.v_dim, lie.rho, lie.beta), C.HEMISEMI_LEIB),
        (lie, C.HEMISEMI_TRILEIB),
        (JordanModule(jordan.base, jordan.v_dim, jordan.pi, jordan.beta), C.HEMISEMI_DIJOR),
        (jordan, C.HEMISEMI_TRIJOR),
    ]
    for rep, cid in cases:
        assert hemisemi_id_for(rep) is cid
        assert isinstance(rep, HEMISEMI[cid].takes)
    assert {cid for _, cid in cases} == set(HEMISEMI)
    for other in (kx2, OperatorCandidate(regular(kx2, AssocBimodule), LinearMap.identity(2)), None):
        with pytest.raises(SemanticError, match="no hemisemi product"):
            hemisemi_id_for(other)


def reference_graph_closure(candidate, what, ambient):
    """`graph_closure` as a pair-by-pair loop over `Vector`s, kept as the
    reference for its integer-numerator blocks."""
    K = candidate.map
    n, m = candidate.rep.base.dim, candidate.rep.v_dim
    check_id = f"graph:{what.value}"

    def graph_gen(i):
        col = K.column(i)
        return Vector._make(list(col._n) + [col._d if s == i else 0 for s in range(m)], col._d)

    def parts(w):
        return Vector._make(w._n[:n], w._d), K.apply(Vector._make(w._n[n:], w._d))

    gens = [graph_gen(i) for i in range(m)]
    for i, g in enumerate(gens):
        a_part, k_part = parts(ambient.alpha.apply(g))
        if a_part != k_part:
            return CheckReport("fail", check_id, witness=Witness(
                "twist-closure", (("u", "V"),), (i,), a_part, k_part),
                detail="twist image leaves the graph")
    count = prefixes = 0
    for sym in sorted(ambient.products):
        t = ambient.products[sym]
        for i, gi in enumerate(gens):
            prefixes += 1
            for j, gj in enumerate(gens):
                count += 1
                a_part, k_part = parts(t.apply(gi, gj))
                if a_part != k_part:
                    return CheckReport("fail", check_id, witness=Witness(
                        f"graph:{sym}", (("u", "V"), ("v", "V")), (i, j), a_part, k_part),
                        tuples_checked=count, tuples_evaluated=count, prefixes_visited=prefixes)
    return CheckReport("pass", check_id, tuples_checked=count, tuples_evaluated=count,
                       prefixes_visited=prefixes)


def report_record(report):
    """Everything a report states, witness sides as their exact _n and _d."""
    w = report.witness
    witness = w and (w.identity, w.variables, w.indices,
                     w.lhs_value._n, w.lhs_value._d, w.rhs_value._n, w.rhs_value._d)
    return (report.status, report.check, report.detail, witness, report.tuples_checked,
            report.tuples_evaluated, report.prefixes_visited)


# the representations of the operator battery, one per setting and kind
BATTERY_REPS = ("kx2_reg", "kx2t_reg", "ut2_reg", "sol2t2_adj", "ab2_sum2", "j2_adj",
                "kx2_jmod", "kx2t_jact", "kx2_sum2", "kx2_act", "ut2_act", "sol2_sum2")


def test_graph_closure_matches_the_vector_loop(seed_catalog):
    cases = []  # (candidate, construction id, its ambient)
    for entry in seed_catalog.values():
        if entry.kind == "operator" and not isinstance(entry.value.rep, AlgebraInstance):
            rep = entry.value.rep
            for cid, row in HEMISEMI.items():
                if isinstance(rep, row.takes):
                    cases.append((entry.value, cid, hemisemi(rep, cid, check=False)))
    sampled = []
    for k, rid in enumerate(BATTERY_REPS):
        rep = seed_catalog[rid].value
        cid = hemisemi_id_for(rep)
        ambient = hemisemi(rep, cid, check=False)
        grid = GridSpec(numerators=(-1, 0, 1, 2), seed=k, count=8)
        for cand in sample_operator_candidates(rep, grid, check=False):
            sampled.append((cand, cid, ambient))
    cases += sampled
    # single-entry perturbations of a few candidates of each rep, by +-1 and +-1/2
    for cand, cid, ambient in sampled[::2]:
        for where in itertools.product(range(cand.map.dst_dim), range(cand.map.src_dim)):
            for delta in (1, -1, Fraction(1, 2), Fraction(-1, 2)):
                cases.append((perturb_operator(cand, where, delta), cid, ambient))
    # the ambients again with their twist replaced by an identity built from
    # rows, by 2 id (under which every graph is closed) and by a twist that
    # moves the A-part
    for cand, cid, ambient in sampled[::3]:
        size = ambient.dim
        for rows in ([[int(r == c) for c in range(size)] for r in range(size)],
                     [[2 * (r == c) for c in range(size)] for r in range(size)],
                     [[int(r == c or c == size - 1 and r == 0) for c in range(size)]
                      for r in range(size)]):
            retwisted = AlgebraInstance(ambient.name, size, ambient.products,
                                        {"alpha": LinearMap(rows)}, ambient.variety)
            cases.append((cand, cid, retwisted))
    seen = set()
    for cand, cid, ambient in cases:
        got = graph_closure(cand, cid, ambient=ambient)
        want = reference_graph_closure(cand, cid, ambient)
        assert report_record(got) == report_record(want), (cid.value, cand.map.matrix)
        w = got.witness
        identity = ambient.alpha == LinearMap.identity(ambient.dim)
        seen.add((identity, got.status, w and w.identity.split(":")[0], w and w.lhs_value._d > 1))
    # every outcome, under identity and non-identity twists, and witnesses
    # over denominators above 1
    outcomes = {s[:3] for s in seen}
    assert outcomes == {(True, "pass", None), (True, "fail", "graph"), (False, "pass", None),
                        (False, "fail", "twist-closure"), (False, "fail", "graph")}
    assert {s[1:] for s in seen} >= {("fail", "graph", True), ("fail", "twist-closure", True)}

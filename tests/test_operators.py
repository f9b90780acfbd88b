import random
from fractions import Fraction

import pytest

from homalg.constructions import ConstructionId
from homalg.engine import SemanticError
from homalg.exact import LinearMap, ShapeError, Vector
from homalg.forge import (
    multiplication_operator,
    projection_operator,
    rank1_jordan,
    solvable_lie_2dim,
    sum_operator,
    identity_operator,
    truncated_polynomial_algebra,
)
from homalg.operators import (
    OperatorCandidate,
    admissible,
    certify_operator,
    lift_to_averaging,
    nijenhuis_of,
)
from homalg.reps import (
    AssocAction,
    AssocBimodule,
    CertificationError,
    JordanAction,
    LieAction,
    direct_sum,
    regular,
    tensor_square_bimodule,
)

C = ConstructionId


@pytest.fixture(scope="module")
def kx2():
    return truncated_polynomial_algebra(2)


@pytest.fixture(scope="module")
def tensor_rep(kx2):
    return tensor_square_bimodule(kx2)


def test_multiplication_operator_is_relative_averaging(tensor_rep):
    cand = multiplication_operator(tensor_rep)
    assert certify_operator(cand, "rel-avg").ok
    assert certify_operator(cand, "rel-avg-left").ok
    assert certify_operator(cand, "rel-avg-right").ok


def test_sum_operator_is_relative_averaging(kx2):
    for n in (2, 3):
        cand = sum_operator(direct_sum(kx2, n, AssocAction))
        assert certify_operator(cand, "rel-avg").ok


def test_projection_is_homomorphic(kx2):
    rep = direct_sum(kx2, 2, AssocAction)
    for which in (0, 1):
        cand = projection_operator(rep, which)
        assert certify_operator(cand, "homomorphic-rel-avg").ok
    # the sum map is relative averaging but not a product homomorphism
    s = sum_operator(rep)
    assert certify_operator(s, "rel-avg").ok
    report = certify_operator(s, "homomorphic-rel-avg")
    assert report.status == "fail" and report.witness.identity == "homomorphic"


def test_failing_candidate_frozen_witness(kx2):
    # K(e1) = e1 + e2, K(e2) = 0 on the regular bimodule:
    # lhs (e1+e2).(e1+e2) = e1 + 2 e2, rhs K(l(e1+e2) e1) = e1 + e2
    rep = regular(kx2, AssocBimodule)
    cand = OperatorCandidate(rep, LinearMap([[1, 0], [1, 0]]))
    report = certify_operator(cand, "rel-avg-left")
    assert report.status == "fail"
    assert report.witness.indices == (0, 0)
    assert report.witness.lhs_value == Vector([1, 2])
    assert report.witness.rhs_value == Vector([1, 1])


def test_zero_operator_passes_everything(kx2):
    rep = regular(kx2, AssocBimodule)
    zero = OperatorCandidate(rep, LinearMap.zero(2))
    assert certify_operator(zero, "rel-avg").ok
    nij = nijenhuis_of(zero)
    assert certify_operator(nij, "nijenhuis").ok


def test_not_admissible_reported_separately():
    from homalg.forge import kx2_phitwist

    a = kx2_phitwist()
    rep = regular(a, AssocBimodule)
    cand = OperatorCandidate(rep, LinearMap([[0, 1], [0, 0]]))
    report = certify_operator(cand, "rel-avg")
    assert report.status == "not-admissible"


def test_nijenhuis_of_tracks_relative_averaging(tensor_rep, kx2):
    mult = multiplication_operator(tensor_rep)
    nij = nijenhuis_of(mult, C.HEMISEMI_DIASS)
    assert nij.rep.dim == 6
    assert certify_operator(nij, "nijenhuis").ok
    bad = OperatorCandidate(regular(kx2, AssocBimodule), LinearMap([[1, 0], [1, 0]]))
    assert not certify_operator(nijenhuis_of(bad, C.HEMISEMI_DIASS), "nijenhuis").ok


def test_o_operator_weight_family(kx2):
    rep = direct_sum(kx2, 2, AssocAction)
    h = projection_operator(rep, 0)
    neg = OperatorCandidate(rep, LinearMap([[-x for x in row] for row in h.map.matrix]))
    assert certify_operator(h, "o-operator", weight=Fraction(-1)).ok
    assert certify_operator(neg, "o-operator", weight=Fraction(1)).ok
    assert not certify_operator(neg, "o-operator", weight=Fraction(-1)).ok
    with pytest.raises(SemanticError):
        certify_operator(h, "o-operator")


def test_o_operator_clause_is_built_once_per_weight(kx2, cold_binds):
    from homalg.operators import _o_operator_clauses

    rep = direct_sum(kx2, 2, AssocAction)
    h = projection_operator(rep, 0)
    del cold_binds[:]
    first = certify_operator(h, "o-operator", weight=Fraction(-1))
    # one weight, written three ways: one schema, so one plan
    (schema,) = _o_operator_clauses(Fraction(-1))
    assert _o_operator_clauses(Fraction(-2, 2)) == (schema,)
    plans = [p for cs in schema.plans.values() for e in cs.by_shape.values() for p in e.plans]
    assert len(plans) == 1 and cold_binds == plans
    # the same candidate again is answered from the memo, field for field
    del cold_binds[:]
    again = certify_operator(h, "o-operator", weight=-1)
    assert not cold_binds
    assert (again.status, again.witness, again.tuples_checked, again.tuples_evaluated,
            again.prefixes_visited) == (first.status, first.witness, first.tuples_checked,
                                        first.tuples_evaluated, first.prefixes_visited)
    # a fresh candidate binds the same plan; another weight has its own schema
    neg = OperatorCandidate(rep, LinearMap([[-x for x in row] for row in h.map.matrix]))
    assert not certify_operator(neg, "o-operator", weight=Fraction(-1)).ok
    assert cold_binds == plans
    assert _o_operator_clauses(Fraction(1)) != (schema,)


def test_lift_to_averaging_pairing(tensor_rep, kx2):
    # the lifted map averages on one side of each single-product half:
    # left-averaging over the right product, right-averaging over the left
    for cand in (multiplication_operator(tensor_rep),
                 sum_operator(direct_sum(kx2, 2, AssocAction)),
                 OperatorCandidate(regular(kx2, AssocBimodule), LinearMap.zero(2))):
        lift = lift_to_averaging(cand)
        assert certify_operator(lift.on_right_product, "averaging-left").ok
        assert certify_operator(lift.on_left_product, "averaging-right").ok


def test_lift_rejects_non_averaging(kx2):
    bad = OperatorCandidate(regular(kx2, AssocBimodule), LinearMap([[1, 0], [1, 0]]))
    with pytest.raises(CertificationError):
        lift_to_averaging(bad)


def test_lie_and_jordan_relative_averaging():
    sol2 = solvable_lie_2dim()
    adj = regular(sol2, LieAction)
    assert certify_operator(identity_operator(adj), "rel-avg").ok
    assert certify_operator(identity_operator(adj), "homomorphic-rel-avg").ok
    j2 = rank1_jordan()
    jadj = regular(j2, JordanAction)
    assert certify_operator(identity_operator(jadj), "rel-avg").ok
    assert certify_operator(identity_operator(jadj), "homomorphic-rel-avg").ok
    with pytest.raises(SemanticError):
        certify_operator(identity_operator(adj), "rel-avg-left")


def test_averaging_on_algebra_surface(kx2):
    # a two-sided averaging operator on the algebra itself, via the
    # idempotent unit-component projection T(1) = 1, T(x) = 0
    t = OperatorCandidate(kx2, LinearMap([[1, 0], [0, 0]]))
    assert certify_operator(t, "averaging").ok
    # on upper-triangular matrices, T(E12) = E11 one-sidedly fails:
    # T(E12 T(E12)) = T(E12 E11) = 0 but T(E12) T(E12) = E11
    from homalg.forge import upper_triangular_2x2

    ut2 = upper_triangular_2x2()
    bad = OperatorCandidate(ut2, LinearMap([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    report = certify_operator(bad, "averaging")
    assert report.status == "fail"
    assert report.witness.identity.startswith("averaging-right")
    assert certify_operator(bad, "averaging-left").ok


def test_failing_reports_count_visited_pairs_and_sort_their_slots(kx2):
    # K = [[1, 0], [1, 0]] on the regular bimodule: K(e1) K(e1) = (1,2) but
    # K(K(e1) e1) = K(1,1) = (1,1), so the first pair already fails
    bad = OperatorCandidate(regular(kx2, AssocBimodule), LinearMap([[1, 0], [1, 0]]))
    report = certify_operator(bad, "rel-avg")
    assert (report.witness.identity, report.witness.indices) == ("left", (0, 0))
    assert report.witness.variables == (("u", "V"), ("v", "V"))
    assert (report.witness.lhs_value, report.witness.rhs_value) == (Vector([1, 2]), Vector([1, 1]))
    assert report.tuples_checked == 1
    # over an algebra both slots live in A
    from homalg.forge import upper_triangular_2x2

    t = OperatorCandidate(upper_triangular_2x2(), LinearMap([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    report = certify_operator(t, "averaging")
    assert report.witness.variables == (("u", "A"), ("v", "A"))
    assert report.tuples_checked >= 1


def test_operator_kinds_outside_their_representation_are_semantic_errors(kx2):
    # checked before any pair: a bimodule is not an action
    bad = OperatorCandidate(regular(kx2, AssocBimodule), LinearMap([[1, 0], [1, 0]]))
    with pytest.raises(SemanticError, match="needs an action"):
        certify_operator(bad, "homomorphic-rel-avg")


def test_graph_map_matches_the_fraction_construction(seed_catalog, kx2):
    from homalg.operators import _graph_map

    rep = regular(kx2, AssocBimodule)
    cands = [e.value for e in seed_catalog.values() if e.kind == "operator"]
    # an operator stored over a denominator with a common factor (2/4, 6/4)
    cands.append(OperatorCandidate(rep, LinearMap._make([[(0, 2), (1, 6)], []], 4, 2, 2)))
    cands.append(OperatorCandidate(rep, LinearMap.zero(2)))
    for cand in cands:
        n, m = cand.rep.base.dim, cand.rep.v_dim
        for c in (0, 1):
            rows = [[0] * n + list(row) for row in cand.map.matrix]
            rows += [[0] * n + [c if k == j else 0 for k in range(m)] for j in range(m)]
            want, got = LinearMap(rows), _graph_map(cand, c)
            assert (got._cols, got._d, got.src_dim, got.dst_dim) == (
                want._cols, want._d, want.src_dim, want.dst_dim)


def test_admissible_matches_composed_maps():
    # a scalar twist s * id commutes with every K, and is given here over
    # unequal denominators (beta's numerators and denominator times 3), so
    # the check passes only when each composite is scaled by the other
    # twist's denominator
    rng = random.Random(23)
    values = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]

    def rand_map(dst, src):
        return LinearMap([[rng.choice(values) for _ in range(src)] for _ in range(dst)])

    def identities(n):
        """The identity of dim n, fresh and over a denominator of 3."""
        return [LinearMap.identity(n), LinearMap._make([[(j, 3)] for j in range(n)], 3, n, n)]

    outcomes = set()
    for n, m in ((1, 1), (2, 2), (2, 3), (3, 2), (2, 4)):
        for _ in range(20):
            K = rand_map(n, m)
            s = rng.choice((Fraction(1, 2), Fraction(-2, 3), 3))
            alpha, eye = LinearMap.diagonal([s] * n), LinearMap.diagonal([s] * m)
            beta = LinearMap._make([[(i, 3 * x) for i, x in col] for col in eye._cols],
                                   3 * eye._d, m, m)
            twists = [(alpha, beta), (rand_map(n, n), beta), (alpha, rand_map(m, m))]
            # every identity / non-identity combination of the two twists
            twists += [(a, b) for a in identities(n) for b in identities(m)]
            twists += [(a, b) for a in identities(n) for b in (beta, rand_map(m, m))]
            twists += [(a, b) for a in (alpha, rand_map(n, n)) for b in identities(m)]
            for a, b in twists:
                got = admissible(K, a, b)
                assert got == (K.compose(b) == a.compose(K)), (K.matrix, a.matrix, b.matrix)
                kinds = (a == LinearMap.identity(n), b == LinearMap.identity(m))
                outcomes.add((kinds, got))
    # both verdicts wherever one twist is not the identity
    assert outcomes == {((True, True), True)} | {
        (kinds, got) for kinds in ((True, False), (False, True), (False, False))
        for got in (True, False)}
    with pytest.raises(ShapeError):
        admissible(LinearMap.zero(2, 3), LinearMap.identity(3), LinearMap.identity(3))
    with pytest.raises(ShapeError):
        admissible(LinearMap.zero(2, 3), LinearMap.identity(2), LinearMap.identity(2))

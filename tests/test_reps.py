import pytest

from homalg.engine import IdentitySchema, SemanticError, check_schema, op, tw, var
from homalg.exact import LinearMap, StructureTensor
from homalg.forge import (
    rank1_jordan,
    rank1_jordan_twist2,
    solvable_lie_2dim,
    truncated_polynomial_algebra,
    upper_triangular_2x2,
    zero_algebra,
)
from homalg.reps import (
    AssocAction,
    AssocBimodule,
    CertificationError,
    JordanAction,
    JordanModule,
    LieAction,
    LieModule,
    certify_rep,
    direct_sum,
    minus_algebra,
    plus_algebra,
    regular,
    semidirect_product,
    semidirect_tensor,
    symmetrized,
    tensor_square_bimodule,
)
from homalg.varieties import AlgebraInstance, VarietyTag, certify


def test_regular_bimodule_of_certified_base():
    for a in (truncated_polynomial_algebra(2), upper_triangular_2x2(), zero_algebra(3)):
        assert certify_rep(regular(a, AssocBimodule)).ok


def test_regular_bimodule_rejects_uncertified_base():
    bad = AlgebraInstance(
        "bad", 2,
        {"mul": StructureTensor.square_from_rule(2, {(0, 0): [0, 1], (1, 1): [1, 0]})},
        {"alpha": LinearMap.identity(2)},
    )
    with pytest.raises(CertificationError):
        regular(bad, AssocBimodule)


def test_tensor_square_bimodule_dims_and_certification():
    kx2 = truncated_polynomial_algebra(2)
    rep = tensor_square_bimodule(kx2)
    assert rep.v_dim == 4
    assert certify_rep(rep).ok
    one = AlgebraInstance(
        "one", 1, {"mul": StructureTensor([[[1]]])}, {"alpha": LinearMap.identity(1)}
    )
    tiny = tensor_square_bimodule(one)
    assert tiny.v_dim == 1 and tiny.l.coeff(0, 0, 0) == 1


def test_tensor_square_of_zero_product():
    z = zero_algebra(2)
    rep = tensor_square_bimodule(z)
    assert rep.v_dim == 4 and rep.l.is_zero() and rep.r.is_zero()


def test_bimodule_with_right_action_zeroed():
    # dropping r leaves every r-involving bimodule axiom vacuous (0 = 0), so
    # the bare bimodule still certifies; the unital structure only bites at
    # the action level, where beta(u) . (l(x)v) = (r(x)u) . beta(v) fails
    kx2 = truncated_polynomial_algebra(2)
    rep = regular(kx2, AssocAction)
    zero_r = StructureTensor.zero(2, 2, 2)
    assert certify_rep(AssocBimodule(kx2, 2, rep.l, zero_r, rep.beta)).ok
    broken = AssocAction(kx2, 2, rep.l, zero_r, rep.beta, vmul=rep.vmul)
    report = certify_rep(broken)
    assert report.status == "fail"
    assert report.witness.identity == "action-inner-product"


def test_direct_sum_bimodule_shapes():
    kx2 = truncated_polynomial_algebra(2)
    rep = direct_sum(kx2, 2, AssocAction)
    assert rep.v_dim == 4 and certify_rep(rep).ok
    rep1 = direct_sum(kx2, 1, AssocAction)
    reg = regular(kx2, AssocAction)
    assert rep1.l == reg.l and rep1.r == reg.r and rep1.vmul == reg.vmul
    z3 = direct_sum(zero_algebra(1), 3, AssocAction)
    assert z3.v_dim == 3 and z3.vmul.is_zero()
    for a, cls in ((solvable_lie_2dim(), LieAction), (rank1_jordan(), JordanAction)):
        one, reg = direct_sum(a, 1, cls), regular(a, cls)
        assert [getattr(one, f) for f in cls._fields] == [getattr(reg, f) for f in cls._fields]
        two = direct_sum(a, 2, cls)
        assert two.v_dim == 4 and certify_rep(two).ok
        assert two.action_ops().keys() == reg.action_ops().keys() == set(cls.acts)


def test_semidirect_refuses_each_module_kind():
    modules = (regular(truncated_polynomial_algebra(2), AssocBimodule),
               regular(solvable_lie_2dim(), LieModule),
               regular(rank1_jordan(), JordanModule))
    assert [m.kind for m in modules] == ["bimodule", "lie-module", "jordan-module"]
    for module in modules:
        for build in (semidirect_tensor, semidirect_product):
            with pytest.raises(SemanticError, match=f"needs an action, got {module.kind}$"):
                build(module)


def test_semidirect_product_certifies():
    kx2 = truncated_polynomial_algebra(2)
    out = semidirect_product(direct_sum(kx2, 1, AssocAction))
    assert out.dim == 4 and certify(out, VarietyTag.HOM_ASSOCIATIVE).ok


def test_semidirect_round_trip_associative():
    # an (l, r, vmul, beta) tuple certifies as an action iff the semidirect
    # tensor is Hom-associative; checked on the seed plus a perturbed negative
    kx2 = truncated_polynomial_algebra(2)
    act = direct_sum(kx2, 2, AssocAction)
    assert certify_rep(act).ok
    sd = AlgebraInstance(
        "sd", 6, {"mul": semidirect_tensor(act)},
        {"alpha": act.base.alpha.direct_sum(act.beta)},
    )
    assert certify(sd, VarietyTag.HOM_ASSOCIATIVE).ok

    bump = StructureTensor.from_rule(2, 4, 4, {(0, 0): [0, 1, 0, 0]})
    broken = AssocAction(act.base, 4, act.l + bump, act.r, act.beta, vmul=act.vmul)
    assert not certify_rep(broken).ok
    sd_bad = AlgebraInstance(
        "sdb", 6, {"mul": semidirect_tensor(broken)},
        {"alpha": act.base.alpha.direct_sum(act.beta)},
    )
    assert not certify(sd_bad, VarietyTag.HOM_ASSOCIATIVE).ok


def test_semidirect_round_trip_lie():
    sol2 = solvable_lie_2dim()
    act = regular(sol2, LieAction)
    sd = AlgebraInstance(
        "sdl", 4, {"bracket": semidirect_tensor(act)},
        {"alpha": act.base.alpha.direct_sum(act.beta)},
    )
    assert certify(sd, VarietyTag.HOM_LIE).ok
    bump = StructureTensor.from_rule(2, 2, 2, {(1, 1): [1, 0]})
    broken = LieAction(sol2, 2, act.rho + bump, act.beta, vbracket=act.vbracket)
    assert not certify_rep(broken).ok
    sd_bad = AlgebraInstance(
        "sdlb", 4, {"bracket": semidirect_tensor(broken)},
        {"alpha": act.base.alpha.direct_sum(act.beta)},
    )
    assert not certify(sd_bad, VarietyTag.HOM_LIE).ok


def test_semidirect_round_trip_jordan():
    j2 = rank1_jordan()
    act = regular(j2, JordanAction)
    sd = AlgebraInstance(
        "sdj", 4, {"circ": semidirect_tensor(act)},
        {"alpha": act.base.alpha.direct_sum(act.beta)},
    )
    assert certify(sd, VarietyTag.HOM_JORDAN).ok
    bump = StructureTensor.from_rule(2, 2, 2, {(1, 1): [1, 0]})
    broken = JordanAction(j2, 2, act.pi + bump, act.beta, vstar=act.vstar)
    assert not certify_rep(broken).ok
    sd_bad = AlgebraInstance(
        "sdjb", 4, {"circ": semidirect_tensor(broken)},
        {"alpha": act.base.alpha.direct_sum(act.beta)},
    )
    assert not certify(sd_bad, VarietyTag.HOM_JORDAN).ok


def test_abelian_lie_semidirect():
    ab = AlgebraInstance(
        "ab2", 2, {"bracket": StructureTensor.zero(2)}, {"alpha": LinearMap.identity(2)}
    )
    act = LieAction(ab, 1, StructureTensor.zero(2, 1, 1), LinearMap.identity(1),
                    vbracket=StructureTensor.zero(1))
    out = semidirect_product(act)
    assert out.dim == 3 and out.product("bracket").is_zero()


def test_functoriality_regular_bimodule_over_catalog(seed_catalog):
    for entry in seed_catalog.values():
        if entry.kind != "algebra" or entry.value.variety is not VarietyTag.HOM_ASSOCIATIVE:
            continue
        assert certify_rep(regular(entry.value, AssocBimodule)).ok, entry.id


def test_plus_minus_carriers():
    ut2 = upper_triangular_2x2()
    assert certify(plus_algebra(ut2), VarietyTag.HOM_JORDAN).ok
    assert certify(minus_algebra(ut2), VarietyTag.HOM_LIE).ok


def test_jordan_action_fourth_condition_as_stated_fails_on_twisted_data():
    # the fourth displayed action condition, transcribed with the twist
    # placement exactly as stated, fails for the diag(1,2)-twisted rank-1
    # Jordan algebra acting on itself; the first three conditions hold
    j2t2 = rank1_jordan_twist2()
    rep = JordanAction(j2t2, 2, j2t2.product("circ"), j2t2.alpha,
                       vstar=j2t2.product("circ"))
    report = certify_rep(rep)
    assert report.status == "fail"
    assert report.witness.identity == "action-linear-3"


def test_jordan_action_fourth_condition_beta_variant_passes_on_twisted_data():
    # moving the module arguments of the first two terms through beta makes
    # the same instance pass; kept as a regression on the observed variant
    j2t2 = rank1_jordan_twist2()
    rep = JordanAction(j2t2, 2, j2t2.product("circ"), j2t2.alpha,
                       vstar=j2t2.product("circ"))
    x, y = var("x"), var("y")
    u, v = var("u", "V"), var("v", "V")
    P = lambda a, m: op("pi", a, m)
    C = lambda a, b: op("circ", a, b)
    S = lambda a, b: op("vstar", a, b)
    b = lambda e, k=1: tw("beta", e, k)
    a = lambda e, k=1: tw("alpha", e, k)
    variant = IdentitySchema(
        "action-linear-3-beta",
        S(P(a(y), b(u)), P(a(x), b(v)))
        + S(P(a(x), b(u)), P(a(y), b(v)))
        + P(C(a(x), a(y)), S(b(u), b(v))),
        S(P(C(x, y), b(v)), b(u, 2))
        + P(a(x, 2), S(P(y, u), b(v)))
        + P(a(y, 2), S(P(x, u), b(v))),
    )
    assert check_schema(variant, rep.interpretation()).ok


def test_derived_jordan_action_certifies_for_untwisted_base():
    ut2 = upper_triangular_2x2()
    rep = symmetrized(regular(ut2, AssocAction))
    assert certify_rep(rep).ok
    assert rep.base.name == "ut2-plus"


def test_hemisemi_trijor_needs_action_product():
    with pytest.raises(Exception):
        JordanAction(rank1_jordan(), 2, rank1_jordan().product("circ"),
                     LinearMap.identity(2), vstar=None)


def test_semidirect_forward_direction_over_catalog(seed_catalog):
    # every certified catalog action yields a certified semidirect product
    from homalg.varieties import certify as _certify

    for entry in seed_catalog.values():
        if entry.kind != "rep" or not isinstance(
            entry.value, (AssocAction, LieAction, JordanAction)
        ):
            continue
        out = semidirect_product(entry.value)
        assert _certify(out, out.variety).ok, entry.id

"""Structure-transporting constructions.

Six hemisemi-direct products, graph-closure tests for operator candidates,
induced structures on the representation space, the plus/minus and
(anti-)dicommutator functors, di-to-tri embeddings, opposite structures,
twists by endomorphisms, special dialgebras, and the crossed-module check.
"""

from __future__ import annotations

from dataclasses import replace
from enum import Enum
from functools import cache

from .engine import (
    ZERO,
    CheckReport,
    IdentitySchema,
    Interpretation,
    SemanticError,
    Witness,
    check_all,
    op,
    tw,
    var,
)
from .exact import LinearMap, ShapeError, StructureTensor, Vector
from .reps import (
    AssocAction,
    AssocBimodule,
    CertificationError,
    JordanAction,
    JordanModule,
    LieAction,
    LieModule,
    _block_product,
    _gate,
    certify_rep,
    minus_algebra,
    plus_algebra,
)
from .varieties import AlgebraInstance, VarietyTag, certify, is_morphism


class ConstructionId(str, Enum):
    HEMISEMI_DIASS = "hemisemi-diass"
    HEMISEMI_LEIB = "hemisemi-leib"
    HEMISEMI_DIJOR = "hemisemi-dijor"
    HEMISEMI_TRIASS = "hemisemi-triass"
    HEMISEMI_TRILEIB = "hemisemi-trileib"
    HEMISEMI_TRIJOR = "hemisemi-trijor"
    GRAPH_CLOSURE = "graph-closure"
    INDUCED_DIALGEBRA = "induced-dialgebra"
    INDUCED_LEIBNIZ = "induced-leibniz"
    INDUCED_JORDAN_DIALGEBRA = "induced-jordan-dialgebra"
    INDUCED_TRIALGEBRA = "induced-trialgebra"
    INDUCED_TRILEIBNIZ = "induced-trileibniz"
    INDUCED_JORDAN_TRIALGEBRA = "induced-jordan-trialgebra"
    MINUS = "minus"
    PLUS = "plus"
    DICOMMUTATOR = "dicommutator"
    ANTI_DICOMMUTATOR = "anti-dicommutator"
    TRI_TO_LEIBNIZ = "tri-to-leibniz"
    TRI_TO_JORDAN = "tri-to-jordan"
    DI_TO_TRI = "di-to-tri"
    OPPOSITE_DIALGEBRA = "opposite-dialgebra"
    YAU_TWIST = "yau-twist"
    TRIDENDRIFORM = "tridendriform"
    DIFFERENTIAL_DIALGEBRA = "differential-dialgebra"
    BIMODULE_MAP_DIALGEBRA = "bimodule-map-dialgebra"
    CROSSED_MODULE = "crossed-module"


HEMISEMI_REP_KIND = {
    ConstructionId.HEMISEMI_DIASS: AssocBimodule,
    ConstructionId.HEMISEMI_LEIB: LieModule,
    ConstructionId.HEMISEMI_DIJOR: JordanModule,
    ConstructionId.HEMISEMI_TRIASS: AssocAction,
    ConstructionId.HEMISEMI_TRILEIB: LieAction,
    ConstructionId.HEMISEMI_TRIJOR: JordanAction,
}

HEMISEMI_VARIETY = {
    ConstructionId.HEMISEMI_DIASS: VarietyTag.HOM_ASSOCIATIVE_DIALGEBRA,
    ConstructionId.HEMISEMI_LEIB: VarietyTag.HOM_LEIBNIZ,
    ConstructionId.HEMISEMI_DIJOR: VarietyTag.HOM_JORDAN_DIALGEBRA,
    ConstructionId.HEMISEMI_TRIASS: VarietyTag.HOM_ASSOCIATIVE_TRIALGEBRA,
    ConstructionId.HEMISEMI_TRILEIB: VarietyTag.HOM_LEIBNIZ_TRIALGEBRA,
    ConstructionId.HEMISEMI_TRIJOR: VarietyTag.HOM_JORDAN_TRIALGEBRA,
}

INDUCED_VARIETY = {
    ConstructionId.INDUCED_DIALGEBRA: VarietyTag.HOM_ASSOCIATIVE_DIALGEBRA,
    ConstructionId.INDUCED_LEIBNIZ: VarietyTag.HOM_LEIBNIZ,
    ConstructionId.INDUCED_JORDAN_DIALGEBRA: VarietyTag.HOM_JORDAN_DIALGEBRA,
    ConstructionId.INDUCED_TRIALGEBRA: VarietyTag.HOM_ASSOCIATIVE_TRIALGEBRA,
    ConstructionId.INDUCED_TRILEIBNIZ: VarietyTag.HOM_LEIBNIZ_TRIALGEBRA,
    ConstructionId.INDUCED_JORDAN_TRIALGEBRA: VarietyTag.HOM_JORDAN_TRIALGEBRA,
}


# ---------------------------------------------------------------------------
# hemisemi-direct products


def hemisemi(rep, what: ConstructionId, check: bool = True) -> AlgebraInstance:
    """The A + V carrier with one-sided actions mixed into the products.

    left:  (x+u) left (y+v)  = x.y + r(y)u
    right: (x+u) right (y+v) = x.y + l(x)v
    and, for the tri variants, the component-wise product of V in the extra
    slot.  The twist is alpha + beta.
    """
    wanted = HEMISEMI_REP_KIND[what]
    if not isinstance(rep, wanted):
        raise SemanticError(f"{what.value} needs a {wanted.__name__}, got {rep.kind}")
    if check:
        _gate(certify_rep(rep), f"{what.value}({rep.base.name}) input")
    n, m = rep.base.dim, rep.v_dim
    base = rep.base
    twist = base.alpha.direct_sum(rep.beta)
    name = f"{base.name}-{what.value}"
    products = {}
    if isinstance(rep, AssocBimodule):
        mul = base.product("mul")
        products["left"] = _block_product(n, m, mul, None, rep.r, None)
        products["right"] = _block_product(n, m, mul, rep.l, None, None)
        if what is ConstructionId.HEMISEMI_TRIASS:
            products["middle"] = _block_product(n, m, mul, None, None, rep.vmul)
    elif isinstance(rep, LieModule):
        br = base.product("bracket")
        products["brace"] = _block_product(n, m, br, rep.rho, None, None)
        if what is ConstructionId.HEMISEMI_TRILEIB:
            products["bracket"] = _block_product(n, m, br, None, None, rep.vbracket)
    elif isinstance(rep, JordanModule):
        circ = base.product("circ")
        products["bullet"] = _block_product(n, m, circ, rep.pi, None, None)
        if what is ConstructionId.HEMISEMI_TRIJOR:
            products["circ"] = _block_product(n, m, circ, None, None, rep.vstar)
    out = AlgebraInstance(name, n + m, products, {"alpha": twist}, HEMISEMI_VARIETY[what])
    if check:
        _gate(certify(out, out.variety), f"{what.value}({rep.base.name}) output")
    return out


# ---------------------------------------------------------------------------
# graph characterization


def graph_closure(candidate, what: ConstructionId, ambient: AlgebraInstance | None = None) -> CheckReport:
    """Is the graph {Ku + u} closed under every ambient product and the twist?

    Membership of x + u in the graph is the exact criterion x = K(u); closure
    is checked on pairs of graph generators, which suffices by bilinearity.
    """
    rep = candidate.rep
    K = candidate.map
    if ambient is None:
        ambient = hemisemi(rep, what, check=False)
    n, m = rep.base.dim, rep.v_dim
    check_id = f"graph:{what.value}"

    def graph_gen(i):
        nums = [0] * (n + m)
        col = K.column(i)
        for t in range(n):
            nums[t] = col._n[t]
        nums[n + i] = col._d
        return Vector._make(nums, col._d)

    def parts(w):
        """(A-part, K(V-part)); w lies in the graph iff they agree."""
        return Vector._make(w._n[:n], w._d), K.apply(Vector._make(w._n[n:], w._d))

    gens = [graph_gen(i) for i in range(m)]
    twist = ambient.alpha
    for i, g in enumerate(gens):
        a_part, k_part = parts(twist.apply(g))
        if a_part != k_part:
            return CheckReport(
                "fail", check_id,
                witness=Witness("twist-closure", (("u", "V"),), (i,), a_part, k_part),
                detail="twist image leaves the graph",
            )
    count = prefixes = 0
    for sym in sorted(ambient.products):
        t = ambient.products[sym]
        for i, gi in enumerate(gens):
            prefixes += 1
            for j, gj in enumerate(gens):
                count += 1
                a_part, k_part = parts(t.apply(gi, gj))
                if a_part != k_part:
                    return CheckReport(
                        "fail", check_id,
                        witness=Witness(f"graph:{sym}", (("u", "V"), ("v", "V")),
                                        (i, j), a_part, k_part),
                        tuples_checked=count, tuples_evaluated=count, prefixes_visited=prefixes,
                    )
    return CheckReport("pass", check_id, tuples_checked=count, tuples_evaluated=count,
                       prefixes_visited=prefixes)


# ---------------------------------------------------------------------------
# induced structures on V


def _pull_first(action: StructureTensor, K: LinearMap) -> StructureTensor:
    """(u, v) -> action(K u, v) as a square tensor on V."""
    m = action.right_dim
    rule = {}
    for i in range(m):
        col = K.column(i)
        for j in range(m):
            rule[(i, j)] = action.apply(col, Vector.basis(m, j))
    return StructureTensor.from_rule(m, m, m, rule)


def _pull_second(action: StructureTensor, K: LinearMap) -> StructureTensor:
    """(u, v) -> action(K v, u) as a square tensor on V."""
    m = action.right_dim
    rule = {}
    for i in range(m):
        for j in range(m):
            rule[(i, j)] = action.apply(K.column(j), Vector.basis(m, i))
    return StructureTensor.from_rule(m, m, m, rule)


INDUCED_REQUIRED_KIND = {
    ConstructionId.INDUCED_DIALGEBRA: "rel-avg",
    ConstructionId.INDUCED_LEIBNIZ: "rel-avg",
    ConstructionId.INDUCED_JORDAN_DIALGEBRA: "rel-avg",
    ConstructionId.INDUCED_TRIALGEBRA: "homomorphic-rel-avg",
    ConstructionId.INDUCED_TRILEIBNIZ: "homomorphic-rel-avg",
    ConstructionId.INDUCED_JORDAN_TRIALGEBRA: "homomorphic-rel-avg",
}


def induce(candidate, what: ConstructionId, check: bool = True) -> AlgebraInstance:
    """Transport the base structure onto V through a certified operator."""
    from .operators import certify_operator

    rep = candidate.rep
    K = candidate.map
    if check:
        rep_report = certify_rep(rep)
        _gate(rep_report, f"{what.value} input rep")
        op_report = certify_operator(candidate, INDUCED_REQUIRED_KIND[what])
        _gate(op_report, f"{what.value} input operator")
    m = rep.v_dim
    name = f"{rep.base.name}-{what.value}"
    products = {}
    if what is ConstructionId.INDUCED_DIALGEBRA or what is ConstructionId.INDUCED_TRIALGEBRA:
        products["right"] = _pull_first(rep.l, K)
        products["left"] = _pull_second(rep.r, K)
        if what is ConstructionId.INDUCED_TRIALGEBRA:
            products["middle"] = rep.vmul
    elif what is ConstructionId.INDUCED_LEIBNIZ or what is ConstructionId.INDUCED_TRILEIBNIZ:
        products["brace"] = _pull_first(rep.rho, K)
        if what is ConstructionId.INDUCED_TRILEIBNIZ:
            products["bracket"] = rep.vbracket
    elif what is ConstructionId.INDUCED_JORDAN_DIALGEBRA or what is ConstructionId.INDUCED_JORDAN_TRIALGEBRA:
        products["bullet"] = _pull_first(rep.pi, K)
        if what is ConstructionId.INDUCED_JORDAN_TRIALGEBRA:
            products["circ"] = rep.vstar
    else:
        raise SemanticError(f"{what.value} is not an induced-structure id")
    out = AlgebraInstance(name, m, products, {"alpha": rep.beta}, INDUCED_VARIETY[what])
    if check:
        _gate(certify(out, out.variety), f"{what.value} output")
    return out


# ---------------------------------------------------------------------------
# functors between varieties


_FUNCTOR_SOURCE = {
    ConstructionId.MINUS: VarietyTag.HOM_ASSOCIATIVE,
    ConstructionId.PLUS: VarietyTag.HOM_ASSOCIATIVE,
    ConstructionId.DICOMMUTATOR: VarietyTag.HOM_ASSOCIATIVE_DIALGEBRA,
    ConstructionId.ANTI_DICOMMUTATOR: VarietyTag.HOM_ASSOCIATIVE_DIALGEBRA,
    ConstructionId.TRI_TO_LEIBNIZ: VarietyTag.HOM_ASSOCIATIVE_TRIALGEBRA,
    ConstructionId.TRI_TO_JORDAN: VarietyTag.HOM_ASSOCIATIVE_TRIALGEBRA,
    ConstructionId.DI_TO_TRI: VarietyTag.HOM_ASSOCIATIVE_DIALGEBRA,
    ConstructionId.OPPOSITE_DIALGEBRA: VarietyTag.HOM_ASSOCIATIVE_DIALGEBRA,
    ConstructionId.TRIDENDRIFORM: VarietyTag.HOM_ASSOCIATIVE_TRIALGEBRA,
}

_FUNCTOR_TARGET = {
    ConstructionId.MINUS: VarietyTag.HOM_LIE,
    ConstructionId.PLUS: VarietyTag.HOM_JORDAN,
    ConstructionId.DICOMMUTATOR: VarietyTag.HOM_LEIBNIZ,
    ConstructionId.ANTI_DICOMMUTATOR: VarietyTag.HOM_JORDAN_DIALGEBRA,
    ConstructionId.TRI_TO_LEIBNIZ: VarietyTag.HOM_LEIBNIZ_TRIALGEBRA,
    ConstructionId.TRI_TO_JORDAN: VarietyTag.HOM_JORDAN_TRIALGEBRA,
    ConstructionId.DI_TO_TRI: VarietyTag.HOM_ASSOCIATIVE_TRIALGEBRA,
    ConstructionId.OPPOSITE_DIALGEBRA: VarietyTag.HOM_ASSOCIATIVE_DIALGEBRA,
    ConstructionId.TRIDENDRIFORM: VarietyTag.HOM_TRIDENDRIFORM,
}

# the target variety is reported but not enforced for these ids: the output
# is only guaranteed when the input comes from an induced structure
_FUNCTOR_UNENFORCED = {
    ConstructionId.ANTI_DICOMMUTATOR,
    ConstructionId.TRI_TO_JORDAN,
}


def functor(a: AlgebraInstance, what: ConstructionId, check: bool = True) -> AlgebraInstance:
    """Apply one of the fixed product-rewriting functors."""
    source = _FUNCTOR_SOURCE.get(what)
    if source is None:
        raise SemanticError(f"{what.value} is not a functor id")
    if check:
        _gate(certify(a, source), f"{what.value}({a.name}) input")
    name = f"{a.name}-{what.value}"
    if what is ConstructionId.MINUS:
        out = minus_algebra(a, name)
    elif what is ConstructionId.PLUS:
        out = plus_algebra(a, name)
    else:
        out = AlgebraInstance(name, a.dim, _functor_products(a, what), {"alpha": a.alpha},
                              _FUNCTOR_TARGET[what])
    if check and what not in _FUNCTOR_UNENFORCED:
        _gate(certify(out, out.variety), f"{what.value}({a.name}) output")
    return out


def _functor_products(a: AlgebraInstance, what: ConstructionId) -> dict:
    if what is ConstructionId.DICOMMUTATOR:
        return {"brace": a.product("right") - a.product("left").opposite()}
    if what is ConstructionId.ANTI_DICOMMUTATOR:
        return {"bullet": a.product("right") + a.product("left").opposite()}
    if what is ConstructionId.TRI_TO_LEIBNIZ:
        mid = a.product("middle")
        return {
            "brace": a.product("right") - a.product("left").opposite(),
            "bracket": mid - mid.opposite(),
        }
    if what is ConstructionId.TRI_TO_JORDAN:
        mid = a.product("middle")
        return {
            "bullet": a.product("right") + a.product("left").opposite(),
            "circ": mid + mid.opposite(),
        }
    if what is ConstructionId.DI_TO_TRI:
        return {
            "left": a.product("left"),
            "right": a.product("right"),
            "middle": StructureTensor.zero(a.dim),
        }
    if what is ConstructionId.OPPOSITE_DIALGEBRA:
        return {
            "left": a.product("right").opposite(),
            "right": a.product("left").opposite(),
        }
    if what is ConstructionId.TRIDENDRIFORM:
        return {
            "prec": a.product("left").scale(-1),
            "succ": a.product("right").scale(-1),
            "dot": a.product("middle"),
        }
    raise SemanticError(f"{what.value} is not a functor id")


# ---------------------------------------------------------------------------
# twist by an endomorphism


def yau_twist(a: AlgebraInstance, phi_name: str, check: bool = True) -> AlgebraInstance:
    """Compose every product with the named endomorphism; twist becomes phi.alpha."""
    if phi_name not in a.maps:
        raise SemanticError(f"algebra {a.name!r} has no map {phi_name!r}")
    phi = a.maps[phi_name]
    if check:
        report = is_morphism(phi, a, a)
        if not report.ok:
            raise CertificationError(
                f"yau_twist({a.name}, {phi_name}): map is not an endomorphism", report
            )
    products = {sym: t.push(phi) for sym, t in a.products.items()}
    out = AlgebraInstance(
        f"{a.name}-twist-{phi_name}",
        a.dim,
        products,
        {"alpha": phi.compose(a.alpha)},
        a.variety,
    )
    if check and a.variety is not None:
        _gate(certify(out, a.variety), f"yau_twist({a.name}, {phi_name}) output")
    return out


def twist_products(a: AlgebraInstance, phi: LinearMap, name: str) -> AlgebraInstance:
    """Mechanical twist (no endomorphism gate, no certification).

    Composes every product with phi and replaces the twist by phi.alpha;
    callers are expected to certify the result themselves.
    """
    products = {sym: t.push(phi) for sym, t in a.products.items()}
    return AlgebraInstance(name, a.dim, products, {"alpha": phi.compose(a.alpha)}, a.variety)


# ---------------------------------------------------------------------------
# map gates
#
# A gate binds the map under test as one more map symbol of the
# interpretation (across sorts, V -> A, for a bimodule map) and checks its
# clauses as schemas.  The schema lists are built once, so gate checks reuse
# their evaluation plans.

_x, _y = var("x"), var("y")
_u, _v = var("u", "V"), var("v", "V")


def _bind_map(interp, sym: str, lin: LinearMap, sorts) -> Interpretation:
    return replace(interp, maps={**interp.maps, sym: (lin, sorts)})


@cache
def _bimodule_map_schemas(f: str) -> tuple:
    """f : V -> A intertwines the twists and is A-equivariant on both sides."""
    return (
        IdentitySchema("intertwine", tw(f, tw("beta", _u)), tw("alpha", tw(f, _u))),
        IdentitySchema("left-equivariance", tw(f, op("l", _x, _u)), op("mul", _x, tw(f, _u))),
        IdentitySchema("right-equivariance", tw(f, op("r", _x, _u)), op("mul", tw(f, _u), _x)),
    )


# ---------------------------------------------------------------------------
# special dialgebras


@cache
def _differential_schemas() -> tuple:
    d = lambda e, k=1: tw("d", e, k)
    return (
        IdentitySchema("square-zero", d(_x, 2), ZERO),
        IdentitySchema("twist-commute", d(tw("alpha", _x)), tw("alpha", d(_x))),
        IdentitySchema(
            "derivation", d(op("mul", _x, _y)), op("mul", d(_x), _y) + op("mul", _x, d(_y))
        ),
    )


def differential_dialgebra(a: AlgebraInstance, d_name: str, check: bool = True) -> AlgebraInstance:
    """x left y = x.d(y), x right y = d(x).y for a square-zero derivation d.

    The compatibility d.alpha = alpha.d is required on top of d^2 = 0 and the
    derivation rule, so that the output twist bookkeeping stays verifiable.
    """
    if d_name not in a.maps:
        raise SemanticError(f"algebra {a.name!r} has no map {d_name!r}")
    d = a.maps[d_name]
    mul = a.product("mul")
    if check:
        _gate(certify(a, VarietyTag.HOM_ASSOCIATIVE), f"differential_dialgebra({a.name}) input")
        interp = _bind_map(a.interpretation(), "d", d, ("A", "A"))
        _gate(check_all(_differential_schemas(), interp, "differential-dialgebra"),
              f"differential_dialgebra({a.name}) input map {d_name!r}")
    out = AlgebraInstance(
        f"{a.name}-differential-dialgebra",
        a.dim,
        {"left": _pull_second(mul.opposite(), d), "right": _pull_first(mul, d)},
        {"alpha": a.alpha},
        VarietyTag.HOM_ASSOCIATIVE_DIALGEBRA,
    )
    if check:
        _gate(certify(out, out.variety), f"differential_dialgebra({a.name}) output")
    return out


def bimodule_map_dialgebra(rep: AssocBimodule, f: LinearMap, check: bool = True) -> AlgebraInstance:
    """u left u' = r(f(u'))u and u right u' = l(f(u))u' for a bimodule map f."""
    base = rep.base
    if check:
        _gate(certify_rep(rep), f"bimodule_map_dialgebra({base.name}) input")
        interp = _bind_map(rep.interpretation(), "f", f, ("V", "A"))
        _gate(check_all(_bimodule_map_schemas("f"), interp, "bimodule-map-dialgebra"),
              f"bimodule_map_dialgebra({base.name}) input map")
    out = AlgebraInstance(
        f"{base.name}-bimodule-map-dialgebra",
        rep.v_dim,
        {"right": _pull_first(rep.l, f), "left": _pull_second(rep.r, f)},
        {"alpha": rep.beta},
        VarietyTag.HOM_ASSOCIATIVE_DIALGEBRA,
    )
    if check:
        _gate(certify(out, out.variety), f"bimodule_map_dialgebra({base.name}) output")
    return out


# ---------------------------------------------------------------------------
# crossed modules


@cache
def _crossed_module_schemas() -> tuple:
    D = lambda e: tw("d", e)
    intertwine, *equivariance = _bimodule_map_schemas("d")
    peiffer = op("vmul", _u, _v)
    return (
        intertwine,
        IdentitySchema("morphism", D(peiffer), op("mul", D(_u), D(_v))),
        IdentitySchema("peiffer-left", op("l", D(_u), _v), peiffer),
        # enumerate (u, v) as the other clauses do, not in order of appearance
        IdentitySchema("peiffer-right", op("r", D(_v), _u), peiffer,
                       variables=(("u", "V", 1), ("v", "V", 1))),
        *equivariance,
    )


def crossed_module_check(a: AlgebraInstance, act: AssocAction, d: LinearMap) -> CheckReport:
    """Check the crossed-module clauses for d : V -> A over an action.

    On pass the conclusion is asserted too: d is a homomorphic relative
    averaging operator for the action.
    """
    from .operators import OperatorCandidate, certify_operator

    if act.base is not a and act.base != a:
        raise SemanticError("action is not over the given algebra")
    if (d.src_dim, d.dst_dim) != (act.v_dim, a.dim):
        raise ShapeError("crossed-module map has wrong dimensions")
    rep_report = certify_rep(act)
    if not rep_report.ok:
        return CheckReport("fail", "crossed-module", witness=rep_report.witness,
                           detail="action does not certify")
    report = check_all(_crossed_module_schemas(),
                       _bind_map(act.interpretation(), "d", d, ("V", "A")), "crossed-module")
    if not report.ok:
        return report
    conclusion = certify_operator(OperatorCandidate(act, d), "homomorphic-rel-avg")
    if not conclusion.ok:
        return CheckReport("fail", "crossed-module", witness=conclusion.witness,
                           detail="homomorphic conclusion failed")
    return CheckReport("pass", "crossed-module")

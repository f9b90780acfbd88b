"""Structure-transporting constructions.

Six hemisemi-direct products, graph-closure tests for operator candidates,
induced structures on the representation space, the plus/minus and
(anti-)dicommutator functors, di-to-tri embeddings, opposite structures,
twists by endomorphisms, special dialgebras, and the crossed-module check.

The hemisemi products, the induced structures and the functors are each one
row of a table (`HEMISEMI`, `INDUCED`, `FUNCTORS`), keyed by ConstructionId:
what the construction takes, the variety it yields, whether its output is
gated, and its products.  `hemisemi`, `induce` and `functor` read the rows,
as do `operators.hemisemi_id_for` and `homalg construct`.  The products are
assembled on integer numerators: a hemisemi product places the base product
and one representation tensor as blocks of a tensor on A + V
(`StructureTensor.place`), and an induced structure pulls an action back
along the operator (`StructureTensor.pull`).
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from typing import NamedTuple

from .engine import (
    ZERO,
    CheckReport,
    IdentitySchema,
    Interpretation,
    SemanticError,
    Witness,
    _power,
    _tensor,
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
from .varieties import REQUIRED_PRODUCTS, AlgebraInstance, VarietyTag, certify, is_morphism


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


class Construction(NamedTuple):
    """One row of a construction table.

    `takes` is what the input must be (a representation class, an operator
    kind or a source variety), `yields` the variety of the output and
    `gated` whether a checked build certifies the output in it.  `products`
    gives the output's products: for the hemisemi and induced rows, by symbol,
    the representation tensor read and how it acts ("left_act" as l(x)v,
    "right_act" as r(y)u, stored algebra-argument first, or "v_tensor" as a
    product on V); for the functor rows, a function of the input algebra.
    """

    takes: object
    yields: VarietyTag
    gated: bool
    products: object


_ASSOC = {"left": ("r", "right_act"), "right": ("l", "left_act")}
_ASSOC_TRI = {**_ASSOC, "middle": ("vmul", "v_tensor")}
_LIE = {"brace": ("rho", "left_act")}
_LIE_TRI = {**_LIE, "bracket": ("vbracket", "v_tensor")}
_JORDAN = {"bullet": ("pi", "left_act")}
_JORDAN_TRI = {**_JORDAN, "circ": ("vstar", "v_tensor")}

_C, _V = ConstructionId, VarietyTag

# an action class follows its module class: hemisemi_id_for reads the table
# backwards, so the most specific class matches first
HEMISEMI = {
    _C.HEMISEMI_DIASS: Construction(AssocBimodule, _V.HOM_ASSOCIATIVE_DIALGEBRA, True, _ASSOC),
    _C.HEMISEMI_LEIB: Construction(LieModule, _V.HOM_LEIBNIZ, True, _LIE),
    _C.HEMISEMI_DIJOR: Construction(JordanModule, _V.HOM_JORDAN_DIALGEBRA, True, _JORDAN),
    _C.HEMISEMI_TRIASS: Construction(AssocAction, _V.HOM_ASSOCIATIVE_TRIALGEBRA, True, _ASSOC_TRI),
    _C.HEMISEMI_TRILEIB: Construction(LieAction, _V.HOM_LEIBNIZ_TRIALGEBRA, True, _LIE_TRI),
    _C.HEMISEMI_TRIJOR: Construction(JordanAction, _V.HOM_JORDAN_TRIALGEBRA, True, _JORDAN_TRI),
}

INDUCED = {
    _C.INDUCED_DIALGEBRA: Construction("rel-avg", _V.HOM_ASSOCIATIVE_DIALGEBRA, True, _ASSOC),
    _C.INDUCED_LEIBNIZ: Construction("rel-avg", _V.HOM_LEIBNIZ, True, _LIE),
    _C.INDUCED_JORDAN_DIALGEBRA: Construction("rel-avg", _V.HOM_JORDAN_DIALGEBRA, True, _JORDAN),
    _C.INDUCED_TRIALGEBRA: Construction(
        "homomorphic-rel-avg", _V.HOM_ASSOCIATIVE_TRIALGEBRA, True, _ASSOC_TRI),
    _C.INDUCED_TRILEIBNIZ: Construction(
        "homomorphic-rel-avg", _V.HOM_LEIBNIZ_TRIALGEBRA, True, _LIE_TRI),
    _C.INDUCED_JORDAN_TRIALGEBRA: Construction(
        "homomorphic-rel-avg", _V.HOM_JORDAN_TRIALGEBRA, True, _JORDAN_TRI),
}


def _sided(a: AlgebraInstance, sign: int) -> StructureTensor:
    """x right y + sign (y left x): the dicommutator for sign -1."""
    return a.product("right") + a.product("left").opposite().scale(sign)


def _symmetric(t: StructureTensor, sign: int) -> StructureTensor:
    """x.y + sign (y.x)."""
    return t + t.opposite().scale(sign)


# the anti-dicommutator and tri-to-jordan outputs are reported in their
# target variety but not gated: they are only guaranteed when the input
# comes from an induced structure
FUNCTORS = {
    _C.MINUS: Construction(_V.HOM_ASSOCIATIVE, _V.HOM_LIE, True,
                           lambda a: minus_algebra(a).products),
    _C.PLUS: Construction(_V.HOM_ASSOCIATIVE, _V.HOM_JORDAN, True,
                          lambda a: plus_algebra(a).products),
    _C.DICOMMUTATOR: Construction(_V.HOM_ASSOCIATIVE_DIALGEBRA, _V.HOM_LEIBNIZ, True,
                                  lambda a: {"brace": _sided(a, -1)}),
    _C.ANTI_DICOMMUTATOR: Construction(_V.HOM_ASSOCIATIVE_DIALGEBRA, _V.HOM_JORDAN_DIALGEBRA,
                                       False, lambda a: {"bullet": _sided(a, 1)}),
    _C.TRI_TO_LEIBNIZ: Construction(
        _V.HOM_ASSOCIATIVE_TRIALGEBRA, _V.HOM_LEIBNIZ_TRIALGEBRA, True,
        lambda a: {"brace": _sided(a, -1), "bracket": _symmetric(a.product("middle"), -1)}),
    _C.TRI_TO_JORDAN: Construction(
        _V.HOM_ASSOCIATIVE_TRIALGEBRA, _V.HOM_JORDAN_TRIALGEBRA, False,
        lambda a: {"bullet": _sided(a, 1), "circ": _symmetric(a.product("middle"), 1)}),
    _C.DI_TO_TRI: Construction(
        _V.HOM_ASSOCIATIVE_DIALGEBRA, _V.HOM_ASSOCIATIVE_TRIALGEBRA, True,
        lambda a: {"left": a.product("left"), "right": a.product("right"),
                   "middle": StructureTensor.zero(a.dim)}),
    _C.OPPOSITE_DIALGEBRA: Construction(
        _V.HOM_ASSOCIATIVE_DIALGEBRA, _V.HOM_ASSOCIATIVE_DIALGEBRA, True,
        lambda a: {"left": a.product("right").opposite(),
                   "right": a.product("left").opposite()}),
    _C.TRIDENDRIFORM: Construction(
        _V.HOM_ASSOCIATIVE_TRIALGEBRA, _V.HOM_TRIDENDRIFORM, True,
        lambda a: {"prec": a.product("left").scale(-1), "succ": a.product("right").scale(-1),
                   "dot": a.product("middle")}),
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
    row = HEMISEMI[what]
    if not isinstance(rep, row.takes):
        raise SemanticError(f"{what.value} needs a {row.takes.__name__}, got {rep.kind}")
    if check:
        _gate(certify_rep(rep), f"{what.value}({rep.base.name}) input")
    base = rep.base
    n, m = base.dim, rep.v_dim
    (base_sym,) = REQUIRED_PRODUCTS[rep.variety]
    mul = base.product(base_sym)
    products = {sym: _block_product(n, m, mul, **{block: getattr(rep, attr)})
                for sym, (attr, block) in row.products.items()}
    out = AlgebraInstance(f"{base.name}-{what.value}", n + m, products,
                          {"alpha": base.alpha.direct_sum(rep.beta)}, row.yields)
    if check and row.gated:
        _gate(certify(out, out.variety), f"{what.value}({rep.base.name}) output")
    return out


# ---------------------------------------------------------------------------
# graph characterization


def graph_closure(candidate, what: ConstructionId, ambient: AlgebraInstance | None = None) -> CheckReport:
    """Is the graph {Ku + u} closed under every ambient product and the twist?

    Membership of x + u in the graph is the exact criterion x = K(u); closure
    is checked on pairs of graph generators, which suffices by bilinearity.

    The check runs on integer numerators.  The generators g_j = K(u_j) + u_j
    are the columns of G = [K; K._d I] over K._d, and x + u lies in the graph
    iff K._d x = K u.  Each block takes one linear map L on A + V, the twist
    or a product t with its left argument fixed at g_i, and builds the
    images L g_j for every j at once, one flat list, from the nonzero
    entries of G and of L's planes: the twist's columns, or the planes t[p]
    weighted by the entries g_i[p], each plane's entries taken once per
    check.  Both are read in the sparse form the engine compiles once and
    keeps on the map or tensor (`engine._power`, `engine._tensor`), so no
    zero entry is visited, and a twist that carries the identity flag skips
    its block: it maps every generator to itself.  The images are then
    tested j by j, and the first one that leaves the graph gives the
    witness: its A-part and K of its V-part, as `Vector`s over the
    denominators of `twist.apply(g_j)` or `t.apply(g_i, g_j)` and of
    `K.apply`.  A map that fails stops after the block of its first failing
    i, and the counters are those of a pair-by-pair loop that stops at the
    first witness.
    """
    rep = candidate.rep
    K = candidate.map
    if ambient is None:
        ambient = hemisemi(rep, what, check=False)
    n, m = rep.base.dim, rep.v_dim
    size = n + m
    check_id = f"graph:{what.value}"
    kn, kd = K._n, K._d
    # the nonzero entries of G: (p, G[p][i]) of column i, and those of row q
    # keyed by the flat offset j * size of their column; (r, K[r][s]) of
    # column s of K
    cols = [[(p, row[i]) for p, row in enumerate(kn) if row[i]] + [(n + i, kd)] for i in range(m)]
    grows = [[(j * size, x) for j, x in enumerate(row) if x] for row in kn]
    grows += [[(s * size, kd)] for s in range(m)]
    kcols = [[(r, row[s]) for r, row in enumerate(kn) if row[s]] for s in range(m)]

    def terms(plane):
        """(row q of G, r, c) for the nonzero entries c = plane[q][r], the
        plane given as sparse rows [(r, c), ...]."""
        return [(gq, r, c) for gq, row in zip(grows, plane) if gq and row for r, c in row]

    def leaves(block):
        """The images L g_j, one flat list with entry r of L g_j at
        j * size + r, and the first j whose image leaves the graph, or None;
        L is the sum of x * plane over (x, terms of plane) in block."""
        w = [0] * (m * size)
        for x, ts in block:
            for gq, r, c in ts:
                xc = x * c
                for at, y in gq:
                    w[at + r] += xc * y
        for j, at in enumerate(range(0, m * size, size)):
            d = [kd * x for x in w[at:at + n]]  # K._d x - K u for x + u = L g_j
            for s, u in enumerate(w[at + n:at + size]):
                if u:
                    for r, k in kcols[s]:
                        d[r] -= k * u
            if any(d):
                return w, j
        return w, None

    def sides(w, j, den):
        """The A-part of image j in w and K of its V-part, w over den."""
        w = w[j * size:(j + 1) * size]
        return Vector._make(w[:n], den), K.apply(Vector._make(w[n:], den))

    twist = ambient.alpha
    tcols, _, _, identity = _power(twist, 1)
    if not identity:  # an identity maps each generator to itself
        w, j = leaves([(1, terms(tcols))])
        if j is not None:
            return CheckReport(
                "fail", check_id,
                witness=Witness("twist-closure", (("u", "V"),), (j,), *sides(w, j, twist._d * kd)),
                detail="twist image leaves the graph",
            )
    syms = sorted(ambient.products)
    for s, sym in enumerate(syms):
        t = ambient.products[sym]
        sparse = _tensor(t)[0]
        planes = {}
        for i, col in enumerate(cols):
            for p, _ in col:
                if p not in planes:
                    planes[p] = terms(sparse[p])
            w, j = leaves([(x, planes[p]) for p, x in col])
            if j is not None:
                count = s * m * m + i * m + j + 1
                return CheckReport(
                    "fail", check_id,
                    witness=Witness(f"graph:{sym}", (("u", "V"), ("v", "V")), (i, j),
                                    *sides(w, j, kd * kd * t._d)),
                    tuples_checked=count, tuples_evaluated=count,
                    prefixes_visited=s * m + i + 1,
                )
    count = len(syms) * m * m
    return CheckReport("pass", check_id, tuples_checked=count, tuples_evaluated=count,
                       prefixes_visited=len(syms) * m)


# ---------------------------------------------------------------------------
# induced structures on V


def induce(candidate, what: ConstructionId, check: bool = True) -> AlgebraInstance:
    """Transport the base structure onto V through a certified operator.

    A left action l gives (u, v) -> l(K u)v, a right action r gives
    (u, v) -> r(K v)u, and a product on V is kept.
    """
    from .operators import certify_operator

    row = INDUCED.get(what)
    if row is None:
        raise SemanticError(f"{what.value} is not an induced-structure id")
    rep = candidate.rep
    K = candidate.map
    if check:
        _gate(certify_rep(rep), f"{what.value} input rep")
        _gate(certify_operator(candidate, row.takes), f"{what.value} input operator")
    products = {}
    for sym, (attr, block) in row.products.items():
        t = getattr(rep, attr)
        if block != "v_tensor":
            t = t.pull(K) if block == "left_act" else t.pull(K).opposite()
        products[sym] = t
    out = AlgebraInstance(f"{rep.base.name}-{what.value}", rep.v_dim, products,
                          {"alpha": rep.beta}, row.yields)
    if check and row.gated:
        _gate(certify(out, out.variety), f"{what.value} output")
    return out


# ---------------------------------------------------------------------------
# functors between varieties


def functor(a: AlgebraInstance, what: ConstructionId, check: bool = True) -> AlgebraInstance:
    """Apply one of the fixed product-rewriting functors."""
    row = FUNCTORS.get(what)
    if row is None:
        raise SemanticError(f"{what.value} is not a functor id")
    if check:
        _gate(certify(a, row.takes), f"{what.value}({a.name}) input")
    out = AlgebraInstance(f"{a.name}-{what.value}", a.dim, row.products(a), {"alpha": a.alpha},
                          row.yields)
    if check and row.gated:
        _gate(certify(out, out.variety), f"{what.value}({a.name}) output")
    return out


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
    out = twist_products(a, phi, f"{a.name}-twist-{phi_name}")
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
    return Interpretation(interp.sorts, interp.ops, {**interp.maps, sym: (lin, sorts)})


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
        {"left": mul.opposite().pull(d).opposite(), "right": mul.pull(d)},
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
        {"right": rep.l.pull(f), "left": rep.r.pull(f).opposite()},
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

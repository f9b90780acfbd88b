"""Certifiers for averaging-type, Nijenhuis and weighted operators.

An OperatorCandidate pairs a representation (or, for averaging and Nijenhuis
checks, a plain algebra) with a linear map into the base.  The twist
compatibility K.beta = alpha.K is checked first and reported separately as
"not-admissible", so identity failures are never conflated with candidates
that do not even intertwine the twists.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from .constructions import ConstructionId, hemisemi
from .engine import CheckReport, SemanticError, Witness
from .exact import LinearMap, ShapeError, Vector
from .reps import (
    AssocAction,
    AssocBimodule,
    CertificationError,
    JordanAction,
    JordanModule,
    LieAction,
    LieModule,
)
from .varieties import AlgebraInstance

OPERATOR_KINDS = (
    "averaging",
    "averaging-left",
    "averaging-right",
    "rel-avg-left",
    "rel-avg-right",
    "rel-avg",
    "homomorphic-rel-avg",
    "nijenhuis",
    "o-operator",
)


@dataclass
class OperatorCandidate:
    """A linear map V -> A over a representation (or A -> A over an algebra)."""

    rep: object
    map: LinearMap

    def __post_init__(self):
        if isinstance(self.rep, AlgebraInstance):
            src, dst = self.rep.dim, self.rep.dim
        else:
            src, dst = self.rep.v_dim, self.rep.base.dim
        if (self.map.src_dim, self.map.dst_dim) != (src, dst):
            raise ShapeError(
                f"operator map is {self.map.dst_dim}x{self.map.src_dim},"
                f" expected {dst}x{src}"
            )

    @property
    def base(self) -> AlgebraInstance:
        return self.rep if isinstance(self.rep, AlgebraInstance) else self.rep.base

    def twists(self):
        if isinstance(self.rep, AlgebraInstance):
            return self.rep.alpha, self.rep.alpha
        return self.rep.base.alpha, self.rep.beta


def _admissible(c: OperatorCandidate) -> bool:
    alpha, beta = c.twists()
    return c.map.compose(beta) == alpha.compose(c.map)


def _pair_fail(check_id, clause, i, j, lhs, rhs):
    return CheckReport(
        "fail",
        check_id,
        witness=Witness(clause, (("u", "V"), ("v", "V")), (i, j), lhs, rhs),
    )


def certify_operator(c: OperatorCandidate, kind: str, weight=None) -> CheckReport:
    """Check the defining equations of the requested operator kind.

    Returns "not-admissible" when K.beta != alpha.K; otherwise evaluates the
    kind's equations on all basis pairs and reports the first violation with
    the violated clause's name.
    """
    if kind not in OPERATOR_KINDS:
        raise SemanticError(f"unknown operator kind {kind!r}")
    check_id = f"operator:{kind}"
    if not _admissible(c):
        return CheckReport("not-admissible", check_id, detail="K.beta != alpha.K")

    if kind in ("averaging", "averaging-left", "averaging-right", "nijenhuis"):
        if not isinstance(c.rep, AlgebraInstance):
            raise SemanticError(f"{kind} expects a candidate over an algebra instance")
        return _certify_algebra_operator(c, kind, check_id)

    rep, K = c.rep, c.map
    if isinstance(rep, AlgebraInstance):
        raise SemanticError(f"{kind} expects a candidate over a representation")
    rep_is_assoc = isinstance(rep, AssocBimodule)
    rep_is_lie = isinstance(rep, LieModule)
    rep_is_jordan = isinstance(rep, JordanModule)
    m = rep.v_dim

    if kind == "o-operator":
        if weight is None:
            raise SemanticError("o-operator needs a weight")
        if not isinstance(rep, AssocAction):
            raise SemanticError("o-operator needs an associative action")
        lam = Fraction(weight)
        mul = rep.base.product("mul")
        for i in range(m):
            ui, Ki = Vector.basis(m, i), K.column(i)
            for j in range(m):
                uj, Kj = Vector.basis(m, j), K.column(j)
                lhs = mul.apply(Ki, Kj)
                inner = rep.l.apply(Ki, uj) + rep.r.apply(Kj, ui) + rep.vmul.apply(ui, uj).scale(lam)
                rhs = K.apply(inner)
                if lhs != rhs:
                    return _pair_fail(check_id, "o-operator", i, j, lhs, rhs)
        return CheckReport("pass", check_id, tuples_checked=m * m)

    if kind in ("rel-avg-left", "rel-avg-right") and not rep_is_assoc:
        raise SemanticError(f"{kind} applies to associative representations only")

    if rep_is_assoc:
        prod = rep.base.product("mul")
    elif rep_is_lie:
        prod = rep.base.product("bracket")
    elif rep_is_jordan:
        prod = rep.base.product("circ")
    else:
        raise SemanticError(f"unsupported representation kind {rep.kind!r}")

    want_left = kind in ("rel-avg-left", "rel-avg", "homomorphic-rel-avg")
    want_right = rep_is_assoc and kind in ("rel-avg-right", "rel-avg", "homomorphic-rel-avg")
    count = 0
    for i in range(m):
        ui, Ki = Vector.basis(m, i), K.column(i)
        for j in range(m):
            uj, Kj = Vector.basis(m, j), K.column(j)
            count += 1
            lhs = prod.apply(Ki, Kj)
            if want_left:
                if rep_is_assoc:
                    rhs = K.apply(rep.l.apply(Ki, uj))
                    clause = "left"
                elif rep_is_lie:
                    rhs = K.apply(rep.rho.apply(Ki, uj))
                    clause = "lie"
                else:
                    rhs = K.apply(rep.pi.apply(Ki, uj))
                    clause = "jordan"
                if lhs != rhs:
                    return _pair_fail(check_id, clause, i, j, lhs, rhs)
            if want_right:
                rhs = K.apply(rep.r.apply(Kj, ui))
                if lhs != rhs:
                    return _pair_fail(check_id, "right", i, j, lhs, rhs)
            if kind == "homomorphic-rel-avg":
                if isinstance(rep, AssocAction):
                    vprod = rep.vmul
                elif isinstance(rep, LieAction):
                    vprod = rep.vbracket
                elif isinstance(rep, JordanAction):
                    vprod = rep.vstar
                else:
                    raise SemanticError("homomorphic-rel-avg needs an action")
                rhs = K.apply(vprod.apply(ui, uj))
                if lhs != rhs:
                    return _pair_fail(check_id, "homomorphic", i, j, lhs, rhs)
    return CheckReport("pass", check_id, tuples_checked=count)


def _certify_algebra_operator(c: OperatorCandidate, kind: str, check_id: str) -> CheckReport:
    a, T = c.rep, c.map
    n = a.dim
    count = 0
    for sym in sorted(a.products):
        mu = a.products[sym]
        for i in range(n):
            xi, Ti = Vector.basis(n, i), T.column(i)
            for j in range(n):
                xj, Tj = Vector.basis(n, j), T.column(j)
                count += 1
                both = mu.apply(Ti, Tj)
                if kind == "nijenhuis":
                    inner = mu.apply(Ti, xj) + mu.apply(xi, Tj) - T.apply(mu.apply(xi, xj))
                    rhs = T.apply(inner)
                    if both != rhs:
                        return _pair_fail(check_id, f"nijenhuis:{sym}", i, j, both, rhs)
                    continue
                if kind in ("averaging", "averaging-left"):
                    lhs = T.apply(mu.apply(Ti, xj))
                    if lhs != both:
                        return _pair_fail(check_id, f"averaging-left:{sym}", i, j, lhs, both)
                if kind in ("averaging", "averaging-right"):
                    rhs = T.apply(mu.apply(xi, Tj))
                    if rhs != both:
                        return _pair_fail(check_id, f"averaging-right:{sym}", i, j, rhs, both)
    return CheckReport("pass", check_id, tuples_checked=count)


# ---------------------------------------------------------------------------
# derived operators


_HEMISEMI_FOR_REP = (
    (JordanAction, ConstructionId.HEMISEMI_TRIJOR),
    (LieAction, ConstructionId.HEMISEMI_TRILEIB),
    (AssocAction, ConstructionId.HEMISEMI_TRIASS),
    (JordanModule, ConstructionId.HEMISEMI_DIJOR),
    (LieModule, ConstructionId.HEMISEMI_LEIB),
    (AssocBimodule, ConstructionId.HEMISEMI_DIASS),
)


def hemisemi_id_for(rep) -> ConstructionId:
    for cls, cid in _HEMISEMI_FOR_REP:
        if isinstance(rep, cls):
            return cid
    raise SemanticError(f"no hemisemi product for {rep!r}")


def _graph_map(cand: OperatorCandidate, c) -> LinearMap:
    """x + u -> K(u) + c.u on A + V."""
    n, m = cand.rep.base.dim, cand.rep.v_dim
    rows = [[0] * n + list(row) for row in cand.map.matrix]
    rows += [[0] * n + [c if k == j else 0 for k in range(m)] for j in range(m)]
    return LinearMap(rows)


def nijenhuis_of(c: OperatorCandidate, what: ConstructionId | None = None,
                 ambient: AlgebraInstance | None = None) -> OperatorCandidate:
    """Package x + u -> K(u) as an operator on the hemisemi-direct product."""
    if what is None:
        what = hemisemi_id_for(c.rep)
    if ambient is None:
        ambient = hemisemi(c.rep, what, check=False)
    return OperatorCandidate(ambient, _graph_map(c, 0))


LiftedAveraging = namedtuple("LiftedAveraging", ["on_left_product", "on_right_product"])


def lift_to_averaging(c: OperatorCandidate) -> LiftedAveraging:
    """Lift a relative averaging operator to x + u -> K(u) + u on A + V.

    Returns candidates over the two single-product halves of the hemisemi
    dialgebra.  The lift is a right-averaging operator for the `left`
    product and a left-averaging operator for the `right` product.
    """
    rep = c.rep
    if not isinstance(rep, AssocBimodule):
        raise SemanticError("lift_to_averaging expects an associative representation")
    gate = certify_operator(c, "rel-avg")
    if not gate.ok:
        raise CertificationError("lift_to_averaging: candidate is not relative averaging", gate)
    ambient = hemisemi(rep, ConstructionId.HEMISEMI_DIASS, check=False)
    lifted = _graph_map(c, 1)

    def single(sym):
        return AlgebraInstance(
            f"{ambient.name}-{sym}",
            ambient.dim,
            {"mul": ambient.product(sym)},
            {"alpha": ambient.alpha},
        )

    return LiftedAveraging(
        on_left_product=OperatorCandidate(single("left"), lifted),
        on_right_product=OperatorCandidate(single("right"), lifted),
    )

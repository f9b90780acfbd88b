"""Certifiers for averaging-type, Nijenhuis and weighted operators.

An OperatorCandidate pairs a representation (or, for averaging and Nijenhuis
checks, a plain algebra) with a linear map into the base.  The twist
compatibility K.beta = alpha.K is checked first and reported separately as
"not-admissible", so identity failures are never conflated with candidates
that do not even intertwine the twists.  Each kind's equations are a table of
identity schemas, checked in one engine pass (see "clause tables" below).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING

from .engine import (
    CheckReport,
    Interpretation,
    SemanticError,
    Witness,
    check_clauses,
    identity,
    twist_gap,
)
from .exact import LinearMap, ShapeError
from .records import Record
from .reps import AssocAction, AssocBimodule, CertificationError
from .varieties import AlgebraInstance

if TYPE_CHECKING:  # `constructions` is imported only where an ambient is built
    from .constructions import ConstructionId

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


class OperatorCandidate(Record):
    """A linear map V -> A over a representation (or A -> A over an algebra)."""

    __slots__ = _fields = ("rep", "map")

    def __init__(self, rep, map: LinearMap):
        self.rep = rep
        self.map = map
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


def admissible(k: LinearMap, alpha: LinearMap, beta: LinearMap) -> bool:
    """K.beta == alpha.K: K: V -> A intertwines the twists beta of V and alpha of A.

    Decided by `engine.twist_gap` once the shapes agree: true at once when
    both twists are identities (the flag is kept on each map), and otherwise
    `square_gap` on the sparse numerator columns the maps store, K.beta over
    K._d * beta._d against alpha.K over alpha._d * K._d, so K's denominator
    cancels and the cross-scales are alpha._d and beta._d.
    """
    if k.src_dim != beta.dst_dim or alpha.src_dim != k.dst_dim:
        raise ShapeError("inner dimensions disagree")
    return twist_gap(k._cols, alpha, beta) is None


# ---------------------------------------------------------------------------
# clause tables
#
# Over a representation the operator is the cross-sort map symbol K: V -> A;
# over an algebra it is T: A -> A and the product under test is bound to mu.
# A table lists the clauses of one kind, each a line of the identity notation
# (`engine.identity`), in the order they are compared on each basis tuple.
# The tables are built on first use and then return the same schema objects,
# so checks reuse their evaluation plans.


@cache
def _rep_clauses():
    """Clause tables keyed by (representation kind, operator kind); u, v in V."""
    left, right, hom, lie, lie_hom, jordan, jordan_hom = (
        identity(name, text, v="u v") for name, text in (
            ("left", "mul(K(u), K(v)) = K(l(K(u), v))"),
            ("right", "mul(K(u), K(v)) = K(r(K(v), u))"),
            ("homomorphic", "mul(K(u), K(v)) = K(vmul(u, v))"),
            ("lie", "bracket(K(u), K(v)) = K(rho(K(u), v))"),
            ("homomorphic", "bracket(K(u), K(v)) = K(vbracket(u, v))"),
            ("jordan", "circ(K(u), K(v)) = K(pi(K(u), v))"),
            ("homomorphic", "circ(K(u), K(v)) = K(vstar(u, v))"),
        ))
    return {
        ("bimodule", "rel-avg-left"): (left,),
        ("bimodule", "rel-avg-right"): (right,),
        ("bimodule", "rel-avg"): (left, right),
        ("action", "rel-avg-left"): (left,),
        ("action", "rel-avg-right"): (right,),
        ("action", "rel-avg"): (left, right),
        ("action", "homomorphic-rel-avg"): (left, right, hom),
        ("lie-module", "rel-avg"): (lie,),
        ("lie-action", "rel-avg"): (lie,),
        ("lie-action", "homomorphic-rel-avg"): (lie, lie_hom),
        ("jordan-module", "rel-avg"): (jordan,),
        ("jordan-action", "rel-avg"): (jordan,),
        ("jordan-action", "homomorphic-rel-avg"): (jordan, jordan_hom),
    }


@cache
def _o_operator_clauses(weight: Fraction):
    """mul(K u, K v) = K(l(K u, v) + r(K v, u) + weight vmul(u, v)), one table per weight."""
    return (identity("o-operator", "mul(K(u), K(v))"
                     f" = K(l(K(u), v) + r(K(v), u) + {weight} * vmul(u, v))", v="u v"),)


@cache
def _algebra_clauses():
    """Clause tables keyed by operator kind; u, v in A."""
    left, right, nijenhuis = (identity(name, text) for name, text in (
        ("averaging-left", "T(mu(T(u), v)) = mu(T(u), T(v))"),
        ("averaging-right", "T(mu(u, T(v))) = mu(T(u), T(v))"),
        ("nijenhuis", "mu(T(u), T(v)) = T(mu(T(u), v) + mu(u, T(v)) - T(mu(u, v)))"),
    ))
    return {
        "averaging": (left, right),
        "averaging-left": (left,),
        "averaging-right": (right,),
        "nijenhuis": (nijenhuis,),
    }


def operator_kinds_for(rep) -> tuple:
    """The operator kinds with clauses over this representation, in table order."""
    return tuple(kind for rep_kind, kind in _rep_clauses() if rep_kind == rep.kind)


def certify_operator(c: OperatorCandidate, kind: str, weight=None) -> CheckReport:
    """Check the defining equations of the requested operator kind.

    Returns "not-admissible" when K.beta != alpha.K; otherwise checks the
    kind's clauses on all basis pairs in one engine pass and reports the
    first violation with the violated clause's name.
    """
    if kind not in OPERATOR_KINDS:
        raise SemanticError(f"unknown operator kind {kind!r}")
    check_id = f"operator:{kind}"
    if not admissible(c.map, *c.twists()):
        return CheckReport("not-admissible", check_id, detail="K.beta != alpha.K")

    rep = c.rep
    if kind in _algebra_clauses():
        if not isinstance(rep, AlgebraInstance):
            raise SemanticError(f"{kind} expects a candidate over an algebra instance")
        return _certify_algebra_operator(c, kind, check_id)
    if isinstance(rep, AlgebraInstance):
        raise SemanticError(f"{kind} expects a candidate over a representation")
    if kind == "o-operator":
        if weight is None:
            raise SemanticError("o-operator needs a weight")
        if not isinstance(rep, AssocAction):
            raise SemanticError("o-operator needs an associative action")
        clauses = _o_operator_clauses(Fraction(weight))
    else:
        clauses = _rep_clauses().get((rep.kind, kind))
        if clauses is None:
            if kind in ("rel-avg-left", "rel-avg-right"):
                raise SemanticError(f"{kind} applies to associative representations only")
            if kind == "homomorphic-rel-avg":
                raise SemanticError("homomorphic-rel-avg needs an action")
            raise SemanticError(f"unsupported representation kind {rep.kind!r}")
    interp = rep.interpretation()
    maps = interp.maps | {"K": (c.map, ("V", "A"))}
    return check_clauses(clauses, Interpretation(interp.sorts, interp.ops, maps), check_id)


def _certify_algebra_operator(c: OperatorCandidate, kind: str, check_id: str) -> CheckReport:
    """One pass per product symbol, in sorted order; clause names get ":<symbol>"."""
    a, clauses = c.rep, _algebra_clauses()[kind]
    maps = {"T": (c.map, ("A", "A"))}
    total = evaluated = prefixes = 0
    for sym in sorted(a.products):
        interp = Interpretation({"A": a.dim}, {"mu": (a.products[sym], ("A", "A", "A"))}, maps)
        report = check_clauses(clauses, interp, check_id)
        total += report.tuples_checked
        evaluated += report.tuples_evaluated
        prefixes += report.prefixes_visited
        if not report.ok:
            w = report.witness
            return CheckReport("fail", check_id, tuples_checked=total, tuples_evaluated=evaluated,
                               prefixes_visited=prefixes,
                               witness=Witness(f"{w.identity}:{sym}", w.variables, w.indices,
                                               w.lhs_value, w.rhs_value))
    return CheckReport("pass", check_id, tuples_checked=total, tuples_evaluated=evaluated,
                       prefixes_visited=prefixes)


# ---------------------------------------------------------------------------
# derived operators


@cache
def _hemisemi_takes():
    """(class, id) of each hemisemi product, actions before their modules."""
    from .constructions import HEMISEMI

    return tuple((row.takes, cid) for cid, row in reversed(HEMISEMI.items()))


def hemisemi_id_for(rep) -> ConstructionId:
    for takes, cid in _hemisemi_takes():
        if isinstance(rep, takes):
            return cid
    raise SemanticError(f"no hemisemi product for {rep!r}")


def _graph_map(cand: OperatorCandidate, c) -> LinearMap:
    """x + u -> K(u) + c.u on A + V, in lowest terms as LinearMap(rows) keeps it:
    zero on the n columns of A, and column n + j is K(u_j) + c.u_j."""
    n, m, K = cand.rep.base.dim, cand.rep.v_dim, cand.map
    cols = [col + [(n + j, c * K._d)] if c else col for j, col in enumerate(K._cols)]
    return LinearMap._lowest([[]] * n + cols, K._d, n + m, n + m)


def nijenhuis_of(c: OperatorCandidate, what: ConstructionId | None = None,
                 ambient: AlgebraInstance | None = None) -> OperatorCandidate:
    """Package x + u -> K(u) as an operator on the hemisemi-direct product."""
    if what is None:
        what = hemisemi_id_for(c.rep)
    if ambient is None:
        from .constructions import hemisemi

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
    from .constructions import ConstructionId, hemisemi

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

"""Variety tags, their identity-schema catalogs, and one-call certifiers.

Product-symbol conventions used throughout the package (and the DSL):

==================  =========================================
variety             product symbols
==================  =========================================
associative         mul
Lie                 bracket
Leibniz             brace
Jordan              circ
dialgebra           left, right
Jordan dialgebra    bullet
trialgebra          left, right, middle
Leibniz trialgebra  brace, bracket
Jordan trialgebra   circ, bullet
tridendriform       prec, succ, dot
==================  =========================================

`left` is the product whose hemisemi/induced form feeds on the right action
(u left v = r(Kv)u) and `right` the one feeding on the left action
(u right v = l(Ku)v).  Every algebra carries a twist map named `alpha`.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from functools import cache
from typing import Optional

from .engine import (
    CheckReport,
    IdentitySchema,
    Interpretation,
    SemanticError,
    Witness,
    check_all,
    op,
    tw,
    twist_gap,
    var,
    ZERO,
)
from .exact import LinearMap, ShapeError, StructureTensor, Vector
from .records import Record


class VarietyTag(str, Enum):
    HOM_ASSOCIATIVE = "hom-associative"
    HOM_LIE = "hom-lie"
    HOM_LEIBNIZ = "hom-leibniz"
    HOM_JORDAN = "hom-jordan"
    HOM_ZERO_DIALGEBRA = "hom-zero-dialgebra"
    HOM_ASSOCIATIVE_DIALGEBRA = "hom-associative-dialgebra"
    HOM_JORDAN_DIALGEBRA = "hom-jordan-dialgebra"
    HOM_ASSOCIATIVE_TRIALGEBRA = "hom-associative-trialgebra"
    HOM_LEIBNIZ_TRIALGEBRA = "hom-leibniz-trialgebra"
    HOM_JORDAN_TRIALGEBRA = "hom-jordan-trialgebra"
    HOM_TRIDENDRIFORM = "hom-tridendriform"


REQUIRED_PRODUCTS = {
    VarietyTag.HOM_ASSOCIATIVE: ("mul",),
    VarietyTag.HOM_LIE: ("bracket",),
    VarietyTag.HOM_LEIBNIZ: ("brace",),
    VarietyTag.HOM_JORDAN: ("circ",),
    VarietyTag.HOM_ZERO_DIALGEBRA: ("left", "right"),
    VarietyTag.HOM_ASSOCIATIVE_DIALGEBRA: ("left", "right"),
    VarietyTag.HOM_JORDAN_DIALGEBRA: ("bullet",),
    VarietyTag.HOM_ASSOCIATIVE_TRIALGEBRA: ("left", "right", "middle"),
    VarietyTag.HOM_LEIBNIZ_TRIALGEBRA: ("brace", "bracket"),
    VarietyTag.HOM_JORDAN_TRIALGEBRA: ("circ", "bullet"),
    VarietyTag.HOM_TRIDENDRIFORM: ("prec", "succ", "dot"),
}


class AlgebraInstance(Record):
    """A named carrier with products, linear maps, and a declared variety.

    products and maps are treated as immutable after construction; every
    tensor and the mandatory twist map "alpha" share the carrier dimension.
    """

    __slots__ = _fields = ("name", "dim", "products", "maps", "variety")

    def __init__(self, name: str, dim: int, products: dict, maps: dict,
                 variety: Optional[VarietyTag] = None):
        self.name = name
        self.dim = dim
        self.products = products
        self.maps = maps
        self.variety = variety
        if "alpha" not in self.maps:
            raise SemanticError(f"algebra {self.name!r} has no twist map 'alpha'")
        for sym, t in self.products.items():
            if (t.left_dim, t.right_dim, t.out_dim) != (self.dim,) * 3:
                raise ShapeError(f"product {sym!r} has wrong dims for {self.name!r}")
        for sym, m in self.maps.items():
            if (m.src_dim, m.dst_dim) != (self.dim, self.dim):
                raise ShapeError(f"map {sym!r} has wrong dims for {self.name!r}")

    @property
    def alpha(self) -> LinearMap:
        return self.maps["alpha"]

    def product(self, sym: str) -> StructureTensor:
        if sym not in self.products:
            raise SemanticError(f"algebra {self.name!r} has no product {sym!r}")
        return self.products[sym]

    def interpretation(self) -> Interpretation:
        sig = ("A", "A", "A")
        return Interpretation(
            sorts={"A": self.dim},
            ops={sym: (t, sig) for sym, t in self.products.items()},
            maps={sym: (m, ("A", "A")) for sym, m in self.maps.items()},
        )


# ---------------------------------------------------------------------------
# schema catalog

_x, _y, _z = var("x"), var("y"), var("z")
_x1, _x2, _x3, _x4 = var("x1"), var("x2"), var("x3"), var("x4")


def _a(e, k=1):
    return tw("alpha", e, k)


def associativity_schema(mul: str = "mul", name: str = "associativity") -> IdentitySchema:
    return IdentitySchema(
        name,
        op(mul, op(mul, _x, _y), _a(_z)),
        op(mul, _a(_x), op(mul, _y, _z)),
    )


def _lie_schemas():
    antisym = IdentitySchema(
        "antisymmetry", op("bracket", _x, _y), -op("bracket", _y, _x)
    )
    jacobi = IdentitySchema(
        "jacobi",
        op("bracket", _a(_x), op("bracket", _y, _z))
        + op("bracket", _a(_y), op("bracket", _z, _x))
        + op("bracket", _a(_z), op("bracket", _x, _y)),
        ZERO,
    )
    return [antisym, jacobi]


def _leibniz_schema() -> IdentitySchema:
    return IdentitySchema(
        "leibniz",
        op("brace", _a(_x), op("brace", _y, _z)),
        op("brace", op("brace", _x, _y), _a(_z)) + op("brace", _a(_y), op("brace", _x, _z)),
    )


def _jordan_schemas():
    comm = IdentitySchema("commutativity", op("circ", _x, _y), op("circ", _y, _x))
    sq = op("circ", _x, _x)
    jordan = IdentitySchema(
        "jordan",
        op("circ", _a(sq), op("circ", _a(_y), _a(_x))),
        op("circ", op("circ", sq, _a(_y)), _a(_x, 2)),
    )
    return [comm, jordan]


def _bar_schemas():
    bar_left = IdentitySchema(
        "bar-left",
        op("right", op("left", _x, _y), _a(_z)),
        op("right", op("right", _x, _y), _a(_z)),
    )
    bar_right = IdentitySchema(
        "bar-right",
        op("left", _a(_x), op("left", _y, _z)),
        op("left", _a(_x), op("right", _y, _z)),
    )
    return [bar_left, bar_right]


def _dialgebra_schemas():
    left_assoc = IdentitySchema(
        "left-associativity",
        op("left", op("left", _x, _y), _a(_z)),
        op("left", _a(_x), op("left", _y, _z)),
    )
    right_assoc = IdentitySchema(
        "right-associativity",
        op("right", op("right", _x, _y), _a(_z)),
        op("right", _a(_x), op("right", _y, _z)),
    )
    inner_assoc = IdentitySchema(
        "inner-associativity",
        op("left", op("right", _x, _y), _a(_z)),
        op("right", _a(_x), op("left", _y, _z)),
    )
    return _bar_schemas() + [left_assoc, right_assoc, inner_assoc]


def _jordan_dialgebra_schemas():
    def B(u, w):
        return op("bullet", u, w)

    d0 = IdentitySchema(
        "jordan-di-0", B(B(_x1, _x2), _x3), B(B(_x2, _x1), _x3)
    )
    d1 = IdentitySchema(
        "jordan-di-1",
        B(B(B(_x4, _x3), _a(_x2)), _a(_x1, 2))
        + B(_a(_x4, 2), B(_a(_x2), B(_x3, _x1)))
        + B(_a(_x3, 2), B(_a(_x2), B(_x4, _x1))),
        B(_a(B(_x4, _x3)), B(_a(_x2), _a(_x1)))
        + B(B(_a(_x4), _a(_x2)), _a(B(_x3, _x1)))
        + B(B(_a(_x3), _a(_x2)), _a(B(_x4, _x1))),
    )
    d2 = IdentitySchema(
        "jordan-di-2",
        B(_a(_x1, 2), B(B(_x4, _x3), _x2))
        + B(_a(_x4, 2), B(B(_x3, _x1), _x2))
        + B(_a(_x3, 2), B(B(_x4, _x1), _x2)),
        B(_a(B(_x4, _x3)), B(_a(_x1), _x2))
        + B(_a(B(_x1, _x3)), B(_a(_x4), _x2))
        + B(_a(B(_x4, _x1)), B(_a(_x3), _x2)),
    )
    return [d0, d1, d2]


def _trialgebra_schemas():
    L = lambda u, w: op("left", u, w)
    R = lambda u, w: op("right", u, w)
    M = lambda u, w: op("middle", u, w)
    mid_assoc = associativity_schema("middle", "middle-associativity")
    c1 = IdentitySchema("middle-compat-1", L(L(_x, _y), _a(_z)), L(_a(_x), M(_y, _z)))
    c2 = IdentitySchema("middle-compat-2", L(M(_x, _y), _a(_z)), M(_a(_x), L(_y, _z)))
    c3 = IdentitySchema("middle-compat-3", M(L(_x, _y), _a(_z)), M(_a(_x), R(_y, _z)))
    c4 = IdentitySchema("middle-compat-4", M(R(_x, _y), _a(_z)), R(_a(_x), M(_y, _z)))
    c5 = IdentitySchema("middle-compat-5", R(M(_x, _y), _a(_z)), R(_a(_x), R(_y, _z)))
    return _dialgebra_schemas() + [mid_assoc, c1, c2, c3, c4, c5]


def _leibniz_trialgebra_schemas():
    BR = lambda u, w: op("bracket", u, w)
    BC = lambda u, w: op("brace", u, w)
    t1 = IdentitySchema(
        "tri-leibniz-derivation",
        BC(_a(_x), BR(_y, _z)),
        BR(BC(_x, _y), _a(_z)) + BR(_a(_y), BC(_x, _z)),
    )
    t2 = IdentitySchema(
        "tri-leibniz-collapse",
        BC(BR(_x, _y), _a(_z)),
        BC(BC(_x, _y), _a(_z)),
    )
    return _lie_schemas() + [_leibniz_schema()] + [t1, t2]


def _jordan_trialgebra_schemas():
    C = lambda u, w: op("circ", u, w)
    B = lambda u, w: op("bullet", u, w)
    t0 = IdentitySchema(
        "jordan-tri-0",
        C(C(_a(_x1), _a(_x1)), B(_a(_x2), _a(_x1))),
        C(B(_a(_x2), C(_x1, _x1)), _a(_x1, 2)),
    )
    t1 = IdentitySchema(
        "jordan-tri-1",
        C(C(B(_x4, _x1), _a(_x3)), _a(_x2, 2))
        + C(C(B(_x4, _x2), _a(_x3)), _a(_x1, 2))
        + B(_a(_x4, 2), C(C(_x1, _x2), _a(_x3))),
        C(B(_a(_x4), C(_x1, _x2)), _a(_x3, 2))
        + C(B(_a(_x4), C(_x1, _x3)), _a(_x2, 2))
        + C(B(_a(_x4), C(_x2, _x3)), _a(_x1, 2)),
    )
    t2 = IdentitySchema(
        "jordan-tri-2",
        C(B(_a(_x3), B(_x4, _x1)), _a(_x2, 2))
        + C(B(_a(_x3), B(_x4, _x2)), _a(_x1, 2))
        + B(_a(_x4, 2), B(_a(_x3), C(_x1, _x2))),
        C(B(B(_x4, _x3), _a(_x2)), _a(_x1, 2))
        + B(_a(_x4, 2), C(B(_x3, _x1), _a(_x2)))
        + B(_a(_x3, 2), C(B(_x4, _x1), _a(_x2))),
    )
    t3 = IdentitySchema(
        "jordan-tri-3",
        C(B(_a(_x3), _a(_x1)), B(_a(_x4), _a(_x2)))
        + C(B(_a(_x4), _a(_x1)), B(_a(_x3), _a(_x2)))
        + B(B(_a(_x4), _a(_x3)), C(_a(_x1), _a(_x2))),
        C(B(B(_x4, _x3), _a(_x2)), _a(_x1, 2))
        + B(_a(_x4, 2), C(B(_x3, _x1), _a(_x2)))
        + B(_a(_x3, 2), C(B(_x4, _x1), _a(_x2))),
    )
    return _jordan_schemas() + _jordan_dialgebra_schemas() + [t0, t1, t2, t3]


def _tridendriform_schemas():
    P = lambda u, w: op("prec", u, w)
    S = lambda u, w: op("succ", u, w)
    D = lambda u, w: op("dot", u, w)
    all3 = lambda u, w: P(u, w) + S(u, w) + D(u, w)
    t1 = IdentitySchema("tridendriform-1", P(P(_x, _y), _a(_z)), P(_a(_x), all3(_y, _z)))
    t2 = IdentitySchema("tridendriform-2", P(S(_x, _y), _a(_z)), S(_a(_x), P(_y, _z)))
    t3 = IdentitySchema("tridendriform-3", S(_a(_x), S(_y, _z)), S(all3(_x, _y), _a(_z)))
    t4 = IdentitySchema("tridendriform-4", D(P(_x, _y), _a(_z)), D(_a(_x), S(_y, _z)))
    t5 = IdentitySchema("tridendriform-5", D(S(_x, _y), _a(_z)), S(_a(_x), D(_y, _z)))
    t6 = IdentitySchema("tridendriform-6", P(D(_x, _y), _a(_z)), D(_a(_x), P(_y, _z)))
    return [associativity_schema("dot", "dot-associativity"), t1, t2, t3, t4, t5, t6]


@cache
def schemas_for(tag: VarietyTag) -> tuple:
    """The fixed, named schemas defining a variety tag, built on first use.

    Every call returns the same schema objects, so checks reuse their plans.
    """
    if tag is VarietyTag.HOM_ASSOCIATIVE:
        return (associativity_schema(),)
    if tag is VarietyTag.HOM_LIE:
        return tuple(_lie_schemas())
    if tag is VarietyTag.HOM_LEIBNIZ:
        return (_leibniz_schema(),)
    if tag is VarietyTag.HOM_JORDAN:
        return tuple(_jordan_schemas())
    if tag is VarietyTag.HOM_ZERO_DIALGEBRA:
        return tuple(_bar_schemas())
    if tag is VarietyTag.HOM_ASSOCIATIVE_DIALGEBRA:
        return tuple(_dialgebra_schemas())
    if tag is VarietyTag.HOM_JORDAN_DIALGEBRA:
        return tuple(_jordan_dialgebra_schemas())
    if tag is VarietyTag.HOM_ASSOCIATIVE_TRIALGEBRA:
        return tuple(_trialgebra_schemas())
    if tag is VarietyTag.HOM_LEIBNIZ_TRIALGEBRA:
        return tuple(_leibniz_trialgebra_schemas())
    if tag is VarietyTag.HOM_JORDAN_TRIALGEBRA:
        return tuple(_jordan_trialgebra_schemas())
    if tag is VarietyTag.HOM_TRIDENDRIFORM:
        return tuple(_tridendriform_schemas())
    raise SemanticError(f"unknown variety tag {tag!r}")


def classical_jordan_dialgebra_schemas():
    """Untwisted defining identities (short, non-multilinear forms)."""
    B = lambda u, w: op("bullet", u, w)
    sq = B(_x, _x)
    c0 = IdentitySchema("classical-jordan-di-0", B(B(_x, _y), _z), B(B(_y, _x), _z))
    # associator identity (x^2, y, z) = 2 (x, y, x*z)
    assoc = lambda u, v, w: B(B(u, v), w) - B(u, B(v, w))
    c1 = IdentitySchema(
        "classical-jordan-di-1", assoc(sq, _y, _z), 2 * assoc(_x, _y, B(_x, _z))
    )
    c2 = IdentitySchema("classical-jordan-di-2", B(_x, B(sq, _y)), B(sq, B(_x, _y)))
    return [c0, c1, c2]


def classical_jordan_dialgebra_multilinear():
    """The equivalent multilinear (four-variable) identity list."""
    B = lambda u, w: op("bullet", u, w)
    m1 = IdentitySchema(
        "classical-jordan-di-m1",
        B(B(B(_x4, _x3), _x2), _x1)
        + B(_x4, B(_x2, B(_x3, _x1)))
        + B(_x3, B(_x2, B(_x4, _x1))),
        B(B(_x4, _x3), B(_x2, _x1))
        + B(B(_x4, _x2), B(_x3, _x1))
        + B(B(_x3, _x2), B(_x4, _x1)),
    )
    m2 = IdentitySchema(
        "classical-jordan-di-m2",
        B(_x1, B(B(_x4, _x3), _x2))
        + B(_x4, B(B(_x3, _x1), _x2))
        + B(_x3, B(B(_x4, _x1), _x2)),
        B(B(_x4, _x3), B(_x1, _x2))
        + B(B(_x1, _x3), B(_x4, _x2))
        + B(B(_x4, _x1), B(_x3, _x2)),
    )
    d0 = IdentitySchema(
        "classical-jordan-di-m0", B(B(_x1, _x2), _x3), B(B(_x2, _x1), _x3)
    )
    return [d0, m1, m2]


# ---------------------------------------------------------------------------
# certifiers


def certify(a: AlgebraInstance, tag: VarietyTag) -> CheckReport:
    """Pass iff every schema of the tag holds on all basis tuples of a."""
    missing = [sym for sym in REQUIRED_PRODUCTS[tag] if sym not in a.products]
    if missing:
        raise SemanticError(
            f"algebra {a.name!r} lacks products {missing} required by {tag.value}"
        )
    return check_all(schemas_for(tag), a.interpretation(), f"variety:{tag.value}")


@cache
def multiplicative_schema(sym: str) -> IdentitySchema:
    """alpha(x . y) = alpha(x) . alpha(y) for one product symbol, built once per symbol."""
    return IdentitySchema(f"multiplicative:{sym}", _a(op(sym, _x, _y)), op(sym, _a(_x), _a(_y)))


def certify_multiplicative(a: AlgebraInstance) -> CheckReport:
    """Pass iff the twist is an endomorphism for every product of a."""
    schemas = [multiplicative_schema(sym) for sym in sorted(a.products)]
    return check_all(schemas, a.interpretation(), "multiplicative")


def is_morphism(f: LinearMap, src: AlgebraInstance, dst: AlgebraInstance) -> CheckReport:
    """Pass iff f intertwines the twists and every product pairwise.

    The twist check f.alpha == alpha'.f is `engine.twist_gap`: it holds at
    once when both twists are identities (the flag is kept on each map), and
    is otherwise decided on the integer numerator columns with `square_gap`,
    cross-scaled by the twists' denominators (f's cancels); only a mismatch
    composes the maps, to build the witness sides at the first differing
    column j over f._d * alpha._d and alpha'._d * f._d.  Then, per product
    symbol in sorted order and per left index i, both sides of
    f(e_i e_j) = f(e_i) f(e_j) are built for every j at once on integer
    numerators, one flat list each: f(e_i e_j) over f._d * ts._d from the
    sparse columns f stores, and f(e_i) f(e_j) over f._d**2 * td._d from the
    nonzero entries of td and of f.  The tensors are read as the sparse
    rows they store, so no zero entry is visited.  f is read directly and
    never through `engine._power`, which would keep the engine's data on
    each fresh leaf of the endomorphism search; that measured slower.  The
    two lists are compared once, cross-scaled; only a mismatch locates its
    first j and builds the witness sides as `Vector`s over those same
    denominators.  A map that fails stops after the block of its first
    failing i, and the counters are those of a pair-by-pair loop that stops
    at the first witness.
    """
    if f.src_dim != src.dim or f.dst_dim != dst.dim:
        raise ShapeError("morphism candidate has wrong dimensions")
    if src.products.keys() != dst.products.keys():
        raise SemanticError(
            f"{src.name!r} and {dst.name!r} expose different product symbols"
        )
    check_id = "morphism"
    sa, da = src.alpha, dst.alpha
    j = twist_gap(f._cols, da, sa)
    if j is not None:  # column j of each side: f(alpha e_j), alpha'(f e_j)
        return CheckReport(
            "fail",
            check_id,
            witness=Witness(
                identity="twist-intertwine",
                variables=(("x", "A"),),
                indices=(j,),
                lhs_value=f.compose(sa).column(j),
                rhs_value=da.compose(f).column(j),
            ),
            detail="f . alpha != alpha' . f",
        )
    n, m, fd, cols = src.dim, dst.dim, f._d, f._cols
    rows = f._transposed(m)  # row q of f keyed by the flat offset j * m of its column
    syms = sorted(src.products)
    for s, sym in enumerate(syms):
        ts, td = src.products[sym], dst.products[sym]
        # the nonzero entries t = td[p][q][k] with row q of f nonzero, by p
        terms = [[(rows[q], k, t) for q, row in enumerate(plane) if row and rows[q]
                  for k, t in row] for plane in td._rows]
        sl, sr = fd * td._d, ts._d  # lhs / (fd ts._d) == rhs / (fd^2 td._d)
        for i, plane in enumerate(ts._rows):
            lhs = [0] * (n * m)  # f(e_i e_j)[k] at j * m + k
            at = 0
            for row in plane:
                for c, x in row:
                    for k, y in cols[c]:
                        lhs[at + k] += x * y
                at += m
            rhs = [0] * (n * m)  # (f(e_i) f(e_j))[k], same layout
            for p, x in cols[i]:
                for rq, k, t in terms[p]:
                    xt = x * t
                    for aj, y in rq:
                        rhs[aj + k] += xt * y
            a, b = (lhs, rhs) if sl == sr else ([x * sl for x in lhs], [y * sr for y in rhs])
            if a != b:
                j = next(e for e, (x, y) in enumerate(zip(a, b)) if x != y) // m
                count = s * n * n + i * n + j + 1
                return CheckReport(
                    "fail",
                    check_id,
                    witness=Witness(
                        identity=f"morphism:{sym}",
                        variables=(("x", "A"), ("y", "A")),
                        indices=(i, j),
                        lhs_value=Vector._make(lhs[j * m:(j + 1) * m], fd * ts._d),
                        rhs_value=Vector._make(rhs[j * m:(j + 1) * m], fd * fd * td._d),
                    ),
                    tuples_checked=count,
                    tuples_evaluated=count,
                    prefixes_visited=s * n + i + 1,
                )
    count = len(syms) * n * n
    return CheckReport("pass", check_id, tuples_checked=count, tuples_evaluated=count,
                       prefixes_visited=len(syms) * n)


def endomorphism_clauses(a: AlgebraInstance):
    """The coordinate clauses of `is_morphism(f, a, a)`, f an unknown matrix.

    Entry f[r][c] is the unknown r * dim + c, and the unknown dim * dim
    stands for the constant 1.  Each clause is a tuple of sparse integer
    terms (coeff, u, v) with u <= v, read as the sum of coeff * f_u * f_v,
    and f is an endomorphism of a iff every clause is zero.  The clauses
    come in `is_morphism`'s order: one per (column j, coordinate k) of
    f.alpha = alpha.f, then one per (symbol, i, j, coordinate k) of
    f(e_i e_j) = f(e_i) f(e_j), each scaled by the integer denominator of
    its twist or tensor.  Clauses whose terms cancel are left out.
    """
    n = a.dim
    one = n * n
    out = []

    def add(terms):
        clause = tuple((c, u, v) for (u, v), c in sorted(terms.items()) if c)
        if clause:
            out.append(clause)

    acols, arows = a.alpha._cols, a.alpha._transposed()
    for j in range(n):
        for k in range(n):
            terms = defaultdict(int)
            for m, x in acols[j]:
                terms[k * n + m, one] += x
            for m, x in arows[k]:
                terms[m * n + j, one] -= x
            add(terms)
    for sym in sorted(a.products):
        rows = a.products[sym]._rows
        by_k = [[] for _ in range(n)]  # the nonzero t[p][q][k] as (p, q, t), by k
        for p, plane in enumerate(rows):
            for q, row in enumerate(plane):
                for k, x in row:
                    by_k[k].append((p, q, x))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    terms = defaultdict(int)
                    for m, x in rows[i][j]:
                        terms[k * n + m, one] += x
                    for p, q, x in by_k[k]:
                        terms[tuple(sorted((p * n + i, q * n + j)))] -= x
                    add(terms)
    return out

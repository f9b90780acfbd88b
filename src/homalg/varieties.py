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

from enum import Enum
from functools import cache
from typing import Optional

from .engine import (
    CheckReport,
    IdentitySchema,
    Interpretation,
    SemanticError,
    Witness,
    _tensor,
    check_all,
    identity,
    twist_gap,
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

# Each variety's identities are (name, text) rows in the identity notation
# (`engine.identity`), read on first use.

_ASSOCIATIVE = (("associativity", "mul(mul(x, y), alpha(z)) = mul(alpha(x), mul(y, z))"),)
_LIE = (
    ("antisymmetry", "bracket(x, y) = -bracket(y, x)"),
    ("jacobi", "bracket(alpha(x), bracket(y, z)) + bracket(alpha(y), bracket(z, x))"
               " + bracket(alpha(z), bracket(x, y)) = 0"),
)
_LEIBNIZ = (("leibniz", "brace(alpha(x), brace(y, z))"
                        " = brace(brace(x, y), alpha(z)) + brace(alpha(y), brace(x, z))"),)
_JORDAN = (
    ("commutativity", "circ(x, y) = circ(y, x)"),
    ("jordan", "circ(alpha(circ(x, x)), circ(alpha(y), alpha(x)))"
               " = circ(circ(circ(x, x), alpha(y)), alpha^2(x))"),
)
_BAR = (
    ("bar-left", "right(left(x, y), alpha(z)) = right(right(x, y), alpha(z))"),
    ("bar-right", "left(alpha(x), left(y, z)) = left(alpha(x), right(y, z))"),
)
_DIALGEBRA = _BAR + (
    ("left-associativity", "left(left(x, y), alpha(z)) = left(alpha(x), left(y, z))"),
    ("right-associativity", "right(right(x, y), alpha(z)) = right(alpha(x), right(y, z))"),
    ("inner-associativity", "left(right(x, y), alpha(z)) = right(alpha(x), left(y, z))"),
)
_JORDAN_DIALGEBRA = (
    ("jordan-di-0", "bullet(bullet(x1, x2), x3) = bullet(bullet(x2, x1), x3)"),
    ("jordan-di-1", "bullet(bullet(bullet(x4, x3), alpha(x2)), alpha^2(x1))"
                    " + bullet(alpha^2(x4), bullet(alpha(x2), bullet(x3, x1)))"
                    " + bullet(alpha^2(x3), bullet(alpha(x2), bullet(x4, x1)))"
                    " = bullet(alpha(bullet(x4, x3)), bullet(alpha(x2), alpha(x1)))"
                    " + bullet(bullet(alpha(x4), alpha(x2)), alpha(bullet(x3, x1)))"
                    " + bullet(bullet(alpha(x3), alpha(x2)), alpha(bullet(x4, x1)))"),
    ("jordan-di-2", "bullet(alpha^2(x1), bullet(bullet(x4, x3), x2))"
                    " + bullet(alpha^2(x4), bullet(bullet(x3, x1), x2))"
                    " + bullet(alpha^2(x3), bullet(bullet(x4, x1), x2))"
                    " = bullet(alpha(bullet(x4, x3)), bullet(alpha(x1), x2))"
                    " + bullet(alpha(bullet(x1, x3)), bullet(alpha(x4), x2))"
                    " + bullet(alpha(bullet(x4, x1)), bullet(alpha(x3), x2))"),
)
_TRIALGEBRA = _DIALGEBRA + (
    ("middle-associativity", "middle(middle(x, y), alpha(z)) = middle(alpha(x), middle(y, z))"),
    ("middle-compat-1", "left(left(x, y), alpha(z)) = left(alpha(x), middle(y, z))"),
    ("middle-compat-2", "left(middle(x, y), alpha(z)) = middle(alpha(x), left(y, z))"),
    ("middle-compat-3", "middle(left(x, y), alpha(z)) = middle(alpha(x), right(y, z))"),
    ("middle-compat-4", "middle(right(x, y), alpha(z)) = right(alpha(x), middle(y, z))"),
    ("middle-compat-5", "right(middle(x, y), alpha(z)) = right(alpha(x), right(y, z))"),
)
_LEIBNIZ_TRIALGEBRA = _LIE + _LEIBNIZ + (
    ("tri-leibniz-derivation", "brace(alpha(x), bracket(y, z))"
                               " = bracket(brace(x, y), alpha(z)) + bracket(alpha(y), brace(x, z))"),
    ("tri-leibniz-collapse", "brace(bracket(x, y), alpha(z)) = brace(brace(x, y), alpha(z))"),
)
_JORDAN_TRI_RHS = ("circ(bullet(bullet(x4, x3), alpha(x2)), alpha^2(x1))"
                   " + bullet(alpha^2(x4), circ(bullet(x3, x1), alpha(x2)))"
                   " + bullet(alpha^2(x3), circ(bullet(x4, x1), alpha(x2)))")
_JORDAN_TRIALGEBRA = _JORDAN + _JORDAN_DIALGEBRA + (
    ("jordan-tri-0", "circ(circ(alpha(x1), alpha(x1)), bullet(alpha(x2), alpha(x1)))"
                     " = circ(bullet(alpha(x2), circ(x1, x1)), alpha^2(x1))"),
    ("jordan-tri-1", "circ(circ(bullet(x4, x1), alpha(x3)), alpha^2(x2))"
                     " + circ(circ(bullet(x4, x2), alpha(x3)), alpha^2(x1))"
                     " + bullet(alpha^2(x4), circ(circ(x1, x2), alpha(x3)))"
                     " = circ(bullet(alpha(x4), circ(x1, x2)), alpha^2(x3))"
                     " + circ(bullet(alpha(x4), circ(x1, x3)), alpha^2(x2))"
                     " + circ(bullet(alpha(x4), circ(x2, x3)), alpha^2(x1))"),
    ("jordan-tri-2", "circ(bullet(alpha(x3), bullet(x4, x1)), alpha^2(x2))"
                     " + circ(bullet(alpha(x3), bullet(x4, x2)), alpha^2(x1))"
                     " + bullet(alpha^2(x4), bullet(alpha(x3), circ(x1, x2)))"
                     " = " + _JORDAN_TRI_RHS),
    ("jordan-tri-3", "circ(bullet(alpha(x3), alpha(x1)), bullet(alpha(x4), alpha(x2)))"
                     " + circ(bullet(alpha(x4), alpha(x1)), bullet(alpha(x3), alpha(x2)))"
                     " + bullet(bullet(alpha(x4), alpha(x3)), circ(alpha(x1), alpha(x2)))"
                     " = " + _JORDAN_TRI_RHS),
)
_TRIDENDRIFORM = (
    ("dot-associativity", "dot(dot(x, y), alpha(z)) = dot(alpha(x), dot(y, z))"),
    ("tridendriform-1", "prec(prec(x, y), alpha(z))"
                        " = prec(alpha(x), prec(y, z) + succ(y, z) + dot(y, z))"),
    ("tridendriform-2", "prec(succ(x, y), alpha(z)) = succ(alpha(x), prec(y, z))"),
    ("tridendriform-3", "succ(alpha(x), succ(y, z))"
                        " = succ(prec(x, y) + succ(x, y) + dot(x, y), alpha(z))"),
    ("tridendriform-4", "dot(prec(x, y), alpha(z)) = dot(alpha(x), succ(y, z))"),
    ("tridendriform-5", "dot(succ(x, y), alpha(z)) = succ(alpha(x), dot(y, z))"),
    ("tridendriform-6", "prec(dot(x, y), alpha(z)) = dot(alpha(x), prec(y, z))"),
)
_SCHEMAS = {
    VarietyTag.HOM_ASSOCIATIVE: _ASSOCIATIVE,
    VarietyTag.HOM_LIE: _LIE,
    VarietyTag.HOM_LEIBNIZ: _LEIBNIZ,
    VarietyTag.HOM_JORDAN: _JORDAN,
    VarietyTag.HOM_ZERO_DIALGEBRA: _BAR,
    VarietyTag.HOM_ASSOCIATIVE_DIALGEBRA: _DIALGEBRA,
    VarietyTag.HOM_JORDAN_DIALGEBRA: _JORDAN_DIALGEBRA,
    VarietyTag.HOM_ASSOCIATIVE_TRIALGEBRA: _TRIALGEBRA,
    VarietyTag.HOM_LEIBNIZ_TRIALGEBRA: _LEIBNIZ_TRIALGEBRA,
    VarietyTag.HOM_JORDAN_TRIALGEBRA: _JORDAN_TRIALGEBRA,
    VarietyTag.HOM_TRIDENDRIFORM: _TRIDENDRIFORM,
}


def associativity_schema() -> IdentitySchema:
    return identity(*_ASSOCIATIVE[0])


@cache
def schemas_for(tag: VarietyTag) -> tuple:
    """The fixed, named schemas defining a variety tag, built on first use.

    Every call returns the same schema objects, so checks reuse their plans.
    """
    rows = _SCHEMAS.get(tag)
    if rows is None:
        raise SemanticError(f"unknown variety tag {tag!r}")
    return tuple(identity(name, text) for name, text in rows)


def classical_jordan_dialgebra_schemas():
    """Untwisted defining identities (short, non-multilinear forms)."""
    return [identity(name, text) for name, text in (
        ("classical-jordan-di-0", "bullet(bullet(x, y), z) = bullet(bullet(y, x), z)"),
        # associator identity (x^2, y, z) = 2 (x, y, x*z)
        ("classical-jordan-di-1", "bullet(bullet(bullet(x, x), y), z)"
                                  " - bullet(bullet(x, x), bullet(y, z))"
                                  " = 2 * (bullet(bullet(x, y), bullet(x, z))"
                                  " - bullet(x, bullet(y, bullet(x, z))))"),
        ("classical-jordan-di-2",
         "bullet(x, bullet(bullet(x, x), y)) = bullet(bullet(x, x), bullet(x, y))"),
    )]


def classical_jordan_dialgebra_multilinear():
    """The equivalent multilinear (four-variable) identity list."""
    return [identity(name, text) for name, text in (
        ("classical-jordan-di-m0", "bullet(bullet(x1, x2), x3) = bullet(bullet(x2, x1), x3)"),
        ("classical-jordan-di-m1", "bullet(bullet(bullet(x4, x3), x2), x1)"
                                   " + bullet(x4, bullet(x2, bullet(x3, x1)))"
                                   " + bullet(x3, bullet(x2, bullet(x4, x1)))"
                                   " = bullet(bullet(x4, x3), bullet(x2, x1))"
                                   " + bullet(bullet(x4, x2), bullet(x3, x1))"
                                   " + bullet(bullet(x3, x2), bullet(x4, x1))"),
        ("classical-jordan-di-m2", "bullet(x1, bullet(bullet(x4, x3), x2))"
                                   " + bullet(x4, bullet(bullet(x3, x1), x2))"
                                   " + bullet(x3, bullet(bullet(x4, x1), x2))"
                                   " = bullet(bullet(x4, x3), bullet(x1, x2))"
                                   " + bullet(bullet(x1, x3), bullet(x4, x2))"
                                   " + bullet(bullet(x4, x1), bullet(x3, x2))"),
    )]


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
    return identity(f"multiplicative:{sym}", f"alpha({sym}(x, y)) = {sym}(alpha(x), alpha(y))")


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
    nonzero entries of td and of f.  Each tensor is read through
    `engine._tensor(t, "pairs")`, its nonzero rows (i, j) listed per i, built
    once and kept on the tensor, so no zero row or entry is visited and nothing
    about the tensor is rebuilt per call.  f is read directly and never
    through `engine._power`, which would keep the engine's data on each
    fresh leaf of the endomorphism search; that measured slower.  The
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
        by_i, by_p = _tensor(ts, "pairs"), _tensor(td, "pairs")
        sl, sr = fd * td._d, ts._d  # lhs / (fd ts._d) == rhs / (fd^2 td._d)
        for i in range(n):
            lhs = [0] * (n * m)  # f(e_i e_j)[k] at j * m + k
            for j, row in by_i[i]:
                at = j * m
                for c, x in row:
                    for k, y in cols[c]:
                        lhs[at + k] += x * y
            rhs = [0] * (n * m)  # (f(e_i) f(e_j))[k], same layout
            for p, x in cols[i]:
                for q, row in by_p[p]:
                    rq = rows[q]
                    if rq:
                        for k, t in row:
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

    One pass over the nonzero coefficients: a (j, k) or (i, j, k) with no
    terms is skipped, one whose terms cannot meet is written out directly,
    and the rest are summed in a plain dict keyed by u * (dim * dim + 1) + v.
    """
    n = a.dim
    one = n * n
    w = one + 1
    out = []
    acols, arows = a.alpha._cols, a.alpha._transposed(n)  # arows[k]: (m * n, x)
    for j, col in enumerate(acols):
        for k, row in enumerate(arows):
            if not row:
                if col:
                    out.append(tuple((x, k * n + m, one) for m, x in col))
                continue
            terms = {k * n + m: x for m, x in col}
            for mn, x in row:
                u = mn + j
                terms[u] = terms.get(u, 0) - x
            clause = tuple((c, u, one) for u, c in sorted(terms.items()) if c)
            if clause:
                out.append(clause)
    for sym in sorted(a.products):
        rows = a.products[sym]._rows
        by_k = [[] for _ in range(n)]  # the nonzero t[p][q][k] as (p * n, q * n, t), by k
        for p, plane in enumerate(rows):
            for q, row in enumerate(plane):
                for k, x in row:
                    by_k[k].append((p * n, q * n, x))
        for i, plane in enumerate(rows):
            for j, row in enumerate(plane):
                for k, pq in enumerate(by_k):
                    if not pq:
                        if row:
                            out.append(tuple((x, k * n + m, one) for m, x in row))
                        continue
                    terms = {(k * n + m) * w + one: x for m, x in row}
                    for pn, qn, x in pq:
                        u, v = pn + i, qn + j
                        key = u * w + v if u <= v else v * w + u
                        terms[key] = terms.get(key, 0) - x
                    clause = []
                    for key in sorted(terms):
                        c = terms[key]
                        if c:
                            u, v = divmod(key, w)
                            clause.append((c, u, v))
                    if clause:
                        out.append(tuple(clause))
    return out

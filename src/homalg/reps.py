"""Representations and actions of associative, Lie and Jordan Hom-algebras.

Action tensors are stored with the algebra argument first: a mixed tensor
t with signature (A, V, V) holds t[i][j][k] = coefficient of u_k in the
image of (e_i, u_j).  In particular the right action r is stored as r(x)u
even though it is rendered r(x)u = u . x.

Each of the six classes states its kind once, in class attributes, and
everything else (the axioms, the builders, the semidirect tensor, the DSL
rows) reads them:

- `kind` and `variety`: its name and the variety of its base algebra;
- `acts`: its action symbols, ("l", "r") for a bimodule or an associative
  action, ("rho",) or ("pi",) for a Lie or Jordan one;
- `vprod`: its product on V ("vmul", "vbracket" or "vstar"), None for a
  module; an action class subclasses its module class;
- `sign`, for the one-action families (Lie -1, Jordan +1): in a semidirect
  product the action from the right is `sign` times the action from the
  left, u . y = sign * (y . u).
"""

from __future__ import annotations

from functools import cache, reduce

from .engine import (
    CheckReport,
    IdentitySchema,
    Interpretation,
    SemanticError,
    check_all,
    op,
    rewrite,
    tw,
    var,
)
from .exact import LinearMap, ShapeError, StructureTensor
from .records import Record
from .varieties import (
    REQUIRED_PRODUCTS,
    AlgebraInstance,
    VarietyTag,
    certify,
    schemas_for,
)


class CertificationError(ValueError):
    """A gated builder received or produced data that fails certification."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def _gate(report: CheckReport, what: str) -> None:
    if not report.ok:
        raise CertificationError(f"{what}: {report!r}", report)


# ---------------------------------------------------------------------------
# types


class _Rep(Record):
    """What every representation kind shares.  A subclass is a record whose
    fields are base, v_dim, its actions (`acts`), beta and its product on V
    (`vprod`, None by default); it states `__slots__` for the fields it adds."""

    __slots__ = ("base", "v_dim", "beta")
    vprod = None

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = ("base", "v_dim", *cls.acts, "beta") + ((cls.vprod,) if cls.vprod else ())

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for field, value in zip(fields, args):
            setattr(self, field, value)
        n, m = self.base.dim, self.v_dim
        for sym in self.acts:
            t = getattr(self, sym)
            if (t.left_dim, t.right_dim, t.out_dim) != (n, m, m):
                raise ShapeError(f"action tensor {sym!r} has wrong dims")
        if (self.beta.src_dim, self.beta.dst_dim) != (m, m):
            raise ShapeError("beta has wrong dims")
        if self.vprod:
            t = getattr(self, self.vprod)
            if t is None:
                raise SemanticError(f"{self.kind} requires a product {self.vprod!r} on V")
            if (t.left_dim, t.right_dim, t.out_dim) != (m, m, m):
                raise ShapeError(f"product {self.vprod!r} on V has wrong dims")

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values of a call given by keyword or with `vprod` left out."""
        fields, name = cls._fields, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields or field in values:
                raise TypeError(f"{name}() got an unexpected or repeated field {field!r}")
            values[field] = value
        if cls.vprod:
            values.setdefault(cls.vprod, None)
        missing = [field for field in fields if field not in values]
        if missing:
            raise TypeError(f"{name}() is missing fields {missing}")
        return [values[field] for field in fields]

    def action_ops(self):
        return {sym: getattr(self, sym) for sym in self.acts}

    def v_ops(self):
        return {self.vprod: getattr(self, self.vprod)} if self.vprod else {}

    def interpretation(self) -> Interpretation:
        base = self.base.interpretation()
        sorts = dict(base.sorts)
        sorts["V"] = self.v_dim
        ops = dict(base.ops)
        for sym, t in self.action_ops().items():
            ops[sym] = (t, ("A", "V", "V"))
        for sym, t in self.v_ops().items():
            ops[sym] = (t, ("V", "V", "V"))
        maps = dict(base.maps)
        maps["beta"] = (self.beta, ("V", "V"))
        return Interpretation(sorts=sorts, ops=ops, maps=maps)


class AssocBimodule(_Rep):
    """Two action maps l, r on V with a twist beta, over an associative base."""

    __slots__ = acts = ("l", "r")
    kind = "bimodule"
    variety = VarietyTag.HOM_ASSOCIATIVE


class AssocAction(AssocBimodule):
    """A bimodule where V also carries a compatible associative product."""

    __slots__ = ("vmul",)
    kind = "action"
    vprod = "vmul"


class LieModule(_Rep):
    __slots__ = acts = ("rho",)
    kind = "lie-module"
    variety = VarietyTag.HOM_LIE
    sign = -1


class LieAction(LieModule):
    __slots__ = ("vbracket",)
    kind = "lie-action"
    vprod = "vbracket"


class JordanModule(_Rep):
    __slots__ = acts = ("pi",)
    kind = "jordan-module"
    variety = VarietyTag.HOM_JORDAN
    sign = 1


class JordanAction(JordanModule):
    __slots__ = ("vstar",)
    kind = "jordan-action"
    vprod = "vstar"


REP_CLASSES = (AssocBimodule, AssocAction, LieModule, LieAction, JordanModule, JordanAction)
REP_KINDS = tuple(cls.kind for cls in REP_CLASSES)


# ---------------------------------------------------------------------------
# axiom schemas

_x, _y, _z = var("x"), var("y"), var("z")
_u, _v, _w = var("u", "V"), var("v", "V"), var("w", "V")


def _a(e, k=1):
    return tw("alpha", e, k)


def _b(e, k=1):
    return tw("beta", e, k)


def _variety_on_v(cls):
    """The axioms of cls's variety moved to sort V, twist beta and product cls.vprod."""
    (sym,) = REQUIRED_PRODUCTS[cls.variety]
    out = []
    for s in schemas_for(cls.variety):
        moved = {name: var(name, "V") for name, _, _ in s.variables}
        lhs, rhs = (rewrite(e, vars=moved, maps={"alpha": "beta"}, ops={sym: cls.vprod})
                    for e in (s.lhs, s.rhs))
        out.append(IdentitySchema(f"{s.name}@V", lhs, rhs))
    return out


def _bimodule_axioms():
    L = lambda a, m: op("l", a, m)
    R = lambda a, m: op("r", a, m)
    mul = lambda a, c: op("mul", a, c)
    return [
        IdentitySchema("beta-left-intertwine", _b(L(_x, _u)), L(_a(_x), _b(_u))),
        IdentitySchema("beta-right-intertwine", _b(R(_x, _u)), R(_a(_x), _b(_u))),
        IdentitySchema("left-composition", L(mul(_x, _y), _b(_u)), L(_a(_x), L(_y, _u))),
        IdentitySchema("right-composition", R(mul(_x, _y), _b(_u)), R(_a(_y), R(_x, _u))),
        IdentitySchema("left-right-commute", L(_a(_x), R(_y, _u)), R(_a(_y), L(_x, _u))),
    ]


def _action_axioms():
    L = lambda a, m: op("l", a, m)
    R = lambda a, m: op("r", a, m)
    VM = lambda m, m2: op("vmul", m, m2)
    return [
        IdentitySchema("action-left-product", L(_a(_x), VM(_u, _v)), VM(L(_x, _u), _b(_v))),
        IdentitySchema("action-right-product", R(_a(_x), VM(_u, _v)), VM(_b(_u), R(_x, _v))),
        IdentitySchema("action-inner-product", VM(_b(_u), L(_x, _v)), VM(R(_x, _u), _b(_v))),
    ]


def _lie_module_axioms():
    P = lambda a, m: op("rho", a, m)
    br = lambda a, c: op("bracket", a, c)
    return [
        IdentitySchema("module-intertwine", P(_a(_x), _b(_u)), _b(P(_x, _u))),
        IdentitySchema(
            "module-bracket",
            P(br(_x, _y), _b(_u)),
            P(_a(_x), P(_y, _u)) - P(_a(_y), P(_x, _u)),
        ),
    ]


def _lie_action_axioms():
    P = lambda a, m: op("rho", a, m)
    VB = lambda m, m2: op("vbracket", m, m2)
    return [
        IdentitySchema(
            "action-bracket",
            P(_a(_x), VB(_u, _v)),
            VB(P(_x, _u), _b(_v)) + VB(_b(_u), P(_x, _v)),
        )
    ]


def _jordan_module_axioms():
    P = lambda a, m: op("pi", a, m)
    C = lambda a, c: op("circ", a, c)
    s0 = IdentitySchema("module-intertwine", _b(P(_x, _u)), P(_a(_x), _b(_u)))
    s1 = IdentitySchema(
        "module-linear-1",
        P(_a(_x, 2), P(C(_y, _z), _b(_u)))
        + P(_a(_y, 2), P(C(_z, _x), _b(_u)))
        + P(_a(_z, 2), P(C(_x, _y), _b(_u))),
        P(C(_a(_x), _a(_y)), P(_a(_z), _b(_u)))
        + P(C(_a(_y), _a(_z)), P(_a(_x), _b(_u)))
        + P(C(_a(_z), _a(_x)), P(_a(_y), _b(_u))),
    )
    s2 = IdentitySchema(
        "module-linear-2",
        P(C(C(_x, _y), _a(_z)), _b(_u, 2))
        + P(_a(_x, 2), P(_a(_z), P(_y, _u)))
        + P(_a(_y, 2), P(_a(_z), P(_x, _u))),
        P(C(_a(_x), _a(_y)), P(_a(_z), _b(_u)))
        + P(C(_a(_y), _a(_z)), P(_a(_x), _b(_u)))
        + P(C(_a(_x), _a(_z)), P(_a(_y), _b(_u))),
    )
    return [s0, s1, s2]


def _jordan_action_axioms():
    P = lambda a, m: op("pi", a, m)
    C = lambda a, c: op("circ", a, c)
    S = lambda m, m2: op("vstar", m, m2)
    cubic = IdentitySchema(
        "action-cubic",
        S(P(_a(_x), _b(_v)), S(_b(_v), _b(_v))),
        S(P(_a(_x), S(_v, _v)), _b(_v, 2)),
    )
    lin1 = IdentitySchema(
        "action-linear-1",
        S(S(P(_x, _u), _b(_w)), _b(_v, 2))
        + S(S(P(_x, _v), _b(_w)), _b(_u, 2))
        + P(_a(_x, 2), S(S(_u, _v), _b(_w))),
        S(P(_a(_x), S(_u, _v)), _b(_w, 2))
        + S(P(_a(_x), S(_u, _w)), _b(_v, 2))
        + S(P(_a(_x), S(_v, _w)), _b(_u, 2)),
    )
    rhs23 = (
        S(P(C(_x, _y), _b(_v)), _b(_u, 2))
        + P(_a(_x, 2), S(P(_y, _u), _b(_v)))
        + P(_a(_y, 2), S(P(_x, _u), _b(_v)))
    )
    lin2 = IdentitySchema(
        "action-linear-2",
        S(P(_a(_y), P(_x, _u)), _b(_v, 2))
        + S(P(_a(_y), P(_x, _v)), _b(_u, 2))
        + P(_a(_x, 2), P(_a(_y), S(_u, _v))),
        rhs23,
    )
    lin3 = IdentitySchema(
        "action-linear-3",
        S(P(_a(_y), _u), P(_a(_x), _v))
        + S(P(_a(_x), _u), P(_a(_y), _v))
        + P(C(_a(_x), _a(_y)), S(_b(_u), _b(_v))),
        rhs23,
    )
    return [cubic, lin1, lin2, lin3]


# the axioms each kind adds to those it inherits (see _rep_schemas)
_OWN_AXIOMS = {
    "bimodule": _bimodule_axioms,
    "action": _action_axioms,
    "lie-module": _lie_module_axioms,
    "lie-action": _lie_action_axioms,
    "jordan-module": _jordan_module_axioms,
    "jordan-action": _jordan_action_axioms,
}


@cache
def _rep_schemas(kind: str) -> tuple:
    """The axioms of a representation kind, built on first use; every call
    returns the same schema objects, so checks reuse their plans.

    A module's axioms are its own.  An action's are its module's (the same
    objects), then its own, then its variety's axioms moved to V.
    """
    cls = next(c for c in REP_CLASSES if c.kind == kind)
    own = tuple(_OWN_AXIOMS[kind]())
    if cls.vprod is None:
        return own
    return _rep_schemas(cls.__base__.kind) + own + tuple(_variety_on_v(cls))


def certify_rep(rep) -> CheckReport:
    """Pass iff every axiom of the representation/action kind holds."""
    return check_all(_rep_schemas(rep.kind), rep.interpretation(), f"rep:{rep.kind}")


# ---------------------------------------------------------------------------
# builders


def regular(a: AlgebraInstance, cls):
    """A acting on itself as a cls: V = A, beta = alpha, each action the
    product of A (a right action r(x)u = u.x) and, for an action, the
    product of A on V."""
    return _copies(a, 1, cls, f"regular({a.name}, {cls.__name__})")


def direct_sum(a: AlgebraInstance, n: int, cls):
    """V = A^n with componentwise actions and, for an action, componentwise product."""
    if n < 1:
        raise SemanticError(f"direct_sum needs n >= 1, got {n}")
    return _copies(a, n, cls, f"direct_sum({a.name}, {n}, {cls.__name__})")


def _copies(a: AlgebraInstance, n: int, cls, what: str):
    """The cls built by regular and direct_sum, gated on both sides."""
    _gate(certify(a, cls.variety), what)
    (sym,) = REQUIRED_PRODUCTS[cls.variety]
    prod = a.product(sym)
    sides = (prod, prod.opposite())
    fields = {act: _componentwise(t, n, a.dim, "action") for act, t in zip(cls.acts, sides)}
    if cls.vprod:
        fields[cls.vprod] = _componentwise(prod, n, a.dim, "product")
    rep = cls(a, a.dim * n, beta=reduce(LinearMap.direct_sum, [a.alpha] * n), **fields)
    _gate(certify_rep(rep), f"{what} output")
    return rep


def tensor_square_bimodule(a: AlgebraInstance) -> AssocBimodule:
    """V = A (x) A with l(x)(a(x)b) = (x.a)(x)b and r(x)(a(x)b) = a(x)(b.x).

    Basis ordering is row-major: e_i (x) e_j sits at index i*n + j.
    """
    _gate(certify(a, VarietyTag.HOM_ASSOCIATIVE), f"tensor_square_bimodule({a.name})")
    n = a.dim
    m = n * n
    mul = a.product("mul")
    l = [[[0] * m for _ in range(m)] for _ in range(n)]
    r = [[[0] * m for _ in range(m)] for _ in range(n)]
    for i, plane in enumerate(mul._n):
        for j, row in enumerate(plane):
            for t, c in enumerate(row):
                if c:  # e_i e_j = ... + c e_t
                    for k in range(n):
                        l[i][j * n + k][t * n + k] = c  # l(e_i)(e_j (x) e_k)
                        r[j][k * n + i][k * n + t] = c  # r(e_j)(e_k (x) e_i)
    rep = AssocBimodule(a, m, StructureTensor._lowest(l, mul._d, n, m, m),
                        StructureTensor._lowest(r, mul._d, n, m, m), a.alpha.tensor(a.alpha))
    _gate(certify_rep(rep), f"tensor_square_bimodule({a.name}) output")
    return rep


def _componentwise(t: StructureTensor, copies: int, a_dim: int, slot: str) -> StructureTensor:
    """Spread a square or action tensor over V = A^copies, component by component;
    one copy is t itself."""
    if copies == 1:
        return t
    n, m = a_dim, a_dim * copies
    ld = n if slot == "action" else m
    return StructureTensor.place(
        (ld, m, m), [(t, (0 if slot == "action" else c * n, c * n, c * n), False)
                     for c in range(copies)])


# ---------------------------------------------------------------------------
# plus/minus transported representations


def plus_algebra(a: AlgebraInstance, name=None) -> AlgebraInstance:
    """Symmetrized product x o y = x.y + y.x on the same carrier."""
    mul = a.product("mul")
    return AlgebraInstance(
        name or f"{a.name}-plus",
        a.dim,
        {"circ": mul + mul.opposite()},
        {"alpha": a.alpha},
        VarietyTag.HOM_JORDAN,
    )


def minus_algebra(a: AlgebraInstance, name=None) -> AlgebraInstance:
    """Commutator bracket [x, y] = x.y - y.x on the same carrier."""
    mul = a.product("mul")
    return AlgebraInstance(
        name or f"{a.name}-minus",
        a.dim,
        {"bracket": mul - mul.opposite()},
        {"alpha": a.alpha},
        VarietyTag.HOM_LIE,
    )


def symmetrized(rep):
    """The Jordan module or action of a bimodule or action over the symmetrized
    base: pi = l + r and, for an action, u * v = u.v + v.u."""
    base, pi = plus_algebra(rep.base), rep.l + rep.r
    if rep.vprod:
        out = JordanAction(base, rep.v_dim, pi, rep.beta, vstar=rep.vmul + rep.vmul.opposite())
    else:
        out = JordanModule(base, rep.v_dim, pi, rep.beta)
    _gate(certify_rep(out), f"symmetrized({rep.base.name}, {rep.kind})")
    return out


# ---------------------------------------------------------------------------
# semi-direct products


def _block_product(n, m, a_tensor, left_act=None, right_act=None, v_tensor=None):
    """Assemble (x+u)*(y+v) = x*y + left_act(x)v + right_act(y)u + u*v on A + V;
    an absent block is zero."""
    return StructureTensor.place((n + m,) * 3, [
        (a_tensor, (0, 0, 0), False), (left_act, (0, n, n), False),
        (right_act, (n, 0, n), True), (v_tensor, (n, n, n), False)])


def semidirect_product(act) -> AlgebraInstance:
    """The direct-sum carrier A + V with the action folded into one product."""
    _gate(certify_rep(act), f"semidirect_product({act.base.name})")
    (sym,) = REQUIRED_PRODUCTS[act.variety]
    out = AlgebraInstance(
        f"{act.base.name}-semidirect", act.base.dim + act.v_dim, {sym: semidirect_tensor(act)},
        {"alpha": act.base.alpha.direct_sum(act.beta)}, act.variety,
    )
    _gate(certify(out, out.variety), f"semidirect_product({act.base.name}) output")
    return out


def semidirect_tensor(act):
    """The semidirect product tensor without the certification gates.

    Used by the action <-> semidirect round-trip tests, which feed
    deliberately broken actions.
    """
    if act.vprod is None:
        raise SemanticError(f"semidirect product needs an action, got {act.kind}")
    (sym,) = REQUIRED_PRODUCTS[act.variety]
    left, *right = act.action_ops().values()
    right = right[0] if right else left.scale(act.sign)
    return _block_product(act.base.dim, act.v_dim, act.base.product(sym), left, right,
                          getattr(act, act.vprod))

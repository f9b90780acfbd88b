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
    identity,
    rewrite,
    var,
)
from .exact import _EMPTY, LinearMap, ShapeError, StructureTensor
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

    def interpretation(self, **maps) -> Interpretation:
        """The base's interpretation with V, the actions, the product on V and
        beta added, then `maps` ((LinearMap, (src_sort, dst_sort)) by symbol);
        each of its three dicts is built once."""
        a, sig = self.base, ("A", "A", "A")
        ops = {sym: (t, sig) for sym, t in a.products.items()}
        for sym in self.acts:
            ops[sym] = (getattr(self, sym), ("A", "V", "V"))
        if self.vprod:
            ops[self.vprod] = (getattr(self, self.vprod), ("V", "V", "V"))
        bound = {sym: (m, ("A", "A")) for sym, m in a.maps.items()}
        bound["beta"] = (self.beta, ("V", "V"))
        bound.update(maps)
        return Interpretation(sorts={"A": a.dim, "V": self.v_dim}, ops=ops, maps=bound)


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


# the axioms each kind adds to those it inherits (see _rep_schemas), as
# (name, text) rows in the identity notation (`engine.identity`), u, v, w in V
_JORDAN_ACTION_RHS = ("vstar(pi(circ(x, y), beta(v)), beta^2(u))"
                      " + pi(alpha^2(x), vstar(pi(y, u), beta(v)))"
                      " + pi(alpha^2(y), vstar(pi(x, u), beta(v)))")
_OWN_AXIOMS = {
    "bimodule": (
        ("beta-left-intertwine", "beta(l(x, u)) = l(alpha(x), beta(u))"),
        ("beta-right-intertwine", "beta(r(x, u)) = r(alpha(x), beta(u))"),
        ("left-composition", "l(mul(x, y), beta(u)) = l(alpha(x), l(y, u))"),
        ("right-composition", "r(mul(x, y), beta(u)) = r(alpha(y), r(x, u))"),
        ("left-right-commute", "l(alpha(x), r(y, u)) = r(alpha(y), l(x, u))"),
    ),
    "action": (
        ("action-left-product", "l(alpha(x), vmul(u, v)) = vmul(l(x, u), beta(v))"),
        ("action-right-product", "r(alpha(x), vmul(u, v)) = vmul(beta(u), r(x, v))"),
        ("action-inner-product", "vmul(beta(u), l(x, v)) = vmul(r(x, u), beta(v))"),
    ),
    "lie-module": (
        ("module-intertwine", "rho(alpha(x), beta(u)) = beta(rho(x, u))"),
        ("module-bracket", "rho(bracket(x, y), beta(u))"
                           " = rho(alpha(x), rho(y, u)) - rho(alpha(y), rho(x, u))"),
    ),
    "lie-action": (
        ("action-bracket", "rho(alpha(x), vbracket(u, v))"
                           " = vbracket(rho(x, u), beta(v)) + vbracket(beta(u), rho(x, v))"),
    ),
    "jordan-module": (
        ("module-intertwine", "beta(pi(x, u)) = pi(alpha(x), beta(u))"),
        ("module-linear-1", "pi(alpha^2(x), pi(circ(y, z), beta(u)))"
                            " + pi(alpha^2(y), pi(circ(z, x), beta(u)))"
                            " + pi(alpha^2(z), pi(circ(x, y), beta(u)))"
                            " = pi(circ(alpha(x), alpha(y)), pi(alpha(z), beta(u)))"
                            " + pi(circ(alpha(y), alpha(z)), pi(alpha(x), beta(u)))"
                            " + pi(circ(alpha(z), alpha(x)), pi(alpha(y), beta(u)))"),
        ("module-linear-2", "pi(circ(circ(x, y), alpha(z)), beta^2(u))"
                            " + pi(alpha^2(x), pi(alpha(z), pi(y, u)))"
                            " + pi(alpha^2(y), pi(alpha(z), pi(x, u)))"
                            " = pi(circ(alpha(x), alpha(y)), pi(alpha(z), beta(u)))"
                            " + pi(circ(alpha(y), alpha(z)), pi(alpha(x), beta(u)))"
                            " + pi(circ(alpha(x), alpha(z)), pi(alpha(y), beta(u)))"),
    ),
    "jordan-action": (
        ("action-cubic", "vstar(pi(alpha(x), beta(v)), vstar(beta(v), beta(v)))"
                         " = vstar(pi(alpha(x), vstar(v, v)), beta^2(v))"),
        ("action-linear-1", "vstar(vstar(pi(x, u), beta(w)), beta^2(v))"
                            " + vstar(vstar(pi(x, v), beta(w)), beta^2(u))"
                            " + pi(alpha^2(x), vstar(vstar(u, v), beta(w)))"
                            " = vstar(pi(alpha(x), vstar(u, v)), beta^2(w))"
                            " + vstar(pi(alpha(x), vstar(u, w)), beta^2(v))"
                            " + vstar(pi(alpha(x), vstar(v, w)), beta^2(u))"),
        ("action-linear-2", "vstar(pi(alpha(y), pi(x, u)), beta^2(v))"
                            " + vstar(pi(alpha(y), pi(x, v)), beta^2(u))"
                            " + pi(alpha^2(x), pi(alpha(y), vstar(u, v)))"
                            " = " + _JORDAN_ACTION_RHS),
        ("action-linear-3", "vstar(pi(alpha(y), u), pi(alpha(x), v))"
                            " + vstar(pi(alpha(x), u), pi(alpha(y), v))"
                            " + pi(circ(alpha(x), alpha(y)), vstar(beta(u), beta(v)))"
                            " = " + _JORDAN_ACTION_RHS),
    ),
}


@cache
def _rep_schemas(kind: str) -> tuple:
    """The axioms of a representation kind, built on first use; every call
    returns the same schema objects, so checks reuse their plans.

    A module's axioms are its own.  An action's are its module's (the same
    objects), then its own, then its variety's axioms moved to V.
    """
    cls = next(c for c in REP_CLASSES if c.kind == kind)
    own = tuple(identity(name, text, v="u v w") for name, text in _OWN_AXIOMS[kind])
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
    l = [[_EMPTY] * m for _ in range(n)]
    r = [[_EMPTY] * m for _ in range(n)]
    for i, plane in enumerate(mul._rows):
        for j, row in enumerate(plane):
            if row:  # e_i e_j = sum of c e_t over (t, c) in row, t ascending
                for k in range(n):
                    l[i][j * n + k] = [(t * n + k, c) for t, c in row]  # l(e_i)(e_j (x) e_k)
                    r[j][k * n + i] = [(k * n + t, c) for t, c in row]  # r(e_j)(e_k (x) e_i)
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

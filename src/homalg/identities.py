"""Identity schemas: expression trees, the identity notation's reader,
rewriting, the data-free scan of a tree, and polarization.

A schema is an expression-tree equation over op symbols, twist powers and
sorted variables; every shipped one is written as a line of text that
`identity` reads into that tree.  `homalg.engine` checks schemas against
concrete interpretations and re-exports every name defined here.
Schemas that repeat a variable are first reduced to multilinear ones by
polarization, which is an equivalence in characteristic zero for identities
homogeneous in each variable.  It is the full linearization: each
occurrence of a repeated variable gets its own copy, summed over the
bijections from occurrences to copies.  That is the polynomial the
inclusion-exclusion sum over subsets of copies gives, but each copy enters
as a bare basis vector rather than in sums such as x__1 + x__3, so the
kernels take their one-entry paths and the clauses meet the engine's
support-mask contract.

The front end reads each tree in one walk per phase.  Without data, one
walk (`_scan`) gives each variable's sort and occurrence count and the op
and map symbols read: a schema's variables, a clause set's symbols and the
sorts `engine.evaluate` binds all come from it.  Against an
interpretation, the engine's DAG checks sorts as it interns each subterm
(see `engine._Dag.add`).
"""

from __future__ import annotations

import re
from fractions import Fraction


class SemanticError(ValueError):
    """Unbound symbol, bad sort, or other meaning-level problem."""


# ---------------------------------------------------------------------------
# expressions


class Expr:
    __slots__ = ()

    def __add__(self, other):
        return Sum(((Fraction(1), self), (Fraction(1), other)))

    def __sub__(self, other):
        return Sum(((Fraction(1), self), (Fraction(-1), other)))

    def __neg__(self):
        return Sum(((Fraction(-1), self),))

    def __rmul__(self, scalar):
        return Sum(((Fraction(scalar), self),))


class Var(Expr):
    __slots__ = ("name", "sort")

    def __init__(self, name: str, sort: str = "A"):
        self.name = name
        self.sort = sort

    def __repr__(self):
        return self.name


class TwistApp(Expr):
    __slots__ = ("map_symbol", "power", "child")

    def __init__(self, map_symbol: str, child: Expr, power: int = 1):
        self.map_symbol = map_symbol
        self.power = power
        self.child = child

    def __repr__(self):
        return f"{self.map_symbol}^{self.power}({self.child!r})"


class OpApp(Expr):
    __slots__ = ("op_symbol", "left", "right")

    def __init__(self, op_symbol: str, left: Expr, right: Expr):
        self.op_symbol = op_symbol
        self.left = left
        self.right = right

    def __repr__(self):
        return f"{self.op_symbol}({self.left!r},{self.right!r})"


class Sum(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        flat = []
        for w, e in terms:
            w = Fraction(w)
            if isinstance(e, Sum):
                flat.extend((w * w2, e2) for w2, e2 in e.terms)
            else:
                flat.append((w, e))
        self.terms = tuple(flat)

    def __repr__(self):
        return " + ".join(f"{w}*{e!r}" for w, e in self.terms)


ZERO = Sum(())


def var(name: str, sort: str = "A") -> Var:
    return Var(name, sort)


def op(op_symbol: str, left: Expr, right: Expr) -> OpApp:
    return OpApp(op_symbol, left, right)


def tw(map_symbol: str, child: Expr, power: int = 1) -> Expr:
    if power == 0:
        return child
    return TwistApp(map_symbol, child, power)


# a rational, a name as the DSL writes one (so "x-y" is one name), one character
_TOKEN = re.compile(r"[0-9]+(?:/[0-9]+)?|[A-Za-z_][A-Za-z0-9_\-]*|\S")


def identity(name: str, text: str, v: str = "", **schema_kwargs) -> IdentitySchema:
    """The schema `name` written as `lhs = rhs` in the identity notation:

        side   := term (("+" | "-") term)*
        term   := ["-"] [RATIONAL ["*"]] factor
        factor := "(" side ")" | "0" | SYMBOL ["^" k] "(" side ["," side] ")" | VARIABLE

    A call with two arguments is an op, with one a map applied k >= 1 times
    (once when no power is written), and "0" is ZERO.  Variables are of sort
    A, those named in `v` (space-separated) of sort V.  A side of one term
    with no sign and no weight is that term's tree, any other a Sum, as the
    Expr operators build it: "mul(x, alpha(y)) = -2 * mul(y, x)" reads as
    op("mul", x, tw("alpha", y)) = -2 * op("mul", y, x).  schema_kwargs go to
    IdentitySchema.
    """
    toks, at, leaves, vs = _TOKEN.findall(text) + ["", ""], 0, {}, v.split()

    def fail(what):
        raise SemanticError(f"identity {name!r}: {what}")

    def expect(tok):
        nonlocal at
        if toks[at] != tok:
            fail(f"expected {tok!r}, got {toks[at] or 'the end'!r}")
        at += 1

    def side():
        nonlocal at
        terms, bare = [], True
        while True:
            w = 1
            if toks[at] == "-":
                w, at, bare = -1, at + 1, False
            t, nxt = toks[at], toks[at + 1]
            if t[:1].isdigit() and (nxt == "*" or nxt == "(" or nxt[:1].isidentifier()):
                w, at, bare = w * Fraction(t), at + 1 + (nxt == "*"), False
            terms.append((w, factor()))
            if toks[at] != "+" and toks[at] != "-":
                return terms[0][1] if bare and len(terms) == 1 else Sum(terms)
            bare = False
            at += toks[at] == "+"

    def factor():
        nonlocal at
        sym = toks[at]
        at += 1
        if sym == "(":
            e = side()
            expect(")")
            return e
        if sym == "0":
            return ZERO
        if not sym[:1].isidentifier():
            fail(f"expected a term, got {sym or 'the end'!r}")
        power = 1
        if toks[at] == "^":
            k = toks[at + 1]
            power, at = int(k) if k.isdigit() else 0, at + 2
            if power < 1:
                fail(f"map {sym!r} needs a power k >= 1, got {k!r}")
        elif toks[at] != "(":
            got = leaves.get(sym)
            if got is None:
                got = leaves[sym] = Var(sym, "V" if sym in vs else "A")
            return got
        expect("(")
        args = [side()]
        while toks[at] == ",":
            at += 1
            args.append(side())
        expect(")")
        if len(args) == 1:
            return TwistApp(sym, args[0], power)
        if len(args) > 2:
            fail(f"{sym!r} is called with {len(args)} arguments")
        return OpApp(sym, *args)

    lhs = side()
    expect("=")
    rhs = side()
    if toks[at]:
        fail(f"unexpected {toks[at]!r} after the rhs")
    return IdentitySchema(name, lhs, rhs, **schema_kwargs)


def rewrite(expr: Expr, vars=None, maps=None, ops=None) -> Expr:
    """Copy an expression with variables replaced and symbols renamed.

    vars maps a variable name to the expression put in its place; maps and
    ops map a map or op symbol to its new name.  Names missing from a mapping
    are kept, so rewrite(expr) is a plain copy.
    """
    vars, maps, ops = vars or {}, maps or {}, ops or {}

    def copy(e):
        if isinstance(e, Var):
            return vars.get(e.name, e)
        if isinstance(e, TwistApp):
            return TwistApp(maps.get(e.map_symbol, e.map_symbol), copy(e.child), e.power)
        if isinstance(e, OpApp):
            return OpApp(ops.get(e.op_symbol, e.op_symbol), copy(e.left), copy(e.right))
        if isinstance(e, Sum):
            return Sum(tuple((w, copy(t)) for w, t in e.terms))
        raise TypeError(e)

    return copy(expr)


def _scan(exprs):
    """The walk over expression trees that reads no data, one pass over each:
    (sorts, counts, clashes, ops, maps).  `sorts` gives each variable's sort
    and `ops` and `maps` the op and map symbols read, each in order of first
    appearance; `counts` holds per tree the occurrences of each variable, or
    None when the terms of some sum differ in them; `clashes` lists the
    variables met with a second sort, in the order met."""
    sorts, ops, maps, clashes = {}, {}, {}, []

    def walk(e):
        if isinstance(e, Var):
            if sorts.setdefault(e.name, e.sort) != e.sort:
                clashes.append(e.name)
            return {e.name: 1}
        if isinstance(e, TwistApp):
            maps[e.map_symbol] = None
            return walk(e.child)
        if isinstance(e, OpApp):
            ops[e.op_symbol] = None
            left, right = walk(e.left), walk(e.right)
            if left is None or right is None:
                return None
            for k, n in right.items():
                left[k] = left.get(k, 0) + n
            return left
        if isinstance(e, Sum):
            counts = [walk(t) for _, t in e.terms] or [{}]
            return counts[0] if all(c == counts[0] for c in counts) else None
        raise TypeError(e)

    counts = [walk(e) for e in exprs]
    return sorts, counts, clashes, ops, maps


class IdentitySchema:
    """A named equation lhs = rhs over sorted variables.

    Variables are (name, sort, multiplicity) triples; a multiplicity above one
    marks the schema as non-multilinear in that variable.  For hand-written
    schemas the list is derived from the trees; polarize() supplies it
    explicitly for its multilinear output.

    copy_blocks lists groups of variable names that are interchangeable: the
    identity is symmetric under any permutation of the variables within one
    block.  polarize() records each variable's fresh copies as a block; the
    checker then enumerates only tuples whose block indices are sorted.

    plans holds the evaluation plans of the checks whose first clause is
    this schema, and runs check_all's split of each schema tuple it heads
    (see _runs); they hold no data and are freed with the schema.
    """

    __slots__ = ("name", "lhs", "rhs", "variables", "polarized", "copy_blocks", "plans",
                 "runs", "__weakref__")

    def __init__(self, name, lhs, rhs, variables=None, polarized=False, copy_blocks=()):
        self.name = name
        self.lhs = lhs
        self.rhs = rhs
        self.polarized = polarized
        self.copy_blocks = tuple(tuple(block) for block in copy_blocks)
        self.plans, self.runs = {}, {}
        if variables is not None:
            self.variables = tuple(variables)
            return
        sorts, (locc, rocc), clashes, _, _ = _scan((lhs, rhs))
        if clashes:
            raise SemanticError(f"variable {clashes[0]} used with two sorts")
        if locc is None or rocc is None:
            raise SemanticError("sum terms are not homogeneous in the same variables")
        out = []
        for vname, sort in sorts.items():
            lo, ro = locc.get(vname, 0), rocc.get(vname, 0)
            mult = max(lo, ro)
            if lo not in (0, mult) or ro not in (0, mult):
                raise SemanticError(
                    f"schema {name!r} is not homogeneous in variable {vname!r}"
                )
            out.append((vname, sort, mult))
        self.variables = tuple(out)

    def is_multilinear(self) -> bool:
        return all(m <= 1 for _, _, m in self.variables)

    def __repr__(self):
        return f"IdentitySchema({self.name!r})"


def polarize(schema: IdentitySchema) -> IdentitySchema:
    """Replace every repeated variable by fresh copies: the full linearization.

    A variable x of multiplicity m becomes x__1..x__m, and each side that
    reads x becomes the sum, over the m! bijections from x's occurrences to
    the copies, of the side with each occurrence replaced by its copy; a
    side that does not read x becomes (-1)^(m+1) times itself.  This is the
    polynomial the inclusion-exclusion sum over nonempty S of {1..m} of
    (-1)^(m-|S|) P(sum_{i in S} x__i) expands to: a map f from occurrences
    to copies is weighted by the sum of (-1)^(m-|S|) over S containing its
    image, which is 1 when f is onto and 0 otherwise.  In characteristic
    zero the original schema holds identically iff the polarized
    (multilinear) one holds on all basis tuples.  Both sides are symmetric
    in x__1..x__m, which the result records as a copy block.  Every copy
    enters as a bare basis vector, so a check evaluates no sum of copies.
    """
    if schema.is_multilinear():
        return schema
    lhs, rhs = schema.lhs, schema.rhs
    new_vars = []
    blocks = []
    for name, sort, mult in schema.variables:
        if mult <= 1:
            new_vars.append((name, sort, 1))
            continue
        fresh = [f"{name}__{i}" for i in range(1, mult + 1)]
        new_vars.extend((f, sort, 1) for f in fresh)
        blocks.append(fresh)
        lhs = _polarize_one(lhs, name, fresh, sort, mult)
        rhs = _polarize_one(rhs, name, fresh, sort, mult)
    return IdentitySchema(schema.name, lhs, rhs, variables=new_vars, polarized=True,
                          copy_blocks=blocks)


def _polarize_one(expr, name, fresh, sort, mult):
    """The full linearization of expr in variable `name` (see polarize).

    One pass maps each subterm to {set of copies used, as a bitmask: its
    part}: an op pairs parts over disjoint sets, a twist maps its child's
    parts and a sum merges its terms' parts, weights kept.
    """
    copies = {1 << i: Var(f, sort) for i, f in enumerate(fresh)}

    def parts(e):
        if isinstance(e, Var):
            return copies if e.name == name else {0: e}
        if isinstance(e, TwistApp):
            return {s: TwistApp(e.map_symbol, c, e.power) for s, c in parts(e.child).items()}
        if isinstance(e, OpApp):
            out, right = {}, parts(e.right)
            for sl, left in parts(e.left).items():
                for sr, r in right.items():
                    if not sl & sr:
                        out.setdefault(sl | sr, []).append((1, OpApp(e.op_symbol, left, r)))
            return {s: t[0][1] if len(t) == 1 else Sum(t) for s, t in out.items()}
        if isinstance(e, Sum):
            out = {}
            for w, t in e.terms:
                for s, c in parts(t).items():
                    out.setdefault(s, []).append((w, c))
            return {s: Sum(t) for s, t in out.items()}
        raise TypeError(e)

    full = parts(expr).get((1 << mult) - 1)
    if full is not None:
        return full
    return expr if mult % 2 else -expr

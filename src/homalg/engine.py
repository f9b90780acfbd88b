"""Identity schemas, their exhaustive basis-tuple checker, and polarization.

A schema is an expression-tree equation over op symbols, twist powers and
sorted variables.  Checking a multilinear schema against a concrete
interpretation means evaluating both sides on every tuple of basis vectors.
Schemas that repeat a variable are first reduced to multilinear ones by
polarization, which is an equivalence in characteristic zero for identities
homogeneous in each variable.  It is the full linearization: each
occurrence of a repeated variable gets its own copy, summed over the
bijections from occurrences to copies.  That is the polynomial the
inclusion-exclusion sum over subsets of copies gives, but each copy enters
as a bare basis vector rather than in sums such as x__1 + x__3, so the
kernels take their one-entry paths and the support masks below skip: the
polarized Hom-Jordan clause has 83 tree nodes instead of 189, and the cold
passing checks of it on the catalog's five hemisemi products evaluate 50
tuples instead of 488.

Evaluation is compiled once and bound per call.  `check_clauses` compiles
the sides of several schemas over one variable list into one hash-consed
DAG, so equal subterms (such as those shared by the polarized terms of
Hom-Jordan, or the side prod(K u, K v) of the operator clauses) are one
node.  The compiled plan holds no data: the polarized clauses, the DAG's
node keys, its live order and the level steps.  It is kept on the first
schema of the clause tuple and reused for every interpretation that binds
the same symbols with the same signatures, whatever the dimensions, as long
as its guards hold again: the DAG is simplified against the data (identity
twist powers vanish, zero products are zero), so a plan records the
identity flag of every twist power and the zero flag of every op it read.
Each call binds the plan: every node gets an integer kernel over the
structure constants' numerators and a denominator; the sides compare as
l * Dr == r * Dl.  Tuples are enumerated lexicographically and a node is
re-evaluated only when a slot it depends on changes, looking up a table
keyed by the tuple's projection onto its free slots that is filled on
demand, so a failing check still stops at its first witness.  Tables live
for one call; tensors and maps keep their sparse form once compiled, and
a map keeps each power's columns and identity flag, so guards are read,
not rebuilt.
The last slot is enumerated only where a side can be nonzero.  The plan
holds a support recipe for the nodes that read the last variable; bound to
the support masks kept with the data (a tensor's row and column masks and
its per-output masks, a map power's nonzero columns and rows), it gives per
prefix a bitmask of the last slot's indices at which some side may be
nonzero.  A product op(c, n) of a prefix value c and a node n that reads
the last slot is nonzero only where one of n's output coordinates that c
multiplies into something nonzero is, so the nodes under such a product
carry one mask per output coordinate.  Only the supported indices are
evaluated; at every other one both sides of every clause are zero, so no
witness is lost and the first one is the one naive enumeration finds.
The slot before the last (from slot 1 on) has a recipe of the same kind,
with the last slot as a wildcard: a node that reads only the last slot
stands in for its value by the output coordinates it can reach for some
basis vector there, so the mask has bit t set when some completion of the
prefix with index t can make a side nonzero.  An index outside it is not
visited at all; the tuples below it are counted in closed form, the
number of completions sorted within copy blocks, so `tuples_checked`
stays the naive count, on a failure up to the witness.  A side that reads
a later slot but not this one (no clause set the package ships has one)
leaves the slot without a recipe: it is enumerated in full there, and its
last slot is still masked.  A check uses this mask from the first prefix
after some last-slot mask came out empty, so a check that decides before
that never binds the recipe; the prefix counts showed that a recipe at
slot 0 (it runs once per check) or further up does not pay for its
binding.
A recipe is a list of steps in one vocabulary, the kinds `_mask_fn` runs,
each with the key of the table it reads (see `_tables`).  The steps of the
nodes that read no earlier slot run once per check, when the recipe is
bound; a per-prefix step that reads such a node folds it in then.
Polarization records each variable's copies as a copy block; the identity
is symmetric there, so only tuples sorted within each block are visited,
and the first violating tuple is still the one naive enumeration finds.
`tuples_checked` counts the tuples decided (sorted within copy blocks),
those skipped as zero on both sides included, so it equals the count of a
naive enumeration; `tuples_evaluated` counts those whose sides were
evaluated and `prefixes_visited` the proper prefixes on which level
kernels ran.  `evaluate` and `check_schema_random` go through the same
plans and kernels.

Exhaustive verdicts are memoized where the plans are kept: each shape of a
clause tuple keeps the verdict of every check run over it, keyed by the
identity of the tensor or map bound to each symbol read and by the
dimensions of the sorts those objects leave free.  A check that binds the
same objects again gets a fresh report whose status, witness,
`tuples_checked`, `tuples_evaluated` and `prefixes_visited` are those of
the first check.  Tensors and maps are immutable (`_compiled` is only a
cache), so an object's identity stands for its content.  A fresh object always misses,
even with equal content: the memo serves constructions whose gates
re-certify the same inputs, not repeated data.  It holds weak references
only: entries whose objects are gone are swept once the memo has doubled,
and the memo goes with its schema.  `evaluate` and `check_schema_random`
never read it.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from math import comb, lcm
from operator import itemgetter
from typing import Optional
from weakref import ref

from .exact import LinearMap, ShapeError, Vector, square_gap
from .records import FrozenRecord, Record


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


def _occurrences(expr: Expr) -> dict:
    """Occurrence counts per variable; Sum branches must agree (homogeneity)."""
    if isinstance(expr, Var):
        return {expr.name: 1}
    if isinstance(expr, TwistApp):
        return _occurrences(expr.child)
    if isinstance(expr, OpApp):
        left = _occurrences(expr.left)
        right = _occurrences(expr.right)
        for k, n in right.items():
            left[k] = left.get(k, 0) + n
        return left
    if isinstance(expr, Sum):
        counts = [_occurrences(e) for _, e in expr.terms]
        if not counts:
            return {}
        first = counts[0]
        for c in counts[1:]:
            if c != first:
                raise SemanticError("sum terms are not homogeneous in the same variables")
        return dict(first)
    raise TypeError(expr)


def _collect_sorts(expr: Expr, sorts: dict) -> None:
    if isinstance(expr, Var):
        prev = sorts.get(expr.name)
        if prev is not None and prev != expr.sort:
            raise SemanticError(f"variable {expr.name} used with two sorts")
        sorts[expr.name] = expr.sort
    elif isinstance(expr, TwistApp):
        _collect_sorts(expr.child, sorts)
    elif isinstance(expr, OpApp):
        _collect_sorts(expr.left, sorts)
        _collect_sorts(expr.right, sorts)
    elif isinstance(expr, Sum):
        for _, e in expr.terms:
            _collect_sorts(e, sorts)


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
    this schema; they hold no data and are freed with the schema.
    """

    __slots__ = ("name", "lhs", "rhs", "variables", "polarized", "copy_blocks", "plans",
                 "__weakref__")

    def __init__(self, name, lhs, rhs, variables=None, polarized=False, copy_blocks=()):
        self.name = name
        self.lhs = lhs
        self.rhs = rhs
        self.polarized = polarized
        self.copy_blocks = tuple(tuple(block) for block in copy_blocks)
        self.plans = {}
        if variables is not None:
            self.variables = tuple(variables)
            return
        sorts: dict = {}
        _collect_sorts(lhs, sorts)
        _collect_sorts(rhs, sorts)
        locc = _occurrences(lhs)
        rocc = _occurrences(rhs)
        out = []
        for vname in sorts:
            lo, ro = locc.get(vname, 0), rocc.get(vname, 0)
            mult = max(lo, ro)
            if lo not in (0, mult) or ro not in (0, mult):
                raise SemanticError(
                    f"schema {name!r} is not homogeneous in variable {vname!r}"
                )
            out.append((vname, sorts[vname], mult))
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


# ---------------------------------------------------------------------------
# interpretations and reports


class Interpretation(FrozenRecord):
    """Bindings of sorts to dimensions and of op/map symbols to exact data.

    ops maps a symbol to (StructureTensor, (left_sort, right_sort, out_sort));
    maps to (LinearMap, (src_sort, dst_sort)).
    """

    __slots__ = _fields = ("sorts", "ops", "maps")

    def __init__(self, sorts: dict, ops: dict, maps: dict):
        object.__setattr__(self, "sorts", sorts)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "maps", maps)

    def validate(self) -> None:
        for sym, (tensor, (ls, rs, os)) in self.ops.items():
            expect = (self.sorts[ls], self.sorts[rs], self.sorts[os])
            got = (tensor.left_dim, tensor.right_dim, tensor.out_dim)
            if expect != got:
                raise ShapeError(f"op {sym!r}: tensor dims {got} != sort dims {expect}")
        for sym, (lin, (ss, ds)) in self.maps.items():
            if (lin.src_dim, lin.dst_dim) != (self.sorts[ss], self.sorts[ds]):
                raise ShapeError(f"map {sym!r}: matrix dims disagree with sorts")


class Witness(FrozenRecord):
    """A basis tuple on which an identity fails, with both evaluated sides.

    `variables` holds (name, sort) per slot, in enumeration order, and
    `indices` the 0-based basis index per slot.
    """

    __slots__ = _fields = ("identity", "variables", "indices", "lhs_value", "rhs_value")

    def __init__(self, identity: str, variables: tuple, indices: tuple, lhs_value: Vector,
                 rhs_value: Vector):
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "lhs_value", lhs_value)
        object.__setattr__(self, "rhs_value", rhs_value)


class CheckReport(Record):
    """Outcome of one certification run."""

    __slots__ = _fields = ("status", "check", "witness", "detail", "tuples_checked",
                           "tuples_evaluated", "prefixes_visited")

    def __init__(self, status: str, check: str, witness: Optional[Witness] = None,
                 detail: str = "", tuples_checked: int = 0, tuples_evaluated: int = 0,
                 prefixes_visited: int = 0):
        self.status = status                      # pass | fail | not-admissible | error
        self.check = check
        self.witness = witness
        self.detail = detail
        self.tuples_checked = tuples_checked      # tuples decided
        self.tuples_evaluated = tuples_evaluated  # tuples whose sides were evaluated
        self.prefixes_visited = prefixes_visited  # proper prefixes on which level kernels ran

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self):
        extra = f", witness={self.witness.identity}@{self.witness.indices}" if self.witness else ""
        return f"CheckReport({self.status}:{self.check}{extra})"


# ---------------------------------------------------------------------------
# evaluation


def _check_sorts(expr, interp: Interpretation):
    """Validate well-sortedness; returns the expression's sort (None for 0)."""
    if isinstance(expr, Var):
        return expr.sort
    if isinstance(expr, TwistApp):
        child = _check_sorts(expr.child, interp)
        if expr.map_symbol not in interp.maps:
            raise SemanticError(f"unbound map symbol {expr.map_symbol!r}")
        src, dst = interp.maps[expr.map_symbol][1]
        if src != dst and expr.power > 1:
            raise SemanticError(f"cannot iterate map {expr.map_symbol!r} across sorts")
        if child is not None and child != src:
            raise SemanticError(f"map {expr.map_symbol!r} applied to sort {child!r}")
        return dst
    if isinstance(expr, OpApp):
        if expr.op_symbol not in interp.ops:
            raise SemanticError(f"unbound op symbol {expr.op_symbol!r}")
        ls, rs, os_ = interp.ops[expr.op_symbol][1]
        lsort = _check_sorts(expr.left, interp)
        rsort = _check_sorts(expr.right, interp)
        if lsort is not None and lsort != ls:
            raise SemanticError(f"op {expr.op_symbol!r} left slot expects {ls!r}, got {lsort!r}")
        if rsort is not None and rsort != rs:
            raise SemanticError(f"op {expr.op_symbol!r} right slot expects {rs!r}, got {rsort!r}")
        return os_
    if isinstance(expr, Sum):
        sorts = {s for s in (_check_sorts(e, interp) for _, e in expr.terms) if s is not None}
        if len(sorts) > 1:
            raise SemanticError("sum mixes sorts")
        return sorts.pop() if sorts else None
    raise TypeError(expr)


# ---------------------------------------------------------------------------
# compilation
#
# A compiled value is sparse: a list of (basis index, integer numerator)
# pairs in index order with zeros omitted, over a denominator fixed per node
# when the plan is bound.  The zero vector is [].
#
# Compiling is split in two.  A plan (_Plan) holds no data: the clauses as
# checked, the DAG's node keys, its live order and node sorts, and the level
# steps of check_clauses.  It is built for one interpretation shape (the
# sort names and the signatures of the symbols read; not the dimensions) and
# records as guards the identity flag of every twist power and the zero flag
# of every op the DAG's simplification asked about; it is reused for any
# interpretation of that shape on which all guards hold again.  Binding a
# plan gives each node its kernel over the interpretation's sparse numerators
# and its denominator, per call.


def _children(key):
    kind = key[0]
    if kind == "tw":
        return (key[3],)
    if kind == "op":
        return key[2:]
    if kind == "sum":
        return tuple(c for _, c in key[1])
    return ()


def _symbols(expr, ops: dict, maps: dict) -> None:
    """Record the op and map symbols an expression reads, in order of appearance."""
    if isinstance(expr, TwistApp):
        maps[expr.map_symbol] = None
        _symbols(expr.child, ops, maps)
    elif isinstance(expr, OpApp):
        ops[expr.op_symbol] = None
        _symbols(expr.left, ops, maps)
        _symbols(expr.right, ops, maps)
    elif isinstance(expr, Sum):
        for _, e in expr.terms:
            _symbols(e, ops, maps)


def _sparse(dense):
    return [(k, x) for k, x in enumerate(dense) if x]


def _support(vectors) -> int:
    """Bitmask of the positions of the nonzero sparse vectors."""
    return sum(1 << k for k, v in enumerate(vectors) if v)


def _tensor(tensor):
    """[sparse rows [i][j], row masks, column masks, P, Q] of a tensor, kept on it.

    Bit j of row mask i, and bit i of column mask j, is set when e_i e_j is
    nonzero.  P and Q are the per-output masks of `_outputs`, None until a
    check first needs them.
    """
    got = tensor._compiled
    if got is None:
        rows = [[_sparse(r) for r in plane] for plane in tensor._n]
        got = tensor._compiled = [rows, [_support(plane) for plane in rows],
                                  [_support(plane[j] for plane in rows)
                                   for j in range(tensor.right_dim)], None, None]
    return got


def _outputs(tensor, right: bool):
    """P (right False) or Q (right True) of a tensor, built once and kept on it.

    Bit j of P[i][k], and bit i of Q[j][k], is set when coordinate k of
    e_i e_j is nonzero.  The rows for a zero row or column mask are one
    shared zero row.
    """
    got = _tensor(tensor)
    table = got[3 + right]
    if table is None:
        rows, zero = got[0], [0] * tensor.out_dim
        table = [zero] * (tensor.right_dim if right else tensor.left_dim)
        for i, plane in enumerate(rows):
            for j, row in enumerate(plane):
                a, b = (j, i) if right else (i, j)
                for k, _ in row:
                    if table[a] is zero:
                        table[a] = [0] * tensor.out_dim
                    table[a][k] |= 1 << b
        got[3 + right] = table
    return table


def _columns(lin):
    """(sparse columns, nonzero-column mask) of a map."""
    cols = [_sparse(row[j] for row in lin._n) for j in range(lin.src_dim)]
    return cols, _support(cols)


def _row_sets(cols, dim):
    """Bit b of entry k is set when coordinate k of column b is nonzero."""
    out = [0] * dim
    for b, col in enumerate(cols):
        for k, _ in col:
            out[k] |= 1 << b
    return out


def _gather(vec, bits) -> int:
    """The union of vec[j] over the set bits j of bits."""
    out = 0
    while bits:
        low = bits & -bits
        bits ^= low
        out |= vec[low.bit_length() - 1]
    return out


def _standin(bits):
    """(k, 1) for each set bit k: a sparse value whose support is bits."""
    out = []
    while bits:
        low = bits & -bits
        bits ^= low
        out.append((low.bit_length() - 1, 1))
    return out


def _spread(vec, table):
    """Entry k is the union of vec[j] over the bits j of table[k]."""
    out = []
    for bits in table:
        got = 0
        while bits:
            low = bits & -bits
            bits ^= low
            got |= vec[low.bit_length() - 1]
        out.append(got)
    return out


def _power(lin, power):
    """(sparse columns, denominator, nonzero-column mask, identity flag) of
    lin^power, built once and kept on the map; power 1 reads the map's own
    columns and mask.  The flag reads the content: any map whose numerators
    are its denominator on the diagonal and zero elsewhere has it."""
    powers = lin._powers
    if powers is None:
        powers = lin._powers = {}
    got = powers.get(power)
    if got is None:
        if power == 1:  # a map across sorts only ever appears at power 1
            if lin._compiled is None:
                lin._compiled = _columns(lin)
            (cols, mask), den = lin._compiled, lin._d
        else:
            lin = lin.power(power)
            (cols, mask), den = _columns(lin), lin._d
        identity = (lin.src_dim == lin.dst_dim
                    and all(col == [(j, den)] for j, col in enumerate(cols)))
        got = powers[power] = (cols, den, mask, identity)
    return got


def _is_identity(interp, symbol, power) -> bool:
    """Whether symbol^power is the identity map of one sort."""
    lin, (src, dst) = interp.maps[symbol]
    return src == dst and _power(lin, power)[3]


def twist_gap(kn, alpha: LinearMap, beta: LinearMap):
    """The first column j at which K.beta and alpha.K differ, or None.

    K: V -> A is given by its numerator rows kn (its denominator cancels),
    beta twists V and alpha twists A.  When both twists carry the identity
    flag of `_power` the square holds for every K and nothing is
    multiplied; otherwise `square_gap` decides it, cross-scaled by alpha._d
    and beta._d.  Operator admissibility, the operator sampler's accept
    test and the morphism twist check all ask it.
    """
    if _power(alpha, 1)[3] and _power(beta, 1)[3]:
        return None
    return square_gap(kn, beta._n, alpha._n, kn, alpha._d, beta._d)


def _is_zero(interp, symbol) -> bool:
    return not any(_tensor(interp.ops[symbol][0])[1])


class _Dag:
    """Hash-consed expression DAG, simplified against one interpretation.

    A node is ("var", name), ("tw", symbol, power, child), ("op", symbol,
    left, right) or ("sum", ((weight, child), ...)); its id is its position
    in `nodes`, so children precede parents.  Sums are flattened with like
    terms merged, zero weights dropped and terms in child order; nested
    twists by one map merge their powers, and a twist whose power is the
    identity map disappears; a product with a zero factor or a zero tensor
    is zero.  Equal subterms therefore become one node.  `twists` and `zeros`
    record every identity and zero flag the simplification read.
    """

    def __init__(self, interp: Interpretation):
        self.interp = interp
        self.nodes = []
        self._ids = {}
        self._seen = {}
        self.twists = {}
        self.zeros = {}
        self.zero = self._intern(("sum", ()))

    def _intern(self, key) -> int:
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.nodes)
            self.nodes.append(key)
        return nid

    def add(self, expr) -> int:
        """Node id of an expression; the caller keeps the expression alive."""
        nid = self._seen.get(id(expr))
        if nid is not None:
            return nid
        if isinstance(expr, Var):
            nid = self._intern(("var", expr.name))
        elif isinstance(expr, TwistApp):
            nid = self._twist(expr.map_symbol, expr.power, self.add(expr.child))
        elif isinstance(expr, OpApp):
            nid = self._op(expr.op_symbol, self.add(expr.left), self.add(expr.right))
        elif isinstance(expr, Sum):
            nid = self._sum([(w, self.add(e)) for w, e in expr.terms])
        else:
            raise TypeError(expr)
        self._seen[id(expr)] = nid
        return nid

    def _twist(self, symbol, power, child) -> int:
        key = self.nodes[child]
        if key[0] == "tw" and key[1] == symbol:
            power, child = power + key[2], key[3]
        if power == 0 or child == self.zero:
            return child
        identity = self.twists.get((symbol, power))
        if identity is None:
            identity = _is_identity(self.interp, symbol, power)
            self.twists[(symbol, power)] = identity
        return child if identity else self._intern(("tw", symbol, power, child))

    def _op(self, symbol, left, right) -> int:
        zero = self.zeros.get(symbol)
        if zero is None:
            zero = self.zeros[symbol] = _is_zero(self.interp, symbol)
        if zero or left == self.zero or right == self.zero:
            return self.zero
        return self._intern(("op", symbol, left, right))

    def _sum(self, terms) -> int:
        acc = {}
        for w, child in terms:
            key = self.nodes[child]
            for w2, c in key[1] if key[0] == "sum" else ((1, child),):
                acc[c] = acc.get(c, 0) + w * w2
        flat = tuple((w, c) for c, w in sorted(acc.items()) if w)
        if len(flat) == 1 and flat[0][0] == 1:
            return flat[0][1]
        return self._intern(("sum", flat))


def _twist_kernel(child, cols, dst):
    def run(cur):
        v = cur[child]
        if len(v) == 1:
            (j, a), = v
            col = cols[j]
            return col if a == 1 else [(i, a * x) for i, x in col]
        out = [0] * dst
        for j, a in v:
            for i, x in cols[j]:
                out[i] += a * x
        return _sparse(out)
    return run


def _op_kernel(left, right, rows, out_dim):
    def run(cur):
        a, b = cur[left], cur[right]
        if len(a) == 1 and len(b) == 1:
            (i, x), = a
            (j, y), = b
            row = rows[i][j]
            s = x * y
            return row if s == 1 else [(k, s * c) for k, c in row]
        out = [0] * out_dim
        for i, x in a:
            plane = rows[i]
            for j, y in b:
                row = plane[j]
                if row:
                    s = x * y
                    for k, c in row:
                        out[k] += s * c
        return _sparse(out)
    return run


def _sum_kernel(terms, dim):
    def run(cur):
        out = [0] * dim
        for f, child in terms:
            for k, x in cur[child]:
                out[k] += f * x
        return _sparse(out)
    return run


def _zero_kernel(cur):
    return []


class _ClauseSet:
    """One clause tuple as checked, with its plans; kept on its first schema.

    `clauses` are the clauses as checked (polarized, for exhaustive checks),
    `variables` their shared variable list, `names` its (name, sort) pairs
    as a witness gives them, and `lower` the slot each slot's index starts
    from (its predecessor in a copy block, else -1).  `tails[p]` lists the
    copy-block runs among the slots after p as (first slot, length, the slot
    its lower bound comes from), so a subtree below slot p counts in closed
    form.  `ops` and `maps` name the symbols the clauses read; `by_shape`
    holds a _Shape per interpretation shape.
    """

    __slots__ = ("clauses", "variables", "names", "lower", "tails", "ops", "maps", "by_shape")

    def __init__(self, clauses, polar: bool):
        self.clauses = tuple(polarize(s) for s in clauses) if polar else tuple(clauses)
        first = self.clauses[0]
        if any((c.variables, c.copy_blocks) != (first.variables, first.copy_blocks)
               for c in self.clauses):
            raise SemanticError("clauses do not share one variable list")
        self.variables = first.variables
        self.names = tuple((name, sort) for name, sort, _ in self.variables)
        slot_of = {name: p for p, (name, _, _) in enumerate(self.variables)}
        self.lower = lower = [-1] * len(self.variables)
        for block in first.copy_blocks if polar else ():
            slots = [slot_of.get(name, -1) for name in block]
            if (min(slots) < 0 or any(lower[p] >= 0 for p in slots) or slots != sorted(set(slots))
                    or len({self.variables[p][1] for p in slots}) > 1):
                raise SemanticError(f"bad copy block {block!r}")
            for prev, p in zip(slots, slots[1:]):
                lower[p] = prev
        runs = [1] * len(lower)
        for p in range(len(lower) - 1, -1, -1):
            if lower[p] >= 0:
                runs[lower[p]] += runs[p]
        self.tails = [tuple((q, runs[q], lower[q]) for q in range(p + 1, len(lower))
                            if lower[q] <= p) for p in range(len(lower))]
        ops, maps = {}, {}
        for c in self.clauses:
            _symbols(c.lhs, ops, maps)
            _symbols(c.rhs, ops, maps)
        self.ops, self.maps = tuple(ops), tuple(maps)
        self.by_shape = {}

    def shape(self, interp: Interpretation):
        """The sort names and the signature of every symbol read (None if unbound)."""
        ops, maps = interp.ops, interp.maps
        return (tuple(sorted(interp.sorts)),
                tuple([ops[s][1] if s in ops else None for s in self.ops]),
                tuple([maps[s][1] if s in maps else None for s in self.maps]))


class _Shape:
    """The plans of one clause set for one interpretation shape, and the
    verdicts of the exhaustive checks already run over it.

    `free` lists the sorts that no symbol read names.  `verdicts` maps a
    memo key (see `bound`) to (witness or None, tuples_checked,
    tuples_evaluated, prefixes_visited, the free sorts' dimensions, then a
    weak reference per object).  A verdict is recalled only for the same dimensions and while
    each reference still gives the object bound now, so neither a hash
    collision nor an id reused after its object is gone can return another
    check's verdict.  Entries hold no data; the ones whose objects are gone
    are dropped once the memo has doubled since the last sweep.
    """

    __slots__ = ("plans", "free", "verdicts", "sweep_at")

    def __init__(self, shape):
        named = {sort for signature in shape[1] + shape[2] for sort in signature}
        self.plans, self.verdicts, self.sweep_at = [], {}, 1
        self.free = tuple(sort for sort in shape[0] if sort not in named)

    def bound(self, clause_set: _ClauseSet, interp: Interpretation):
        """(memo key, dimensions, objects) of an interpretation of this shape.

        The objects are the tensors and maps bound to the symbols read; they
        fix the dimensions of the sorts their signatures name, so only the
        free sorts' dimensions are given.  The key hashes both.
        """
        sorts, ops, maps = interp.sorts, interp.ops, interp.maps
        dims = tuple([sorts[s] for s in self.free])
        objects = [ops[s][0] for s in clause_set.ops] + [maps[s][0] for s in clause_set.maps]
        return hash((dims, *map(id, objects))), dims, objects

    def recall(self, bound):
        """The verdict kept for these dimensions and objects, or None."""
        key, dims, objects = bound
        got = self.verdicts.get(key)
        if got is not None and got[4] == dims and all(r() is o for r, o in zip(got[5:], objects)):
            return got
        return None

    def remember(self, bound, report) -> None:
        key, dims, objects = bound
        if len(self.verdicts) >= self.sweep_at:
            self.sweep()
        self.verdicts[key] = (report.witness, report.tuples_checked, report.tuples_evaluated,
                              report.prefixes_visited, dims, *map(ref, objects))

    def sweep(self) -> None:
        """Drop the entries whose objects are gone."""
        self.verdicts = {k: v for k, v in self.verdicts.items()
                         if all(r() is not None for r in v[5:])}
        self.sweep_at = 2 * len(self.verdicts) + 1


# one slot's support recipe (see _Plan._support_recipe)
_Recipe = namedtuple("_Recipe", "fixed steps keep fixed_roots mask_roots prefix_roots data")


class _Plan:
    """One clause tuple compiled for one interpretation shape, without its data.

    `nodes` are the DAG's keys and `order` the live ones, children first;
    `sorts` gives each node's sort, so the plan serves every dimension.
    Roots are lhs, rhs of each clause in turn, and `out_sorts` their sorts
    (None when both sides are zero).  `levels` holds, per slot p (and first
    for no slot), the (node, table key) steps to run once slots 0..p are
    set: a node is evaluated at the level of its last free slot, and one
    whose free slots are not all of 0..level gets a table keyed by the
    projection of the tuple onto them.  `recipes[p]` tells which indices
    of slot p can make a side nonzero, for the last slot and, past slot 0,
    the one before it (see _support_recipe); it is None at the other
    slots, and where some side reads a later slot but not slot p.  `twists`
    and `zeros` are the guards it was built under.
    """

    __slots__ = ("clause_set", "twists", "zeros", "nodes", "roots", "order", "sorts", "var_nodes",
                 "out_sorts", "levels", "recipes")

    def __init__(self, clause_set: _ClauseSet, interp: Interpretation):
        self.clause_set = clause_set
        self.out_sorts = []
        for schema in clause_set.clauses:
            lsort = _check_sorts(schema.lhs, interp)
            rsort = _check_sorts(schema.rhs, interp)
            if lsort is not None and rsort is not None and lsort != rsort:
                raise SemanticError("sides have different sorts")
            self.out_sorts.append(lsort if lsort is not None else rsort)
        var_sorts = {}
        for name, sort, _ in clause_set.variables:
            if sort not in interp.sorts:
                raise SemanticError(f"sort {sort!r} has no dimension binding")
            var_sorts[name] = sort
        interp.validate()
        dag = _Dag(interp)
        self.roots = [dag.add(e) for s in clause_set.clauses for e in (s.lhs, s.rhs)]
        self.nodes = nodes = dag.nodes
        self.twists, self.zeros = tuple(dag.twists.items()), tuple(dag.zeros.items())
        live = [False] * len(nodes)
        for r in self.roots:
            live[r] = True
        for nid in range(len(nodes) - 1, -1, -1):
            if live[nid]:
                for c in _children(nodes[nid]):
                    live[c] = True
        self.order = [nid for nid in range(len(nodes)) if live[nid]]
        self.sorts = sorts = [None] * len(nodes)
        self.var_nodes = {}
        slot_of = {name: p for p, name in enumerate(var_sorts)}
        free = [0] * len(nodes)
        self.levels = levels = [[] for _ in range(len(var_sorts) + 1)]
        for nid in self.order:
            key = nodes[nid]
            kind = key[0]
            if kind == "var":
                if key[1] not in var_sorts:
                    raise SemanticError(f"unbound variable {key[1]!r}")
                sorts[nid] = var_sorts[key[1]]
                self.var_nodes[key[1]] = nid
                free[nid] = 1 << slot_of[key[1]]
                continue
            if kind == "tw":
                sorts[nid] = interp.maps[key[1]][1][1]
            elif kind == "op":
                sorts[nid] = interp.ops[key[1]][1][2]
            elif key[1]:
                sorts[nid] = sorts[key[1][0][1]]
            for c in _children(key):
                free[nid] |= free[c]
            mask = free[nid]
            level = mask.bit_length() - 1
            if mask == (1 << (level + 1)) - 1:
                levels[level + 1].append((nid, None))
            else:
                levels[level + 1].append((nid, itemgetter(*[p for p in range(level + 1)
                                                              if mask >> p & 1])))
        # masks at the last slot and, past slot 0, the one before it (see check_clauses)
        last = len(var_sorts) - 1
        keys = {}  # one key object per table, shared by the steps that read it
        self.recipes = [self._support_recipe(free, p, keys) if p == last or p == last - 1 > 0
                        else None for p in range(last + 1)]

    def _support_recipe(self, free, p, keys):
        """How slot p's support follows from the prefix, as a _Recipe; None
        when some root reads a later slot but not slot p.

        Slots after p are wildcards.  A node that reads slot p gets a mask:
        bit t is set when the node may be nonzero, for some completion, with
        slot p at index t; -1 stands for every index.  A node read by an
        op(c, n) also gets a vector of masks, one per output coordinate j:
        bit t of entry j is set when coordinate j may be nonzero at t.  Here
        y is slot p's variable, c a node that does not read it and n, n1, n2
        nodes that do; for y itself the mask is -1 and entry j of the vector
        is 1 << j.  A c that reads only earlier slots has its value at hand.
        A c that reads a later slot (a later node) is abstracted to the
        output coordinates it can reach for some completion; it stands in
        for its value as (k, 1) over those coordinates k, written to the
        value list (whose entries for such nodes are stale until their level
        runs), and its reach goes to its mask.  A node that reads no earlier
        slot is fixed: it does not depend on the prefix.

        Children first, each mask, vector or reach some root needs gets one
        step (node, kind, a, b, the key of the table T it reads, see
        _tables), in the kinds _mask_fn runs.  A per-prefix step whose c (or
        w) is fixed folds it: bind_support reads it once per check.
        Masks:
          "union" c:        op(c, y) or op(y, c): the union of T[i] over c's
                            support, T op's row (or column) masks;
          "pick" c, n:      op(c, n) or op(n, c): J is that union, the mask
                            the union of vec(n)[j] over j in J;
          "gather" c, n:    "pick" with J folded;
          "map":            tw(y), T the power's nonzero columns;
          "same" n:         tw(n), mask(n);
          "and" n1, n2:     op(n1, n2), mask(n1) & mask(n2);
          "sum" ns, cs:     the union of the ns, every index if a c is nonzero.
        Vectors:
          "vunion" c, n:    op(c, n) or op(n, c): entry k is the union over i
                            in c's support of T[i][k] (T op's P or Q), spread
                            through vec(n) unless n is y (b None);
          "vfold" c, n:     "vunion" folded into a "vspread" of that union;
          "vspread" -, n:   tw(n): entry k is the union of vec(n)[j] over the
                            bits j of T[k], the power's row sets;
          "vconst":         tw(y), T the row sets; y itself, T its unit vector;
          "vand" n1, n2:    op(n1, n2), mask(n1) & mask(n2) in every entry;
          "vsum" ns, cs:    entrywise union of the ns; every index at the
                            coordinates where a c is nonzero.
        Reaches, each also written as its node's stand-in:
          "wvar":           a later slot's variable, T its stand-in: every
                            coordinate;
          "wunion" c:       tw(c), the union of T[i], the power's column
                            supports, over c's support;
          "wop" c, w:       op(c, w) or op(w, c), w later: the coordinates k
                            with T[i][k] (P or Q) meeting w's reach for some i
                            in c's support;
          "wfold" c, w:     "wop" folded into a "wunion" over, per i, those k;
          "wsum" -, cs:     the union of the cs' supports.
        So vectors are built only under an op(c, n), and a c that is one
        basis vector e_i over op(c, y) takes P[i] as it is.  Clauses are
        multilinear, so every rule only over-approximates: an index outside
        the mask has both sides of every clause zero on every completion.
        A root that reads a later slot but not slot p would put every index
        or none in the mask, by its reach; no clause set the package ships
        has one, so such a slot gets no recipe and is enumerated in full.

        The roots split into those that read y (`mask_roots`) and those that
        read no slot from p on (`prefix_roots`: nonzero, they put every index
        in the mask).  `fixed` are the steps of the fixed nodes, which run
        once per check, and `steps` the others, which run per prefix.  `keep`
        are the fixed later nodes whose stand-ins a per-prefix step reads
        (a sum: any other step folds them), and `fixed_roots` the mask roots
        among the fixed nodes, which may put every index in the mask for the
        whole check (see bind_support).  `data` lists the table keys.
        """
        bit, later = 1 << p, -2 << p
        early = bit - 1
        nodes, sorts = self.nodes, self.sorts
        roots = list(dict.fromkeys(self.roots))
        if any(free[r] & later and not free[r] & bit for r in roots):
            return None
        mask_roots = [r for r in roots if free[r] & bit]
        fixed = {nid for nid in self.order if free[nid] & (bit | later) and not free[nid] & early}
        masks, vectors, reach = set(mask_roots), set(), set()
        steps = []

        def emit(nid, kind, a, b, key=None):
            steps.append((nid, kind, a, b, None if key is None else keys.setdefault(key, key)))

        def inner(n):
            """n, or None when n is y."""
            return None if nodes[n][0] == "var" else n

        def partner(c):
            """Note a node that does not read y; one that reads a later slot needs its reach."""
            if free[c] & later:
                reach.add(c)

        for nid in reversed(self.order):
            key = nodes[nid]
            kind = key[0]
            if nid in reach:
                if kind == "var":
                    emit(nid, "wvar", None, None, ("all", sorts[nid]))
                elif kind == "tw":
                    emit(nid, "wunion", key[3], None, ("colsupp", *key[1:3]))
                    reach.add(key[3])
                elif kind == "op":
                    _, symbol, left, right = key
                    # w is a later factor, one that does not read an earlier slot if any
                    if free[right] & later and not (free[left] & later and free[right] & early
                                                    and not free[left] & early):
                        c, w, table = left, right, "P"
                    else:
                        c, w, table = right, left, "Q"
                    emit(nid, "wfold" if w in fixed and nid not in fixed else "wop", c, w,
                         (table, symbol))
                    partner(left)
                    partner(right)
                else:
                    terms = tuple(c for _, c in key[1])
                    emit(nid, "wsum", None, terms)
                    for c in terms:
                        partner(c)
                continue
            if kind == "var" or (nid not in masks and nid not in vectors):
                continue
            if kind == "tw":
                _, symbol, power, child = key
                n = inner(child)
                if nid in masks:
                    if n is None:
                        emit(nid, "map", None, None, ("mask", symbol, power))
                    else:
                        emit(nid, "same", child, None)
                        masks.add(child)
                if nid in vectors:
                    emit(nid, "vconst" if n is None else "vspread", None, n,
                         ("rowsets", symbol, power, sorts[nid]))
                    vectors.add(n)
            elif kind == "op":
                _, symbol, left, right = key
                if free[left] & bit and free[right] & bit:
                    if nid in masks:
                        emit(nid, "and", left, right)
                    if nid in vectors:
                        emit(nid, "vand", left, right, ("dim", sorts[nid]))
                    masks.update((left, right))
                    continue
                rows, c, n = (True, left, right) if free[right] & bit else (False, right, left)
                n = inner(n)
                fold = c in fixed and nid not in fixed
                partner(c)
                if nid in masks:
                    emit(nid, "union" if n is None else "gather" if fold else "pick", c, n,
                         ("rows" if rows else "cols", symbol))
                if nid in vectors:
                    emit(nid, "vfold" if fold else "vunion", c, n, ("P" if rows else "Q", symbol))
                vectors.add(n)
            else:
                ns = tuple(c for _, c in key[1] if free[c] & bit)
                cs = tuple(c for _, c in key[1] if not free[c] & bit)
                for c in cs:
                    partner(c)
                if nid in masks:
                    emit(nid, "sum", ns, cs)
                    masks.update(ns)
                if nid in vectors:
                    emit(nid, "vsum", ns, cs, ("dim", sorts[nid]))
                    vectors.update(ns)
        # only a sum reads the vector of y itself
        for n in vectors:
            if n is not None and nodes[n][0] == "var":
                emit(n, "vconst", None, None, ("unit", sorts[n]))
        steps.reverse()
        varying = tuple(s for s in steps if s[0] not in fixed)
        keep = tuple(dict.fromkeys(c for _, kind, _, cs, _ in varying
                                   if kind in ("sum", "vsum", "wsum") for c in cs if c in fixed))
        return _Recipe(tuple(s for s in steps if s[0] in fixed), varying, keep,
                       tuple(r for r in mask_roots if r in fixed), tuple(mask_roots),
                       tuple(r for r in roots if not free[r] & bit),
                       tuple({s[4]: None for s in steps if s[4]}))

    def holds(self, interp: Interpretation) -> bool:
        """Whether every guard holds for this interpretation's data."""
        return (all(_is_identity(interp, symbol, power) == flag
                    for (symbol, power), flag in self.twists)
                and all(_is_zero(interp, symbol) == flag for symbol, flag in self.zeros))

    def bind(self, interp: Interpretation, leaf_dens: dict):
        """(kernels, denominators) over the interpretation's data.

        A variable's denominator is leaf_dens.get(name, 1); every other live
        node gets an integer kernel reading its children's current values
        from a list indexed by node id.
        """
        nodes, sorts, dims = self.nodes, self.sorts, interp.sorts
        dens = [1] * len(nodes)
        kernels = [None] * len(nodes)
        for nid in self.order:
            key = nodes[nid]
            kind = key[0]
            if kind == "var":
                dens[nid] = leaf_dens.get(key[1], 1)
            elif kind == "tw":
                _, symbol, power, child = key
                cols, den = _power(interp.maps[symbol][0], power)[:2]
                dens[nid] = dens[child] * den
                kernels[nid] = _twist_kernel(child, cols, dims[sorts[nid]])
            elif kind == "op":
                _, symbol, left, right = key
                tensor = interp.ops[symbol][0]
                dens[nid] = dens[left] * dens[right] * tensor._d
                kernels[nid] = _op_kernel(left, right, _tensor(tensor)[0], dims[sorts[nid]])
            elif not key[1]:
                kernels[nid] = _zero_kernel
            else:
                den = 1
                for w, c in key[1]:
                    den = lcm(den, w.denominator * dens[c])
                terms = [(w.numerator * (den // (w.denominator * dens[c])), c) for w, c in key[1]]
                dens[nid] = den
                kernels[nid] = _sum_kernel(terms, dims[sorts[nid]])
        return kernels, dens

    def bind_support(self, p, interp: Interpretation, cur: list, tables: dict,
                     standins: dict):
        """Slot p's support recipe over the interpretation's data, as a
        function of the current prefix (see _mask_fn).

        The tables the recipe reads are fetched into `tables`, once per
        check.  The fixed steps run here, once, into fresh mask and vector
        lists and stand-ins in `cur`.  Then the per-prefix steps that fold a
        fixed operand read it: "gather" gets J as its table, "vfold" becomes
        "vspread" over the union of its P (or Q) rows, and "wfold" becomes
        "wunion" with, per index of c, the coordinates that meet w's reach.
        A "wvar" step per `keep` node puts back, per prefix, the stand-in
        the fixed steps left in `cur`.  When a fixed root's mask already
        covers every index, slot p's mask is -1 for the whole check.
        `standins` keeps one stand-in list per reach, for the check.
        """
        once, varying, keep, fixed_roots, mask_roots, prefix_roots, data = self.recipes[p]
        _tables(data, tables, interp)
        masks = [-1] * len(self.nodes)  # a variable's own mask stays -1
        vecs = [None] * len(self.nodes)
        _mask_fn((), [(nid, kind, a, b, tables.get(key)) for nid, kind, a, b, key in once],
                 masks, vecs, (), cur, standins)()
        if fixed_roots:
            every = (1 << interp.sorts[self.clause_set.variables[p][1]]) - 1
            if any(masks[r] & every == every for r in fixed_roots):
                return lambda: -1
        steps = [(c, "wvar", None, None, cur[c]) for c in keep]
        for nid, kind, a, b, key in varying:
            data = tables.get(key)
            if kind == "gather":  # J, from the fixed c
                bits = 0
                for i, _ in cur[a]:
                    bits |= data[i]
                a, data = None, bits
            elif kind == "vfold":  # the vector before it is spread through n's
                vec = [0] * len(data[0])
                for i, _ in cur[a]:
                    for j, m in enumerate(data[i]):
                        vec[j] |= m
                kind, a, data = "vspread", None, vec
            elif kind == "wfold":  # per index of c, the coordinates that meet w's reach
                bits = masks[b]
                kind, b, data = "wunion", None, [
                    sum(1 << j for j, m in enumerate(row) if m & bits) for row in data]
            steps.append((nid, kind, a, b, data))
        return _mask_fn(prefix_roots, steps, masks, vecs, mask_roots, cur, standins)


def _tables(keys, tables: dict, interp: Interpretation) -> None:
    """Fetch into `tables` the data recipe steps read, by key, unless fetched
    already: a tensor's row or column masks or its P or Q, a map power's
    nonzero-column mask, row sets or column supports, a sort's dimension,
    the stand-in of its every coordinate or its unit vector of masks."""
    ops, maps, dims = interp.ops, interp.maps, interp.sorts
    for key in keys:
        if key in tables:
            continue
        kind = key[0]
        if kind == "rows" or kind == "cols":
            got = _tensor(ops[key[1]][0])[1 if kind == "rows" else 2]
        elif kind == "P" or kind == "Q":
            got = _outputs(ops[key[1]][0], kind == "Q")
        elif kind == "mask":
            got = _power(maps[key[1]][0], key[2])[2]
        elif kind == "rowsets":
            got = _row_sets(_power(maps[key[1]][0], key[2])[0], dims[key[3]])
        elif kind == "colsupp":
            got = [sum(1 << i for i, _ in col) for col in _power(maps[key[1]][0], key[2])[0]]
        elif kind == "dim":
            got = dims[key[1]]
        elif kind == "all":
            got = _standin((1 << dims[key[1]]) - 1)
        else:  # "unit"
            got = [1 << j for j in range(dims[key[1]])]
        tables[key] = got


def _mask_fn(prefix_roots, steps, masks, vecs, roots, cur, standins):
    """The mask of one slot for the current prefix, as a function: -1 if a
    prefix root is nonzero, else the union of the roots' masks once the
    bound recipe steps (see _Plan.bind_support) have run.  The steps are
    those of _Plan._support_recipe, the fold kinds already rewritten; "map"
    and "vconst" come only in the pass that runs once per check."""

    def mask():
        for r in prefix_roots:
            if cur[r]:
                return -1
        for nid, kind, a, b, data in steps:
            if kind == "vunion":
                c = cur[a]
                if len(c) == 1:
                    vec = data[c[0][0]]
                else:
                    vec = [0] * len(data[0])
                    for i, _ in c:
                        for k, m in enumerate(data[i]):
                            vec[k] |= m
                vecs[nid] = vec if b is None else _spread(vecs[b], vec)
            elif kind == "pick":
                bits = 0
                for i, _ in cur[a]:
                    bits |= data[i]
                masks[nid] = _gather(vecs[b], bits)
            elif kind == "gather":
                masks[nid] = _gather(vecs[b], data)
            elif kind == "union":
                out = 0
                for i, _ in cur[a]:
                    out |= data[i]
                masks[nid] = out
            elif kind == "sum":
                out = 0
                for c in a:
                    out |= masks[c]
                for c in b:
                    if cur[c]:
                        out = -1
                        break
                masks[nid] = out
            elif kind == "same":
                masks[nid] = masks[a]
            elif kind == "vspread":
                vecs[nid] = _spread(vecs[b], data)
            elif kind == "and":
                masks[nid] = masks[a] & masks[b]
            elif kind == "vsum":
                vec = [0] * data
                for c in a:
                    for k, m in enumerate(vecs[c]):
                        vec[k] |= m
                for c in b:
                    for k, _ in cur[c]:
                        vec[k] = -1
                vecs[nid] = vec
            elif kind == "vand":
                vecs[nid] = [masks[a] & masks[b]] * data
            elif kind == "wvar":
                cur[nid] = data
            elif kind == "wunion" or kind == "wop" or kind == "wsum":  # a later node's reach
                out = 0
                if kind == "wunion":
                    for i, _ in cur[a]:
                        out |= data[i]
                elif kind == "wop":
                    bits = masks[b]
                    for i, _ in cur[a]:
                        for k, m in enumerate(data[i]):
                            if m & bits:
                                out |= 1 << k
                else:
                    for c in b:
                        for k, _ in cur[c]:
                            out |= 1 << k
                masks[nid] = out
                got = standins.get(out)
                if got is None:
                    got = standins[out] = _standin(out)
                cur[nid] = got
            elif kind == "map":  # this and "vconst" run once per check
                masks[nid] = data
            else:  # "vconst"
                vecs[nid] = data
        out = 0
        for r in roots:
            out |= masks[r]
        return out

    return mask


def _bind(clauses, interp: Interpretation, polar: bool, leaf_dens: dict, memo=False):
    """(plan, kernels, denominators, memo) for the clauses over interp.

    The plan comes from the first clause's cache, keyed by the remaining
    clauses and `polar`, then by shape; it is built when no cached plan's
    guards hold.  Sorts are checked and the data validated before any guard
    reads the data, as a fresh build does.  With `memo` (exhaustive checks
    only), the shape's verdicts are looked up once the data is validated.
    The last item is then the verdict kept for the same objects and
    dimensions, with everything else None, or else (_Shape, bound) for
    `_Shape.remember`.
    """
    head = clauses[0]
    key = (tuple(clauses[1:]), polar)
    clause_set = head.plans.get(key)
    if clause_set is None:
        clause_set = head.plans[key] = _ClauseSet(clauses, polar)
    shape = clause_set.shape(interp)
    entry = clause_set.by_shape.get(shape)
    plan = slot = None
    if entry is not None:
        interp.validate()
        if memo:
            slot = (entry, entry.bound(clause_set, interp))
            verdict = entry.recall(slot[1])
            if verdict is not None:
                return None, None, None, verdict
        plan = next((p for p in entry.plans if p.holds(interp)), None)
    if plan is None:
        plan = _Plan(clause_set, interp)
        if entry is None:
            entry = clause_set.by_shape[shape] = _Shape(shape)
        entry.plans.append(plan)
    if memo and slot is None:
        slot = (entry, entry.bound(clause_set, interp))
    return (plan, *plan.bind(interp, leaf_dens), slot)


def _run(order, kernels, cur) -> None:
    """Evaluate every kernel in topological order (variables already set)."""
    for nid in order:
        kernel = kernels[nid]
        if kernel is not None:
            cur[nid] = kernel(cur)


def _vector(cur, dens, root, dim) -> Vector:
    out = [0] * dim
    for k, x in cur[root]:
        out[k] = x
    return Vector._make(out, dens[root])


def _equal(cur, dens, left, right) -> bool:
    lv, rv = cur[left], cur[right]
    dl, dr = dens[left], dens[right]
    if dl == dr:
        return lv == rv
    return len(lv) == len(rv) and all(
        i == j and x * dr == y * dl for (i, x), (j, y) in zip(lv, rv)
    )


def evaluate(expr: Expr, env: dict, interp: Interpretation) -> Vector:
    """Evaluate an expression with variables bound to concrete Vectors."""
    sorts: dict = {}
    _collect_sorts(expr, sorts)
    for name, s in sorts.items():
        if name not in env:
            raise SemanticError(f"unbound variable {name!r}")
        if s not in interp.sorts:
            raise SemanticError(f"sort {s!r} has no dimension binding")
        if env[name].dim != interp.sorts[s]:
            raise ShapeError(f"variable {name!r} bound to a vector of dim {env[name].dim}")
    schema = IdentitySchema("evaluate", expr, ZERO,
                            variables=[(name, s, 1) for name, s in sorts.items()])
    plan, kernels, dens, _ = _bind((schema,), interp, False,
                                   {n: v._d for n, v in env.items()})
    cur = [None] * len(plan.nodes)
    for name, nid in plan.var_nodes.items():
        cur[nid] = _sparse(env[name]._n)
    _run(plan.order, kernels, cur)
    return _vector(cur, dens, plan.roots[0], interp.sorts.get(plan.out_sorts[0], 0))


def check_schema(schema: IdentitySchema, interp: Interpretation) -> CheckReport:
    """Exhaustively check one schema: check_clauses with a single clause."""
    return check_clauses((schema,), interp, f"schema:{schema.name}")


def check_clauses(clauses, interp: Interpretation, check_id: str) -> CheckReport:
    """Exhaustively check schemas that share one variable list.

    Non-multilinear schemas are polarized first; afterwards all clauses must
    have the same variables and copy blocks.  Basis tuples are enumerated
    lexicographically in variable declaration order, and on each tuple the
    clauses are compared in order: the witness is the first violating tuple
    and, on it, the first violated clause.  Within a copy block only sorted
    tuples are visited: the identity is symmetric in the block, so the first
    violating tuple is sorted there and the witness is the one full
    enumeration finds.  At the last slot, and at the one before it where it
    has a recipe, only the indices in the support mask of some side are
    visited; every tuple below any other index has both sides zero.  tuples_checked counts the tuples decided, skipped
    ones included, tuples_evaluated those whose sides were evaluated, and
    prefixes_visited the proper prefixes on which level kernels ran.  A check
    of the same tensor and map objects at the same dimensions is answered
    from the memo (see the module docstring).
    """
    try:
        plan, kernels, dens, memo = _bind(clauses, interp, True, {}, memo=True)
    except (SemanticError, KeyError) as exc:
        raise SemanticError(f"{clauses[0].name}: {exc}") from exc
    if plan is None:  # a verdict kept for these very objects
        witness, checked, evaluated, prefixes = memo[:4]
        return CheckReport("pass" if witness is None else "fail", check_id, witness=witness,
                           tuples_checked=checked, tuples_evaluated=evaluated,
                           prefixes_visited=prefixes)
    variables, lower = plan.clause_set.variables, plan.clause_set.lower
    tails, recipes = plan.clause_set.tails, plan.recipes
    dims = [interp.sorts[sort] for _, sort, _ in variables]
    basis = [[[(i, 1)] for i in range(d)] for d in dims]
    var_at = [plan.var_nodes.get(name) for name, _, _ in variables]
    steps = [[(nid, kernels[nid], key, None if key is None else {}) for nid, key in level]
             for level in plan.levels]
    sides = list(zip(plan.roots[::2], plan.roots[1::2]))
    cur = [None] * len(plan.nodes)
    bound = [None] * len(variables)  # each slot's mask function, bound when first needed
    standins, tables = {}, {}
    idx = [0] * len(variables)
    last = len(variables) - 1
    count = evaluated = prefixes = 0
    hit = -1
    met_empty = False  # whether a last-slot mask came out empty yet

    def run(level):
        for nid, kernel, key, table in steps[level + 1]:
            if table is None:
                cur[nid] = kernel(cur)
            else:
                k = key(idx)
                v = table.get(k)
                if v is None:
                    v = table[k] = kernel(cur)
                cur[nid] = v

    def violated():
        nonlocal hit
        for k, (lhs, rhs) in enumerate(sides):
            if not _equal(cur, dens, lhs, rhs):
                hit = k
                return True
        return False

    def support(p):
        """Mask of slot p's indices at which some side may be nonzero for some
        completion, before slot p's recipe is bound: -1 if a root that reads
        no slot from p on is nonzero, else the recipe (see
        _Plan._support_recipe) bound into `bound[p]` and run for this prefix."""
        for r in recipes[p].prefix_roots:
            if cur[r]:
                return -1
        bound[p] = plan.bind_support(p, interp, cur, tables, standins)
        return bound[p]()

    def below(p, a, b):
        """The tuples below slot p with its index in [a, b), sorted within
        copy blocks: a product of binomials, the run that continues p's
        block summed over [a, b) at once."""
        n, tail = 1, None
        for q, length, src in tails[p]:
            if src == p:
                tail = dims[q] + length, length + 1
            else:
                n *= comb(dims[q] - (idx[src] if src >= 0 else 0) + length - 1, length)
        if tail is None:
            return n * (b - a)
        top, k = tail
        return n * (comb(top - a, k) - comb(top - b, k))

    def scan(lo):
        """Visit the last slot's supported indices from lo; True at a witness."""
        nonlocal count, evaluated, met_empty
        vnode, vals = var_at[last], basis[last]
        mask = bound[last]
        bits = ((mask() if mask else support(last)) & ((1 << dims[last]) - 1)) >> lo << lo
        if not bits:
            met_empty = True
        evaluated += bits.bit_count()
        while bits:
            low = bits & -bits
            bits ^= low
            i = low.bit_length() - 1
            idx[last] = i
            if vnode is not None:
                cur[vnode] = vals[i]
            run(last)
            if violated():
                count += i + 1 - lo
                evaluated -= bits.bit_count()
                return True
        count += dims[last] - lo
        return False

    def visit(p):
        """Enumerate slot p onwards; True once a violating tuple is found.

        A slot with a recipe is masked once some last-slot mask has come
        out empty: an index outside the mask has both sides zero on every
        completion and is not visited, and its subtree is counted in closed
        form (see below).  Until then nothing suggests that an index can be
        skipped, so a check that decides early never binds the recipe."""
        nonlocal count, prefixes
        lo = idx[lower[p]] if lower[p] >= 0 else 0
        if p == last:
            return scan(lo)
        vnode, vals = var_at[p], basis[p]
        end = dims[p]
        masked = met_empty and recipes[p] is not None
        if masked:
            mask = bound[p]
            bits = (mask() if mask else support(p)) >> lo
            indices = [i for i in range(lo, end) if bits >> (i - lo) & 1]
        else:
            indices = range(lo, end)
        start = count
        for i in indices:
            idx[p] = i
            if vnode is not None:
                cur[vnode] = vals[i]
            run(p)
            if visit(p + 1):
                if masked:  # the prefixes up to i, and the subtrees skipped before i
                    prefixes += indices.index(i) + 1
                    count += below(p, lo, i) - sum(below(p, j, j + 1) for j in indices if j < i)
                else:
                    prefixes += i - lo + 1
                return True
        prefixes += len(indices)
        if masked:  # every subtree, visited or skipped
            count = start + below(p, lo, end)
        return False

    run(-1)
    if variables:
        failed = visit(0)
        visit = None  # it calls itself: free this call's tables now, not at a gc pass
    else:
        count = evaluated = 1
        failed = violated()
    if not failed:
        report = CheckReport("pass", check_id, tuples_checked=count, tuples_evaluated=evaluated,
                             prefixes_visited=prefixes)
    else:
        lhs, rhs = sides[hit]
        witness = Witness(
            identity=clauses[hit].name,
            variables=plan.clause_set.names,
            indices=tuple(idx),
            lhs_value=_vector(cur, dens, lhs, interp.sorts.get(plan.out_sorts[hit], 0)),
            rhs_value=_vector(cur, dens, rhs, interp.sorts.get(plan.out_sorts[hit], 0)),
        )
        report = CheckReport("fail", check_id, witness=witness, tuples_checked=count,
                             tuples_evaluated=evaluated, prefixes_visited=prefixes)
    entry, key = memo
    entry.remember(key, report)
    return report


_RANDOM_NUMERATORS = tuple(range(-3, 4))
_RANDOM_DENOMINATORS = (1, 2, 3)


def check_schema_random(
    schema: IdentitySchema,
    interp: Interpretation,
    samples: int,
    seed: int,
    numerators=None,
    denominators=None,
) -> CheckReport:
    """Spot-check the original (un-polarized) schema on pseudo-random vectors.

    Used to cross-validate the polarization pass; draws are deterministic in
    the seed.  The coordinate pool defaults to numerators -3..3 over
    denominators 1..3 and can be overridden.  Coordinates are brought to the
    pool's common denominator, so the schema compiles once for all samples.
    Fewer than one sample is a SemanticError: a check that draws nothing
    decides nothing.
    """
    if samples < 1:
        raise SemanticError(f"a random check needs at least one sample, got {samples}")
    nums = tuple(numerators) if numerators else _RANDOM_NUMERATORS
    dens = tuple(denominators) if denominators else _RANDOM_DENOMINATORS
    check_id = f"schema-random:{schema.name}"
    common = lcm(*dens)
    plan, kernels, node_dens, _ = _bind((schema,), interp, False,
                                     {name: common for name, _, _ in schema.variables})
    lhs, rhs = plan.roots
    rng = random.Random(seed)
    cur = [None] * len(plan.nodes)
    slots = [(plan.var_nodes.get(name), interp.sorts[sort]) for name, sort, _ in schema.variables]
    for k in range(samples):
        for nid, d in slots:
            coords = [(rng.choice(nums), rng.choice(dens)) for _ in range(d)]
            if nid is not None:
                cur[nid] = _sparse(n * (common // m) for n, m in coords)
        _run(plan.order, kernels, cur)
        if not _equal(cur, node_dens, lhs, rhs):
            return CheckReport(
                "fail", check_id, detail=f"sample {k} (seed {seed})", tuples_checked=k + 1
            )
    return CheckReport("pass", check_id, tuples_checked=samples)


def check_all(schemas, interp: Interpretation, check_id: str) -> CheckReport:
    """Run several schemas; pass iff all pass, else first failure's witness."""
    total = evaluated = prefixes = 0
    for schema in schemas:
        rep = check_schema(schema, interp)
        total += rep.tuples_checked
        evaluated += rep.tuples_evaluated
        prefixes += rep.prefixes_visited
        if not rep.ok:
            return CheckReport(
                "fail", check_id, witness=rep.witness, tuples_checked=total,
                tuples_evaluated=evaluated, prefixes_visited=prefixes,
                detail=f"violated schema {schema.name!r}",
            )
    return CheckReport("pass", check_id, tuples_checked=total, tuples_evaluated=evaluated,
                       prefixes_visited=prefixes)

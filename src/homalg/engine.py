"""The exhaustive basis-tuple checker of identity schemas.

A schema (see `homalg.identities`, whose names this module re-exports) is
an expression-tree equation over op symbols, twist powers and sorted
variables.  Checking a multilinear schema against a concrete
interpretation means evaluating both sides on every tuple of basis
vectors; a schema that repeats a variable is polarized first.  Against an
interpretation, the DAG checks sorts as it interns each subterm, children
first, and gives the plan the sort of every node and side (see
`_Dag.add`).

Evaluation is compiled once and bound per call.  `check_clauses` compiles
the sides of several schemas over one variable list into one hash-consed
DAG, so equal subterms (such as those shared by the polarized terms of
Hom-Jordan, or the side prod(K u, K v) of the operator clauses) are one
node.  The compiled plan holds no data: the polarized clauses, the DAG's
node keys, its live order, its kernels and the level steps.  It is kept on
the first schema of the clause tuple and reused for every interpretation
that binds the same symbols with the same signatures, whatever the
dimensions, as long as its guards hold again: the DAG is simplified against
the data (identity twist powers vanish, zero products are zero), so a plan
records the identity flag of every twist power and the zero flag of every
op it read.  A plan builds one integer kernel per node, once; a kernel
reads its structure constants' numerators and its output dimension from
slots of the value list after the nodes.  Each call binds the plan per
symbol, not per node, after one pass over the symbols the clauses read
(`_ClauseSet.read`) has given the shape, the objects bound to them (for
the memo key and the guards) and the check of their dimensions; symbols
the clauses do not read are not validated.  It fills the slots with the
sparse rows each op's tensor stores and the sparse columns of each twist
power (see `exact`; the engine converts neither, and a power above 1 is
the columns of its composite), and the dimension of each sort, and takes
the node denominators (and the sums' terms scaled to them) that the plan
keeps for the last denominators it was bound with, rebuilding them only
when the data's or the variables' denominators differ.  The sides compare
as l * Dr == r * Dl.  A kernel skips zero work: with no nonzero
contribution it returns [], with one the scaled row, column or term, and
only with two or more does it sum into a dense list.  Tuples are enumerated
lexicographically and a node is re-evaluated only when a slot it depends on
changes, looking up a table keyed by the tuple's projection onto its free
slots that is filled on demand, so a failing check still stops at its first
witness.  Those tables live for one call.  What a check decides from
one object is kept on that object, and dies with it:
  - a tensor keeps its row and column masks, its per-output masks, and
    its row and column masks read through a chain of twists, one table per
    cover met, each built on the first request for it (see `_tensor`);
  - a map keeps, per power, its nonzero-column mask and identity flag
    beside its sparse columns (at power 1 the columns it stores, see
    `exact.LinearMap`; a higher power's are its composite's), and its row
    sets (see `_power`);
  - per dimension, the basis values and unit masks are built once (`_dim`).
So guards are read, not rebuilt, and a check over a fresh map over data
already seen pays only for that map's own data.
A plan in the support-mask contract (every side reads all slots or none,
no product reads a slot in both factors, the terms of every sum read the
same slots) skips zero work; polarized clauses are multilinear with
homogeneous sums, so every clause set the package ships meets it, and any
other plan is enumerated in full.  With three or more slots it contracts:
slot 0 is enumerated and, per index there, each node that reads a later
slot gets a table from a key (the sum of index * stride over the later
slots it reads) to its nonzero value.  A product joins its factors' tables
on their disjoint slots, a twist maps each value and a sum adds its terms'
tables; a product or twist over a bare later variable is driven by the
tensor's row or column masks, or the power's nonzero columns, so the work
follows the nonzeros (a one-entry file of dimension N costs N steps, not
N^2).  The sides agree exactly when their tables are equal, and the least
key at which they differ that is sorted within copy blocks is the witness
naive enumeration finds; a failing check stops at the end of its slot-0
index.  For such a plan `tuples_checked` is the naive count in closed form
(to the witness), `tuples_evaluated` the tuples with a nonzero side, and
`prefixes_visited` the indices of slot 0 visited.  `check_clauses`
contracts tuple-major: every clause at each index of slot 0.  `check_all`
decides each run of consecutive schemas whose polarized forms share one
variable list of three or more slots (the dialgebra, trialgebra,
tridendriform and Leibniz-trialgebra axioms, and the 3-slot bimodule and
action axioms) clause-major on one plan over the run's clauses: clause 0
over every index of slot 0, then clause 1, up to the first that fails.
The DAG builds a table such as left(x, y) or alpha(z) that several axioms
read once per index, and keeps it only until the last clause that reads
it; a pass that stops at a clause has run no step only later clauses
read.  Each verdict is what that schema's own check reports, and is kept
in the schema's memo, from which check_schema then answers (see
`_decide`).
With one or two slots it keeps the masked scan: the plan holds a support
recipe for the nodes that read the last variable (see _support_recipe);
bound to the support masks kept with the data, it gives per prefix a
bitmask of the last slot's indices at which some side may be nonzero.  A
mask sees through the twists above its node, so the Nijenhuis map
x + u -> K(u), zero on all of A, skips the tuples it sends to zero, which
the contraction would join: with every plan contracted, loop-certifiers'
checks (all of two slots) ran x1.2-1.5 slower, the Nijenhuis checks over
the hemisemi ambient most.  Only the supported indices are evaluated; at
every other one both sides of every clause are zero.
Polarization records each variable's copies as a copy block; the identity
is symmetric there, so only tuples sorted within each block are decided,
and the first violating tuple is still the one naive enumeration finds.
`tuples_checked` counts the tuples decided (sorted within copy blocks),
those skipped as zero on both sides included, so it equals the count of a
naive enumeration; for a plan that does not contract, `tuples_evaluated`
counts those whose sides were evaluated and `prefixes_visited` the proper
prefixes on which level kernels ran.  `evaluate` and `check_schema_random`
go through the same kind of plans and kernels; they never enumerate, so
their plans neither mask nor contract.

Exhaustive verdicts are memoized where the plans are kept: each shape of a
clause tuple keeps the verdict of every check run over it, keyed by the
identity of the tensor or map bound to each symbol read and by the
dimensions of the interpretation's sorts.  A check that binds the
same objects again gets a fresh report whose status, witness,
`tuples_checked`, `tuples_evaluated` and `prefixes_visited` are those of
the first check.  Tensors and maps are immutable (`_masks` and `_powers`
are caches), so an object's identity stands for its content.  A fresh
object always misses, even with equal content: the memo serves
constructions whose gates re-certify the same inputs, not repeated data.
It holds weak references only: an entry is dropped when the first of its
objects dies, so the memo keeps live entries alone, and it goes with its
schema.  `evaluate` and `check_schema_random` never
read it.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import cache, partial
from math import comb, lcm
from operator import itemgetter
from typing import Optional
from weakref import ref

from .exact import LinearMap, ShapeError, Vector, _zero_plane, square_gap
from .identities import (ZERO, Expr, IdentitySchema, OpApp, SemanticError, Sum, TwistApp, Var,
                         _scan, identity, op, polarize, rewrite, tw, var)
from .records import FrozenRecord, Record


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
# compilation
#
# A compiled value is sparse: a list of (basis index, integer numerator)
# pairs in index order with zeros omitted, over a denominator fixed per node
# when the plan is bound.  The zero vector is [].
#
# Compiling is split in two.  A plan (_Plan) holds no data: the clauses as
# checked, the DAG's node keys, its live order and node sorts, its kernels
# and the level steps of check_clauses.  It is built for one interpretation
# shape (the sort names and the signatures of the symbols read; not the
# dimensions) and records as guards the identity flag of every twist power
# and the zero flag of every op the DAG's simplification asked about; it is
# reused for any interpretation of that shape on which all guards hold
# again.  Binding a plan, per call, is per symbol, not per node: it puts
# each op's sparse numerator rows, each twist power's columns, each sort's
# dimension and each sum's scaled terms into slots of a fresh value list,
# where the kernels read them, and gives each node its denominator.
#
# The kernels skip zero work.  A product, twist or sum collects the
# nonzero contributions (a nonzero row, column or term of a nonzero entry)
# and returns [] when there are none and the scaled contribution when there
# is one; only two or more are summed in a dense list of the output
# dimension, which is then made sparse.


def _children(key):
    kind = key[0]
    if kind == "tw":
        return (key[3],)
    if kind == "op":
        return key[2:]
    if kind == "sum":
        return tuple(c for _, c in key[1])
    return ()


def _sparse(dense):
    return [(k, x) for k, x in enumerate(dense) if x]


def _support(vectors) -> int:
    """Bitmask of the positions of the nonzero sparse vectors."""
    return sum(1 << k for k, v in enumerate(vectors) if v)


def _tensor(tensor, kind):
    """One table of a tensor, built on first request and kept on it (in the
    dict `StructureTensor._masks`, by kind):
      "rows", "cols":  bit j of row mask i, and bit i of column mask j, is set
                       when e_i e_j is nonzero, i.e. when the tensor's sparse
                       row (i, j) is not []; both are built on the first
                       request for any table, as the plan guards read them;
      "P", "Q":        bit j of P[i][k], and bit i of Q[j][k], is set when
                       coordinate k of e_i e_j is nonzero; the entries of a
                       zero row or column mask are one shared zero row.  Both
                       are built in one pass on the first request for either;
      (kind, cover):   the row ("rows") or column ("cols") masks read through
                       a chain of twists whose composite may be nonzero only
                       at the output coordinates in the cover (see `_cover`;
                       -1 for no chain): entry i the union of P[i][k] (or
                       Q[i][k]) over k in the cover, or the plain masks when
                       the cover cuts no output coordinate;
      "pairs":         per left index i, the (j, sparse row) of every nonzero
                       e_i e_j, j ascending: what `varieties.is_morphism`
                       reads.
    The masks are built in one walk over the nonzero planes (a zero plane is
    the shared one of `exact._zero_plane`, skipped by identity), and every
    other table from the set bits of the row masks, so a table costs one
    step per plane plus the tensor's nonzero rows, and no table is built
    that no check reads.
    """
    got = tensor._masks
    if got is None:
        zero, rows, cols = _zero_plane(tensor.right_dim), [], [0] * tensor.right_dim
        for i, plane in enumerate(tensor._rows):
            bits = 0
            if plane is not zero:
                bit = 1 << i
                for j, row in enumerate(plane):
                    if row:
                        bits |= 1 << j
                        cols[j] |= bit
            rows.append(bits)
        got = tensor._masks = {"rows": rows, "cols": cols}
    table = got.get(kind)
    if table is not None:
        return table
    if kind == "P" or kind == "Q":
        od = tensor.out_dim
        none = [0] * od
        p, q = [none] * tensor.left_dim, [none] * tensor.right_dim
        for i, (plane, bits) in enumerate(zip(tensor._rows, got["rows"])):
            if bits:
                bit, pi = 1 << i, [0] * od
                p[i] = pi
                while bits:
                    low = bits & -bits
                    bits ^= low
                    j = low.bit_length() - 1
                    qj = q[j]
                    if qj is none:
                        qj = q[j] = [0] * od
                    for k, _ in plane[j]:
                        pi[k] |= low
                        qj[k] |= bit
        got["P"], got["Q"] = p, q
        return got[kind]
    if kind == "pairs":
        table = []
        for plane, bits in zip(tensor._rows, got["rows"]):
            pairs = []
            while bits:
                low = bits & -bits
                bits ^= low
                j = low.bit_length() - 1
                pairs.append((j, plane[j]))
            table.append(pairs)
    else:
        plain, cover = kind
        every = (1 << tensor.out_dim) - 1
        if cover & every == every:
            table = got[plain]
        else:
            table = [_gather(vec, cover) if bits else 0 for vec, bits in
                     zip(_tensor(tensor, "P" if plain == "rows" else "Q"), got[plain])]
    got[kind] = table
    return table


# one tuple per distinct list of dimensions, shared by the memo entries that keep it
_interned = cache(lambda *dims: dims)


@cache
def _dim(d):
    """(basis values, unit masks) of dimension d, built once: [(i, 1)] per
    index i and 1 << j per j."""
    return [[(i, 1)] for i in range(d)], [1 << j for j in range(d)]


def _gather(vec, bits) -> int:
    """The union of vec[j] over the set bits j of bits."""
    out = 0
    while bits:
        low = bits & -bits
        bits ^= low
        out |= vec[low.bit_length() - 1]
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
    lin^power, built once and kept on the map; the columns are the map's
    own `_cols` (at power 1, lin's).  The flag reads the content: any map
    whose numerators are its denominator on the diagonal and zero elsewhere
    has it.  The power's row sets (see `_rowsets`) are kept beside it."""
    if lin._powers is None:
        lin._powers = {}
    elif power in lin._powers:
        return lin._powers[power]
    m = lin if power == 1 else lin.power(power)  # a map across sorts is only read at power 1
    cols = m._cols
    mask = _support(cols)
    identity = (m.src_dim == m.dst_dim and mask == (1 << m.src_dim) - 1
                and all(col == [(j, m._d)] for j, col in enumerate(cols)))
    got = lin._powers[power] = (cols, m._d, mask, identity)
    return got


def _rowsets(lin, power):
    """The row sets of lin^power (bit b of entry k set when coordinate k of
    column b is nonzero), built once and kept with its powers."""
    cols = _power(lin, power)[0]
    if ("rowsets", power) not in lin._powers:
        got = lin._powers["rowsets", power] = [0] * lin.dst_dim
        for b, col in enumerate(cols):
            for k, _ in col:
                got[k] |= 1 << b
    return lin._powers["rowsets", power]


def twist_gap(kc, alpha: LinearMap, beta: LinearMap):
    """The first column j at which K.beta and alpha.K differ, or None.

    K: V -> A is given by its numerator columns kc (its denominator cancels),
    beta twists V and alpha twists A.  When both twists carry the identity
    flag of `_power` the square holds for every K and nothing is
    multiplied; otherwise `square_gap` decides it, cross-scaled by alpha._d
    and beta._d.  Operator admissibility, the operator sampler's accept
    test and the morphism twist check all ask it.
    """
    if _power(alpha, 1)[3] and _power(beta, 1)[3]:
        return None
    return square_gap(kc, beta._cols, alpha._cols, kc, alpha._d, beta._d)


class _Dag:
    """Hash-consed expression DAG, sort-checked and simplified against one
    interpretation.

    A node is ("var", name), ("tw", symbol, power, child), ("op", symbol,
    left, right) or ("sum", ((weight, child), ...)); its id is its position
    in `nodes`, so children precede parents, and `sorts` gives its sort (a
    variable's as first met, None for the zero node).  Sums are flattened
    with like terms merged, zero weights dropped and terms in child order;
    nested twists by one map merge their powers, and a twist whose power is
    the identity map disappears; a product with a zero factor or a zero
    tensor is zero.  Equal subterms therefore become one node.  `twists` and
    `zeros` record every identity and zero flag the simplification read.
    """

    def __init__(self, interp: Interpretation):
        self.interp = interp
        self.nodes, self.sorts = [], []
        self._ids = {}
        self._seen = {}
        self.twists = {}
        self.zeros = {}
        self.zero = self._intern(("sum", ()), None)

    def _intern(self, key, sort) -> int:
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.nodes)
            self.nodes.append(key)
            self.sorts.append(sort)
        return nid

    def add(self, expr):
        """(node id, sort) of an expression, its sorts checked as it is
        interned, children first; the sort is the expression's before
        simplification, None for a sum of no sort.  The caller keeps the
        expression alive."""
        got = self._seen.get(id(expr))
        if got is not None:
            return got
        if isinstance(expr, Var):
            got = self._intern(("var", expr.name), expr.sort), expr.sort
        elif isinstance(expr, TwistApp):
            child, sort = self.add(expr.child)
            symbol = expr.map_symbol
            if symbol not in self.interp.maps:
                raise SemanticError(f"unbound map symbol {symbol!r}")
            src, dst = self.interp.maps[symbol][1]
            if src != dst and expr.power > 1:
                raise SemanticError(f"cannot iterate map {symbol!r} across sorts")
            if sort is not None and sort != src:
                raise SemanticError(f"map {symbol!r} applied to sort {sort!r}")
            got = self._twist(symbol, expr.power, child, dst), dst
        elif isinstance(expr, OpApp):
            symbol = expr.op_symbol
            if symbol not in self.interp.ops:
                raise SemanticError(f"unbound op symbol {symbol!r}")
            ls, rs, sort = self.interp.ops[symbol][1]
            (left, lsort), (right, rsort) = self.add(expr.left), self.add(expr.right)
            if lsort is not None and lsort != ls:
                raise SemanticError(f"op {symbol!r} left slot expects {ls!r}, got {lsort!r}")
            if rsort is not None and rsort != rs:
                raise SemanticError(f"op {symbol!r} right slot expects {rs!r}, got {rsort!r}")
            got = self._op(symbol, left, right, sort), sort
        elif isinstance(expr, Sum):
            terms = [(w, *self.add(e)) for w, e in expr.terms]
            sorts = {s for _, _, s in terms if s is not None}
            if len(sorts) > 1:
                raise SemanticError("sum mixes sorts")
            sort = sorts.pop() if sorts else None
            got = self._sum([(w, c) for w, c, _ in terms], sort), sort
        else:
            raise TypeError(expr)
        self._seen[id(expr)] = got
        return got

    def _twist(self, symbol, power, child, sort) -> int:
        key = self.nodes[child]
        if key[0] == "tw" and key[1] == symbol:
            power, child = power + key[2], key[3]
        if power == 0 or child == self.zero:
            return child
        identity = self.twists.get((symbol, power))
        if identity is None:  # symbol^power is the identity map of one sort
            lin, (src, dst) = self.interp.maps[symbol]
            # a map whose dimensions disagree with its sorts fails validate after the build
            identity = self.twists[symbol, power] = (
                src == dst and lin.src_dim == lin.dst_dim and _power(lin, power)[3])
        return child if identity else self._intern(("tw", symbol, power, child), sort)

    def _op(self, symbol, left, right, sort) -> int:
        zero = self.zeros.get(symbol)
        if zero is None:
            zero = self.zeros[symbol] = not any(_tensor(self.interp.ops[symbol][0], "rows"))
        if zero or left == self.zero or right == self.zero:
            return self.zero
        return self._intern(("op", symbol, left, right), sort)

    def _sum(self, terms, sort) -> int:
        acc = {}
        for w, child in terms:
            key = self.nodes[child]
            for w2, c in key[1] if key[0] == "sum" else ((1, child),):
                acc[c] = acc.get(c, 0) + w * w2
        flat = tuple((w, c) for c, w in sorted(acc.items()) if w)
        if len(flat) == 1 and flat[0][0] == 1:
            return flat[0][1]
        return self._intern(("sum", flat), sort)


def _combine(parts, dim):
    """The sparse sum of s * v over the (s, v) in parts, at least one, each
    v nonzero: the scaled v for one, and only from two on a dense sum."""
    if len(parts) == 1:
        (s, v), = parts
        return v if s == 1 else [(k, s * x) for k, x in v]
    out = [0] * dim
    for s, v in parts:
        for k, x in v:
            out[k] += s * x
    return _sparse(out)


def _twist_kernel(child, data, dim):
    def run(cur):
        v, cols = cur[child], cur[data]
        if len(v) == 1:
            (j, a), = v
            col = cols[j]
            return col if a == 1 else [(i, a * x) for i, x in col]
        parts = []
        for j, a in v:
            if cols[j]:
                parts.append((a, cols[j]))
        return _combine(parts, cur[dim]) if parts else []
    return run


def _op_kernel(left, right, data, dim):
    def run(cur):
        a, b, rows = cur[left], cur[right], cur[data]
        if len(a) == 1 and len(b) == 1:
            (i, x), = a
            (j, y), = b
            row = rows[i][j]
            s = x * y
            return row if s == 1 else [(k, s * c) for k, c in row]
        parts = []
        for i, x in a:
            plane = rows[i]
            for j, y in b:
                if plane[j]:
                    parts.append((x * y, plane[j]))
        return _combine(parts, cur[dim]) if parts else []
    return run


def _sum_kernel(data, dim):
    def run(cur):
        parts = []
        for f, c in cur[data]:
            if cur[c]:
                parts.append((f, cur[c]))
        return _combine(parts, cur[dim]) if parts else []
    return run


def _zero_kernel(cur):
    return []


# Contraction kernels (see check_clauses).  A table maps a key, the sum of
# index * stride over the slots after slot 0 that its node reads, to the
# node's nonzero sparse value there; a value of the level kernels (a node
# that reads slot 0 at most) is read as the table {0: value}.


def _nonzero(out, key, parts, dim):
    """Put the sum of parts, if nonzero, in out at key (see _combine)."""
    v = _combine(parts, dim)
    if v:
        out[key] = v


def _join_kernel(a, b, data, dim, wrap_a, wrap_b):
    """op(a, b): every key of a's table meets every key of b's."""
    def run(cur):
        ta, tb, rows = cur[a], cur[b], cur[data]
        if wrap_a:
            ta = {0: ta} if ta else {}
        if wrap_b:
            tb = {0: tb} if tb else {}
        out = {}
        for ka, va in ta.items():
            one = len(va) == 1
            if one:
                (i, x), = va
                plane = rows[i]
            for kb, vb in tb.items():
                if one and len(vb) == 1:
                    (j, y), = vb
                    row = plane[j]
                    if row:
                        s = x * y
                        out[ka + kb] = row if s == 1 else [(k, s * c) for k, c in row]
                    continue
                parts = []
                for i, x in va:
                    plane = rows[i]
                    for j, y in vb:
                        if plane[j]:
                            parts.append((x * y, plane[j]))
                if parts:
                    _nonzero(out, ka + kb, parts, cur[dim])
        return out
    return run


def _var_join_kernel(c, data, masks, stride, dim, left, wrap):
    """op(c, y) (left) or op(y, c), y a bare variable: each index i in the
    support of a value of c meets the indices j of y that the tensor's row
    (or column) mask i holds, so only nonzero products are formed."""
    def run(cur):
        tc, rows, bits_of, s = cur[c], cur[data], cur[masks], cur[stride]
        if wrap:
            tc = {0: tc} if tc else {}
        out = {}
        for k, v in tc.items():
            if len(v) == 1:
                (i, x), = v
                bits = bits_of[i]
                while bits:
                    low = bits & -bits
                    bits ^= low
                    j = low.bit_length() - 1
                    row = rows[i][j] if left else rows[j][i]
                    out[k + j * s] = row if x == 1 else [(t, x * e) for t, e in row]
                continue
            acc = {}
            for i, x in v:
                bits = bits_of[i]
                while bits:
                    low = bits & -bits
                    bits ^= low
                    j = low.bit_length() - 1
                    part = x, rows[i][j] if left else rows[j][i]
                    got = acc.get(j)
                    if got is None:
                        acc[j] = [part]
                    else:
                        got.append(part)
            for j, parts in acc.items():
                _nonzero(out, k + j * s, parts, cur[dim])
        return out
    return run


def _pair_kernel(data, masks, left, right):
    """op(y, z) of two bare variables: the tensor's nonzero rows."""
    def run(cur):
        rows, s, t, out = cur[data], cur[left], cur[right], {}
        for i, bits in enumerate(cur[masks]):
            while bits:
                low = bits & -bits
                bits ^= low
                j = low.bit_length() - 1
                out[i * s + j * t] = rows[i][j]
        return out
    return run


def _map_kernel(child, data, dim):
    """tw(child): each value of the child's table mapped."""
    def run(cur):
        cols, out = cur[data], {}
        for k, v in cur[child].items():
            parts = [(a, cols[j]) for j, a in v if cols[j]]
            if parts:
                _nonzero(out, k, parts, cur[dim])
        return out
    return run


def _map_var_kernel(data, mask, stride):
    """tw(y), y a bare variable: the power's nonzero columns."""
    def run(cur):
        cols, bits, s, out = cur[data], cur[mask], cur[stride], {}
        while bits:
            low = bits & -bits
            bits ^= low
            j = low.bit_length() - 1
            out[j * s] = cols[j]
        return out
    return run


def _add_kernel(data, dim):
    """A sum: its terms' tables, scaled, added key by key."""
    def run(cur):
        acc = {}
        for f, c in cur[data]:
            for k, v in cur[c].items():
                got = acc.get(k)
                if got is None:
                    acc[k] = [(f, v)]
                else:
                    got.append((f, v))
        out = {}
        for k, parts in acc.items():
            _nonzero(out, k, parts, cur[dim])
        return out
    return run


def _unit_kernel(stride, dim):
    """A bare variable read whole, by a sum: its basis values."""
    def run(cur):
        s = cur[stride]
        return {j * s: v for j, v in enumerate(_dim(cur[dim])[0])}
    return run


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
        _, _, _, ops, maps = _scan([e for c in self.clauses for e in (c.lhs, c.rhs)])
        self.ops, self.maps = tuple(ops), tuple(maps)
        self.by_shape = {}

    def lookup(self, interp: Interpretation):
        """(shape, bound) of an interpretation (see `read`): bound is (memo
        key, the sorts' dimensions in the order of their names, objects), the
        key hashing the dimensions and the objects' identities.  The shape is
        None when a symbol read is unbound or has the wrong dimensions."""
        shape, objects = self.read(interp) or (None, ())
        dims = _interned(*map(interp.sorts.get, shape[0])) if shape else ()
        return shape, (hash((dims, *map(id, objects))), dims, objects)

    def read(self, interp: Interpretation):
        """(shape, objects) of an interpretation, in one pass over the symbols
        the clauses read: the shape is the sort names and the signature of
        every symbol read, the objects are the tensors, then the maps, bound
        to them in `ops` and `maps` order.  None when a symbol read is
        unbound or its data's dimensions disagree with its sorts'.  Symbols
        the clauses do not read are not looked at."""
        sorts, ops, maps = interp.sorts, interp.ops, interp.maps
        objects, op_sigs, map_sigs = [], [], []
        try:
            for s in self.ops:
                tensor, sig = ops[s]
                ls, rs, os_ = sig
                if (tensor.left_dim != sorts[ls] or tensor.right_dim != sorts[rs]
                        or tensor.out_dim != sorts[os_]):
                    return None
                objects.append(tensor)
                op_sigs.append(sig)
            for s in self.maps:
                lin, sig = maps[s]
                ss, ds = sig
                if lin.src_dim != sorts[ss] or lin.dst_dim != sorts[ds]:
                    return None
                objects.append(lin)
                map_sigs.append(sig)
        except (KeyError, ValueError):
            return None
        return (tuple(sorted(sorts)), tuple(op_sigs), tuple(map_sigs)), objects


class _Shape:
    """The plans of one clause set for one interpretation shape, and the
    verdicts of the exhaustive checks already run over it.

    `verdicts` maps a memo key (see `_bind`) to (witness or None,
    tuples_checked, tuples_evaluated, prefixes_visited, the sorts'
    dimensions, then a weak reference per object read).  A verdict is
    recalled only for the same dimensions and while
    each reference still gives the object bound now, so a hash collision
    cannot return another check's verdict.  Entries hold no data.  An entry
    is dropped when the first of its objects dies (`_forget`, the callback
    of its references), so the memo holds only live entries: the key of a
    fresh object never meets a dead entry left at the id it reuses, and what
    a check costs does not depend on the checks that ran before it.
    The shape of a run's clause set (see _runs) fixes the shape of each of
    its schemas; `owns` keeps, per schema, that shape's entry of the
    schema's own clause set once met (see _decide).
    """

    __slots__ = ("plans", "verdicts", "forget", "owns", "__weakref__")

    def __init__(self):
        self.plans, self.verdicts, self.owns = [], {}, None
        self.forget = partial(_forget, ref(self))  # weakly: the memo must not keep itself

    def recall(self, bound):
        """The verdict kept for these dimensions and objects, or None."""
        key, dims, objects = bound
        got = self.verdicts.get(key)
        if got is None or got[4] != dims:
            return None
        for r, o in zip(got[5:], objects):
            if r() is not o:
                return None
        return got

    def remember(self, bound, witness, checked, evaluated, prefixes) -> None:
        key, dims, objects = bound
        refs = [_Ref(o, self.forget) for o in objects]
        for r in refs:
            r.key = key
        self.verdicts[key] = (witness, checked, evaluated, prefixes, dims, *refs)


class _Ref(ref):
    """A memo entry's weak reference to one object it read, with the entry's key."""

    __slots__ = ("key",)


def _forget(shape, gone) -> None:
    """Drop the entry of `gone`, a _Ref whose object just died, from the
    _Shape that `shape` refers to, if the entry there is still its own."""
    shape = shape()
    got = shape and shape.verdicts.get(gone.key)
    if got and any(r is gone for r in got[5:]):
        del shape.verdicts[gone.key]


# the last slot's support recipe (see _Plan._support_recipe)
_Recipe = namedtuple("_Recipe", "fixed steps mask_roots keys width")


class _Plan:
    """One clause tuple compiled for one interpretation shape, without its data.

    `nodes` are the DAG's keys and `order` the live ones, children first;
    `sorts` gives each node's sort (the DAG's; a live variable's must be the
    one its clauses declare), so the plan serves every dimension.  Roots are
    lhs, rhs of each clause in turn, and `out_sorts` their sorts as
    `_Dag.add` gives them, so a side simplified to zero keeps its own (None
    when neither side has one).
    Every live node but a variable has one kernel, built with the plan.  A
    kernel reads its children's values from the value list by node id and
    its data from slots after the nodes (`width` entries in all): one per op
    symbol (`op_slots`, its tensor's sparse rows), twist power (`map_slots`,
    its columns), sort (`dim_slots`, its dimension) and sum (`sum_slots`,
    its scaled terms), which bind fills per check; an op or twist slot
    names its symbol's place among the objects of `_ClauseSet.read`.
    `levels` holds, per slot p (and first for no
    slot), the (node, kernel, table key, table) steps to run once slots
    0..p are set, children first: a node is evaluated at the level of its
    last free slot, and one whose free slots are not all of 0..level gets a
    table, one of `tables` made per check, keyed by the projection of the
    tuple onto them.
    A plan in the support-mask contract either contracts or masks.  With
    three or more slots, `joins` holds its contraction steps (see _joins);
    with one or two, `recipe` tells which indices of the last slot can make
    a side nonzero (see _support_recipe).  `recipe` is None for a plan that
    contracts, and `joins` for one that masks; both are None for a plan
    outside the contract, or one built for `evaluate` and
    `check_schema_random` (polar False), which never enumerate.  `twists`
    and `zeros` are the guards it was built under, each as (object place,
    power, flag) and (object place, flag); a map across sorts needs none.
    `den_key`, `dens` and `sum_terms` keep the denominators of the last
    bind (see bind).
    `sides` pairs the roots per clause, and `var_at` gives each slot's
    variable node (None for a variable no side reads).  `schedules` keeps
    the clause-major passes of a plan that contracts (see _schedule), by
    the clause each starts at; a pass runs to the last clause.
    """

    __slots__ = ("clause_set", "twists", "zeros", "nodes", "roots", "order", "sorts", "var_nodes",
                 "out_sorts", "levels", "recipe", "joins", "tables", "width", "op_slots",
                 "map_slots", "dim_slots", "sum_slots", "den_key", "dens", "sum_terms", "sides",
                 "var_at", "schedules")

    def __init__(self, clause_set: _ClauseSet, interp: Interpretation, polar: bool):
        self.clause_set = clause_set
        dag = _Dag(interp)
        self.roots, self.out_sorts = [], []
        for schema in clause_set.clauses:
            (lhs, lsort), (rhs, rsort) = dag.add(schema.lhs), dag.add(schema.rhs)
            if lsort is not None and rsort is not None and lsort != rsort:
                raise SemanticError("sides have different sorts")
            self.roots += lhs, rhs
            self.out_sorts.append(lsort if lsort is not None else rsort)
        var_sorts = {}
        for name, sort, _ in clause_set.variables:
            if sort not in interp.sorts:
                raise SemanticError(f"sort {sort!r} has no dimension binding")
            var_sorts[name] = sort
        if clause_set.read(interp) is None:  # a symbol read has the wrong dimensions
            interp.validate()
        self.nodes = nodes = dag.nodes
        place = {symbol: k for k, symbol in enumerate(clause_set.ops + clause_set.maps)}
        self.twists = tuple((place[symbol], power, flag)  # a map across sorts is no identity
                            for (symbol, power), flag in dag.twists.items()
                            if interp.maps[symbol][1][0] == interp.maps[symbol][1][1])
        self.zeros = tuple((place[symbol], flag) for symbol, flag in dag.zeros.items())
        live = [False] * len(nodes)
        for r in self.roots:
            live[r] = True
        for nid in range(len(nodes) - 1, -1, -1):
            if live[nid]:
                for c in _children(nodes[nid]):
                    live[c] = True
        self.order = [nid for nid in range(len(nodes)) if live[nid]]
        self.sorts = sorts = dag.sorts
        self.var_nodes = {}
        slot_of = {name: p for p, name in enumerate(var_sorts)}
        free = [0] * len(nodes)
        self.levels = levels = [[] for _ in range(len(var_sorts) + 1)]
        data = {}  # the data slot of each op symbol, twist power, sort and sum, after the nodes

        def slot(key):
            return data.setdefault(key, len(nodes) + len(data))

        tables = 0
        for nid in self.order:
            key = nodes[nid]
            kind = key[0]
            if kind == "var":
                declared = var_sorts.get(key[1])
                if declared is None:
                    raise SemanticError(f"unbound variable {key[1]!r}")
                if declared != sorts[nid]:
                    raise SemanticError(f"variable {key[1]!r} declared with sort {declared!r},"
                                        f" used with sort {sorts[nid]!r}")
                self.var_nodes[key[1]] = nid
                free[nid] = 1 << slot_of[key[1]]
                continue
            if kind == "tw":
                kernel = _twist_kernel(key[3], slot(key[:3]), slot(("dim", sorts[nid])))
            elif kind == "op":
                kernel = _op_kernel(key[2], key[3], slot(key[:2]), slot(("dim", sorts[nid])))
            elif key[1]:
                kernel = _sum_kernel(slot(("sum", nid)), slot(("dim", sorts[nid])))
            else:
                kernel = _zero_kernel
            for c in _children(key):
                free[nid] |= free[c]
            mask = free[nid]
            level = mask.bit_length() - 1
            if mask == (1 << (level + 1)) - 1:
                levels[level + 1].append((nid, kernel, None, None))
            else:
                levels[level + 1].append((nid, kernel, itemgetter(
                    *[p for p in range(level + 1) if mask >> p & 1]), tables))
                tables += 1
        self.tables = tables
        self.sides = list(zip(self.roots[::2], self.roots[1::2]))
        self.var_at = [self.var_nodes.get(name) for name in var_sorts]
        # the support-mask contract (see _support_recipe); outside it a plan neither masks nor
        # contracts, nor does one that never enumerates (polar False: evaluate, check_schema_random)
        every, live = (1 << len(var_sorts)) - 1, [nodes[nid] for nid in self.order]
        contract = polar and (
            all(free[r] in (0, every) for r in self.roots)
            and not any(free[k[2]] & free[k[3]] for k in live if k[0] == "op")
            and all(len({free[c] for _, c in k[1]}) < 2 for k in live if k[0] == "sum"))
        # without the last slot's mask loop-certifiers ran +4.6% bytecode (tools/opcount.py)
        last = len(var_sorts) - 1
        self.recipe = self.joins = None
        self.schedules = {}
        if contract and last > 1:
            self.joins = self._joins(free, slot, place)
        elif contract and last >= 0:  # a plan of no slots decides its one empty tuple
            self.recipe = self._support_recipe(free)
        self.width = len(nodes) + len(data)
        self.op_slots = [(key, place[key[1]], at) for key, at in data.items() if key[0] == "op"]
        self.map_slots = [(key, place[key[1]], key[2], at) for key, at in data.items()
                          if key[0] == "tw"]
        self.dim_slots = [(key[1], at) for key, at in data.items() if key[0] == "dim"]
        self.sum_slots = {key[1]: at for key, at in data.items() if key[0] == "sum"}
        self.den_key = None  # the denominators of the last bind (see bind)

    def _support_recipe(self, free):
        """How the last slot's support follows from the prefix, as a _Recipe,
        for a plan of one or two slots in the support-mask contract.

        A node that reads the last slot gets a mask per chain C of twist
        powers it is asked for under, written outermost first, each in its
        own slot (the node's id for the empty chain, else one after the
        nodes): bit t is set when M(node) may be nonzero with the last slot
        at index t, M the composite of C (the identity for no chain); -1
        stands for every index.  M(w) != 0 only where w is nonzero at some
        coordinate k whose column of M is, k in cover(C) (see _cover), so a
        twist asks for its child under its chain and its own power, and a
        chain reads the op of the node under it only through the output
        coordinates in its cover.  A node read by an op(c, n) also gets a
        vector of masks, one per output coordinate j: bit t of entry j is
        set when coordinate j may be nonzero at t.  Here y is the last
        variable, c a node that does not read it (its value is at hand) and
        n a node that does; for y itself the mask is -1 and entry j of the
        vector is 1 << j.  A node that reads no earlier slot is fixed: it
        does not depend on the prefix.

        Children first, each mask or vector some root needs gets one step
        (node, kind, a, b, the slot of the table T it reads), in the kinds
        _masks runs; `keys` gives the key of each table slot, None for the
        slot of the steps that read no table.
        Masks, under a chain C:
          "union" c:        op(c, y) or op(y, c): the union of T[i] over c's
                            support, T op's row (or column) masks read
                            through C: entry i the union of P[i][k] (or
                            Q[i][k]) over k in cover(C);
          "pick" c, n:      op(c, n) or op(n, c): J is that union, the mask
                            the union of vec(n)[j] over j in J;
          "map":            y under a non-empty C (as tw(y) or a sum's
                            term), T cover(C); under none it stays -1;
          "sum" ns:         the union of the terms' masks under C.
        A twist has no mask step: tw(S, q, n) under C is n under C + (S, q).
        Vectors:
          "vspread" -, n:   tw(n): entry k is the union of vec(n)[j] over the
                            bits j of T[k], the power's row sets;
          "vconst":         tw(y), T the row sets; y itself, T its unit vector;
          "vsum" ns:        entrywise union of the terms' vectors.
        So vectors are built only under an op(c, n), and never for a product:
        an op(c, op(c2, n)) would read slot 0 in both factors.  Clauses are
        multilinear, so every rule only over-approximates: an index outside
        the mask has both sides of every clause zero.

        The roots that read the slot (`mask_roots`, their mask slots under no
        chain) put the union of their masks in the mask; the others are the
        zero node.  `width` is the number of mask slots.  `fixed` are the
        steps of the fixed nodes, which run once per check, and `steps` the
        others, which run per prefix.
        """
        bit = 1 << (len(self.var_at) - 1)
        nodes, sorts = self.nodes, self.sorts
        fixed = {nid for nid in self.order if free[nid] == bit}
        masks, extra, vectors, steps, keys = {}, {}, set(), [], {None: 0}

        def slot(nid, chain):
            return extra.setdefault((nid, chain), len(nodes) + len(extra)) if chain else nid

        # no chains, a twist's mask its child's: loop-certifiers +22.2% (see __init__)
        def want(nid, chain=()):
            """The slot of nid's mask under chain, now asked for: a twist
            passes its power on to its child's chain."""
            while nodes[nid][0] == "tw":
                chain, nid = chain + (nodes[nid][1:3],), nodes[nid][3]
            masks.setdefault(nid, {})[chain] = None
            return slot(nid, chain)

        def emit(nid, kind, a, b, key=None, out=None):
            steps.append((nid in fixed, (nid if out is None else out, kind, a, b,
                                         keys.setdefault(key, len(keys)))))

        def inner(n):
            """n, or None when n is y."""
            return None if nodes[n][0] == "var" else n

        roots = [r for r in dict.fromkeys(self.roots) if free[r]]
        mask_roots = [want(r) for r in roots]
        for nid in reversed(self.order):
            key = nodes[nid]
            kind = key[0]
            chains = masks.get(nid, ())
            if kind == "var":  # y under a chain: the composite's nonzero columns
                for chain in chains:
                    if chain:
                        emit(nid, "map", None, None, ("mask", chain), out=slot(nid, chain))
                continue
            if not chains and nid not in vectors:
                continue
            if kind == "tw":  # only its vector: its masks are its child's (see want)
                _, symbol, power, child = key
                n = inner(child)
                emit(nid, "vconst" if n is None else "vspread", None, n,
                     ("rowsets", symbol, power, sorts[nid]))
                vectors.add(n)
            elif kind == "op":
                _, symbol, left, right = key
                rows, c, n = (True, left, right) if free[right] & bit else (False, right, left)
                n = inner(n)
                for chain in chains:
                    emit(nid, "union" if n is None else "pick", c, n,
                         ("rows" if rows else "cols", symbol, chain), out=slot(nid, chain))
                vectors.add(n)
            else:
                terms = tuple(c for _, c in key[1])
                for chain in chains:
                    emit(nid, "sum", tuple(want(c, chain) for c in terms), None,
                         out=slot(nid, chain))
                if nid in vectors:
                    emit(nid, "vsum", terms, None, ("dim", sorts[nid]))
                    vectors.update(terms)
        # only a sum reads the vector of y itself
        for n in vectors:
            if n is not None and nodes[n][0] == "var":
                emit(n, "vconst", None, None, ("unit", sorts[n]))
        steps.reverse()
        return _Recipe(tuple(s for f, s in steps if f), tuple(s for f, s in steps if not f),
                       tuple(mask_roots), tuple(keys), len(nodes) + len(extra))

    def _joins(self, free, slot, place):
        """The contraction of a plan of three or more slots in the
        support-mask contract: (fills, the one group of a tuple-major pass;
        see _contract).  Each node that reads a slot after slot 0 gets a
        step that makes its table from its children's, in the group's
        `once` if it does not read slot 0 (run once per check), else in its
        `steps` (run per index of slot 0), after the level kernels of the
        nodes that read no slot or slot 0 alone.  A bare variable after
        slot 0 gets a table only where a sum reads it whole; a product or
        twist over it reads the tensor's row or column masks or the power's
        nonzero columns, and its slot's key stride: the data slots `fills`
        gives by (kind, object place, power) or ("stride", slot), which the
        check fills.
        """
        nodes, steps, fills = self.nodes, ([], []), {}
        whole = {c for nid in self.order if nodes[nid][0] == "sum" for _, c in nodes[nid][1]}

        def fill(key):
            at = fills[key] = slot(key)
            return at

        def bare(n):
            return nodes[n][0] == "var" and free[n] > 1

        def stride(n):
            return fill(("stride", free[n].bit_length() - 1))

        for nid in self.order:
            if free[nid] < 2:  # reads slot 0 at most: the level kernels' value
                continue
            key = nodes[nid]
            kind, dim = key[0], slot(("dim", self.sorts[nid]))
            if kind == "var":
                if nid not in whole:
                    continue
                step = _unit_kernel(stride(nid), dim)
            elif kind == "tw":
                c, data = key[3], slot(key[:3])
                step = (_map_var_kernel(data, fill(("mask", place[key[1]], key[2])), stride(c))
                        if bare(c) else _map_kernel(c, data, dim))
            elif kind == "op":
                _, symbol, a, b = key
                data = slot(key[:2])
                if bare(a) and bare(b):
                    step = _pair_kernel(data, fill(("rows", place[symbol])), stride(a), stride(b))
                elif bare(a) or bare(b):
                    c, y, masks = (a, b, "rows") if bare(b) else (b, a, "cols")
                    step = _var_join_kernel(c, data, fill((masks, place[symbol])), stride(y), dim,
                                            masks == "rows", free[c] < 2)
                else:
                    step = _join_kernel(a, b, data, dim, free[a] < 2, free[b] < 2)
            else:
                step = _add_kernel(slot(("sum", nid)), dim)
            steps[free[nid] & 1].append((nid, step))
        once, each = ([(nid, kernel) for nid, kernel, _, _ in level] + got
                      for level, got in zip(self.levels, steps))
        return tuple(fills.items()), (tuple(range(len(self.sides))), once, each, (), (), ())

    def holds(self, objects: list) -> bool:
        """Whether every guard holds for the objects of `_ClauseSet.read`."""
        for k, power, flag in self.twists:
            if _power(objects[k], power)[3] != flag:
                return False
        for k, flag in self.zeros:
            if any(_tensor(objects[k], "rows")) == flag:
                return False
        return True

    def bind(self, objects: list, dims: dict, leaf_dens: dict):
        """(value list, denominators) over the objects of `_ClauseSet.read`
        and the sorts' dimensions.

        The kernels are the plan's; each reads its data from a slot after
        the nodes in the value list, which this fills per symbol: an op's
        sparse rows, a twist power's columns, a sort's dimension and a
        sum's terms.  A variable's denominator is leaf_dens.get(name, 1) and
        a node's follows from its children's and its data's; the vector of
        them, and the sums' terms scaled by them, are kept for the last
        denominators bound and rebuilt only when those change.
        """
        cur = [None] * self.width
        read = []
        for _, k, at in self.op_slots:
            tensor = objects[k]
            cur[at] = tensor._rows
            read.append(tensor._d)
        for _, k, power, at in self.map_slots:
            cols, den = _power(objects[k], power)[:2]
            cur[at] = cols
            read.append(den)
        for sort, at in self.dim_slots:
            cur[at] = dims[sort]
        for name in self.var_nodes:
            read.append(leaf_dens.get(name, 1))
        if read != self.den_key:
            self._denominators(read)
        for at, terms in self.sum_terms:
            cur[at] = terms
        return cur, self.dens

    def _denominators(self, read):
        """Keep the node denominators, and the sums' terms scaled to them,
        for `read`: the denominators bind read, in its order."""
        nodes = self.nodes
        den_of = dict(zip([slot[0] for slot in self.op_slots + self.map_slots]
                          + [("var", name) for name in self.var_nodes], read))
        dens = [1] * len(nodes)
        sums = []
        for nid in self.order:
            key = nodes[nid]
            kind = key[0]
            if kind == "var":
                dens[nid] = den_of[key]
            elif kind == "tw":
                dens[nid] = dens[key[3]] * den_of[key[:3]]
            elif kind == "op":
                dens[nid] = dens[key[2]] * dens[key[3]] * den_of[key[:2]]
            elif key[1]:
                den = 1
                for w, c in key[1]:
                    den = lcm(den, w.denominator * dens[c])
                dens[nid] = den
                terms = [(w.numerator * (den // (w.denominator * dens[c])), c) for w, c in key[1]]
                sums.append((self.sum_slots[nid], terms))
        self.den_key, self.dens, self.sum_terms = read, dens, sums

    def bind_support(self, interp: Interpretation, cur: list):
        """The last slot's support recipe over the interpretation's data, as
        a function of the current prefix: `_masks` over the recipe's steps,
        which read their tables by slot from a list fetched here, once per
        check (see `_tables`).  The fixed steps run here, once, into fresh
        mask and vector lists.  A root that reads no earlier slot is fixed,
        and the mask contract lets a root read all slots or none, so a fixed
        root comes only in a one-variable plan, where every step is fixed.
        """
        once, steps, mask_roots, keys, width = self.recipe
        tables = _tables(keys, interp)
        masks = [-1] * width  # a variable's own mask stays -1
        vecs = [None] * len(self.nodes)
        _masks(once, tables, masks, vecs, (), cur)
        return partial(_masks, steps, tables, masks, vecs, mask_roots, cur)


def _tables(keys, interp: Interpretation) -> list:
    """The data recipe steps read, by the key of each slot: a tensor's row
    or column masks, a map power's nonzero-column mask or row sets, a sort's
    dimension or its unit vector of masks; None for None."""
    ops, maps, dims, out = interp.ops, interp.maps, interp.sorts, []
    for key in keys:
        kind = key and key[0]
        if kind == "rows" or kind == "cols":  # kept on the tensor per cover (see _tensor)
            got = _tensor(ops[key[1]][0], (kind, _cover(maps, key[2]) if key[2] else -1))
        elif kind == "mask":
            got = _cover(maps, key[1])
        elif kind == "rowsets":
            got = _rowsets(maps[key[1]][0], key[2])
        elif kind == "unit":
            got = _dim(dims[key[1]])[1]
        else:  # "dim", or None
            got = kind and dims[key[1]]
        out.append(got)
    return out


def _cover(maps, chain) -> int:
    """The coordinates at which the composite of chain's twist powers
    (outermost first, at least one) may have a nonzero column: the first
    power's nonzero columns, then, from the outside in, the columns that
    meet the cover of the maps above them, read from the row sets."""
    symbol, power = chain[0]
    cover = _power(maps[symbol][0], power)[2]
    for symbol, power in chain[1:]:
        cover = _gather(_rowsets(maps[symbol][0], power), cover)
    return cover


def _masks(steps, tables, masks, vecs, roots, cur):
    """The mask of the last slot for the current prefix: the union of the
    roots' masks once the recipe steps (see _Plan._support_recipe) have
    run, each over the table in its slot of `tables` (see _Plan.bind_support);
    "map" and "vconst" come only in the pass that runs once per check."""
    for nid, kind, a, b, t in steps:
        data = tables[t]
        if kind == "pick":
            bits = 0
            for i, _ in cur[a]:
                bits |= data[i]
            masks[nid] = _gather(vecs[b], bits)
        elif kind == "union":
            out = 0
            for i, _ in cur[a]:
                out |= data[i]
            masks[nid] = out
        elif kind == "sum":
            out = 0
            for c in a:
                out |= masks[c]
            masks[nid] = out
        elif kind == "vspread":
            vecs[nid] = _spread(vecs[b], data)
        elif kind == "vsum":
            vec = [0] * data
            for c in a:
                for k, m in enumerate(vecs[c]):
                    vec[k] |= m
            vecs[nid] = vec
        elif kind == "map":  # this and "vconst" run once per check
            masks[nid] = data
        else:  # "vconst"
            vecs[nid] = data
    out = 0
    for r in roots:
        out |= masks[r]
    return out


def _clause_set(clauses, polar: bool) -> _ClauseSet:
    """The clause set of a clause tuple, kept on its first clause, keyed by
    the remaining clauses and `polar`."""
    head = clauses[0]
    key = (tuple(clauses[1:]), polar)
    got = head.plans.get(key)
    if got is None:
        got = head.plans[key] = _ClauseSet(clauses, polar)
    return got


def _bind(clause_set, interp: Interpretation, polar: bool, leaf_dens: dict, memo=False,
          looked=None):
    """(plan, value list, denominators, memo) for a clause set over interp.

    The plan comes from the clause set's plans for the interpretation's
    shape; it is built when no kept plan's guards hold, and every shape kept
    holds at least one plan.  A shape's plans are tried most recently bound first (at
    most one holds: any two differ in a guard both read), so a run of checks
    over data of one shape finds its plan first, whatever plans earlier
    checks built, and what a repeated pass costs does not depend on them.
    One pass over the symbols the clauses read (`_ClauseSet.read`) gives
    the shape, the objects bound to them and the check of their dimensions,
    so the data is validated before any guard reads it, as a fresh build
    does; only the symbols read are validated.
    An interpretation that fails that pass goes to a fresh build, which
    raises the error it meets first.  With `memo` (exhaustive checks only),
    the shape's verdicts are looked up by those objects, and the last item
    is the verdict kept for the same objects and dimensions, with
    everything else None, when there is one.  Otherwise it is (_Shape,
    bound) for `_Shape.remember` (see `_ClauseSet.lookup`, whose result
    `looked` is when the caller has it already).
    """
    # no shape when a symbol read is unbound or has the wrong dimensions: the build raises
    shape, bound = looked or clause_set.lookup(interp)
    objects = bound[2]
    entry = clause_set.by_shape.get(shape)
    plan = None
    if entry is not None:
        if memo:
            verdict = entry.recall(bound)
            if verdict is not None:
                return None, None, None, verdict
        plans = entry.plans
        plan = plans[0]
        if not plan.holds(objects):
            plan = next((p for p in plans[1:] if p.holds(objects)), None)
            if plan is not None:
                plans.remove(plan)
                plans.insert(0, plan)
    if plan is None:
        plan = _Plan(clause_set, interp, polar)
        if entry is None:
            entry = clause_set.by_shape[shape] = _Shape()
        entry.plans.insert(0, plan)
    return plan, *plan.bind(objects, interp.sorts, leaf_dens), (entry, bound)


def _run(levels, cur) -> None:
    """Evaluate every kernel, level by level (variables already set)."""
    for level in levels:
        for nid, kernel, _, _ in level:
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
    sorts, _, clashes, _, _ = _scan((expr,))
    if clashes:
        raise SemanticError(f"variable {clashes[0]} used with two sorts")
    for name, s in sorts.items():
        if name not in env:
            raise SemanticError(f"unbound variable {name!r}")
        if s not in interp.sorts:
            raise SemanticError(f"sort {s!r} has no dimension binding")
        if env[name].dim != interp.sorts[s]:
            raise ShapeError(f"variable {name!r} bound to a vector of dim {env[name].dim}")
    schema = IdentitySchema("evaluate", expr, ZERO,
                            variables=[(name, s, 1) for name, s in sorts.items()])
    plan, cur, dens, _ = _bind(_clause_set((schema,), False), interp, False,
                               {n: v._d for n, v in env.items()})
    for name, nid in plan.var_nodes.items():
        cur[nid] = _sparse(env[name]._n)
    _run(plan.levels, cur)
    return _vector(cur, dens, plan.roots[0], interp.sorts.get(plan.out_sorts[0], 0))


def check_schema(schema: IdentitySchema, interp: Interpretation) -> CheckReport:
    """Exhaustively check one schema: check_clauses with a single clause."""
    return check_clauses((schema,), interp, f"schema:{schema.name}")


def _differ(left, right, dl, dr) -> set:
    """The keys at which two tables, over denominators dl and dr, differ."""
    return {k for k in left.keys() | right.keys()
            if not _equal((left.get(k, []), right.get(k, [])), (dl, dr), 0, 1)}


def check_clauses(clauses, interp: Interpretation, check_id: str) -> CheckReport:
    """Exhaustively check schemas that share one variable list.

    Non-multilinear schemas are polarized first; afterwards all clauses must
    have the same variables and copy blocks.  The witness is the first
    violating basis tuple, in lexicographic order of the variables as
    declared and sorted within each copy block, and on it the first violated
    clause: the one naive enumeration finds.  A plan contracts, masks its
    last slot or enumerates in full, and counts its work accordingly (see
    the module docstring).  A check of the same tensor and map objects at
    the same dimensions is answered from the memo.
    """
    try:
        plan, cur, dens, memo = _bind(_clause_set(clauses, True), interp, True, {}, memo=True)
    except (SemanticError, KeyError) as exc:
        raise SemanticError(f"{clauses[0].name}: {exc}") from exc
    if plan is None:  # a verdict kept for these very objects
        return _report(check_id, *memo[:4])
    variables, lower = plan.clause_set.variables, plan.clause_set.lower
    levels, sides = plan.levels, plan.sides
    dims, basis, var_at = [], [], plan.var_at
    for _, sort, _ in variables:
        dims.append(interp.sorts[sort])
        basis.append(_dim(dims[-1])[0])
    memos = [{} for _ in range(plan.tables)]  # per tabled node, its values by free slots
    idx = [0] * len(variables)
    last = len(variables) - 1
    count = evaluated = prefixes = 0
    hit, mask = None, None  # the last slot's mask function, bound when first needed

    def run(level):
        for nid, kernel, key, t in levels[level + 1]:
            if key is None:
                cur[nid] = kernel(cur)
            else:
                table, k = memos[t], key(idx)
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

    def scan(lo):
        """Visit the last slot's supported indices from lo; True at a witness."""
        nonlocal count, evaluated, mask
        vnode, vals = var_at[last], basis[last]
        if mask is None and plan.recipe is not None:
            mask = plan.bind_support(interp, cur)
        bits = ((mask() if mask else -1) & ((1 << dims[last]) - 1)) >> lo << lo
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
        """Enumerate slot p onwards; True once a violating tuple is found."""
        nonlocal prefixes
        lo = idx[lower[p]] if lower[p] >= 0 else 0
        if p == last:
            return scan(lo)
        vnode, vals = var_at[p], basis[p]
        for i in range(lo, dims[p]):
            idx[p] = i
            if vnode is not None:
                cur[vnode] = vals[i]
            run(p)
            if visit(p + 1):
                prefixes += i - lo + 1
                return True
        prefixes += max(dims[p] - lo, 0)
        return False

    if plan.joins is not None:
        hit, count, evaluated, prefixes = next(_contract(plan, cur, dens, dims, idx, memo[1][2],
                                                         (plan.joins[1],)))
    else:
        run(-1)
        if variables:
            visit(0)
        else:
            count = evaluated = 1
            violated()
    visit = None  # it calls itself: free this call's tables now, not at a gc pass
    witness = None if hit is None else _witness(plan, cur, dens, interp, clauses[hit].name,
                                                hit, idx)
    entry, key = memo
    entry.remember(key, witness, count, evaluated, prefixes)
    return _report(check_id, witness, count, evaluated, prefixes)


def _report(check_id, witness, checked, evaluated, prefixes) -> CheckReport:
    return CheckReport("pass" if witness is None else "fail", check_id, witness=witness,
                       tuples_checked=checked, tuples_evaluated=evaluated,
                       prefixes_visited=prefixes)


def _witness(plan, cur, dens, interp, name, hit, idx) -> Witness:
    """The witness of clause `hit`, violated at the indices idx, its sides'
    values in their root slots of cur."""
    lhs, rhs = plan.sides[hit]
    dim = interp.sorts.get(plan.out_sorts[hit], 0)
    return Witness(identity=name, variables=plan.clause_set.names, indices=tuple(idx),
                   lhs_value=_vector(cur, dens, lhs, dim), rhs_value=_vector(cur, dens, rhs, dim))


def _contract(plan, cur, dens, dims, idx, objects, groups):
    """Enumerate slot 0 and contract the rest, one group of clauses after
    another, for a plan whose `joins` are set.

    A group is (clause indices, once, steps, restore, keep, drop): `once`
    are the (node, step) pairs to run before its first index, `steps` those
    to run per index of slot 0, children first.  Per index, the tables of
    `restore` come back from where an earlier group kept them, and after
    the steps those of `keep` are kept for a later group; `drop` are let go
    once the group is done.  A tuple-major check is one group of every
    clause (`joins[1]`), a clause-major pass one group per clause (see
    _schedule).  Yields per group (hit, tuples_checked, tuples_evaluated,
    prefixes_visited) as that group alone would count them: hit is None
    when each of its clauses holds, else the clause violated at the first
    witness, whose indices are then in idx and whose sides' values are in
    their root slots of cur; the groups after it are not run.
    """
    lower, tails = plan.clause_set.lower, plan.clause_set.tails
    last = len(dims) - 1
    pairs = [(q, p) for q, p in enumerate(lower) if p >= 0]
    stride = [1] * len(dims)
    for q in range(last, 1, -1):
        stride[q - 1] = stride[q] * dims[q]
    for (kind, k, *power), at in plan.joins[0]:
        cur[at] = (stride[k] if kind == "stride" else _power(objects[k], *power)[2]
                   if kind == "mask" else _tensor(objects[k], kind))
    vnode, vals, kept = plan.var_at[0], _dim(dims[0])[0], {}

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

    def ordered(key):
        """Put key's indices in idx from slot 1 on; whether they are sorted
        within copy blocks."""
        for q in range(last, 0, -1):
            key, idx[q] = divmod(key, dims[q])
        return all(idx[q] >= idx[p] for q, p in pairs)

    for ks, once, steps, restore, keep, drop in groups:
        for nid, step in once:
            cur[nid] = step(cur)
        for nid in keep:
            kept[nid] = [None] * dims[0]
        sides = [plan.sides[k] for k in ks]
        alike = [(lhs, rhs, dens[lhs] == dens[rhs]) for lhs, rhs in sides]
        evaluated = prefixes = 0
        for i in range(dims[0]):
            idx[0] = i
            if vnode is not None:
                cur[vnode] = vals[i]
            for nid in restore:
                cur[nid] = kept[nid][i]
            for nid, step in steps:
                cur[nid] = step(cur)
            for nid in keep:
                kept[nid][i] = cur[nid]
            prefixes += 1
            for lhs, rhs, same in alike:
                left, right = cur[lhs] or {}, cur[rhs] or {}
                if left != right if same else _differ(left, right, dens[lhs], dens[rhs]):
                    break
            else:  # every side agrees: the left sides hold every nonzero key
                keys = left if len(sides) == 1 else set().union(
                    *(cur[lhs] or () for lhs, _ in sides))
                evaluated += sum(map(ordered, keys)) if pairs else len(keys)
                continue
            bad = [_differ(cur[lhs] or {}, cur[rhs] or {}, dens[lhs], dens[rhs])
                   for lhs, rhs in sides]
            keys = set().union(*(cur[r] or () for side in sides for r in side))
            key = next((key for key in sorted(set().union(*bad)) if ordered(key)), None)
            if key is None:  # the sides differ only at tuples not sorted within copy blocks
                evaluated += sum(map(ordered, keys)) if pairs else len(keys)
                continue
            evaluated += sum(ordered(k) for k in keys if k <= key)
            ordered(key)
            count = below(0, 0, i) + 1 + sum(below(p, idx[lower[p]] if lower[p] >= 0 else 0,
                                                   idx[p]) for p in range(1, last + 1))
            hit = ks[next(k for k, got in enumerate(bad) if key in got)]
            lhs, rhs = plan.sides[hit]
            cur[lhs], cur[rhs] = (cur[lhs] or {}).get(key, []), (cur[rhs] or {}).get(key, [])
            yield hit, count, evaluated, prefixes
            return
        for nid in drop:
            del kept[nid]
        yield None, below(0, 0, dims[0]), evaluated, prefixes


def _schedule(plan, todo) -> list:
    """The groups of a clause-major pass over the clauses `todo` (indices
    into plan.sides, in order) for _contract: one group per clause, which
    runs the steps of the nodes it reads that no earlier group ran, restores
    per index of slot 0 the tables of earlier groups that it reads, keeps
    those of its own that a later group restores, and drops the ones no
    later group restores.  So each node's step runs once per index, and a
    pass that stops at a clause has run no step that only later clauses
    read."""
    _, (_, once, each, _, _, _) = plan.joins
    nodes, per_index, done, groups = plan.nodes, {nid for nid, _ in each}, set(), []
    for k in todo:
        reads, stack = set(), list(plan.sides[k])
        while stack:
            n = stack.pop()
            if n not in reads:
                reads.add(n)
                stack.extend(_children(nodes[n]))
        new = reads - done
        wanted = set(plan.sides[k]).union(*(_children(nodes[n]) for n in new))
        groups.append(((k,), tuple(s for s in once if s[0] in new),
                       tuple(s for s in each if s[0] in new), tuple(wanted & done & per_index)))
        done |= reads
    later, out = set(), []
    for ks, first, steps, restore in reversed(groups):
        out.append((ks, first, steps, restore, tuple(n for n, _ in steps if n in later),
                    tuple(n for n in restore if n not in later)))
        later.update(restore)
    return out[::-1]


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
    plan, cur, node_dens, _ = _bind(_clause_set((schema,), False), interp, False,
                                    {name: common for name, _, _ in schema.variables})
    lhs, rhs = plan.roots
    rng = random.Random(seed)
    slots = [(plan.var_nodes.get(name), interp.sorts[sort]) for name, sort, _ in schema.variables]
    for k in range(samples):
        for nid, d in slots:
            coords = [(rng.choice(nums), rng.choice(dens)) for _ in range(d)]
            if nid is not None:
                cur[nid] = _sparse(n * (common // m) for n, m in coords)
        _run(plan.levels, cur)
        if not _equal(cur, node_dens, lhs, rhs):
            return CheckReport(
                "fail", check_id, detail=f"sample {k} (seed {seed})", tuples_checked=k + 1
            )
    return CheckReport("pass", check_id, tuples_checked=samples)


def _runs(schemas) -> tuple:
    """check_all's split of a schema tuple, kept on its first schema (it
    reads no data): per run of consecutive schemas whose polarized forms
    share one variable list and copy blocks, (the index after it, its
    clause set, and per schema the places among the objects the run reads
    of those its own clause set reads; see `_ClauseSet.read`).  The clause
    set is None for a run decided one schema at a time: one of a single
    schema, of fewer than three slots (its plans scan), or whose clause
    set cannot be built (each of its checks then raises what it raises)."""
    got = schemas[0].runs.get(schemas[1:]) if schemas else ()
    if got is not None:
        return got
    keys = [(p.variables, p.copy_blocks) for p in map(polarize, schemas)]
    out, start = [], 0
    for stop in range(1, len(schemas) + 1):
        if stop < len(schemas) and keys[stop] == keys[start]:
            continue
        run, clause_set, places = schemas[start:stop], None, ()
        if len(run) > 1 and len(keys[start][0]) > 2:
            try:
                clause_set = _ClauseSet(run, True)
            except SemanticError:
                pass
            else:
                at = {s: k for k, s in enumerate(clause_set.ops + clause_set.maps)}
                places = tuple(tuple(at[s] for s in own.ops + own.maps)
                               for own in (_clause_set((s,), True) for s in run))
        out.append((stop, clause_set, places))
        start = stop
    got = schemas[0].runs[schemas[1:]] = tuple(out)
    return got


def _decide(run, clause_set, places, interp: Interpretation) -> None:
    """Decide the schemas of one run (see _runs) on one plan over its
    clauses, clause-major, and keep each verdict in the schema's own memo,
    where check_schema finds it.

    The run's memo keeps a mark for each set of objects on which all of
    it passed, so such a run costs one lookup.  Otherwise each schema's
    verdict is looked up, in order, from the objects the run read (its
    entry for the run's shape is kept in `owns`).  The pass starts at the
    first schema with no verdict kept: _contract over _schedule's groups,
    clause after clause, each over every index of slot 0, up to the first
    clause that fails, each verdict what check_schema alone reports.  A
    kept failure ends the pass, as it ends check_all; a kept pass met
    after the start is decided again and not kept again.  A plan that
    does not contract, or a clause set whose plan cannot be built, leaves
    every schema to check_schema.
    """
    looked = clause_set.lookup(interp)
    entry = clause_set.by_shape.get(looked[0])
    if looked[0] is None or entry is not None and entry.recall(looked[1]) is not None:
        return
    try:
        plan, cur, dens, (entry, bound) = _bind(clause_set, interp, True, {}, looked=looked)
        if entry.owns is None:  # a schema's shape follows from the run's; each holds a plan
            entry.owns = [_bind(_clause_set((s,), True), interp, True, {})[3][0] for s in run]
    except (SemanticError, KeyError):
        return
    if plan.joins is None:
        return
    _, dims, objects = bound
    passes = idx = None
    for k, own in enumerate(entry.owns):
        mine = [objects[i] for i in places[k]]
        own_bound = hash((dims, *map(id, mine))), dims, mine
        got = own.recall(own_bound)
        if got is not None and got[0] is not None:
            return
        if got is not None and passes is None:
            continue
        if passes is None:
            groups = plan.schedules.get(k)
            if groups is None:
                groups = plan.schedules[k] = _schedule(plan, range(k, len(run)))
            idx = [0] * len(clause_set.variables)
            passes = _contract(plan, cur, dens, [interp.sorts[sort] for _, sort, _ in
                                                 clause_set.variables], idx, objects, groups)
        hit, *work = next(passes)
        if got is None:
            own.remember(own_bound, None if hit is None else _witness(
                plan, cur, dens, interp, run[k].name, hit, idx), *work)
        if hit is not None:
            return
    entry.remember(bound, None, 0, 0, 0)


def check_all(schemas, interp: Interpretation, check_id: str) -> CheckReport:
    """Run several schemas; pass iff all pass, else first failure's witness.

    Each run of consecutive schemas over one variable list of three or
    more slots is first decided on one plan (see _decide): clause-major,
    so tables such as left(x, y) or alpha(z) that several of its axioms
    read are built once per index of slot 0, and the pass stops at the
    first failing schema.  Each verdict is kept in its schema's memo, and
    check_schema is then called per schema as before, answering from it.
    The report is the one schema-by-schema checks give.
    """
    schemas = tuple(schemas)
    total = evaluated = prefixes = start = 0
    for stop, clause_set, places in _runs(schemas):
        if clause_set is not None:
            _decide(schemas[start:stop], clause_set, places, interp)
        for schema in schemas[start:stop]:
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
        start = stop
    return CheckReport("pass", check_id, tuples_checked=total, tuples_evaluated=evaluated,
                       prefixes_visited=prefixes)

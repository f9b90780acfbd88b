"""Exact rational scalars, vectors, linear maps and structure-constant tensors.

Everything is exact: coefficients are arbitrary-precision rationals and all
operations are pure functions on immutable values.  Internally a value keeps
integer numerators over one shared positive denominator, so the hot
contraction loops run on plain ints; the public surface speaks
`fractions.Fraction`.  A vector is dense.  A linear map and a structure
tensor keep only their nonzero entries: a map, per source basis vector j,
the sparse column of (k, numerator) pairs of its image; a tensor, per
argument pair (i, j), the sparse row of (k, numerator) pairs of e_i * e_j;
k strictly ascending in both.  These columns and rows are the one stored
form: the identity engine's kernels read them as they are, every method
builds or reads them directly, and the dense views (`matrix`, `coeffs`) are
built on demand, so a value's size follows its nonzero entries, not a power
of its dimension.  All zero rows and columns are one shared empty list, and
every tensor built here stores its all-zero planes (the rows e_i * e_j of
one i) as one shared plane per width (`_zero_plane`), so a tensor with few
nonzero constants keeps one reference per plane plus one per argument pair
of its nonzero planes, and code that walks a tensor skips a zero plane by
identity.  `StructureTensor.from_sparse` and `LinearMap.from_sparse` build
from the nonzero entries alone, so the parser's work follows the file.  A
map keeps the engine's data of its powers in `_powers` once they are built
(its first power's columns are `_cols` itself), and a tensor the engine's
tables, each built on first request, in the dict `_masks`; both take weak
references, which the engine's verdict memo keys on.  Constructions
assemble tensors on the numerators too:
`StructureTensor.place` puts blocks side by side and
`StructureTensor.pull` precomposes the left argument with a map, both in
lowest terms.  The commuting-square kernel `square_gap` decides f.g == h.k
on numerator columns, cross-scaled by the denominators, one column at a
time, and names the first column at which the two sides differ, without
building a LinearMap or a Fraction.  Operator admissibility, the operator
sampler's draws and the morphism twist check reach it through
`engine.twist_gap`, which first reads the identity flag the engine keeps
with each map's columns: when both twists are identities the square holds
for every map and is never multiplied out.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm


class ShapeError(ValueError):
    """Dimension mismatch between operands."""


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def scalar_arith(a, b, op: str) -> Fraction:
    """Exact rational arithmetic; `op` is one of add, sub, mul, div."""
    a, b = _frac(a), _frac(b)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b  # raises ZeroDivisionError for b == 0
    raise ValueError(f"unknown scalar op {op!r}")


class Vector:
    """Immutable vector of exact rationals over a fixed ordered basis."""

    __slots__ = ("dim", "_n", "_d")

    def __init__(self, coords):
        fracs = [_frac(c) for c in coords]
        den = lcm(1, *(f.denominator for f in fracs))  # leaves them in lowest terms
        nums = [f.numerator * (den // f.denominator) for f in fracs]
        self.dim = len(nums)
        self._n = tuple(nums)
        self._d = den

    @classmethod
    def _make(cls, nums, den):
        v = object.__new__(cls)
        v.dim = len(nums)
        v._n = tuple(nums)
        v._d = den
        return v

    @classmethod
    def zero(cls, dim: int) -> "Vector":
        return cls._make([0] * dim, 1)

    @classmethod
    def basis(cls, dim: int, i: int) -> "Vector":
        if not 0 <= i < dim:
            raise ShapeError(f"basis index {i} out of range for dim {dim}")
        return cls._make([1 if j == i else 0 for j in range(dim)], 1)

    @property
    def coords(self):
        return tuple(Fraction(n, self._d) for n in self._n)

    def is_zero(self) -> bool:
        return not any(self._n)

    def __add__(self, other: "Vector") -> "Vector":
        if self.dim != other.dim:
            raise ShapeError("vector dims differ")
        a, b = self, other
        if a._d == b._d:
            return Vector._make([x + y for x, y in zip(a._n, b._n)], a._d)
        return Vector._make(
            [x * b._d + y * a._d for x, y in zip(a._n, b._n)], a._d * b._d
        )

    def __sub__(self, other: "Vector") -> "Vector":
        return self + (-other)

    def __neg__(self) -> "Vector":
        return Vector._make([-x for x in self._n], self._d)

    def scale(self, s) -> "Vector":
        s = _frac(s)
        return Vector._make([s.numerator * x for x in self._n], self._d * s.denominator)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vector) or self.dim != other.dim:
            return NotImplemented if not isinstance(other, Vector) else False
        return all(x * other._d == y * self._d for x, y in zip(self._n, other._n))

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"Vector({[str(c) for c in self.coords]})"


# The one zero row of every tensor and zero column of every map.  No stored
# row or column is ever mutated in place (each method builds new lists, and
# the engine's kernels return stored rows as values), so all of them share it.
_EMPTY = []


@cache
def _zero_plane(width):
    """The one all-zero plane of `width` argument pairs, `width` references
    to the shared empty row.  No stored plane is mutated either, so every
    tensor of that right dimension shares it."""
    return [_EMPTY] * width


def _shared(rows, width):
    """The planes of rows, each all-zero one replaced by the shared zero plane."""
    zero = _zero_plane(width)
    return [plane if plane is zero or any(plane) else zero for plane in rows]


def _sparse_entries(row, dim):
    """(k, x) for the nonzero x of a sparse row of (k, int or Fraction), k
    strictly ascending in range(dim), else ShapeError."""
    out, last = [], -1
    for k, x in row:
        if not last < k < dim:
            raise ShapeError(f"sparse entry {k} out of order or out of range for dim {dim}")
        last = k
        if x.__class__ is not int:
            x = _frac(x)
        if x:
            out.append((k, x))
    return out


def _entries(row):
    """(k, x) for the nonzero entries x of a coefficient row, k ascending.  An
    int is its own numerator over 1: the zeros of a sparse row, most of its
    entries, are never wrapped in a Fraction."""
    out = []
    for k, x in enumerate(row):
        if x.__class__ is not int:
            x = _frac(x)
        if x:
            out.append((k, x))
    return out or _EMPTY


def _common(rows):
    """(numerator rows, denominator) of sparse rows of Fractions and ints,
    over their least common denominator, which leaves them in lowest terms;
    empty rows pass through as they are."""
    den = lcm(1, *(x.denominator for plane in rows for row in plane for _, x in row))
    return [[[(k, x.numerator * (den // x.denominator)) for k, x in row] if row else row
             for row in plane] for plane in rows], den


def _scaled(row, s, at=0):
    """The sparse row s * row with every index moved up by at."""
    return [(at + k, s * x) for k, x in row] if s and row else _EMPTY


def _row_sum(pairs):
    """The sparse row of the sum of (k, numerator) contributions: k strictly
    ascending and no zero kept."""
    acc = {}
    for k, x in pairs:
        acc[k] = acc.get(k, 0) + x
    return [(k, x) for k, x in sorted(acc.items()) if x] or _EMPTY


def _same(r1, r2, s1, s2) -> bool:
    """Whether s1 * r1 and s2 * r2 are one sparse row (s1, s2 nonzero)."""
    if s1 == s2:
        return r1 == r2
    return len(r1) == len(r2) and all(k == m and x * s1 == y * s2
                                      for (k, x), (m, y) in zip(r1, r2))


def _image(cols, col):
    """The sparse column sum of x * cols[m] over the entries (m, x) of col:
    the image of col under the map whose numerator columns are cols."""
    if len(col) == 1:
        (m, x), = col
        return _scaled(cols[m], x)
    return _row_sum((k, x * y) for m, x in col for k, y in cols[m]) if col else _EMPTY


class LinearMap:
    """Immutable linear map from src_dim to dst_dim coordinates.

    Only the nonzero entries are stored.  Column `_cols[j]`, the image of
    basis vector j, is the list of pairs (k, numerator) over the shared
    positive denominator `_d`, with k strictly ascending and no zero
    numerator, so a zero column is [].  The engine's twist kernels read
    these columns as they are, so every method keeps exactly this form;
    `matrix`, `entry` and `column` build the dense view on demand.
    """

    __slots__ = ("src_dim", "dst_dim", "_cols", "_d", "_powers", "__weakref__")

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        src = len(rows[0]) if rows else 0
        if any(len(r) != src for r in rows):
            raise ShapeError("ragged matrix")
        self.src_dim, self.dst_dim, self._powers = src, len(rows), None
        (self._cols,), self._d = _common([[_entries(col) for col in zip(*rows)]])

    @classmethod
    def _make(cls, cols, den, src, dst):
        m = object.__new__(cls)
        m.src_dim, m.dst_dim = src, dst
        m._cols, m._d, m._powers = cols, den, None
        return m

    @classmethod
    def _lowest(cls, cols, den, src, dst):
        """_make over numerator columns brought to lowest terms, the _cols and
        _d that LinearMap(rows) keeps for the same values; a zero column is
        the shared empty one."""
        g = gcd(den, *(x for col in cols for _, x in col)) if den > 1 else 1
        if g > 1:
            cols = [[(k, x // g) for k, x in col] for col in cols]
            den //= g
        return cls._make([col or _EMPTY for col in cols], den, src, dst)

    @classmethod
    def identity(cls, n: int) -> "LinearMap":
        return cls._make([[(j, 1)] for j in range(n)], 1, n, n)

    @classmethod
    def zero(cls, src: int, dst: int | None = None) -> "LinearMap":
        return cls._make([_EMPTY] * src, 1, src, src if dst is None else dst)

    @classmethod
    def diagonal(cls, values) -> "LinearMap":
        vals = [x if x.__class__ is int else _frac(x) for x in values]
        (cols,), den = _common([[[(j, x)] if x else _EMPTY for j, x in enumerate(vals)]])
        return cls._make(cols, den, len(vals), len(vals))

    @classmethod
    def from_columns(cls, columns, dst_dim: int) -> "LinearMap":
        """Build from images of the source basis vectors (as coefficient lists)."""
        cols = [list(c) for c in columns]
        if any(len(c) != dst_dim for c in cols):
            raise ShapeError("column length differs from dst_dim")
        return cls.from_sparse(len(cols), dst_dim, {j: _entries(c) for j, c in enumerate(cols)})

    @classmethod
    def from_sparse(cls, src_dim: int, dst_dim: int, columns) -> "LinearMap":
        """Build from {j: sparse image of basis vector j}, each a list of
        (k, coefficient) pairs, k strictly ascending, coefficients ints or
        Fractions; zero coefficients and absent columns are zero.  Only the
        given entries are read, so the work follows them, not src * dst."""
        entries = {}
        for j, col in columns.items():
            if not 0 <= j < src_dim:
                raise ShapeError(f"column {j} out of range for src dim {src_dim}")
            col = _sparse_entries(col, dst_dim)
            if col:
                entries[j] = col
        (nums,), den = _common([list(entries.values())])
        cols = [_EMPTY] * src_dim
        for j, col in zip(entries, nums):
            cols[j] = col
        return cls._make(cols, den, src_dim, dst_dim)

    @property
    def matrix(self):
        rows = [[Fraction(0)] * self.src_dim for _ in range(self.dst_dim)]
        for j, col in enumerate(self._cols):
            for k, x in col:
                rows[k][j] = Fraction(x, self._d)
        return tuple(map(tuple, rows))

    def _col(self, j):
        if 0 <= j < self.src_dim:
            return self._cols[j]
        raise ShapeError(f"column {j} out of range for src dim {self.src_dim}")

    def entry(self, i: int, j: int) -> Fraction:
        if not 0 <= i < self.dst_dim:
            raise ShapeError(f"row {i} out of range for dst dim {self.dst_dim}")
        return next((Fraction(x, self._d) for k, x in self._col(j) if k == i), Fraction(0))

    def column(self, j: int) -> Vector:
        out = [0] * self.dst_dim
        for k, x in self._col(j):
            out[k] = x
        return Vector._make(out, self._d)

    def _transposed(self, step=1):
        """Per row k, the nonzero entries (step * j, numerator) of row k, j
        ascending."""
        rows = [[] for _ in range(self.dst_dim)]
        for j, col in enumerate(self._cols):
            for k, x in col:
                rows[k].append((j * step, x))
        return rows

    def is_zero(self) -> bool:
        return not any(self._cols)

    def apply(self, v: Vector) -> Vector:
        if v.dim != self.src_dim:
            raise ShapeError(f"map expects dim {self.src_dim}, got {v.dim}")
        out = [0] * self.dst_dim
        for xj, col in zip(v._n, self._cols):
            if xj:
                for k, c in col:
                    out[k] += c * xj
        return Vector._make(out, self._d * v._d)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other (matrix product self * other): column j is the
        image under self of column j of other, so zero entries of either
        factor cost nothing."""
        if self.src_dim != other.dst_dim:
            raise ShapeError("inner dimensions disagree")
        cols = [_image(self._cols, col) for col in other._cols]
        return LinearMap._make(cols, self._d * other._d, other.src_dim, self.dst_dim)

    def power(self, k: int) -> "LinearMap":
        if self.src_dim != self.dst_dim:
            raise ShapeError("powers need a square matrix")
        if k < 0:
            raise ValueError("negative power")
        acc = LinearMap.identity(self.src_dim)
        for _ in range(k):
            acc = acc.compose(self)
        return acc

    def direct_sum(self, other: "LinearMap") -> "LinearMap":
        cols = ([_scaled(col, other._d) for col in self._cols]
                + [_scaled(col, self._d, self.dst_dim) for col in other._cols])
        return LinearMap._make(cols, self._d * other._d, self.src_dim + other.src_dim,
                               self.dst_dim + other.dst_dim)

    def tensor(self, other: "LinearMap") -> "LinearMap":
        """Kronecker product; row-major pairing (i, j) -> i*n + j."""
        n = other.dst_dim
        cols = [[(i * n + k, x * y) for i, x in c1 for k, y in c2] if c1 and c2 else _EMPTY
                for c1 in self._cols for c2 in other._cols]
        return LinearMap._make(cols, self._d * other._d, self.src_dim * other.src_dim,
                               self.dst_dim * n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearMap):
            return NotImplemented
        if (self.src_dim, self.dst_dim) != (other.src_dim, other.dst_dim):
            return False
        a, b = other._d, self._d
        if a == b:
            return self._cols == other._cols
        return all(_same(c1, c2, a, b) for c1, c2 in zip(self._cols, other._cols))

    def __hash__(self):
        d = self._d
        return hash((self.src_dim, self.dst_dim,
                     tuple((j, k, Fraction(x, d)) for j, col in enumerate(self._cols)
                           for k, x in col)))

    def __repr__(self):
        return f"LinearMap({self.dst_dim}x{self.src_dim})"


class StructureTensor:
    """A bilinear operation given by coefficients c[i][j][k].

    e_i * e_j = sum_k c[i][j][k] e_k.  Slots may live in different spaces:
    the tensor carries (left_dim, right_dim, out_dim), with the square case
    left = right = out being the usual structure-constant tensor of a product.

    Only the nonzero coefficients are stored.  Row `_rows[i][j]` is the list
    of pairs (k, numerator) of e_i * e_j over the shared positive
    denominator `_d`, with k strictly ascending and no zero numerator, so a
    zero row is [].  The engine's kernels read these rows as they are and
    compare values with ==, so every method keeps exactly this form; `coeffs`
    and `coeff` build the dense view on demand.  Every all-zero plane
    `_rows[i]` that a method here builds is the shared `_zero_plane` of the
    right dimension, so the engine and the methods that walk the planes skip
    it by identity.
    """

    __slots__ = ("left_dim", "right_dim", "out_dim", "_rows", "_d", "_masks", "__weakref__")

    def __init__(self, coeffs):
        ld = len(coeffs)
        rd = len(coeffs[0]) if ld else 0
        od = len(coeffs[0][0]) if rd else 0
        if any(len(plane) != rd or any(len(row) != od for row in plane) for plane in coeffs):
            raise ShapeError("ragged tensor")
        self.left_dim, self.right_dim, self.out_dim = ld, rd, od
        rows, self._d = _common([[_entries(row) for row in plane] for plane in coeffs])
        self._rows, self._masks = _shared(rows, rd), None

    @classmethod
    def _make(cls, rows, den, ld, rd, od):
        t = object.__new__(cls)
        t.left_dim, t.right_dim, t.out_dim = ld, rd, od
        t._rows, t._d, t._masks = rows, den, None
        return t

    @classmethod
    def _lowest(cls, rows, den, ld, rd, od):
        """_make over numerator rows brought to lowest terms, the _rows and _d
        that StructureTensor(coeffs) keeps for the same values, with every
        all-zero plane the shared one."""
        zero, rows = _zero_plane(rd), _shared(rows, rd)
        g = gcd(den, *(x for plane in rows if plane is not zero for row in plane for _, x in row))
        if g > 1:
            rows = [plane if plane is zero else
                    [[(k, x // g) for k, x in row] if row else row for row in plane]
                    for plane in rows]
            den //= g
        return cls._make(rows, den, ld, rd, od)

    @classmethod
    def zero(cls, left_dim: int, right_dim: int | None = None, out_dim: int | None = None):
        rd = left_dim if right_dim is None else right_dim
        od = left_dim if out_dim is None else out_dim
        return cls._make([_zero_plane(rd)] * left_dim, 1, left_dim, rd, od)

    @classmethod
    def from_rule(cls, left_dim, right_dim, out_dim, rule):
        """Build from a dict {(i, j): coefficient list or Vector}; absent rows
        are zero."""
        rows = {}
        for key, val in rule.items():
            row = val.coords if isinstance(val, Vector) else val
            if len(row) != out_dim:
                raise ShapeError("ragged tensor")
            rows[key] = _entries(row)
        return cls.from_sparse(left_dim, right_dim, out_dim, rows)

    @classmethod
    def from_sparse(cls, left_dim, right_dim, out_dim, rows):
        """Build from a dict {(i, j): sparse row of e_i * e_j}, each a list of
        (k, coefficient) pairs, k strictly ascending, coefficients ints or
        Fractions; zero coefficients and absent rows are zero.  Only the
        given entries are read and only the planes they fall in are built, so
        the work follows them, not a power of the dimensions."""
        entries = {}
        for (i, j), row in rows.items():
            if not (0 <= i < left_dim and 0 <= j < right_dim):
                raise ShapeError(f"rule row ({i}, {j}) out of range")
            row = _sparse_entries(row, out_dim)
            if row:
                entries[i, j] = row
        (nums,), den = _common([list(entries.values())])
        zero = _zero_plane(right_dim)
        planes = [zero] * left_dim
        for (i, j), row in zip(entries, nums):
            if planes[i] is zero:
                planes[i] = list(zero)
            planes[i][j] = row
        return cls._make(planes, den, left_dim, right_dim, out_dim)

    @classmethod
    def square_from_rule(cls, dim, rule):
        return cls.from_rule(dim, dim, dim, rule)

    @classmethod
    def place(cls, dims, pieces) -> "StructureTensor":
        """The sum of tensors placed as blocks of one tensor of dims (left,
        right, out), in lowest terms.

        A piece (t, (i0, j0, k0), swapped) puts t[i][j][k] at
        [i0 + i][j0 + j][k0 + k], or at [i0 + j][j0 + i][k0 + k] when
        swapped: t's left argument is then read from the right slot, as for
        a right action r(y)u stored algebra-argument first.  Pieces of any
        shape that fits are allowed, and a piece whose t is None is absent.
        """
        ld, rd, od = dims
        pieces = [p for p in pieces if p[0] is not None]
        den = lcm(1, *(t._d for t, _, _ in pieces))
        zero = _zero_plane(rd)
        rows = [zero] * ld
        for t, (i0, j0, k0), swapped in pieces:
            li, ri = (t.right_dim, t.left_dim) if swapped else (t.left_dim, t.right_dim)
            if min(i0, j0, k0) < 0 or i0 + li > ld or j0 + ri > rd or k0 + t.out_dim > od:
                raise ShapeError("piece does not fit the placed tensor")
            s, skip = den // t._d, _zero_plane(t.right_dim)
            for i, plane in enumerate(t._rows):
                if plane is skip:
                    continue
                for j, row in enumerate(plane):
                    if row:
                        a, b = (i0 + j, j0 + i) if swapped else (i0 + i, j0 + j)
                        if rows[a] is zero:
                            rows[a] = list(zero)
                        row = _scaled(row, s, k0)
                        rows[a][b] = _row_sum(rows[a][b] + row) if rows[a][b] else row
        return cls._lowest(rows, den, ld, rd, od)

    @property
    def dim(self) -> int:
        if self.left_dim == self.right_dim == self.out_dim:
            return self.left_dim
        raise ShapeError("mixed-sort tensor has no single dim")

    @property
    def coeffs(self):
        return tuple(tuple(self.row(i, j).coords for j in range(self.right_dim))
                     for i in range(self.left_dim))

    def _row(self, i, j):
        if 0 <= i < self.left_dim and 0 <= j < self.right_dim:
            return self._rows[i][j]
        raise ShapeError(f"row ({i}, {j}) out of range for argument dims"
                         f" ({self.left_dim}, {self.right_dim})")

    def coeff(self, i, j, k) -> Fraction:
        if not 0 <= k < self.out_dim:
            raise ShapeError(f"output index {k} out of range for dim {self.out_dim}")
        return next((Fraction(x, self._d) for at, x in self._row(i, j) if at == k), Fraction(0))

    def is_zero(self) -> bool:
        zero = _zero_plane(self.right_dim)
        return all(plane is zero or not any(plane) for plane in self._rows)

    def apply(self, x: Vector, y: Vector) -> Vector:
        if x.dim != self.left_dim or y.dim != self.right_dim:
            raise ShapeError(
                f"tensor expects dims ({self.left_dim},{self.right_dim}),"
                f" got ({x.dim},{y.dim})"
            )
        out = [0] * self.out_dim
        for i, xi in enumerate(x._n):
            if not xi:
                continue
            plane = self._rows[i]
            for j, yj in enumerate(y._n):
                if not yj:
                    continue
                s = xi * yj
                for k, c in plane[j]:
                    out[k] += s * c
        return Vector._make(out, x._d * y._d * self._d)

    def row(self, i: int, j: int) -> Vector:
        out = [0] * self.out_dim
        for k, x in self._row(i, j):
            out[k] = x
        return Vector._make(out, self._d)

    def opposite(self) -> "StructureTensor":
        """Swap the two arguments: c'[i][j][k] = c[j][i][k]."""
        if self.left_dim != self.right_dim:
            raise ShapeError("opposite needs equal argument dims")
        rows = [[plane[i] for plane in self._rows] for i in range(self.right_dim)]
        return StructureTensor._make(_shared(rows, self.left_dim), self._d, self.left_dim,
                                     self.right_dim, self.out_dim)

    def __add__(self, other: "StructureTensor") -> "StructureTensor":
        if (self.left_dim, self.right_dim, self.out_dim) != (
                other.left_dim, other.right_dim, other.out_dim):
            raise ShapeError("tensor shapes differ")
        a, b = other._d, self._d

        def add(r1, r2):
            if r1 and r2:
                return _row_sum(_scaled(r1, a) + _scaled(r2, b))
            return _scaled(r1, a) if r1 else _scaled(r2, b)

        zero = _zero_plane(self.right_dim)
        rows = [zero if p1 is zero and p2 is zero else [add(r1, r2) for r1, r2 in zip(p1, p2)]
                for p1, p2 in zip(self._rows, other._rows)]
        return StructureTensor._make(
            _shared(rows, self.right_dim), self._d * other._d, self.left_dim, self.right_dim,
            self.out_dim
        )

    def __sub__(self, other: "StructureTensor") -> "StructureTensor":
        return self + other.scale(-1)

    def scale(self, s) -> "StructureTensor":
        if s.__class__ is not int:  # an int is its own numerator over 1, as in __init__
            s = _frac(s)
        zero = _zero_plane(self.right_dim)
        rows = [plane if plane is zero else [_scaled(row, s.numerator) for row in plane]
                for plane in self._rows]
        return StructureTensor._make(
            _shared(rows, self.right_dim), self._d * s.denominator, self.left_dim,
            self.right_dim, self.out_dim
        )

    def push(self, phi: LinearMap) -> "StructureTensor":
        """Compose the output with phi: (x, y) -> phi(x * y)."""
        if phi.src_dim != self.out_dim:
            raise ShapeError("map domain differs from tensor output")
        zero = _zero_plane(self.right_dim)
        rows = [plane if plane is zero else [_image(phi._cols, row) for row in plane]
                for plane in self._rows]
        return StructureTensor._make(_shared(rows, self.right_dim), self._d * phi._d,
                                     self.left_dim, self.right_dim, phi.dst_dim)

    def pull(self, K: LinearMap) -> "StructureTensor":
        """Precompose the left argument with K: (x, y) -> K(x) * y, in lowest
        terms; the mirror of push.  a.pull(K).opposite() is (x, y) -> K(y) * x."""
        if K.dst_dim != self.left_dim:
            raise ShapeError("map codomain differs from the tensor's left dim")
        rd = self.right_dim
        zero = _zero_plane(rd)
        rows = []
        for col in K._cols:
            # plane i sums the planes p of self weighted by K[p][i], column i of K
            planes = [(self._rows[p], c) for p, c in col if self._rows[p] is not zero]
            rows.append([_row_sum((k, c * x) for plane, c in planes for k, x in plane[j])
                         for j in range(rd)] if planes else zero)
        return StructureTensor._lowest(rows, K._d * self._d, K.src_dim, rd, self.out_dim)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructureTensor):
            return NotImplemented
        if (self.left_dim, self.right_dim, self.out_dim) != (
                other.left_dim, other.right_dim, other.out_dim):
            return False
        a, b = other._d, self._d
        if a == b:
            return self._rows == other._rows
        # both rows hold the nonzero entries only, in one order
        return all(_same(r1, r2, a, b) for p1, p2 in zip(self._rows, other._rows)
                   for r1, r2 in zip(p1, p2))

    def __hash__(self):
        d = self._d
        return hash((self.left_dim, self.right_dim, self.out_dim,
                     tuple((i, j, k, Fraction(x, d)) for i, plane in enumerate(self._rows)
                           for j, row in enumerate(plane) for k, x in row)))

    def __repr__(self):
        return f"StructureTensor({self.left_dim},{self.right_dim},{self.out_dim})"


def square_gap(fc, gc, hc, kc, sl, sr):
    """The first column j at which sl * f.g and sr * h.k differ, or None.

    The arguments are the numerator columns (`_cols`) of conforming maps,
    and the two products must have the same shape.  With the denominators as
    cross-scales this decides the commuting square f.g == h.k of LinearMaps
    exactly:

        square_gap(f._cols, g._cols, h._cols, k._cols, h._d * k._d, f._d * g._d)

    is None iff f.compose(g) == h.compose(k), and otherwise the first column
    at which f.compose(g).column(j) != h.compose(k).column(j).  Common factors
    of the two scales may be cancelled first.  The products are built one
    column at a time, up to the first column that differs; no LinearMap and
    no Fraction is built.
    """
    for j, (g, k) in enumerate(zip(gc, kc)):
        if not _same(_image(fc, g), _image(hc, k), sl, sr):
            return j
    return None


def apply_bilinear(t: StructureTensor, x: Vector, y: Vector) -> Vector:
    """Evaluate the bilinear operation t on (x, y)."""
    return t.apply(x, y)


def compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """f after g."""
    return f.compose(g)


def map_power(f: LinearMap, k: int) -> LinearMap:
    """k-fold composition of f with itself; k = 0 gives the identity."""
    return f.power(k)

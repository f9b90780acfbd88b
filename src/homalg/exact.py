"""Exact rational scalars, vectors, linear maps and structure-constant tensors.

Everything is exact: coefficients are arbitrary-precision rationals and all
operations are pure functions on immutable values.  Internally a vector (or
matrix) keeps integer numerators over one shared positive denominator, so
the hot contraction loops run on plain ints; the public surface speaks
`fractions.Fraction`.  A structure tensor keeps only its nonzero structure
constants: per argument pair (i, j) the sparse row of (k, numerator) pairs
over the shared denominator, k strictly ascending.  These rows are the one
stored form: the identity engine's kernels read them as they are, every
method builds or reads them directly, and the dense `coeffs` view is built
on demand, so a tensor's size follows its nonzero constants and its
argument pairs, not the cube of its dimension.  A map keeps the engine's
sparse columns of its powers in `_powers` once they are built, and a tensor
the engine's masks in `_masks`; both take weak references, which the
engine's verdict memo keys on.  Constructions assemble tensors on the
numerators too: `StructureTensor.place` puts blocks side by side and
`StructureTensor.pull` precomposes the left argument with a map, both in
lowest terms.  The commuting-square kernel `square_gap` decides f.g == h.k
on numerator rows, cross-scaled by the denominators, and names the first
column at which the two sides differ, without building a LinearMap or a
Fraction.  Operator admissibility, the operator sampler's draws and the
morphism twist check reach it through `engine.twist_gap`, which first reads
the identity flag the engine keeps with each map's sparse columns: when
both twists are identities the square holds for every map and is never
multiplied out.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class ShapeError(ValueError):
    """Dimension mismatch between operands."""


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _merge(fracs):
    """Return (numerators, common positive denominator) for a list of Fractions
    (ints count as Fractions over 1)."""
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _reduce(nums, den):
    g = den
    for n in nums:
        g = gcd(g, n)
        if g == 1:
            return nums, den
    if g > 1:
        return [n // g for n in nums], den // g
    return nums, den


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
        nums, den = _merge(fracs)
        nums, den = _reduce(nums, den)
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


class LinearMap:
    """Immutable linear map, stored as a dst_dim x src_dim exact matrix."""

    __slots__ = ("src_dim", "dst_dim", "_n", "_d", "_powers", "__weakref__")

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        dst = len(rows)
        src = len(rows[0]) if rows else 0
        if any(len(r) != src for r in rows):
            raise ShapeError("ragged matrix")
        # ints are their own numerators over 1, as in StructureTensor
        fracs = [x if x.__class__ is int else _frac(x) for r in rows for x in r]
        nums, den = _merge(fracs)
        nums, den = _reduce(nums, den)
        self.src_dim = src
        self.dst_dim = dst
        self._n = tuple(tuple(nums[i * src:(i + 1) * src]) for i in range(dst))
        self._d = den
        self._powers = None

    @classmethod
    def _make(cls, rows, den, src, dst):
        m = object.__new__(cls)
        m.src_dim = src
        m.dst_dim = dst
        m._n = tuple(tuple(r) for r in rows)
        m._d = den
        m._powers = None
        return m

    @classmethod
    def identity(cls, n: int) -> "LinearMap":
        return cls._make([[1 if i == j else 0 for j in range(n)] for i in range(n)], 1, n, n)

    @classmethod
    def zero(cls, src: int, dst: int | None = None) -> "LinearMap":
        dst = src if dst is None else dst
        return cls._make([[0] * src for _ in range(dst)], 1, src, dst)

    @classmethod
    def diagonal(cls, values) -> "LinearMap":
        vals = list(values)
        n = len(vals)
        return cls([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns, dst_dim: int) -> "LinearMap":
        """Build from images of the source basis vectors (as coefficient lists)."""
        cols = [list(c) for c in columns]
        if any(len(c) != dst_dim for c in cols):
            raise ShapeError("column length differs from dst_dim")
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(dst_dim)])

    @property
    def matrix(self):
        return tuple(tuple(Fraction(x, self._d) for x in row) for row in self._n)

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self._n[i][j], self._d)

    def column(self, j: int) -> Vector:
        return Vector._make([row[j] for row in self._n], self._d)

    def is_zero(self) -> bool:
        return all(not x for row in self._n for x in row)

    def apply(self, v: Vector) -> Vector:
        if v.dim != self.src_dim:
            raise ShapeError(f"map expects dim {self.src_dim}, got {v.dim}")
        out = [0] * self.dst_dim
        for j, xj in enumerate(v._n):
            if not xj:
                continue
            for i in range(self.dst_dim):
                c = self._n[i][j]
                if c:
                    out[i] += c * xj
        return Vector._make(out, self._d * v._d)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other (matrix product self * other).

        Row i of the product sums the rows of other weighted by the nonzero
        entries of row i of self; zero entries of either factor cost nothing.
        """
        if self.src_dim != other.dst_dim:
            raise ShapeError("inner dimensions disagree")
        rows = _product(self._n, other._n, other.src_dim)
        return LinearMap._make(rows, self._d * other._d, other.src_dim, self.dst_dim)

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
        src, dst = self.src_dim + other.src_dim, self.dst_dim + other.dst_dim
        rows = [[0] * src for _ in range(dst)]
        for i in range(self.dst_dim):
            for j in range(self.src_dim):
                rows[i][j] = self._n[i][j] * other._d
        for i in range(other.dst_dim):
            for j in range(other.src_dim):
                rows[self.dst_dim + i][self.src_dim + j] = other._n[i][j] * self._d
        return LinearMap._make(rows, self._d * other._d, src, dst)

    def tensor(self, other: "LinearMap") -> "LinearMap":
        """Kronecker product; row-major pairing (i, j) -> i*n + j."""
        src = self.src_dim * other.src_dim
        dst = self.dst_dim * other.dst_dim
        rows = [[0] * src for _ in range(dst)]
        for i in range(self.dst_dim):
            for k in range(other.dst_dim):
                for j in range(self.src_dim):
                    for m in range(other.src_dim):
                        rows[i * other.dst_dim + k][j * other.src_dim + m] = (
                            self._n[i][j] * other._n[k][m]
                        )
        return LinearMap._make(rows, self._d * other._d, src, dst)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearMap):
            return NotImplemented
        if (self.src_dim, self.dst_dim) != (other.src_dim, other.dst_dim):
            return False
        return all(
            x * other._d == y * self._d
            for r1, r2 in zip(self._n, other._n)
            for x, y in zip(r1, r2)
        )

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"LinearMap({self.dst_dim}x{self.src_dim})"


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
    return out


def _common(rows):
    """(numerator rows, denominator) of sparse rows of Fractions and ints,
    over their least common denominator, which leaves them in lowest terms."""
    den = lcm(1, *(x.denominator for plane in rows for row in plane for _, x in row))
    return [[[(k, x.numerator * (den // x.denominator)) for k, x in row] for row in plane]
            for plane in rows], den


def _scaled(row, s):
    return [(k, s * x) for k, x in row] if s else []


def _row_sum(pairs):
    """The sparse row of the sum of (k, numerator) contributions: k strictly
    ascending and no zero kept."""
    acc = {}
    for k, x in pairs:
        acc[k] = acc.get(k, 0) + x
    return [(k, x) for k, x in sorted(acc.items()) if x]


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
    and `coeff` build the dense view on demand.
    """

    __slots__ = ("left_dim", "right_dim", "out_dim", "_rows", "_d", "_masks", "__weakref__")

    def __init__(self, coeffs):
        ld = len(coeffs)
        rd = len(coeffs[0]) if ld else 0
        od = len(coeffs[0][0]) if rd else 0
        if any(len(plane) != rd or any(len(row) != od for row in plane) for plane in coeffs):
            raise ShapeError("ragged tensor")
        self.left_dim, self.right_dim, self.out_dim = ld, rd, od
        self._rows, self._d = _common([[_entries(row) for row in plane] for plane in coeffs])
        self._masks = None

    @classmethod
    def _make(cls, rows, den, ld, rd, od):
        t = object.__new__(cls)
        t.left_dim, t.right_dim, t.out_dim = ld, rd, od
        t._rows, t._d, t._masks = rows, den, None
        return t

    @classmethod
    def _lowest(cls, rows, den, ld, rd, od):
        """_make over numerator rows brought to lowest terms, the _rows and _d
        that StructureTensor(coeffs) keeps for the same values."""
        g = gcd(den, *(x for plane in rows for row in plane for _, x in row))
        if g > 1:
            rows = [[[(k, x // g) for k, x in row] for row in plane] for plane in rows]
            den //= g
        return cls._make(rows, den, ld, rd, od)

    @classmethod
    def zero(cls, left_dim: int, right_dim: int | None = None, out_dim: int | None = None):
        rd = left_dim if right_dim is None else right_dim
        od = left_dim if out_dim is None else out_dim
        return cls._make([[[] for _ in range(rd)] for _ in range(left_dim)], 1, left_dim, rd, od)

    @classmethod
    def from_rule(cls, left_dim, right_dim, out_dim, rule):
        """Build from a dict {(i, j): coefficient list or Vector}; absent rows
        are zero."""
        rows = [[[] for _ in range(right_dim)] for _ in range(left_dim)]
        for (i, j), val in rule.items():
            row = val.coords if isinstance(val, Vector) else val
            if len(row) != out_dim:
                raise ShapeError("ragged tensor")
            if not (0 <= i < left_dim and 0 <= j < right_dim):
                raise ShapeError(f"rule row ({i}, {j}) out of range")
            rows[i][j] = _entries(row)
        return cls._make(*_common(rows), left_dim, right_dim, out_dim)

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
        rows = [[[] for _ in range(rd)] for _ in range(ld)]
        for t, (i0, j0, k0), swapped in pieces:
            li, ri = (t.right_dim, t.left_dim) if swapped else (t.left_dim, t.right_dim)
            if min(i0, j0, k0) < 0 or i0 + li > ld or j0 + ri > rd or k0 + t.out_dim > od:
                raise ShapeError("piece does not fit the placed tensor")
            s = den // t._d
            for i, plane in enumerate(t._rows):
                for j, row in enumerate(plane):
                    if row:
                        a, b = (i0 + j, j0 + i) if swapped else (i0 + i, j0 + j)
                        row = [(k0 + k, s * x) for k, x in row]
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
        return not any(row for plane in self._rows for row in plane)

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
        return StructureTensor._make(rows, self._d, self.left_dim, self.right_dim, self.out_dim)

    def __add__(self, other: "StructureTensor") -> "StructureTensor":
        if (self.left_dim, self.right_dim, self.out_dim) != (
                other.left_dim, other.right_dim, other.out_dim):
            raise ShapeError("tensor shapes differ")
        a, b = other._d, self._d

        def add(r1, r2):
            if r1 and r2:
                return _row_sum(_scaled(r1, a) + _scaled(r2, b))
            return _scaled(r1, a) if r1 else _scaled(r2, b)

        rows = [[add(r1, r2) for r1, r2 in zip(p1, p2)]
                for p1, p2 in zip(self._rows, other._rows)]
        return StructureTensor._make(
            rows, self._d * other._d, self.left_dim, self.right_dim, self.out_dim
        )

    def __sub__(self, other: "StructureTensor") -> "StructureTensor":
        return self + other.scale(-1)

    def scale(self, s) -> "StructureTensor":
        if s.__class__ is not int:  # an int is its own numerator over 1, as in __init__
            s = _frac(s)
        rows = [[_scaled(row, s.numerator) for row in plane] for plane in self._rows]
        return StructureTensor._make(
            rows, self._d * s.denominator, self.left_dim, self.right_dim, self.out_dim
        )

    def push(self, phi: LinearMap) -> "StructureTensor":
        """Compose the output with phi: (x, y) -> phi(x * y)."""
        if phi.src_dim != self.out_dim:
            raise ShapeError("map domain differs from tensor output")
        # the nonzero entries (k, phi[k][m]) of column m of phi
        cols = [[(k, row[m]) for k, row in enumerate(phi._n) if row[m]]
                for m in range(self.out_dim)]
        rows = [[_row_sum((k, y * x) for m, x in row for k, y in cols[m]) if row else []
                 for row in plane] for plane in self._rows]
        return StructureTensor._make(rows, self._d * phi._d, self.left_dim, self.right_dim,
                                     phi.dst_dim)

    def pull(self, K: LinearMap) -> "StructureTensor":
        """Precompose the left argument with K: (x, y) -> K(x) * y, in lowest
        terms; the mirror of push.  a.pull(K).opposite() is (x, y) -> K(y) * x."""
        if K.dst_dim != self.left_dim:
            raise ShapeError("map codomain differs from the tensor's left dim")
        rd = self.right_dim
        rows = []
        for i in range(K.src_dim):
            # plane i sums the planes p of self weighted by K[p][i]
            col = [(self._rows[p], krow[i]) for p, krow in enumerate(K._n) if krow[i]]
            rows.append([_row_sum((k, c * x) for plane, c in col for k, x in plane[j])
                         for j in range(rd)])
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
        return all(
            len(r1) == len(r2) and all(k == m and x * a == y * b
                                       for (k, x), (m, y) in zip(r1, r2))
            for p1, p2 in zip(self._rows, other._rows)
            for r1, r2 in zip(p1, p2)
        )

    def __hash__(self):
        d = self._d
        return hash((self.left_dim, self.right_dim, self.out_dim,
                     tuple((i, j, k, Fraction(x, d)) for i, plane in enumerate(self._rows)
                           for j, row in enumerate(plane) for k, x in row)))

    def __repr__(self):
        return f"StructureTensor({self.left_dim},{self.right_dim},{self.out_dim})"


def _product(fn, gn, width, s=1):
    """The numerator rows of s * fn gn, a matrix product of numerator rows with
    `width` columns: row i sums the rows of gn weighted by the nonzero
    entries of row i of fn, so zero entries of either factor cost nothing."""
    rows = []
    for frow in fn:
        out = [0] * width
        for a, grow in zip(frow, gn):
            if a:
                a *= s
                for j, b in enumerate(grow):
                    if b:
                        out[j] += a * b
        rows.append(out)
    return rows


def square_gap(fn, gn, hn, kn, sl, sr):
    """The first column j at which sl * fn gn and sr * hn kn differ, or None.

    The arguments are numerator rows (tuples or lists of ints) of conforming
    shapes, and the two products must have the same shape.  With the
    denominators as cross-scales this decides the commuting square
    f.g == h.k of LinearMaps exactly:

        square_gap(f._n, g._n, h._n, k._n, h._d * k._d, f._d * g._d)

    is None iff f.compose(g) == h.compose(k), and otherwise the first column
    at which f.compose(g).column(j) != h.compose(k).column(j).  Common factors
    of the two scales may be cancelled first.  No LinearMap and no Fraction is
    built.
    """
    width = len(gn[0]) if gn else len(kn[0]) if kn else 0
    a, b = _product(fn, gn, width, sl), _product(hn, kn, width, sr)
    if a != b:
        for j, (ca, cb) in enumerate(zip(zip(*a), zip(*b))):
            if ca != cb:
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

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from homalg.exact import (
    LinearMap,
    ShapeError,
    StructureTensor,
    Vector,
    apply_bilinear,
    compose,
    map_power,
    scalar_arith,
    square_gap,
)

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def test_scalar_arith_examples():
    assert scalar_arith(Fraction(1, 2), Fraction(1, 3), "add") == Fraction(5, 6)
    assert scalar_arith(Fraction(2, 4), Fraction(0, 1), "add") == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        scalar_arith(Fraction(1), Fraction(0), "div")


def test_scalar_arith_lowest_terms():
    r = scalar_arith(Fraction(2, 4), Fraction(1, 4), "add")
    assert (r.numerator, r.denominator) == (3, 4)


@given(rationals, rationals)
def test_scalar_round_trip(a, b):
    if b != 0:
        assert scalar_arith(scalar_arith(a, b, "mul"), b, "div") == a


def test_apply_bilinear_unit_tensor():
    t = StructureTensor.square_from_rule(2, {(0, 0): [1, 0]})
    e1 = Vector.basis(2, 0)
    assert apply_bilinear(t, e1, e1) == e1


def test_apply_bilinear_zero_vector():
    t = StructureTensor.square_from_rule(2, {(0, 0): [1, 0], (1, 1): [0, 1]})
    assert apply_bilinear(t, Vector.zero(2), Vector.basis(2, 1)).is_zero()


def test_apply_bilinear_truncated_polynomials():
    # K[x]/(x^2): e1 = 1, e2 = x, so x.x = 0
    t = StructureTensor.square_from_rule(2, {(0, 0): [1, 0], (0, 1): [0, 1], (1, 0): [0, 1]})
    x = Vector.basis(2, 1)
    assert apply_bilinear(t, x, x).is_zero()


def test_apply_bilinear_shape_error():
    t = StructureTensor.zero(2)
    with pytest.raises(ShapeError):
        t.apply(Vector.zero(3), Vector.zero(2))
    # an index out of range, a negative one included, is a ShapeError, as
    # for Vector.basis: never a read (or, in a rule, a write) of the last
    # plane, nor a zero
    t = StructureTensor.from_rule(2, 3, 4, {(1, 2): [0, 0, 0, 5]})
    for i, j, k in [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (2, 0, 0), (0, 3, 0), (0, 0, 4),
                    (1, 2, 4), (1, 2, -1), (-1, 2, 3), (1, -1, 3)]:
        with pytest.raises(ShapeError):
            t.coeff(i, j, k)
        if 0 <= k < 4:
            with pytest.raises(ShapeError):
                t.row(i, j)
            with pytest.raises(ShapeError):
                StructureTensor.from_rule(2, 3, 4, {(i, j): [1, 0, 0, 0]})
    assert (t.coeff(1, 2, 3), t.coeff(1, 2, 0)) == (5, 0) and t.row(1, 2) == Vector([0, 0, 0, 5])


def test_map_indices_out_of_range_are_shape_errors():
    # a negative index never reads the last row or column, and one past the
    # end is a ShapeError, not an IndexError or a zero
    f = LinearMap([[1, 0], [Fraction(1, 2), 3]])
    for i, j in [(-1, 0), (0, -1), (2, 0), (0, 2), (-1, -1), (-3, 1)]:
        with pytest.raises(ShapeError):
            f.entry(i, j)
    for j in (-1, -2, 2):
        with pytest.raises(ShapeError):
            f.column(j)
    assert [[f.entry(i, j) for j in range(2)] for i in range(2)] == [list(r) for r in f.matrix]
    assert f.column(0) == Vector([1, Fraction(1, 2)]) and f.column(1) == Vector([0, 3])
    with pytest.raises(ShapeError):
        LinearMap.zero(2, 0).entry(0, 0)


def test_from_columns_keeps_both_dimensions():
    # no columns or columns of length 0 still give the stated shape
    for cols, dst, src in [([[], []], 0, 2), ([], 3, 0), ([], 0, 0), ([[0, 0]], 2, 1)]:
        f = LinearMap.from_columns(cols, dst)
        assert (f.dst_dim, f.src_dim) == (dst, src)
        assert f == LinearMap.zero(src, dst) and hash(f) == hash(LinearMap.zero(src, dst))
    assert LinearMap.from_columns([[], []], 0) != LinearMap.zero(0)
    with pytest.raises(ShapeError):
        LinearMap.from_columns([[1], []], 1)


def test_compose_identity_unit():
    f = LinearMap([[1, 2], [3, 4]])
    assert compose(LinearMap.identity(2), f) == f
    assert compose(f, LinearMap.identity(2)) == f


def test_map_power_examples():
    d = LinearMap.diagonal([2, 3])
    assert map_power(d, 2) == LinearMap.diagonal([4, 9])
    assert compose(d, d) == LinearMap.diagonal([4, 9])
    assert map_power(d, 0) == LinearMap.identity(2)


@given(st.integers(0, 4), st.integers(0, 4))
def test_map_power_additive(m, n):
    f = LinearMap([[1, 1], [0, 1]])
    assert map_power(f, m + n) == compose(map_power(f, m), map_power(f, n))


def vectors(dim):
    return st.lists(rationals, min_size=dim, max_size=dim).map(Vector)


@given(vectors(3), vectors(3), vectors(3), rationals)
def test_bilinearity_first_slot(x, z, y, s):
    t = StructureTensor.square_from_rule(
        3, {(0, 0): [1, 0, 0], (0, 1): [0, 2, 0], (2, 1): [0, 0, Fraction(1, 2)]}
    )
    left = t.apply(x + z.scale(s), y)
    right = t.apply(x, y) + t.apply(z, y).scale(s)
    assert left == right


@given(vectors(3), vectors(3), vectors(3), rationals)
def test_bilinearity_second_slot(x, y, w, s):
    t = StructureTensor.square_from_rule(
        3, {(1, 1): [1, 1, 0], (2, 0): [0, 0, 3]}
    )
    assert t.apply(x, y + w.scale(s)) == t.apply(x, y) + t.apply(x, w).scale(s)


def test_compose_associative():
    a = LinearMap([[1, 2], [0, 1]])
    b = LinearMap([[0, 1], [1, 0]])
    c = LinearMap([[1, 0], [5, 2]])
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_vector_equality_cross_denominator():
    assert Vector([Fraction(1, 2), 0]) == Vector([Fraction(2, 4), 0])
    assert Vector([Fraction(1, 2)]) != Vector([Fraction(1, 3)])


def test_tensor_opposite_and_push():
    t = StructureTensor.square_from_rule(2, {(0, 1): [0, 1]})
    assert t.opposite().coeff(1, 0, 1) == 1
    phi = LinearMap.diagonal([2, 3])
    assert t.push(phi).coeff(0, 1, 1) == 3


def test_linear_map_tensor_row_major():
    a = LinearMap.diagonal([1, 2])
    b = LinearMap.diagonal([3, 4])
    k = a.tensor(b)
    assert k == LinearMap.diagonal([3, 4, 6, 8])


def _dense_product(f, g):
    """Reference f.g: the full sum over the inner index of Fraction products."""
    a, b = f.matrix, g.matrix
    return [[sum((a[i][k] * b[k][j] for k in range(f.src_dim)), Fraction(0))
             for j in range(g.src_dim)] for i in range(f.dst_dim)]


def test_sparse_compose_matches_dense_product():
    rng = random.Random(7)
    values = [0] * 6 + [1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]

    def rand_map(dst, src, zero=False):
        return LinearMap([[0 if zero else rng.choice(values) for _ in range(src)]
                          for _ in range(dst)])

    shapes = [(n, n, n) for n in (1, 2, 3, 5, 12)] + [(2, 3, 1), (3, 1, 2), (1, 4, 3), (4, 2, 5)]
    for dst, mid, src in shapes:
        for _ in range(20):
            zero = rng.randrange(4)
            f, g = rand_map(dst, mid, zero == 1), rand_map(mid, src, zero == 2)
            h = f.compose(g)
            assert (h.dst_dim, h.src_dim) == (dst, src)
            assert [list(r) for r in h.matrix] == _dense_product(f, g)
            assert h == LinearMap(_dense_product(f, g))
    with pytest.raises(ShapeError):
        LinearMap.zero(2, 3).compose(LinearMap.zero(2, 3))


def test_sparse_tensor_construction_matches_dense_fractions():
    # ints (the zeros of a sparse tensor above all) are not wrapped in
    # Fraction; the stored numerators, denominator, equality, hash and
    # coefficients are those of an all-Fraction dense array
    rng = random.Random(11)
    values = [0] * 8 + [1, -1, 2, Fraction(1, 2), Fraction(-3, 4), Fraction(0), "5/6"]
    shapes = [(1, 1, 1), (2, 2, 2), (3, 3, 3), (2, 3, 1), (3, 1, 4)]
    for ld, rd, od in shapes:
        for _ in range(15):
            dense = [[[rng.choice(values) for _ in range(od)] for _ in range(rd)]
                     for _ in range(ld)]
            rule = {(i, j): row for i, plane in enumerate(dense)
                    for j, row in enumerate(plane) if rng.random() < 0.7 or any(row)}
            wrapped = [[[Fraction(x) for x in row] for row in plane] for plane in dense]
            sparse_dense = [[rule.get((i, j), [0] * od) for j in range(rd)] for i in range(ld)]
            want = StructureTensor(wrapped)
            for got in (StructureTensor(sparse_dense), StructureTensor.from_rule(ld, rd, od, rule)):
                assert (got._rows, got._d) == (want._rows, want._d)
                assert got == want and hash(got) == hash(want)
                assert got.coeffs == want.coeffs
                assert all(type(c) is Fraction for plane in got.coeffs for row in plane
                           for c in row)
    assert StructureTensor([[[0, Fraction(1, 3)]]])._d == 3
    with pytest.raises(ValueError):
        StructureTensor([[["x"]]])


# ---------------------------------------------------------------------------
# pull and place, the constructions' builders, against naive references


def _sparse_tensor(rng, ld, rd, od):
    values = [0] * 6 + [1, -2, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6), Fraction(2, 9)]
    return StructureTensor([[[rng.choice(values) for _ in range(od)] for _ in range(rd)]
                            for _ in range(ld)])


def _in_lowest_terms(t):
    want = StructureTensor(t.coeffs)
    return (t._rows, t._d) == (want._rows, want._d)


def _naive_pull(t, K):
    m = t.right_dim
    return StructureTensor.from_rule(
        K.src_dim, m, t.out_dim,
        {(i, j): t.apply(K.column(i), Vector.basis(m, j)) for i in range(K.src_dim)
         for j in range(m)})


def _naive_place(dims, pieces):
    ld, rd, od = dims
    coeffs = [[[Fraction(0)] * od for _ in range(rd)] for _ in range(ld)]
    for t, (i0, j0, k0), swapped in pieces:
        if t is None:
            continue
        for i in range(t.left_dim):
            for j in range(t.right_dim):
                a, b = (i0 + j, j0 + i) if swapped else (i0 + i, j0 + j)
                for k in range(t.out_dim):
                    coeffs[a][b][k0 + k] += t.coeff(i, j, k)
    return StructureTensor(coeffs)


def test_pull_matches_apply_on_the_map_columns():
    rng = random.Random(5)
    entries = [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]
    for n, m, od in [(1, 1, 1), (2, 2, 2), (3, 3, 3), (2, 3, 3), (3, 2, 2), (4, 2, 5), (1, 3, 2)]:
        for _ in range(15):
            t = _sparse_tensor(rng, n, m, od)
            K = LinearMap([[rng.choice(entries) for _ in range(m)] for _ in range(n)])
            got = t.pull(K)
            want = _naive_pull(t, K)
            assert got == want and _in_lowest_terms(got)
            assert (got.left_dim, got.right_dim, got.out_dim) == (m, m, od)
            if od == m:  # the opposite reads K on the second argument: (u, v) -> t(K v, u)
                swapped = StructureTensor.from_rule(
                    m, m, od, {(i, j): t.apply(K.column(j), Vector.basis(m, i))
                               for i in range(m) for j in range(m)})
                assert got.opposite() == swapped
    t = _sparse_tensor(rng, 2, 3, 3)
    with pytest.raises(ShapeError):
        t.pull(LinearMap.zero(3, 3))  # K's codomain is 3, the left dim 2
    assert StructureTensor.zero(2).pull(LinearMap.zero(2))._d == 1


def test_push_matches_the_fraction_sum():
    rng = random.Random(13)
    entries = [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]
    # (left, right, out) of t and the codomain of phi: square and non-square maps
    for ld, rd, od, k in [(1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3), (2, 3, 3, 1), (3, 2, 2, 4),
                          (2, 2, 4, 3), (1, 3, 2, 5)]:
        for _ in range(15):
            t = _sparse_tensor(rng, ld, rd, od)
            phi = LinearMap([[rng.choice(entries) for _ in range(od)] for _ in range(k)])
            got = t.push(phi)
            c, p = t.coeffs, phi.matrix
            assert got.coeffs == tuple(
                tuple(tuple(sum((p[r][m] * c[i][j][m] for m in range(od)), Fraction(0))
                            for r in range(k)) for j in range(rd)) for i in range(ld))
            # numerators over t._d * phi._d, not brought to lowest terms
            assert got._d == t._d * phi._d
            tn = [[[x * t._d for x in row] for row in plane] for plane in t.coeffs]
            pn = [[x * phi._d for x in row] for row in p]
            assert got._rows == [
                [[(r, s) for r in range(k)
                  if (s := sum(pn[r][m] * tn[i][j][m] for m in range(od)))]
                 for j in range(rd)] for i in range(ld)]
            assert (got.left_dim, got.right_dim, got.out_dim) == (ld, rd, k)
    with pytest.raises(ShapeError):
        _sparse_tensor(rng, 2, 2, 3).push(LinearMap.zero(2, 2))


def test_place_matches_per_index_copying():
    rng = random.Random(7)
    for n, m in [(1, 1), (2, 2), (2, 3), (3, 2), (1, 4), (4, 1)]:
        for _ in range(15):
            # the hemisemi layout on A + V: an algebra block, a left action,
            # a swapped right action and a product on V, some of them absent
            blocks = [(_sparse_tensor(rng, n, n, n), (0, 0, 0), False),
                      (_sparse_tensor(rng, n, m, m), (0, n, n), False),
                      (_sparse_tensor(rng, n, m, m), (n, 0, n), True),
                      (_sparse_tensor(rng, m, m, m), (n, n, n), False)]
            pieces = [(None if rng.random() < 0.3 else t, at, sw) for t, at, sw in blocks]
            dims = (n + m,) * 3
            got = StructureTensor.place(dims, pieces)
            assert got == _naive_place(dims, pieces) and _in_lowest_terms(got)
        # copies of an action and of a square tensor over A^3, and two
        # pieces at one offset, which add
        t, s = _sparse_tensor(rng, n, n, n), _sparse_tensor(rng, n, n, n)
        for dims, pieces in [
            ((n, 3 * n, 3 * n), [(t, (0, c * n, c * n), False) for c in range(3)]),
            ((3 * n,) * 3, [(t, (c * n,) * 3, False) for c in range(3)]),
            ((n, n, n), [(t, (0, 0, 0), False), (s, (0, 0, 0), True)]),
        ]:
            got = StructureTensor.place(dims, pieces)
            assert got == _naive_place(dims, pieces) and _in_lowest_terms(got)
        assert StructureTensor.place((n, n, n), [(t, (0, 0, 0), False),
                                                 (s, (0, 0, 0), True)]) == t + s.opposite()
    assert StructureTensor.place((2, 2, 2), [(None, (0, 0, 0), False)]) == StructureTensor.zero(2)
    with pytest.raises(ShapeError):
        StructureTensor.place((3, 3, 3), [(_sparse_tensor(rng, 2, 1, 1), (0, 2, 2), True)])


def test_scale_by_an_int_makes_no_fraction(monkeypatch):
    t = StructureTensor([[[Fraction(1, 2), 3]]])
    calls = []
    real = Fraction.__new__

    def new(cls, *args, **kwargs):
        calls.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", new)
    scaled = t.scale(-2)
    assert calls == []
    assert (scaled._rows, scaled._d) == ([[[(0, -2), (1, -12)]]], 2)
    assert t.scale(Fraction(2, 3)) == StructureTensor([[[Fraction(1, 3), 2]]])


def composed_gap(f, g, h, k):
    """The first column at which f.g and h.k differ, from the composed maps."""
    fg, hk = compose(f, g), compose(h, k)
    return next((j for j in range(fg.src_dim) if fg.column(j) != hk.column(j)), None)


def kernel_gap(f, g, h, k):
    gap = square_gap(f._cols, g._cols, h._cols, k._cols, h._d * k._d, f._d * g._d)
    assert (gap is None) == (compose(f, g) == compose(h, k))
    return gap


def _unreduced(f, s):
    """f with its numerators and denominator multiplied by s: equal, not reduced."""
    return LinearMap._make([[(i, x * s) for i, x in col] for col in f._cols], f._d * s,
                           f.src_dim, f.dst_dim)


def test_square_gap_matches_composed_columns():
    rng = random.Random(19)
    values = [0] * 5 + [1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)]

    def rand_map(dst, src):
        return LinearMap([[rng.choice(values) for _ in range(src)] for _ in range(dst)])

    outcomes = set()
    # f: b <- c, g: c <- a, h: b <- d, k: d <- a; square and non-square
    for a, b, c, d in [(1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 4),
                       (2, 3, 1, 4), (3, 1, 2, 2), (1, 4, 3, 1), (4, 2, 5, 3)]:
        for _ in range(25):
            f, g, h, k = rand_map(b, c), rand_map(c, a), rand_map(b, d), rand_map(d, a)
            s = rng.choice((2, 3, 6))
            eye_a, eye_b = LinearMap.identity(a), LinearMap.identity(b)
            cases = [
                (f, g, h, k),
                # equal squares, over unequal and reducible denominators
                (f, g, _unreduced(f, s), _unreduced(g, 5)),
                (f, g, compose(f, g), eye_a),
                (eye_b, compose(f, g), _unreduced(f, s), g),
                # zero and identity maps
                (LinearMap.zero(c, b), g, LinearMap.zero(d, b), k),
                (f, LinearMap.zero(a, c), h, LinearMap.zero(a, d)),
                (f, g, LinearMap.zero(d, b), k),
                (eye_b, compose(f, g), compose(h, k), eye_a),
            ]
            # one entry of g in column j bumped: only column j can differ
            j = rng.randrange(a)
            bumped = [list(r) for r in g.matrix]
            bumped[rng.randrange(c)][j] += Fraction(1, s)
            assert kernel_gap(f, g, f, LinearMap(bumped)) in (j, None)
            cases.append((f, g, f, LinearMap(bumped)))
            for case in cases:
                gap = kernel_gap(*case)
                assert gap == composed_gap(*case), [m.matrix for m in case]
                outcomes.add(gap is None)
    assert outcomes == {True, False}
    # an inner dimension of 0: f.g is the zero map whatever h.k is
    f0, g0 = LinearMap.zero(0, 2), LinearMap.zero(3, 0)
    for h, k in ((LinearMap.zero(2, 2), LinearMap.zero(3, 2)),
                 (rand_map(2, 2), LinearMap([[0, 0, 1], [0, 0, 2]])),
                 (rand_map(2, 1), LinearMap.zero(3, 1))):
        assert kernel_gap(f0, g0, h, k) == composed_gap(f0, g0, h, k)
        assert kernel_gap(h, k, f0, g0) == composed_gap(h, k, f0, g0)
    assert kernel_gap(f0, g0, LinearMap.identity(2), LinearMap([[0, 0, 1], [0, 0, 0]])) == 2
    # the kernel compares columns by value, not by the objects the maps store
    f, g = rand_map(2, 3), rand_map(3, 2)
    assert square_gap([list(c) for c in f._cols], g._cols, f._cols, [list(c) for c in g._cols],
                      1, 1) is None


small_ints = st.integers(-2, 2)


@st.composite
def numerator_squares(draw):
    """Four integer matrices f: b x c, g: c x a, h: b x d, k: d x a and four
    denominators; h and k often copy f and g, so that equal squares occur."""
    a, b, c, d = (draw(st.integers(1, 3)) for _ in range(4))

    def mat(rows, cols):
        return draw(st.lists(st.lists(small_ints, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    dens = [draw(st.integers(1, 4)) for _ in range(4)]
    f, g = mat(b, c), mat(c, a)
    if draw(st.booleans()):
        h, k, d = f, g, c
        dens[2:] = dens[:2]
    else:
        h, k = mat(b, d), mat(d, a)
    return [LinearMap._make([[(i, r[j]) for i, r in enumerate(x) if r[j]] for j in range(len(x[0]))],
                            den, len(x[0]), len(x)) for x, den in zip((f, g, h, k), dens)]


@given(numerator_squares())
def test_square_gap_property(maps):
    assert kernel_gap(*maps) == composed_gap(*maps)


# ---------------------------------------------------------------------------
# LinearMap against dense Fraction matrix arithmetic

_MAP_VALUES = [0] * 5 + [1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)]


@st.composite
def sparse_maps(draw, dst, src):
    """A dst x src map of mostly zero entries with denominators, sometimes
    stored over a reducible denominator (see _unreduced)."""
    f = LinearMap.from_columns([[draw(st.sampled_from(_MAP_VALUES)) for _ in range(dst)]
                                for _ in range(src)], dst)
    return _unreduced(f, draw(st.sampled_from((1, 1, 2, 3))))


def _dense(f):
    """f's matrix as lists of Fractions, dst_dim rows of src_dim entries."""
    return [[f.entry(i, j) for j in range(f.src_dim)] for i in range(f.dst_dim)]


def _mul(a, b, inner, width):
    return [[sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(width)]
            for row in a]


def _assert_columns(f):
    """f stores one sparse column per source index: a list of (k, int
    numerator) pairs, k strictly ascending in range, no zero numerator."""
    assert type(f._cols) is list and len(f._cols) == f.src_dim and f._d > 0
    for col in f._cols:
        ks = [k for k, _ in col]
        assert type(col) is list and ks == sorted(set(ks)) and all(0 <= k < f.dst_dim for k in ks)
        assert all(type(x) is int and x for _, x in col)


@given(st.data())
def test_linear_map_matches_dense_fraction_arithmetic(data):
    a, b, c, d = (data.draw(st.integers(0, 3)) for _ in range(4))
    f, g = data.draw(sparse_maps(a, b)), data.draw(sparse_maps(b, c))
    f2, g2 = data.draw(sparse_maps(a, d)), data.draw(sparse_maps(d, c))
    h = data.draw(sparse_maps(b, b))
    F, G, H, F2, G2 = map(_dense, (f, g, h, f2, g2))
    for m in (f, g, h):
        _assert_columns(m)
        assert m.is_zero() == all(x == 0 for row in _dense(m) for x in row)
        assert m.matrix == tuple(map(tuple, _dense(m)))
    # apply
    v = Vector(data.draw(st.lists(rationals, min_size=b, max_size=b)))
    assert f.apply(v).coords == tuple(sum((x * y for x, y in zip(row, v.coords)), Fraction(0))
                                      for row in F)
    # compose, power, direct_sum and tensor (Kronecker, row-major pairs)
    products = {f.compose(g): _mul(F, G, b, c)}
    want = [[Fraction(int(i == j)) for j in range(b)] for i in range(b)]
    for k in range(4):
        products[h.power(k)] = want
        want = _mul(want, H, b, b)
    products[f.direct_sum(g)] = ([row + [Fraction(0)] * c for row in F]
                                 + [[Fraction(0)] * b + row for row in G])
    products[f.tensor(g)] = [[F[i][j] * G[p][q] for j in range(b) for q in range(c)]
                             for i in range(a) for p in range(b)]
    for m, dense in products.items():
        _assert_columns(m)
        assert _dense(m) == dense
        assert m.is_zero() == all(x == 0 for row in dense for x in row)
    # == and hash: equal content is equal whatever its denominator
    twin = LinearMap.from_columns([[F[i][j] for i in range(a)] for j in range(b)], a)
    assert twin == f and hash(twin) == hash(f)
    other = data.draw(sparse_maps(a, b))
    assert (other == f) == (_dense(other) == F)
    assert other != f or hash(other) == hash(f)
    # push and pull of a tensor against the dense sums
    ld, rd = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    rule = {(i, j): [data.draw(st.sampled_from(_MAP_VALUES)) for _ in range(b)]
            for i in range(ld) for j in range(rd)}
    t = StructureTensor.from_rule(ld, rd, b, rule)
    T = [[[t.coeff(i, j, k) for k in range(b)] for j in range(rd)] for i in range(ld)]
    pushed = t.push(f)
    assert (pushed.left_dim, pushed.right_dim, pushed.out_dim) == (ld, rd, a)
    assert [[[pushed.coeff(i, j, r) for r in range(a)] for j in range(rd)] for i in range(ld)] == [
        [[sum((F[r][m] * T[i][j][m] for m in range(b)), Fraction(0)) for r in range(a)]
         for j in range(rd)] for i in range(ld)]
    s = StructureTensor.from_rule(b, rd, ld, {(p, j): [data.draw(st.sampled_from(_MAP_VALUES))
                                                      for _ in range(ld)]
                                              for p in range(b) for j in range(rd)})
    S = [[[s.coeff(p, j, k) for k in range(ld)] for j in range(rd)] for p in range(b)]
    pulled = s.pull(g)  # (x, y) -> g(x) * y
    assert (pulled.left_dim, pulled.right_dim, pulled.out_dim) == (c, rd, ld)
    assert [[[pulled.coeff(i, j, k) for k in range(ld)] for j in range(rd)] for i in range(c)] == [
        [[sum((G[p][i] * S[p][j][k] for p in range(b)), Fraction(0)) for k in range(ld)]
         for j in range(rd)] for i in range(c)]
    # square_gap: the first column at which f.g and f2.g2 differ, and none
    # against the same square over other denominators
    fg, fg2 = _mul(F, G, b, c), _mul(F2, G2, d, c)
    first = next((j for j in range(c) if [r[j] for r in fg] != [r[j] for r in fg2]), None)
    assert square_gap(f._cols, g._cols, f2._cols, g2._cols, f2._d * g2._d, f._d * g._d) == first
    assert square_gap(f._cols, g._cols, twin._cols, g._cols, twin._d * g._d, f._d * g._d) is None


# ---------------------------------------------------------------------------
# shared zero planes and the sparse builders


def _planes_tensor(rng, ld, rd, od):
    """A random tensor whose planes are each zero with probability 1/2."""
    values = [0] * 4 + [1, -2, Fraction(1, 2), Fraction(-3, 4)]
    return StructureTensor([[[rng.choice(values) if live else 0 for _ in range(od)]
                             for _ in range(rd)] for live in (rng.random() < 0.5
                                                             for _ in range(ld))])


def test_every_builder_stores_its_zero_planes_as_the_one_shared_plane():
    # whatever builds a tensor, an all-zero plane e_i * (-) is the shared
    # plane of its width; the values are those of the dense builders
    from homalg.exact import _zero_plane

    rng = random.Random(34)
    for _ in range(40):
        ld, rd, od = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        t, s = _planes_tensor(rng, ld, rd, od), _planes_tensor(rng, ld, rd, od)
        phi = LinearMap([[rng.choice((0, 0, 1, -1)) for _ in range(od)] for _ in range(2)])
        K = LinearMap([[rng.choice((0, 0, 1, Fraction(1, 2))) for _ in range(3)]
                       for _ in range(ld)])
        rule = {(i, j): t.row(i, j) for i in range(ld) for j in range(rd)}
        sparse = {key: [(k, x) for k, x in enumerate(row.coords) if x]
                  for key, row in rule.items()}
        built = {"coeffs": StructureTensor(t.coeffs),
                 "from_rule": StructureTensor.from_rule(ld, rd, od, rule),
                 "from_sparse": StructureTensor.from_sparse(ld, rd, od, sparse),
                 "zero": StructureTensor.zero(ld, rd, od), "scale": t.scale(Fraction(-2, 3)),
                 "scale0": t.scale(0), "add": t + s, "sub": t - t, "push": t.push(phi),
                 "pull": t.pull(K),
                 "place": StructureTensor.place((ld + 1, rd + 2, od), [(t, (1, 2, 0), False)])}
        if ld == rd:
            built["opposite"] = t.opposite()
        for name, u in built.items():
            zero = _zero_plane(u.right_dim)
            assert all(plane is zero for plane in u._rows if not any(plane)), name
            assert all(len(plane) == u.right_dim for plane in u._rows), name
        for name in ("coeffs", "from_rule", "from_sparse"):
            assert built[name] == t and (built[name]._rows, built[name]._d) == (t._rows, t._d)
        assert built["sub"].is_zero() and built["scale0"].is_zero() and built["zero"].is_zero()
        assert built["add"] == StructureTensor([[[x + y for x, y in zip(r1, r2)]
                                                 for r1, r2 in zip(p1, p2)]
                                                for p1, p2 in zip(t.coeffs, s.coeffs)])


def test_sparse_builders_read_only_the_entries_given():
    # one entry at dimension 3000: no list of the dimension's square is made,
    # and the values are those of the dense builders
    n = 3000
    t = StructureTensor.from_sparse(n, n, n, {(1, 2): [(0, Fraction(1, 2)), (5, 3)]})
    f = LinearMap.from_sparse(n, n, {7: [(4, 2)]})
    assert t.coeff(1, 2, 0) == Fraction(1, 2) and t.coeff(1, 2, 5) == 3 and t._d == 2
    assert sum(plane is not t._rows[0] for plane in t._rows) == 1 and not t.is_zero()
    assert f.entry(4, 7) == 2 and f._cols.count([]) == n - 1
    small = StructureTensor.from_sparse(2, 3, 2, {(1, 0): [(1, Fraction(2, 3))], (0, 2): []})
    assert small == StructureTensor.from_rule(2, 3, 2, {(1, 0): [0, Fraction(2, 3)]})
    assert LinearMap.from_sparse(3, 2, {1: [(0, 0), (1, -1)]}) == LinearMap.from_columns(
        [[0, 0], [0, -1], [0, 0]], 2)
    for rows in ({(2, 0): [(0, 1)]}, {(0, 3): [(0, 1)]}, {(0, 0): [(2, 1)]},
                 {(0, 0): [(1, 1), (0, 1)]}, {(0, 0): [(-1, 1)]}, {(0, 0): [(1, 1), (1, 2)]}):
        with pytest.raises(ShapeError):
            StructureTensor.from_sparse(2, 3, 2, rows)
    for cols in ({3: [(0, 1)]}, {0: [(2, 1)]}, {0: [(1, 1), (0, 1)]}):
        with pytest.raises(ShapeError):
            LinearMap.from_sparse(3, 2, cols)

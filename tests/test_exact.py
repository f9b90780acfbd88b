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
                assert (got._n, got._d) == (want._n, want._d)
                assert got == want and hash(got) == hash(want)
                assert got.coeffs == want.coeffs
                assert all(type(c) is Fraction for plane in got.coeffs for row in plane
                           for c in row)
    assert StructureTensor([[[0, Fraction(1, 3)]]])._d == 3
    with pytest.raises(ValueError):
        StructureTensor([[["x"]]])

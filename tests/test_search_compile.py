"""The endomorphism search's compile phase against a reference copy.

`reference_endomorphism_clauses` and `reference_search_plan` are the
earlier implementations of `varieties.endomorphism_clauses` and
`forge.search_plan`, kept verbatim apart from their names: one `defaultdict`
and one sort per (i, j, k), and an order loop that recounts every clause's
unset entries at each step.  The one-pass versions must give the same
clauses, in the same order, and the same `(order, checks)`.
"""

import random
from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from homalg.exact import LinearMap, StructureTensor
from homalg.forge import catalog, search_plan
from homalg.varieties import AlgebraInstance, endomorphism_clauses


def reference_endomorphism_clauses(a: AlgebraInstance):
    """The coordinate clauses of `is_morphism(f, a, a)`, f an unknown matrix.

    Entry f[r][c] is the unknown r * dim + c, and the unknown dim * dim
    stands for the constant 1.  Each clause is a tuple of sparse integer
    terms (coeff, u, v) with u <= v, read as the sum of coeff * f_u * f_v,
    and f is an endomorphism of a iff every clause is zero.  The clauses
    come in `is_morphism`'s order: one per (column j, coordinate k) of
    f.alpha = alpha.f, then one per (symbol, i, j, coordinate k) of
    f(e_i e_j) = f(e_i) f(e_j), each scaled by the integer denominator of
    its twist or tensor.  Clauses whose terms cancel are left out.
    """
    n = a.dim
    one = n * n
    out = []

    def add(terms):
        clause = tuple((c, u, v) for (u, v), c in sorted(terms.items()) if c)
        if clause:
            out.append(clause)

    acols, arows = a.alpha._cols, a.alpha._transposed()
    for j in range(n):
        for k in range(n):
            terms = defaultdict(int)
            for m, x in acols[j]:
                terms[k * n + m, one] += x
            for m, x in arows[k]:
                terms[m * n + j, one] -= x
            add(terms)
    for sym in sorted(a.products):
        rows = a.products[sym]._rows
        by_k = [[] for _ in range(n)]  # the nonzero t[p][q][k] as (p, q, t), by k
        for p, plane in enumerate(rows):
            for q, row in enumerate(plane):
                for k, x in row:
                    by_k[k].append((p, q, x))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    terms = defaultdict(int)
                    for m, x in rows[i][j]:
                        terms[k * n + m, one] += x
                    for p, q, x in by_k[k]:
                        terms[tuple(sorted((p * n + i, q * n + j)))] -= x
                    add(terms)
    return out


def reference_search_plan(clauses, size, fixed):
    """(order, checks) of a depth-first search over `size` unknowns that
    must zero every clause, the entries `fixed` assigned first.

    Clauses are those of `endomorphism_clauses`: tuples of terms (coeff, u,
    v), the unknown `size` standing for the constant 1.  After the fixed
    entries, `order` takes at each step the entry that completes the most
    clauses, lowest index on ties.  checks[d] holds each clause that depth d
    completes, split around the entry e = order[d] into (terms free of e,
    (coeff, other unknown) of e's linear part, coeff of e^2).
    """
    reads = [{u for _, u, _ in c} | {v for _, _, v in c if v < size} for c in clauses]
    order = list(fixed)
    placed = set(order)
    while len(order) < size:
        completes = Counter(min(r - placed) for r in reads if len(r - placed) == 1)
        e = max((e for e in range(size) if e not in placed), key=lambda e: (completes[e], -e))
        order.append(e)
        placed.add(e)
    depth = {e: d for d, e in enumerate(order)}
    checks = [[] for _ in range(size)]
    for c, r in zip(clauses, reads):
        d = max(depth[u] for u in r)
        e = order[d]
        rest = tuple(t for t in c if e not in t[1:])
        lin = tuple((k, v if u == e else u) for k, u, v in c if (u == e) != (v == e))
        checks[d].append((rest, lin, sum(k for k, u, v in c if u == v == e)))
    return order, checks


def _agree(a, fixed):
    clauses = endomorphism_clauses(a)
    assert clauses == reference_endomorphism_clauses(a), a.name
    size = a.dim * a.dim
    assert search_plan(clauses, size, fixed) == reference_search_plan(clauses, size, fixed), (
        a.name, fixed)


@pytest.mark.parametrize("mode", ["full", "diagonal"])
def test_catalog_clauses_and_plans_match_the_reference(mode):
    algebras = [e.value for e in catalog() if isinstance(e.value, AlgebraInstance)]
    assert algebras
    for a in algebras:
        n = a.dim
        fixed = [e for e in range(n * n) if e // n != e % n] if mode == "diagonal" else ()
        _agree(a, fixed)


_VALUES = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))


def _random_tensor(rng, n, density):
    """A dim-n tensor of sparse random constants; some whole planes are zero,
    and one in three is antisymmetric, so terms with i == j cancel."""
    dense = [[[rng.choice(_VALUES) if rng.random() < density else 0 for _ in range(n)]
              for _ in range(n)] for _ in range(n)]
    for plane in dense:
        if rng.random() < 0.3:
            plane[:] = [[0] * n for _ in range(n)]
    if rng.random() < 1 / 3:
        dense = [[[dense[p][q][k] - dense[q][p][k] for k in range(n)] for q in range(n)]
                 for p in range(n)]
    return StructureTensor(dense)


def _random_twist(rng, n):
    if rng.random() < 0.3:
        return LinearMap.identity(n)
    return LinearMap([[rng.choice(_VALUES) if rng.random() < 0.5 else 0 for _ in range(n)]
                      for _ in range(n)])


@pytest.mark.parametrize("seed", range(40))
def test_random_clauses_and_plans_match_the_reference(seed):
    rng = random.Random(seed)
    n = 1 + seed % 4
    products = {f"p{s}": _random_tensor(rng, n, rng.choice((0.1, 0.3, 0.7)))
                for s in range(rng.randint(1, 3))}
    a = AlgebraInstance(f"random{seed}", n, products, {"alpha": _random_twist(rng, n)})
    size = n * n
    for _ in range(4):
        _agree(a, rng.sample(range(size), rng.randint(0, size)))

import importlib
import itertools
import random
from fractions import Fraction

import pytest

from homalg import exact
from homalg.constructions import graph_closure
from homalg.engine import SemanticError, check_schema, check_schema_random
from homalg.exact import LinearMap
from homalg.forge import (
    GenerationError,
    GridSpec,
    brute_oracle,
    catalog,
    find_endomorphisms,
    multiplication_operator,
    perturb_operator,
    perturb_product,
    random_interpretations,
    random_square_tensor,
    sample_operator_candidates,
    truncated_polynomial_algebra,
    two_dim_trialgebra,
    zero_algebra,
)
from homalg.operators import certify_operator, hemisemi_id_for, nijenhuis_of, operator_kinds_for
from homalg.records import Record
from homalg.reps import AssocBimodule, regular, tensor_square_bimodule
import homalg.forge
from homalg.varieties import (
    VarietyTag,
    associativity_schema,
    certify,
    is_morphism,
    schemas_for,
)


def test_catalog_certified_and_stable(seed_catalog):
    # every entry re-passes its certifier; two loads agree
    for entry in seed_catalog.values():
        assert entry.certifier_report().ok, entry.id
    again = {e.id for e in catalog(refresh=True)}
    assert again == set(seed_catalog)


def test_catalog_contains_expected_anchors(seed_catalog):
    for required in ("zero1", "zero2", "zero3", "kx2", "kx3", "ut2",
                     "tri11", "tri23", "tri_m15", "j2", "sol2"):
        assert required in seed_catalog
    assert seed_catalog["tri23"].provenance == "paper-example"


def test_catalog_admissibility_functors(seed_catalog):
    # symmetrization and commutator of every associative entry land in the
    # Jordan and Lie varieties
    from homalg.reps import minus_algebra, plus_algebra

    for entry in seed_catalog.values():
        if entry.kind != "algebra" or entry.value.variety is not VarietyTag.HOM_ASSOCIATIVE:
            continue
        assert certify(minus_algebra(entry.value), VarietyTag.HOM_LIE).ok, entry.id
        assert certify(plus_algebra(entry.value), VarietyTag.HOM_JORDAN).ok, entry.id


def test_find_endomorphisms_kx2():
    kx2 = truncated_polynomial_algebra(2)
    grid = GridSpec(numerators=(0, 1), denominators=(1,))
    found = find_endomorphisms(kx2, grid)
    assert LinearMap.identity(2) in found
    assert LinearMap([[1, 0], [0, 0]]) in found       # 1 -> 1, x -> 0
    assert LinearMap.zero(2) in found
    assert len(found) == 3


def test_find_endomorphisms_trialgebra_diagonal():
    # on the two-dimensional trialgebra seed the diagonal endomorphisms are
    # exactly diag(1, t) and 0; scaling e1 by 2 or 3 breaks the idempotent
    tri = two_dim_trialgebra(1, 1)
    grid = GridSpec(numerators=(0, -1, 1, 2, 3), denominators=(1,))
    found = find_endomorphisms(tri, grid, mode="diagonal")
    assert LinearMap.identity(2) in found
    assert LinearMap.zero(2) in found
    assert LinearMap.diagonal([1, 2]) in found
    assert LinearMap.diagonal([2, 3]) not in found
    assert not is_morphism(LinearMap.diagonal([2, 3]), tri, tri).ok
    assert all(m.entry(0, 0) in (0, 1) for m in found)


def test_find_endomorphisms_zero_algebra():
    z = zero_algebra(2)
    grid = GridSpec(numerators=(0, 1), denominators=(1,))
    assert len(find_endomorphisms(z, grid)) == 2 ** 4


def flat_endomorphisms(a, grid, mode="full"):
    """Reference search: every grid map in row-major order, kept by is_morphism."""
    vals, n = grid.values(), a.dim
    if mode == "diagonal":
        maps = (LinearMap.diagonal(c) for c in itertools.product(vals, repeat=n))
    else:
        maps = (LinearMap([list(c[i * n:(i + 1) * n]) for i in range(n)])
                for c in itertools.product(vals, repeat=n * n))
    return [f for f in maps if is_morphism(f, a, a).ok]


def assert_lowest_terms(found):
    """Each map keeps the numerators and denominator that LinearMap(rows) keeps,
    and no engine data: `is_morphism` reads a search leaf's columns directly."""
    for f in found:
        want = LinearMap(f.matrix)
        assert (f._cols, f._d) == (want._cols, want._d), f.matrix
        assert f._powers is None


def test_find_endomorphisms_matches_flat_scan(seed_catalog):
    grid = GridSpec(numerators=(0, 1))
    algebras = [e.value for e in seed_catalog.values() if e.kind == "algebra"]
    assert algebras and all(a.dim <= 3 for a in algebras)
    for a in algebras:
        assert find_endomorphisms(a, grid) == flat_endomorphisms(a, grid), a.name


def test_find_endomorphisms_matches_flat_scan_on_fractional_grid(seed_catalog):
    # without 0 in the grid no map passes; with it, halves appear in the output
    for numerators in ((-1, 1), (-1, 0, 1)):
        grid = GridSpec(numerators=numerators, denominators=(1, 2))
        for name in ("kx2", "sol2t2", "tri23"):
            a = seed_catalog[name].value
            found = find_endomorphisms(a, grid)
            assert found == flat_endomorphisms(a, grid), name
            assert_lowest_terms(found)
    found = find_endomorphisms(seed_catalog["sol2t2"].value, grid)
    assert LinearMap([[Fraction(1, 2), 0], [0, 0]]) in found
    assert LinearMap([[1, 0], [0, Fraction(-1, 2)]]) in found


def test_find_endomorphisms_diagonal_matches_flat_scan(seed_catalog):
    tri = seed_catalog["tri11"].value
    for grid in (GridSpec(numerators=(-1, 0, 1, 2, 3)),
                 GridSpec(numerators=(-2, -1, 1, 3), denominators=(1, 2))):
        found = find_endomorphisms(tri, grid, mode="diagonal")
        assert found == flat_endomorphisms(tri, grid, mode="diagonal")
        assert_lowest_terms(found)


@pytest.mark.parametrize("name", ["kx3", "heis3"])
def test_find_endomorphisms_certifies_only_what_it_returns(seed_catalog, monkeypatch, name):
    # every clause is checked before a map reaches a leaf, so is_morphism
    # never sees a map that the search could have pruned
    calls = []
    certify_map = homalg.forge.is_morphism

    def counted(f, src, dst):
        calls.append(f)
        return certify_map(f, src, dst)

    monkeypatch.setattr(homalg.forge, "is_morphism", counted)
    found = find_endomorphisms(seed_catalog[name].value, GridSpec((-1, 0, 1)))
    assert found and len(calls) == len(found)


@pytest.mark.parametrize("name", ["kx3", "kx3t2", "heis3"])
def test_find_endomorphisms_leaves_no_cyclic_garbage(seed_catalog, name):
    # the search's recursive closure is released when it returns, so its
    # leaves and clause tables go at once, not at the next gc pass
    import gc

    a, grid = seed_catalog[name].value, GridSpec((-1, 0, 1))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        found = find_endomorphisms(a, grid)
        assert found and gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_find_endomorphisms_shares_one_list_per_distinct_column(seed_catalog):
    # 657 maps, but a grid of {-1, 0, 1} has 27 distinct columns of dimension 3
    found = find_endomorphisms(seed_catalog["heis3"].value, GridSpec((-1, 0, 1)))
    assert len(found) == 657
    assert len({id(col) for f in found for col in f._cols}) <= 27
    assert_lowest_terms(found)


def test_find_endomorphisms_answers_each_grid_and_mode_afresh(seed_catalog):
    # one algebra object searched again and again: each search equals the
    # flat scan of its own grid and mode, whatever was searched before it
    a = seed_catalog["sol2t2"].value
    for nums in ((0, 1), (-1, 0, 1), (-1, 1)):
        grid = GridSpec(numerators=nums, denominators=(1, 2))
        for mode in ("full", "diagonal"):
            assert find_endomorphisms(a, grid, mode) == flat_endomorphisms(a, grid, mode), (
                nums, mode)


def count_square_gaps(monkeypatch):
    """The calls of `exact.square_gap` made from now on, through every module
    of the certifiers that binds it."""
    calls, real = [], exact.square_gap

    def counted(*args):
        calls.append(args)
        return real(*args)

    patched = 0
    for name in ("engine", "operators", "forge", "varieties", "constructions"):
        module = importlib.import_module(f"homalg.{name}")
        if getattr(module, "square_gap", None) is real:
            monkeypatch.setattr(module, "square_gap", counted)
            patched += 1
    assert patched
    return calls


def operator_battery(rep, seed):
    """Sample candidates over rep and run each through every operator kind of
    its representation, graph closure and the Nijenhuis check."""
    cid = hemisemi_id_for(rep)
    cands = sample_operator_candidates(rep, GridSpec((-1, 0, 1, 2), seed=seed, count=30),
                                       check=False)
    for cand in cands:
        for kind in operator_kinds_for(rep):
            certify_operator(cand, kind)
        graph_closure(cand, cid)
        certify_operator(nijenhuis_of(cand, cid), "nijenhuis")
    return cands


def test_identity_twists_multiply_nothing(seed_catalog, monkeypatch):
    # every square K.beta = alpha.K holds when both twists are identities, so
    # the operator battery over an untwisted rep and the endomorphism search
    # over the untwisted heis3 never compute one
    calls = count_square_gaps(monkeypatch)
    for k, rid in enumerate(("kx2_reg", "kx2_act", "sol2_adj", "j2_adj", "kx2_jmod")):
        assert operator_battery(seed_catalog[rid].value, k)
    assert len(find_endomorphisms(seed_catalog["heis3"].value, GridSpec((-1, 0, 1)))) == 657
    assert calls == []
    # a twisted rep still multiplies
    operator_battery(seed_catalog["kx2t_reg"].value, 0)
    assert calls


def test_find_endomorphisms_keeps_full_grid_cap():
    with pytest.raises(GenerationError):
        find_endomorphisms(truncated_polynomial_algebra(4), GridSpec((-1, 0, 1)))
    with pytest.raises(SemanticError):
        find_endomorphisms(zero_algebra(2), GridSpec(), mode="columns")


def test_sample_candidates_exhaustive_contains_multiplication():
    kx2 = truncated_polynomial_algebra(2)
    rep = tensor_square_bimodule(kx2)
    grid = GridSpec(numerators=(0, 1), denominators=(1,), seed=0, count=300)
    cands = sample_operator_candidates(rep, grid)
    mult = multiplication_operator(rep)
    assert any(c.map == mult.map for c in cands)
    assert len(cands) == 256


def test_sample_candidates_deterministic():
    kx2 = truncated_polynomial_algebra(2)
    rep = regular(kx2, AssocBimodule)
    grid = GridSpec(numerators=(-1, 0, 1, 2), denominators=(1, 2), seed=11, count=40)
    a = [c.map for c in sample_operator_candidates(rep, grid)]
    b = [c.map for c in sample_operator_candidates(rep, grid)]
    assert a == b and len(a) == 40


def test_sample_candidates_empty_and_cap():
    kx2 = truncated_polynomial_algebra(2)
    rep = regular(kx2, AssocBimodule)
    assert sample_operator_candidates(rep, GridSpec(count=0)) == []
    from homalg.forge import kx2_phitwist

    twisted = regular(kx2_phitwist(), AssocBimodule)
    # admissibility against the idempotent twist forces zero off-diagonal
    # entries, so a zero-free grid has no admissible draws and hits the cap
    with pytest.raises(GenerationError):
        sample_operator_candidates(
            twisted,
            GridSpec(numerators=(7, 9), denominators=(1,), seed=1, count=10),
        )


def reference_sample_operator_candidates(rep, grid):
    """`sample_operator_candidates` on `Fraction` entries, each draw built as a
    `LinearMap` and kept by `compose` ==, kept as the reference for the
    integer-numerator sampler."""
    vals = grid.values()
    n, m = rep.base.dim, rep.v_dim
    alpha, beta = rep.base.alpha, rep.beta

    def admitted(mat):
        return mat.compose(beta) == alpha.compose(mat)

    out = []
    total = len(vals) ** (n * m) if vals else 0
    if total <= grid.count:
        for combo in itertools.product(vals, repeat=n * m):
            mat = LinearMap([list(combo[i * m:(i + 1) * m]) for i in range(n)])
            if admitted(mat):
                out.append(mat)
        return out[: grid.count]
    rng = random.Random(grid.seed)
    attempts = 0
    cap = max(grid.count * 200, 1000)
    while len(out) < grid.count:
        attempts += 1
        if attempts > cap:
            raise GenerationError("cap")
        mat = LinearMap([[rng.choice(vals) for _ in range(m)] for _ in range(n)])
        if admitted(mat):
            out.append(mat)
    return out


def sampled_maps(rep, grid):
    """The (_cols, _d, src, dst) of every map each sampler returns, in order, or
    "cap" if its draws ran out; the two must agree."""
    out = []
    for sample in (lambda: [c.map for c in sample_operator_candidates(rep, grid, check=False)],
                   lambda: reference_sample_operator_candidates(rep, grid)):
        try:
            out.append([(f._cols, f._d, f.src_dim, f.dst_dim) for f in sample()])
        except GenerationError:
            out.append("cap")
    got, want = out
    assert got == want, (rep.base.name, rep.kind, grid)
    return got


def test_sampler_matches_the_fraction_path_on_every_catalog_rep(seed_catalog):
    reps = [e.value for e in seed_catalog.values() if e.kind == "rep"]
    branches = set()
    for rep in reps:
        entries = rep.base.dim * rep.v_dim
        # exhaustive: the whole grid is no larger than count
        for nums, dens in (((-1, 0, 1), (1, 2)), ((0, 1), (1,)), ((0, 2), (1, 3)), ((0,), (1,))):
            grid = GridSpec(numerators=nums, denominators=dens, count=1024)
            if len(grid.values()) ** entries <= grid.count:
                sampled_maps(rep, grid)
                branches.add("exhaustive")
        # seeded draws; count 5 allows 1,000 draws before the cap
        for seed, nums, dens in ((0, (-1, 0, 1, 2), (1,)), (11, (-1, 0, 1, 2), (1,)),
                                 (3, (-2, 0, 1), (1, 2, 4))):
            grid = GridSpec(numerators=nums, denominators=dens, seed=seed, count=5)
            assert len(grid.values()) ** entries > grid.count
            branches.add("cap" if sampled_maps(rep, grid) == "cap" else "drawn")
    assert branches == {"exhaustive", "drawn", "cap"}


def _stored_lists(value):
    """Every row of every tensor and every column of every map a value holds,
    through record fields, dicts, lists and tuples."""
    if isinstance(value, exact.StructureTensor):
        yield from (row for plane in value._rows for row in plane)
    elif isinstance(value, LinearMap):
        yield from value._cols
    elif isinstance(value, Record):
        for field in value._fields:
            yield from _stored_lists(getattr(value, field))
    elif isinstance(value, (dict, list, tuple)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _stored_lists(item)


def test_every_zero_row_and_column_is_the_shared_empty_list(seed_catalog):
    # the catalog (its tensor squares included), a sampler draw, a search
    # result and a Nijenhuis graph map keep each zero row or column as the
    # one empty list of `exact`
    rep = seed_catalog["kx2_reg"].value
    cands = sample_operator_candidates(rep, GridSpec((-1, 0, 1, 2), seed=3, count=30),
                                       check=False)
    found = find_endomorphisms(seed_catalog["kx3"].value, GridSpec(numerators=(0, 1)))
    values = [e.value for e in seed_catalog.values()] + [cands, found, nijenhuis_of(cands[0])]
    empty = [v for v in _stored_lists(values) if not v]
    assert empty and all(v is exact._EMPTY for v in empty)


def test_a_zero_grid_denominator_is_a_generation_error(seed_catalog):
    grid = GridSpec(numerators=(1, 2), denominators=(1, 0))
    with pytest.raises(GenerationError, match=r"denominators \(1, 0\) include 0"):
        grid.values()
    a = seed_catalog["kx2"].value
    with pytest.raises(GenerationError):
        sample_operator_candidates(regular(a, AssocBimodule), grid)
    with pytest.raises(GenerationError):
        find_endomorphisms(a, GridSpec(denominators=(0,)))


def test_perturbation_helpers(seed_catalog):
    kx2 = seed_catalog["kx2"].value
    # e1 e2 = e1 + e2 breaks associativity: (e1 e1) e2 = e1 + e2 but
    # e1 (e1 e2) = 2 e1 + e2
    bad = perturb_product(kx2, "mul", (0, 1, 0), Fraction(1))
    assert not certify(bad, VarietyTag.HOM_ASSOCIATIVE).ok
    mult = seed_catalog["kx2_tensor_mult"].value
    bent = perturb_operator(mult, (0, 0), Fraction(1, 2))
    from homalg.operators import certify_operator

    assert not certify_operator(bent, "rel-avg").ok


def test_brute_oracle_matches_engine_on_catalog(seed_catalog):
    for entry in seed_catalog.values():
        if entry.kind != "algebra":
            continue
        a = entry.value
        interp = a.interpretation()
        if "mul" in a.products:
            assert brute_oracle("hom-associativity", interp).ok == certify(
                a, VarietyTag.HOM_ASSOCIATIVE
            ).ok
        if "bracket" in a.products and a.variety is VarietyTag.HOM_LIE:
            assert brute_oracle("hom-jacobi", interp).ok
        if "left" in a.products and "middle" not in a.products:
            assert brute_oracle("dialgebra", interp).ok == certify(
                a, VarietyTag.HOM_ASSOCIATIVE_DIALGEBRA
            ).ok
        if "middle" in a.products:
            assert brute_oracle("trialgebra", interp).ok == certify(
                a, VarietyTag.HOM_ASSOCIATIVE_TRIALGEBRA
            ).ok


def test_brute_oracle_random_tensors():
    schema = associativity_schema()
    for interp in random_interpretations(60, seed=5):
        assert brute_oracle("hom-associativity", interp).ok == check_schema(
            schema, interp
        ).ok


def test_brute_oracle_unknown_name():
    kx2 = truncated_polynomial_algebra(2)
    with pytest.raises(SemanticError):
        brute_oracle("hom-nonsense", kx2.interpretation())


def test_random_cross_check_on_catalog_sample(seed_catalog):
    # polarization soundness: exhaustive and sampled verdicts agree for the
    # non-multilinear tags on representative entries
    for aid, tag in [("j2", VarietyTag.HOM_JORDAN),
                     ("j2t2", VarietyTag.HOM_JORDAN),
                     ("tri23", VarietyTag.HOM_ASSOCIATIVE_TRIALGEBRA)]:
        a = seed_catalog[aid].value
        interp = a.interpretation()
        for schema in schemas_for(tag):
            exact = check_schema(schema, interp).ok
            for seed in range(3):
                assert check_schema_random(schema, interp, 50, seed).ok == exact


def test_brute_oracle_random_two_product_tensors():
    # verdict agreement on the full dialgebra axiom set over random tensors
    import random

    from homalg.engine import Interpretation, check_all
    from homalg.varieties import schemas_for

    rng = random.Random(99)
    grid = GridSpec(numerators=(-1, 0, 1), denominators=(1, 2))
    schemas = schemas_for(VarietyTag.HOM_ASSOCIATIVE_DIALGEBRA)
    for _ in range(60):
        dim = rng.randint(1, 3)
        interp = Interpretation(
            sorts={"A": dim},
            ops={
                "left": (random_square_tensor(dim, rng, grid), ("A", "A", "A")),
                "right": (random_square_tensor(dim, rng, grid), ("A", "A", "A")),
            },
            maps={"alpha": (LinearMap.identity(dim), ("A", "A"))},
        )
        engine = check_all(schemas, interp, "dialgebra").ok
        assert brute_oracle("dialgebra", interp).ok == engine

"""Curated catalog of certified seed data, deterministic candidate generation,
endomorphism search over small coefficient grids, and the independent
brute-force oracle: naive enumeration of any clause tuple by plain exact
arithmetic over the expression trees, the reference the identity engine's
verdicts, witnesses and tuple counts are checked against.

Valid Hom-algebras are never produced by sampling raw structure constants;
everything in the catalog is either a classical seed or the image of a
validity-preserving construction, and every entry is certified when the
catalog is built.  Negative test data comes from single-coefficient
perturbations of certified entries.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

from .constructions import differential_dialgebra
from .engine import (CheckReport, Interpretation, OpApp, SemanticError, TwistApp, Var, Witness,
                     polarize, twist_gap)
from .exact import _EMPTY, LinearMap, StructureTensor, Vector
from .operators import OperatorCandidate, certify_operator
from .records import FrozenRecord, Record
from .reps import (
    AssocAction,
    AssocBimodule,
    CertificationError,
    JordanAction,
    LieAction,
    certify_rep,
    direct_sum,
    regular,
    symmetrized,
    tensor_square_bimodule,
)
from .varieties import (AlgebraInstance, VarietyTag, certify, endomorphism_clauses, is_morphism,
                        schemas_for)


class GenerationError(RuntimeError):
    """Deterministic candidate generation exhausted its resample cap."""


# ---------------------------------------------------------------------------
# seed instances


def _st(dim, entries) -> StructureTensor:
    """entries: {(i, j): {k: coeff}} with 0-based indices."""
    rule = {}
    for (i, j), row in entries.items():
        vec = [0] * dim
        for k, c in row.items():
            vec[k] = c
        rule[(i, j)] = vec
    return StructureTensor.from_rule(dim, dim, dim, rule)


def _alg(name, dim, products, maps=None, variety=None) -> AlgebraInstance:
    maps = dict(maps or {})
    maps.setdefault("alpha", LinearMap.identity(dim))
    return AlgebraInstance(name, dim, products, maps, variety)


def zero_algebra(n: int) -> AlgebraInstance:
    return _alg(f"zero{n}", n, {"mul": StructureTensor.zero(n)},
                variety=VarietyTag.HOM_ASSOCIATIVE)


def truncated_polynomial_algebra(n: int, name=None) -> AlgebraInstance:
    """K[x]/(x^n) on the basis 1, x, ..., x^(n-1)."""
    entries = {}
    for i in range(n):
        for j in range(n):
            if i + j < n:
                entries[(i, j)] = {i + j: 1}
    return _alg(name or f"kx{n}", n, {"mul": _st(n, entries)},
                variety=VarietyTag.HOM_ASSOCIATIVE)


def upper_triangular_2x2() -> AlgebraInstance:
    # basis: E11, E12, E22
    entries = {
        (0, 0): {0: 1},
        (0, 1): {1: 1},
        (1, 2): {1: 1},
        (2, 2): {2: 1},
    }
    return _alg("ut2", 3, {"mul": _st(3, entries)}, variety=VarietyTag.HOM_ASSOCIATIVE)


def kx2_phitwist() -> AlgebraInstance:
    """Twist of K[x]/(x^2) along its idempotent endomorphism 1 -> 1, x -> 0."""
    phi = LinearMap([[1, 0], [0, 0]])
    return _alg(
        "kx2t", 2, {"mul": _st(2, {(0, 0): {0: 1}})}, {"alpha": phi},
        variety=VarietyTag.HOM_ASSOCIATIVE,
    )


def kx3_twist2() -> AlgebraInstance:
    """Twist of K[x]/(x^3) along the endomorphism x -> 2x."""
    phi = LinearMap.diagonal([1, 2, 4])
    entries = {
        (0, 0): {0: 1},
        (0, 1): {1: 2}, (1, 0): {1: 2},
        (0, 2): {2: 4}, (2, 0): {2: 4},
        (1, 1): {2: 4},
    }
    return _alg("kx3t2", 3, {"mul": _st(3, entries)}, {"alpha": phi},
                variety=VarietyTag.HOM_ASSOCIATIVE)


def abelian_lie(n: int = 2) -> AlgebraInstance:
    return _alg(f"ab{n}", n, {"bracket": StructureTensor.zero(n)},
                variety=VarietyTag.HOM_LIE)


def solvable_lie_2dim() -> AlgebraInstance:
    entries = {(0, 1): {1: 1}, (1, 0): {1: -1}}
    return _alg("sol2", 2, {"bracket": _st(2, entries)}, variety=VarietyTag.HOM_LIE)


def solvable_lie_2dim_twist2() -> AlgebraInstance:
    phi = LinearMap.diagonal([1, 2])
    entries = {(0, 1): {1: 2}, (1, 0): {1: -2}}
    return _alg("sol2t2", 2, {"bracket": _st(2, entries)}, {"alpha": phi},
                variety=VarietyTag.HOM_LIE)


def heisenberg_lie_3dim() -> AlgebraInstance:
    entries = {(0, 1): {2: 1}, (1, 0): {2: -1}}
    return _alg("heis3", 3, {"bracket": _st(3, entries)}, variety=VarietyTag.HOM_LIE)


def rank1_jordan() -> AlgebraInstance:
    """Idempotent plus a half-eigenvector: e1 o e1 = e1, e1 o e2 = e2 / 2."""
    entries = {
        (0, 0): {0: 1},
        (0, 1): {1: Fraction(1, 2)},
        (1, 0): {1: Fraction(1, 2)},
    }
    return _alg("j2", 2, {"circ": _st(2, entries)}, variety=VarietyTag.HOM_JORDAN)


def rank1_jordan_twist2() -> AlgebraInstance:
    phi = LinearMap.diagonal([1, 2])
    entries = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    return _alg("j2t2", 2, {"circ": _st(2, entries)}, {"alpha": phi},
                variety=VarietyTag.HOM_JORDAN)


def two_dim_trialgebra(a=1, b=1, name=None) -> AlgebraInstance:
    """The two-dimensional trialgebra seed, twisted by diag(a, b).

    Untwisted products (a = b = 1): with lam picking the e1 coefficient,
    x left y = lam(y) x, x right y = lam(x) y and middle agrees with right.
    The left product's diagonal entry e1 left e1 = e1 completes a partially
    stated table; the completion is certified by the catalog gate.
    """
    left = _st(2, {(0, 0): {0: a}, (1, 0): {1: b}})
    right = _st(2, {(0, 0): {0: a}, (0, 1): {1: b}})
    middle = _st(2, {(0, 0): {0: a}, (0, 1): {1: b}})
    maps = {"alpha": LinearMap.diagonal([a, b])}
    if (a, b) == (1, 1):
        maps["phi23"] = LinearMap.diagonal([2, 3])
        maps["phi_m15"] = LinearMap.diagonal([-1, 5])
        maps["phi12"] = LinearMap.diagonal([1, 2])
    return AlgebraInstance(
        name or f"tri_{a}_{b}".replace("-", "m"), 2,
        {"left": left, "right": right, "middle": middle},
        maps,
        VarietyTag.HOM_ASSOCIATIVE_TRIALGEBRA,
    )


def two_dim_trialgebra_literal(a=1, b=1) -> AlgebraInstance:
    """The same seed without the completed left diagonal (as first stated)."""
    left = _st(2, {(1, 0): {1: b}})
    right = _st(2, {(0, 0): {0: a}, (0, 1): {1: b}})
    middle = _st(2, {(0, 0): {0: a}, (0, 1): {1: b}})
    return AlgebraInstance(
        f"tri_literal_{a}_{b}".replace("-", "m"), 2,
        {"left": left, "right": right, "middle": middle},
        {"alpha": LinearMap.diagonal([a, b])},
        VarietyTag.HOM_ASSOCIATIVE_TRIALGEBRA,
    )


def unital_nilpotent_3dim() -> AlgebraInstance:
    """Unit e1 plus a two-dimensional square-zero radical, with the
    square-zero derivation d(e2) = e3."""
    entries = {}
    for j in range(3):
        entries[(0, j)] = {j: 1}
        entries[(j, 0)] = {j: 1}
    entries[(0, 0)] = {0: 1}
    d = LinearMap([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    return _alg("nil3", 3, {"mul": _st(3, entries)}, {"d": d},
                variety=VarietyTag.HOM_ASSOCIATIVE)


def diagonal_dialgebra(a: AlgebraInstance, name=None) -> AlgebraInstance:
    """Both dialgebra products equal to the associative product."""
    mul = a.product("mul")
    return AlgebraInstance(
        name or f"{a.name}_diass", a.dim, {"left": mul, "right": mul},
        {"alpha": a.alpha}, VarietyTag.HOM_ASSOCIATIVE_DIALGEBRA,
    )


# ---------------------------------------------------------------------------
# operator seeds


def multiplication_operator(rep: AssocBimodule) -> OperatorCandidate:
    """K(a (x) b) = a.b on a tensor-square bimodule."""
    n = rep.base.dim
    mul = rep.base.product("mul")
    cols = []
    for i in range(n):
        for j in range(n):
            cols.append(mul.row(i, j).coords)
    return OperatorCandidate(rep, LinearMap.from_columns(cols, n))


def sum_operator(rep) -> OperatorCandidate:
    """K(a_1, ..., a_n) = a_1 + ... + a_n on a direct-sum representation."""
    n = rep.base.dim
    copies = rep.v_dim // n
    cols = [Vector.basis(n, j).coords for _ in range(copies) for j in range(n)]
    return OperatorCandidate(rep, LinearMap.from_columns(cols, n))


def projection_operator(rep, which: int) -> OperatorCandidate:
    """The which-th projection A^n -> A on a direct-sum representation."""
    n = rep.base.dim
    copies = rep.v_dim // n
    cols = []
    for c in range(copies):
        for j in range(n):
            cols.append(Vector.basis(n, j).coords if c == which else Vector.zero(n).coords)
    return OperatorCandidate(rep, LinearMap.from_columns(cols, n))


def identity_operator(rep) -> OperatorCandidate:
    return OperatorCandidate(rep, LinearMap.identity(rep.base.dim))


# ---------------------------------------------------------------------------
# catalog


class CatalogEntry(Record):
    __slots__ = _fields = ("id", "kind", "value", "provenance", "notes", "check_kind")

    def __init__(self, id: str, kind: str, value: object, provenance: str, notes: str = "",
                 check_kind: str = ""):
        self.id = id
        self.kind = kind               # algebra | rep | operator
        self.value = value
        self.provenance = provenance   # paper-example | classical-seed | constructed
        self.notes = notes
        self.check_kind = check_kind   # operator entries: kind to certify

    def certifier_report(self) -> CheckReport:
        if self.kind == "algebra":
            return certify(self.value, self.value.variety)
        if self.kind == "rep":
            return certify_rep(self.value)
        return certify_operator(self.value, self.check_kind)


_CATALOG_CACHE = None


def catalog(refresh: bool = False):
    """Build (and cache) the certified seed catalog.

    Any entry failing its certifier aborts with the witness; the catalog is
    the ground truth the test batteries draw from.
    """
    global _CATALOG_CACHE
    if _CATALOG_CACHE is not None and not refresh:
        return _CATALOG_CACHE

    entries = []

    def add(id_, kind, value, provenance, notes="", check_kind=""):
        e = CatalogEntry(id_, kind, value, provenance, notes, check_kind)
        report = e.certifier_report()
        if not report.ok:
            raise CertificationError(f"catalog entry {id_!r} failed certification", report)
        entries.append(e)
        return value

    # algebras ------------------------------------------------------------
    for n in (1, 2, 3):
        add(f"zero{n}", "algebra", zero_algebra(n), "classical-seed", "sanity anchor")
    kx2 = add("kx2", "algebra", truncated_polynomial_algebra(2), "classical-seed",
              "dual numbers")
    kx3 = add("kx3", "algebra", truncated_polynomial_algebra(3), "classical-seed")
    kx2t = add("kx2t", "algebra", kx2_phitwist(), "constructed",
               "twist of kx2 along 1->1, x->0")
    kx3t2 = add("kx3t2", "algebra", kx3_twist2(), "constructed",
                "twist of kx3 along x->2x")
    ut2 = add("ut2", "algebra", upper_triangular_2x2(), "classical-seed",
              "upper triangular 2x2 matrices")
    ab2 = add("ab2", "algebra", abelian_lie(2), "classical-seed")
    sol2 = add("sol2", "algebra", solvable_lie_2dim(), "classical-seed",
               "[e1,e2] = e2")
    sol2t2 = add("sol2t2", "algebra", solvable_lie_2dim_twist2(), "constructed",
                 "twist of sol2 along diag(1,2)")
    heis3 = add("heis3", "algebra", heisenberg_lie_3dim(), "classical-seed",
                "[e1,e2] = e3")
    j2 = add("j2", "algebra", rank1_jordan(), "classical-seed",
             "idempotent with half-eigenvector")
    j2t2 = add("j2t2", "algebra", rank1_jordan_twist2(), "constructed",
               "twist of j2 along diag(1,2)")
    tri11 = add("tri11", "algebra", two_dim_trialgebra(1, 1, name="tri11"),
                "paper-example", "two-dimensional trialgebra seed")
    add("tri23", "algebra", two_dim_trialgebra(2, 3, name="tri23"),
        "paper-example", "diag(2,3) twist of tri11")
    add("tri_m15", "algebra", two_dim_trialgebra(-1, 5, name="tri_m15"),
        "paper-example", "diag(-1,5) twist of tri11")
    nil3 = add("nil3", "algebra", unital_nilpotent_3dim(), "classical-seed",
               "carries the square-zero derivation d")
    add("kx2_diass", "algebra", diagonal_dialgebra(kx2), "constructed",
        "left = right = mul")
    add("nil3_ddia", "algebra", differential_dialgebra(nil3, "d", check=False),
        "constructed", "x left y = x.d(y), x right y = d(x).y")

    # associative representations ------------------------------------------
    assoc_small = [kx2, kx2t, kx3, kx3t2, ut2]
    reps = {}
    for a in assoc_small:
        reps[f"{a.name}_reg"] = add(f"{a.name}_reg", "rep", regular(a, AssocBimodule),
                                    "constructed", "adjoint bimodule")
        reps[f"{a.name}_act"] = add(f"{a.name}_act", "rep", regular(a, AssocAction),
                                    "constructed", "adjoint action")
        for n in (2, 3):
            reps[f"{a.name}_sum{n}"] = add(
                f"{a.name}_sum{n}", "rep", direct_sum(a, n, AssocAction),
                "paper-example", f"componentwise action on A^{n}",
            )
    # the stated tensor-square action formulas only certify over an identity
    # twist; twisted bases are rejected by the builder's own gate
    for a in (kx2, kx3, ut2):
        reps[f"{a.name}_tensor"] = add(f"{a.name}_tensor", "rep", tensor_square_bimodule(a),
                                       "paper-example", "A (x) A bimodule")

    # Lie representations ---------------------------------------------------
    for a in (ab2, sol2, sol2t2, heis3):
        reps[f"{a.name}_adj"] = add(f"{a.name}_adj", "rep", regular(a, LieAction),
                                    "constructed", "adjoint action")
        reps[f"{a.name}_sum2"] = add(f"{a.name}_sum2", "rep", direct_sum(a, 2, LieAction),
                                     "constructed", "componentwise action on A^2")

    # Jordan representations --------------------------------------------------
    # non-idempotent twists (j2t2, kx3t2 actions) fail the fourth action
    # condition as stated and are therefore not catalog members
    reps["j2_adj"] = add("j2_adj", "rep", regular(j2, JordanAction),
                         "constructed", "multiplication action")
    reps["j2_sum2"] = add("j2_sum2", "rep", direct_sum(j2, 2, JordanAction),
                          "constructed", "componentwise action on A^2")
    reps["kx2_jmod"] = add("kx2_jmod", "rep", symmetrized(reps["kx2_reg"]),
                           "constructed", "pi = l + r over the symmetrized base")
    reps["ut2_jmod"] = add("ut2_jmod", "rep", symmetrized(reps["ut2_reg"]),
                           "constructed", "pi = l + r over the symmetrized base")
    reps["kx3t2_jmod"] = add("kx3t2_jmod", "rep", symmetrized(reps["kx3t2_reg"]),
                             "constructed", "twisted module, pi = l + r")
    reps["kx2_jact"] = add("kx2_jact", "rep", symmetrized(reps["kx2_sum2"]),
                           "constructed", "symmetrized direct-sum action")
    reps["ut2_jact"] = add("ut2_jact", "rep", symmetrized(reps["ut2_act"]),
                           "constructed", "symmetrized adjoint action")
    reps["kx2t_jact"] = add("kx2t_jact", "rep", symmetrized(reps["kx2t_act"]),
                            "constructed", "twisted symmetrized adjoint action")

    # operators ---------------------------------------------------------------
    for a in assoc_small:
        for n in (2, 3):
            add(f"{a.name}_sum{n}_sum", "operator", sum_operator(reps[f"{a.name}_sum{n}"]),
                "paper-example", "coordinate sum", check_kind="rel-avg")
        add(f"{a.name}_sum2_p1", "operator", projection_operator(reps[f"{a.name}_sum2"], 0),
            "paper-example", "first projection", check_kind="homomorphic-rel-avg")
        add(f"{a.name}_sum2_p2", "operator", projection_operator(reps[f"{a.name}_sum2"], 1),
            "paper-example", "second projection", check_kind="homomorphic-rel-avg")
        add(f"{a.name}_act_id", "operator", identity_operator(reps[f"{a.name}_act"]),
            "constructed", "crossed-module style identity", check_kind="homomorphic-rel-avg")
    for a in (kx2, kx3, ut2):
        add(f"{a.name}_tensor_mult", "operator", multiplication_operator(reps[f"{a.name}_tensor"]),
            "paper-example", "K(a (x) b) = a.b", check_kind="rel-avg")
    for name in ("ab2", "sol2", "sol2t2", "heis3"):
        add(f"{name}_adj_id", "operator", identity_operator(reps[f"{name}_adj"]),
            "constructed", "identity on the adjoint action", check_kind="homomorphic-rel-avg")
        add(f"{name}_sum2_sum", "operator", sum_operator(reps[f"{name}_sum2"]),
            "constructed", "coordinate sum", check_kind="rel-avg")
        add(f"{name}_sum2_p1", "operator", projection_operator(reps[f"{name}_sum2"], 0),
            "constructed", "first projection", check_kind="homomorphic-rel-avg")
    add("j2_adj_id", "operator", identity_operator(reps["j2_adj"]),
        "constructed", "identity on the multiplication action",
        check_kind="homomorphic-rel-avg")
    add("j2_sum2_sum", "operator", sum_operator(reps["j2_sum2"]),
        "constructed", "coordinate sum", check_kind="rel-avg")
    add("j2_sum2_p1", "operator", projection_operator(reps["j2_sum2"], 0),
        "constructed", "first projection", check_kind="homomorphic-rel-avg")
    add("kx2_jact_p1", "operator", projection_operator(reps["kx2_jact"], 0),
        "constructed", "first projection on the symmetrized action",
        check_kind="homomorphic-rel-avg")

    _CATALOG_CACHE = entries
    return entries


def catalog_entry(id_: str) -> CatalogEntry:
    for e in catalog():
        if e.id == id_:
            return e
    raise KeyError(id_)


# ---------------------------------------------------------------------------
# catalog shipping: the same entries as DSL files under data/

_CATALOG_FILES = {
    "zero.halg": ["zero1", "zero2", "zero3"],
    "kx2.halg": [
        "kx2", "kx2_reg", "kx2_act", "kx2_sum2", "kx2_sum3", "kx2_tensor",
        "kx2_tensor_mult", "kx2_sum2_sum", "kx2_sum3_sum", "kx2_sum2_p1",
        "kx2_sum2_p2", "kx2_act_id",
    ],
    "kx3.halg": [
        "kx3", "kx3_reg", "kx3_act", "kx3_sum2", "kx3_sum3", "kx3_tensor",
        "kx3_tensor_mult", "kx3_sum2_sum", "kx3_sum3_sum", "kx3_sum2_p1",
        "kx3_sum2_p2", "kx3_act_id",
    ],
    "ut2.halg": [
        "ut2", "ut2_reg", "ut2_act", "ut2_sum2", "ut2_sum3", "ut2_tensor",
        "ut2_tensor_mult", "ut2_sum2_sum", "ut2_sum3_sum", "ut2_sum2_p1",
        "ut2_sum2_p2", "ut2_act_id",
    ],
    "kx2t.halg": [
        "kx2t", "kx2t_reg", "kx2t_act", "kx2t_sum2", "kx2t_sum3",
        "kx2t_sum2_sum", "kx2t_sum3_sum", "kx2t_sum2_p1", "kx2t_sum2_p2",
        "kx2t_act_id",
    ],
    "kx3t2.halg": [
        "kx3t2", "kx3t2_reg", "kx3t2_act", "kx3t2_sum2", "kx3t2_sum3",
        "kx3t2_sum2_sum", "kx3t2_sum3_sum", "kx3t2_sum2_p1", "kx3t2_sum2_p2",
        "kx3t2_act_id",
    ],
    "lie.halg": [
        "ab2", "sol2", "sol2t2", "heis3",
        "ab2_adj", "ab2_sum2", "sol2_adj", "sol2_sum2", "sol2t2_adj", "sol2t2_sum2",
        "heis3_adj", "heis3_sum2",
        "ab2_adj_id", "ab2_sum2_sum", "ab2_sum2_p1",
        "sol2_adj_id", "sol2_sum2_sum", "sol2_sum2_p1",
        "sol2t2_adj_id", "sol2t2_sum2_sum", "sol2t2_sum2_p1",
        "heis3_adj_id", "heis3_sum2_sum", "heis3_sum2_p1",
    ],
    "jordan.halg": [
        "j2", "j2t2", "j2_adj", "j2_sum2", "j2_adj_id", "j2_sum2_sum", "j2_sum2_p1",
    ],
    "jordan_derived.halg": [
        "kx2_jmod", "ut2_jmod", "kx3t2_jmod", "kx2_jact", "ut2_jact", "kx2t_jact",
        "kx2_jact_p1",
    ],
    "trialgebra.halg": ["tri11", "tri23", "tri_m15"],
    "dialgebra.halg": ["kx2_diass", "nil3", "nil3_ddia"],
}


def catalog_source_files():
    """Render the catalog as {filename: canonical DSL text}."""
    from .dsl import Declaration, SourceFile, serialize

    entries = {e.id: e for e in catalog()}
    rep_name_of = {id(e.value): e.id for e in catalog() if e.kind == "rep"}
    files = {}
    for fname, ids in _CATALOG_FILES.items():
        decls, declared = [], set()

        def add_algebra(a):
            if a.name not in declared:
                declared.add(a.name)
                decls.append(Declaration("algebra", a.name, a))

        for id_ in ids:
            e = entries[id_]
            if e.kind == "algebra":
                add_algebra(e.value)
            elif e.kind == "rep":
                add_algebra(e.value.base)
                declared.add(e.id)
                decls.append(Declaration("rep", e.id, e.value,
                                         meta={"kind": e.value.kind,
                                               "base": e.value.base.name}))
            else:
                rep_id = rep_name_of[id(e.value.rep)]
                if rep_id not in declared:
                    raise SemanticError(f"{fname}: operator {id_} listed before rep {rep_id}")
                decls.append(Declaration("operator", e.id, e.value,
                                         meta={"rep": rep_id,
                                               "algebra": e.value.rep.base.name}))
        header = f"catalog: {', '.join(ids)}"
        files[fname] = serialize(SourceFile(decls), header=header)
    return files


def data_dir():
    import pathlib

    return pathlib.Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# deterministic generation


class GridSpec(FrozenRecord):
    __slots__ = _fields = ("numerators", "denominators", "seed", "count")

    def __init__(self, numerators: tuple = (-1, 0, 1), denominators: tuple = (1,),
                 seed: int = 0, count: int = 100):
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominators", denominators)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "count", count)

    def values(self):
        if 0 in self.denominators:
            raise GenerationError(f"grid denominators {self.denominators} include 0")
        vals = sorted({Fraction(n, d) for n in self.numerators for d in self.denominators})
        return vals


def sample_operator_candidates(rep, grid: GridSpec, check: bool = True):
    """Deterministic admissible candidate maps V -> A drawn from the grid.

    When the whole grid is no larger than `count` it is enumerated in
    lexicographic order, so small grids are covered exhaustively; otherwise
    seeded draws are filtered for admissibility with a hard resample cap.

    Entries are drawn in row-major order as integer numerators over the
    grid's common denominator, one per grid value in the same order, so the
    seeded draws are those of `rng.choice` over the values.  Each draw is
    read as the sparse columns of K, and admissibility K.beta = alpha.K is
    decided on them by `engine.twist_gap` (K's denominator cancels): every
    draw is accepted without a product when both twists are identities, and
    `square_gap` decides otherwise, up to the first column that differs.
    Only an accepted map is built, from those columns, in lowest terms as
    `LinearMap(rows)` keeps it.
    """
    if check:
        report = certify_rep(rep)
        if not report.ok:
            raise CertificationError("sample_operator_candidates: rep fails certification",
                                     report)
    vals = grid.values()
    den = lcm(*(v.denominator for v in vals))
    nums = [v.numerator * (den // v.denominator) for v in vals]
    n, m = rep.base.dim, rep.v_dim
    alpha, beta = rep.base.alpha, rep.beta
    entries = n * m

    def accept(flat):
        cols = [[(i, x) for i, x in enumerate(flat[j::m]) if x] for j in range(m)]
        if twist_gap(cols, alpha, beta) is None:
            out.append(OperatorCandidate(rep, LinearMap._lowest(cols, den, m, n)))

    out = []
    total = len(nums) ** entries if nums else 0
    if total <= grid.count:
        for combo in itertools.product(nums, repeat=entries):
            accept(combo)
        return out
    rng = random.Random(grid.seed)
    attempts = 0
    cap = max(grid.count * 200, 1000)
    while len(out) < grid.count:
        attempts += 1
        if attempts > cap:
            raise GenerationError(
                f"could not find {grid.count} admissible candidates in {cap} draws"
            )
        accept([rng.choice(nums) for _ in range(entries)])
    return out


def search_plan(clauses, size, fixed):
    """(order, checks) of a depth-first search over `size` unknowns that
    must zero every clause, the entries `fixed` assigned first.

    Clauses are those of `endomorphism_clauses`: tuples of terms (coeff, u,
    v), the unknown `size` standing for the constant 1.  After the fixed
    entries, `order` takes at each step the entry that completes the most
    clauses, lowest index on ties.  checks[d] holds each clause that depth d
    completes, split around the entry e = order[d] into (terms free of e,
    (coeff, other unknown) of e's linear part, coeff of e^2).

    One pass over the clause terms records, per entry, the clauses that read
    it and, per clause, how many of its entries are unset and their sum (the
    last unset entry, once only one is left).  Placing an entry updates the
    clauses that read it and the count of clauses each entry would complete,
    so each next entry is one scan of those counts.
    """
    readers = [[] for _ in range(size)]  # per unknown, the clauses that read it
    left, last = [], []  # per clause, its unset entries: their count and their sum
    for ci, c in enumerate(clauses):
        reads = set()
        for _, u, v in c:
            reads.add(u)
            reads.add(v)
        reads.discard(size)
        for e in reads:
            readers[e].append(ci)
        left.append(len(reads))
        last.append(sum(reads))
    completes = [0] * size  # per unset entry, the clauses it alone leaves open
    for count, e in zip(left, last):
        if count == 1:
            completes[e] += 1
    order = list(fixed)
    checks = [[] for _ in range(size)]
    for d in range(size):
        if d == len(order):
            order.append(completes.index(max(completes)))
        e = order[d]
        completes[e] = -1
        for ci in readers[e]:
            count = left[ci] = left[ci] - 1
            s = last[ci] = last[ci] - e
            if count == 1:
                completes[s] += 1
            elif not count:
                rest, lin, sq = [], [], 0
                for t in clauses[ci]:
                    k, u, v = t
                    if u == e:
                        if v == e:
                            sq += k
                        else:
                            lin.append((k, v))
                    elif v == e:
                        lin.append((k, u))
                    else:
                        rest.append(t)
                checks[d].append((tuple(rest), tuple(lin), sq))
    return order, checks


def find_endomorphisms(a: AlgebraInstance, grid: GridSpec, mode: str = "full"):
    """All grid maps f with `is_morphism(f, a, a)` passing, in row-major order.

    The result is sorted by the row-major tuple of matrix entries, which is
    the order of a flat `itertools.product` scan over the grid.  Mode "full"
    ranges every entry over the grid (refused above 500 000 maps); mode
    "diagonal" fixes the off-diagonal entries at 0.

    The search assigns the entries depth first over integer numerators in
    the order of `search_plan`: the fixed off-diagonal entries first, then
    at each step the entry that completes the most coordinate clauses
    (`endomorphism_clauses`).  At each depth the domain is filtered clause
    by clause, dropping every value that leaves a clause whose entries are
    all set nonzero, and the branch ends as soon as none is left, so pruning
    only drops maps that fail an exact clause.  The plan (order and
    per-depth checks) is read from a's clauses alone; the grid only gives
    the numerators, over their common denominator, of each depth's domain.
    Every surviving map is built in lowest terms, as `LinearMap(rows)` keeps
    it, over one shared sparse numerator column per distinct column, so the
    maps of a search hold at most one list per column value, and is
    certified again by `is_morphism`, the check of record, before it is
    returned.  The recursive search is released when it returns, so its
    leaves and clause tables are freed at once, not left as cyclic garbage
    for the collector.
    """
    vals = grid.values()
    n = a.dim
    size = n * n
    if mode == "full":
        if len(vals) ** size > 500_000:
            raise GenerationError("full grid too large; use mode='diagonal'")
        fixed = ()
    elif mode == "diagonal":
        fixed = [e for e in range(size) if e // n != e % n]
    else:
        raise SemanticError(f"unknown search mode {mode!r}")
    order, checks = search_plan(endomorphism_clauses(a), size, fixed)
    den = lcm(*(v.denominator for v in vals))
    nums = [v.numerator * (den // v.denominator) for v in vals]
    domains = [[0]] * len(fixed) + [nums] * (size - len(fixed))  # per depth
    x = [0] * size + [den]  # numerators; the last slot is the constant 1
    leaves = []

    def visit(d):
        if d == size:
            leaves.append(tuple(x[:size]))
            return
        keep = domains[d]
        for rest, lin, sq in checks[d]:
            c0 = 0
            for k, u, v in rest:
                c0 += k * x[u] * x[v]
            c1 = 0
            for k, u in lin:
                c1 += k * x[u]
            if sq:
                keep = [val for val in keep if not c0 + val * (c1 + val * sq)]
                if not keep:
                    return
            elif c1:  # linear in e: its one root, if that is a value left
                if c0 % c1 or (root := -c0 // c1) not in keep:
                    return
                keep = (root,)
            elif c0:
                return
        e = order[d]
        for val in keep:
            x[e] = val
            visit(d + 1)

    visit(0)
    visit = None  # it calls itself: free the search's tables now, not at a gc pass
    found, columns = [], {}  # one sparse list per distinct column, shared by the maps
    for entries in sorted(leaves):
        g = gcd(den, *entries)  # lowest terms, as LinearMap(rows) keeps them
        if g > 1:
            entries = tuple(x // g for x in entries)
        cols = []
        for c in range(n):
            key = entries[c::n]
            col = columns.get(key)
            if col is None:
                col = columns[key] = [(r, x) for r, x in enumerate(key) if x] or _EMPTY
            cols.append(col)
        phi = LinearMap._make(cols, den // g, n, n)
        if is_morphism(phi, a, a).ok:
            found.append(phi)
    return found


def perturb_product(a: AlgebraInstance, sym: str, where, delta) -> AlgebraInstance:
    """Copy of a with one structure constant of one product shifted by delta."""
    i, j, k = where
    t = a.product(sym)
    bump = StructureTensor.from_rule(
        t.left_dim, t.right_dim, t.out_dim,
        {(i, j): [delta if s == k else 0 for s in range(t.out_dim)]},
    )
    products = dict(a.products)
    products[sym] = t + bump
    return AlgebraInstance(f"{a.name}-perturbed", a.dim, products, dict(a.maps), a.variety)


def perturb_operator(c: OperatorCandidate, where, delta) -> OperatorCandidate:
    i, j = where
    rows = [list(r) for r in c.map.matrix]
    rows[i][j] += Fraction(delta)
    return OperatorCandidate(c.rep, LinearMap(rows))


def random_square_tensor(dim: int, rng: random.Random, grid: GridSpec) -> StructureTensor:
    vals = grid.values()
    return StructureTensor(
        [[[rng.choice(vals) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    )


def random_interpretations(count: int, seed: int, max_dim: int = 4, symbol: str = "mul"):
    """Deterministic stream of (mostly invalid) square tensors with a twist."""
    rng = random.Random(seed)
    grid = GridSpec(numerators=(-2, -1, 0, 1, 2), denominators=(1, 2))
    out = []
    for _ in range(count):
        dim = rng.randint(1, max_dim)
        tensor = random_square_tensor(dim, rng, grid)
        if rng.random() < 0.5:
            alpha = LinearMap.identity(dim)
        else:
            alpha = LinearMap.diagonal([rng.choice(grid.values()) for _ in range(dim)])
        out.append(
            Interpretation(
                sorts={"A": dim},
                ops={symbol: (tensor, ("A", "A", "A"))},
                maps={"alpha": (alpha, ("A", "A"))},
            )
        )
    return out


# ---------------------------------------------------------------------------
# brute-force oracle (independent of the engine's plans, kernels and memo)

# the identity sets brute_oracle knows by name: each is a variety's shipped schemas
_ORACLE_TAGS = {"hom-associativity": VarietyTag.HOM_ASSOCIATIVE, "hom-jacobi": VarietyTag.HOM_LIE,
                "hom-leibniz": VarietyTag.HOM_LEIBNIZ,
                "dialgebra": VarietyTag.HOM_ASSOCIATIVE_DIALGEBRA,
                "trialgebra": VarietyTag.HOM_ASSOCIATIVE_TRIALGEBRA}


def _bound(table, kind, symbol):
    """The data an interpretation binds to a symbol, or a SemanticError naming it."""
    if symbol not in table:
        raise SemanticError(f"brute oracle: interpretation lacks {kind} {symbol!r}")
    return table[symbol]


def naive_value(expr, env, interp):
    """An expression's value by plain exact arithmetic, env giving each
    variable's vector; None for a zero of no sort."""
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, TwistApp):
        child = naive_value(expr.child, env, interp)
        lin = _bound(interp.maps, "map", expr.map_symbol)[0]  # a map across sorts has power 1
        if child is None:
            return None
        return (lin if expr.power == 1 else lin.power(expr.power)).apply(child)
    if isinstance(expr, OpApp):
        left, right = naive_value(expr.left, env, interp), naive_value(expr.right, env, interp)
        tensor = _bound(interp.ops, "op", expr.op_symbol)[0]
        return None if left is None or right is None else tensor.apply(left, right)
    acc = None  # a Sum
    for w, term in expr.terms:
        value = naive_value(term, env, interp)
        if value is not None:
            acc = value.scale(w) if acc is None else acc + value.scale(w)
    return acc


def _walk(clauses, interp, check_id) -> CheckReport:
    """Every basis tuple of polarized clauses that share one variable list,
    in lexicographic order and sorted within copy blocks; on each, every
    clause in turn.  The first violated clause is the witness."""
    variables, blocks = clauses[0].variables, clauses[0].copy_blocks
    if any((c.variables, c.copy_blocks) != (variables, blocks) for c in clauses):
        raise SemanticError("brute oracle: clauses do not share one variable list")
    slot = {name: p for p, (name, _, _) in enumerate(variables)}
    pairs = [(slot[a], slot[b]) for block in blocks for a, b in zip(block, block[1:])]
    dims = [_bound(interp.sorts, "sort", sort) for _, sort, _ in variables]
    unset = dict.fromkeys(slot)  # every variable None: each symbol is looked up, nothing computed
    for side in (side for c in clauses for side in (c.lhs, c.rhs)):
        naive_value(side, unset, interp)
    basis = [[Vector.basis(d, i) for i in range(d)] for d in dims]
    count = 0
    for combo in itertools.product(*map(range, dims)):
        if any(combo[a] > combo[b] for a, b in pairs):
            continue
        count += 1
        env = {name: vecs[i] for (name, _, _), vecs, i in zip(variables, basis, combo)}
        for c in clauses:
            lhs, rhs = naive_value(c.lhs, env, interp), naive_value(c.rhs, env, interp)
            if lhs is not None or rhs is not None:
                lhs = Vector.zero(rhs.dim) if lhs is None else lhs
                rhs = Vector.zero(lhs.dim) if rhs is None else rhs
                if lhs != rhs:
                    names = tuple((name, sort) for name, sort, _ in variables)
                    return CheckReport("fail", check_id, witness=Witness(
                        c.name, names, combo, lhs, rhs), tuples_checked=count)
    return CheckReport("pass", check_id, tuples_checked=count)


def brute_oracle(clauses, interp) -> CheckReport:
    """Naive enumeration of a clause tuple, the independent reference for
    the engine's `check_clauses`.

    `clauses` are schemas that share one variable list once polarized, or
    the name of a shipped identity set: "hom-associativity", "hom-jacobi",
    "hom-leibniz", "dialgebra" or "trialgebra", each its variety's
    `schemas_for`, whose schemas of one variable list are decided as one
    tuple, in order.  Each side is evaluated by `exact`'s own arithmetic on
    every basis tuple sorted within copy blocks (see `_walk`); the report
    gives the status, the witness (the first violating tuple and clause,
    with both sides) and `tuples_checked`, summed up to the first failure.
    It shares with the engine only the trees and `polarize`: no DAG, plan,
    kernel, mask or memo.  A symbol or sort the interpretation lacks is a
    SemanticError naming it.
    """
    if isinstance(clauses, str):
        tag = _ORACLE_TAGS.get(clauses)
        if tag is None:
            raise SemanticError(f"brute oracle does not know {clauses!r}")
        check_id, groups = f"brute:{clauses}", {}
        for schema in map(polarize, schemas_for(tag)):
            groups.setdefault((schema.variables, schema.copy_blocks), []).append(schema)
        groups = groups.values()
    else:
        groups = [[polarize(c) for c in clauses]]
        check_id = f"brute:{groups[0][0].name}"
    checked = 0
    for group in groups:
        report = _walk(group, interp, check_id)
        checked = report.tuples_checked = checked + report.tuples_checked
        if not report.ok:
            break
    return report

"""The record contract of homalg's value classes: construction (positional,
by keyword, with defaults), repr, ==, hashing, frozen fields, and the shape
and semantic checks each class runs when it is built."""

import copy

import pytest

from homalg.dsl import Declaration, SourceFile, _Form
from homalg.engine import CheckReport, Interpretation, SemanticError, Witness
from homalg.exact import LinearMap, ShapeError, StructureTensor, Vector
from homalg.forge import CatalogEntry, GridSpec
from homalg.operators import OperatorCandidate
from homalg.reps import (
    AssocAction,
    AssocBimodule,
    JordanAction,
    JordanModule,
    LieAction,
    LieModule,
)
from homalg.varieties import AlgebraInstance, VarietyTag

T1, T2 = StructureTensor.zero(1), StructureTensor.zero(2)
I1, I2 = LinearMap.identity(1), LinearMap.identity(2)
K = AlgebraInstance("k", 1, {"mul": T1}, {"alpha": I1})
K_REPR = ("AlgebraInstance(name='k', dim=1, products={'mul': StructureTensor(1,1,1)},"
          " maps={'alpha': LinearMap(1x1)}, variety=None)")
V0, V1 = Vector([0]), Vector([1])


# (class, frozen, fields, positional args, expected repr); a field missing
# from the positional args is one with a default, and its default is the
# value the expected repr shows
RECORDS = [
    (Interpretation, True, ("sorts", "ops", "maps"),
     ({"A": 1}, {"mul": (T1, ("A", "A", "A"))}, {"alpha": (I1, ("A", "A"))}),
     "Interpretation(sorts={'A': 1}, ops={'mul': (StructureTensor(1,1,1), ('A', 'A', 'A'))},"
     " maps={'alpha': (LinearMap(1x1), ('A', 'A'))})"),
    (Witness, True, ("identity", "variables", "indices", "lhs_value", "rhs_value"),
     ("assoc", (("x", "A"), ("y", "A")), (0, 1), V0, V1),
     "Witness(identity='assoc', variables=(('x', 'A'), ('y', 'A')), indices=(0, 1),"
     " lhs_value=Vector(['0']), rhs_value=Vector(['1']))"),
    (CheckReport, False,
     ("status", "check", "witness", "detail", "tuples_checked", "tuples_evaluated",
      "prefixes_visited"),
     ("pass", "variety:hom-associative"),
     "CheckReport(pass:variety:hom-associative)"),
    (AlgebraInstance, False, ("name", "dim", "products", "maps", "variety"),
     ("k", 1, {"mul": T1}, {"alpha": I1}), K_REPR),
    (OperatorCandidate, False, ("rep", "map"), (K, I1),
     f"OperatorCandidate(rep={K_REPR}, map=LinearMap(1x1))"),
    (Declaration, False, ("kind", "name", "value", "meta"), ("algebra", "k", 7),
     "Declaration(kind='algebra', name='k', value=7, meta={})"),
    (SourceFile, False, ("declarations",), ([],), "SourceFile(declarations=[])"),
    (_Form, True, ("keyword", "sorts", "out", "names", "sort_error", "category"),
     ("op", "ee", "e", None, "bad sort"),
     "_Form(keyword='op', sorts='ee', out='e', names=None, sort_error='bad sort',"
     " category='semantic')"),
    (CatalogEntry, False, ("id", "kind", "value", "provenance", "notes", "check_kind"),
     ("k", "algebra", 7, "classical-seed"),
     "CatalogEntry(id='k', kind='algebra', value=7, provenance='classical-seed', notes='',"
     " check_kind='')"),
    (GridSpec, True, ("numerators", "denominators", "seed", "count"), (),
     "GridSpec(numerators=(-1, 0, 1), denominators=(1,), seed=0, count=100)"),
    (AssocBimodule, False, ("base", "v_dim", "l", "r", "beta"), (K, 1, T1, T1, I1),
     f"AssocBimodule(base={K_REPR}, v_dim=1, l=StructureTensor(1,1,1),"
     " r=StructureTensor(1,1,1), beta=LinearMap(1x1))"),
    (AssocAction, False, ("base", "v_dim", "l", "r", "beta", "vmul"),
     (K, 1, T1, T1, I1, T1),
     f"AssocAction(base={K_REPR}, v_dim=1, l=StructureTensor(1,1,1),"
     " r=StructureTensor(1,1,1), beta=LinearMap(1x1), vmul=StructureTensor(1,1,1))"),
    (LieModule, False, ("base", "v_dim", "rho", "beta"), (K, 1, T1, I1),
     f"LieModule(base={K_REPR}, v_dim=1, rho=StructureTensor(1,1,1), beta=LinearMap(1x1))"),
    (LieAction, False, ("base", "v_dim", "rho", "beta", "vbracket"), (K, 1, T1, I1, T1),
     f"LieAction(base={K_REPR}, v_dim=1, rho=StructureTensor(1,1,1), beta=LinearMap(1x1),"
     " vbracket=StructureTensor(1,1,1))"),
    (JordanModule, False, ("base", "v_dim", "pi", "beta"), (K, 1, T1, I1),
     f"JordanModule(base={K_REPR}, v_dim=1, pi=StructureTensor(1,1,1), beta=LinearMap(1x1))"),
    (JordanAction, False, ("base", "v_dim", "pi", "beta", "vstar"), (K, 1, T1, I1, T1),
     f"JordanAction(base={K_REPR}, v_dim=1, pi=StructureTensor(1,1,1), beta=LinearMap(1x1),"
     " vstar=StructureTensor(1,1,1))"),
]
IDS = [spec[0].__name__ for spec in RECORDS]

# a value for one field that differs from the positional one, for !=
J = AlgebraInstance("j", 1, {"mul": T1}, {"alpha": I1})
OTHER = {"sorts": {"A": 2}, "identity": "other", "status": "fail", "name": "j", "rep": J,
         "kind": "rep", "declarations": [None], "keyword": "map", "id": "j",
         "numerators": (0,), "base": J}


def test_the_record_table_covers_sixteen_classes():
    assert len({spec[0] for spec in RECORDS}) == 16


@pytest.mark.parametrize("cls, frozen, fields, args, expected", RECORDS, ids=IDS)
def test_construction_and_repr(cls, frozen, fields, args, expected):
    rec = cls(*args)
    assert repr(rec) == expected
    for name, value in zip(fields, args):
        assert getattr(rec, name) is value
    by_keyword = cls(**{name: getattr(rec, name) for name in fields})
    assert repr(by_keyword) == expected
    assert by_keyword == rec
    with pytest.raises(TypeError):
        cls(*args, **{fields[0]: args[0]} if args else {"no_such_field": 0})
    with pytest.raises(TypeError):
        cls(*[getattr(rec, name) for name in fields], None)


@pytest.mark.parametrize("cls, frozen, fields, args, expected", RECORDS, ids=IDS)
def test_equality_and_hashing(cls, frozen, fields, args, expected):
    one, two = cls(*args), cls(*args)
    assert one == two and not one != two
    assert one != object() and not one == object()
    changed = next(f for f in fields if f in OTHER)
    other = cls(**{f: OTHER[f] if f == changed else getattr(one, f) for f in fields})
    assert one != other and not one == other
    if not frozen:
        with pytest.raises(TypeError):
            hash(one)
    elif cls is Interpretation:
        with pytest.raises(TypeError):  # its fields are dicts
            hash(one)
    else:
        assert hash(one) == hash(two)


@pytest.mark.parametrize("cls, frozen, fields, args, expected", RECORDS, ids=IDS)
def test_a_copy_is_an_equal_record(cls, frozen, fields, args, expected):
    rec = cls(*args)
    dup = copy.copy(rec)
    assert dup is not rec and type(dup) is cls and repr(dup) == expected
    assert all(getattr(dup, name) is getattr(rec, name) for name in fields)


def test_a_subclass_record_never_equals_its_base():
    bimodule = AssocBimodule(K, 1, T1, T1, I1)
    action = AssocAction(K, 1, T1, T1, I1, T1)
    assert action != bimodule and bimodule != action
    assert LieAction(K, 1, T1, I1, T1) != LieModule(K, 1, T1, I1)


@pytest.mark.parametrize("cls, frozen, fields, args, expected", RECORDS, ids=IDS)
def test_frozen_fields_refuse_assignment(cls, frozen, fields, args, expected):
    rec = cls(*args)
    value = getattr(rec, fields[0])
    if frozen:
        with pytest.raises(AttributeError):
            setattr(rec, fields[0], value)
        with pytest.raises(AttributeError):
            delattr(rec, fields[0])
    else:
        setattr(rec, fields[0], value)
    assert getattr(rec, fields[0]) is value


def test_mutable_defaults_are_fresh_per_record():
    one, two = Declaration("algebra", "k", 7), Declaration("algebra", "j", 8)
    one.meta["kind"] = "x"
    assert two.meta == {}
    report = CheckReport("fail", "c")
    assert (report.witness, report.detail, report.tuples_checked, report.tuples_evaluated,
            report.prefixes_visited) == (None, "", 0, 0, 0)
    assert not report and CheckReport("pass", "c")


def test_algebra_instance_checks_its_shapes():
    with pytest.raises(SemanticError, match="no twist map 'alpha'"):
        AlgebraInstance("k", 1, {"mul": T1}, {})
    with pytest.raises(ShapeError, match="product 'mul' has wrong dims"):
        AlgebraInstance("k", 1, {"mul": T2}, {"alpha": I1})
    with pytest.raises(ShapeError, match="map 'alpha' has wrong dims"):
        AlgebraInstance("k", 1, {"mul": T1}, {"alpha": I2})
    assert AlgebraInstance("k", 1, {"mul": T1}, {"alpha": I1},
                           VarietyTag.HOM_ASSOCIATIVE).variety is VarietyTag.HOM_ASSOCIATIVE


def test_operator_candidate_checks_its_shape():
    with pytest.raises(ShapeError, match="operator map is 2x2, expected 1x1"):
        OperatorCandidate(K, I2)
    rep = AssocBimodule(K, 2, StructureTensor.zero(1, 2, 2), StructureTensor.zero(1, 2, 2), I2)
    with pytest.raises(ShapeError, match="operator map is 1x1, expected 1x2"):
        OperatorCandidate(rep, I1)
    assert OperatorCandidate(rep, LinearMap.zero(2, 1)).base is K


@pytest.mark.parametrize("cls", [AssocBimodule, AssocAction, LieModule, LieAction,
                                 JordanModule, JordanAction], ids=lambda c: c.__name__)
def test_reps_check_their_shapes(cls):
    acts = [T1] * len(cls.acts)
    with pytest.raises(ShapeError, match="action tensor .* has wrong dims"):
        cls(K, 2, *acts, I2, *([T2] if cls.vprod else []))
    with pytest.raises(ShapeError, match="beta has wrong dims"):
        cls(K, 1, *acts, I2, *([T1] if cls.vprod else []))
    if cls.vprod:
        with pytest.raises(SemanticError, match=f"{cls.kind} requires a product"):
            cls(K, 1, *acts, I1)
        with pytest.raises(ShapeError, match=f"product '{cls.vprod}' on V has wrong dims"):
            cls(K, 1, *acts, I1, T2)

"""check_all against schema-by-schema checks.

check_all decides a variety's or a representation's axioms; its report, and
the report each of those schemas gives afterwards, must be what checking
the schemas one at a time, on fresh copies with no plans and no memo
entries, gives: status, violated clause, indices, both sides,
tuples_checked, tuples_evaluated and prefixes_visited.
"""

import random
from fractions import Fraction

from homalg.engine import IdentitySchema, Interpretation, check_all, check_schema
from homalg.exact import StructureTensor
from homalg.forge import perturb_product


def _fresh(schema):
    """A copy with no plans and no memo entries."""
    return IdentitySchema(schema.name, schema.lhs, schema.rhs, schema.variables,
                          schema.polarized, schema.copy_blocks)


def _fields(report):
    w = report.witness
    return (report.status, report.tuples_checked, report.tuples_evaluated,
            report.prefixes_visited, w and (w.identity, w.variables, w.indices,
                                             w.lhs_value.coords, w.rhs_value.coords))


def _one_by_one(schemas, interp):
    """(the fields and detail check_all must report, the report of each
    schema up to the first that fails), from fresh copies."""
    reports = []
    for schema in schemas:
        reports.append(check_schema(_fresh(schema), interp))
        if not reports[-1].ok:
            break
    last = reports[-1]
    work = [sum(getattr(r, key) for r in reports)
            for key in ("tuples_checked", "tuples_evaluated", "prefixes_visited")]
    detail = "" if last.ok else f"violated schema {last.witness.identity!r}"
    return (last.status, *work, _fields(last)[4]), detail, reports


def _bump_op(interp, rng):
    """interp with one structure constant of one op, drawn from rng, moved
    by 1 or -1, as forge.perturb_product moves a product's."""
    sym = rng.choice(sorted(interp.ops))
    t, sig = interp.ops[sym]
    i, j, k = rng.randrange(t.left_dim), rng.randrange(t.right_dim), rng.randrange(t.out_dim)
    delta = rng.choice((1, -1))
    bump = StructureTensor.from_rule(t.left_dim, t.right_dim, t.out_dim,
                                     {(i, j): [delta if s == k else 0 for s in range(t.out_dim)]})
    return Interpretation(interp.sorts, interp.ops | {sym: (t + bump, sig)}, interp.maps)


def _cases(seed_catalog):
    """(schemas, interpretation) pairs, each with a seeded bump beside it:
    every variety tag over every catalog algebra, its required products
    bound to the algebra's own where it has them and else to its products
    in turn; every catalog representation under its kind's axioms; and the
    hemisemi-direct products and induced structures of the catalog, the
    catalog sweep's outputs, under their varieties."""
    from homalg.constructions import INDUCED, hemisemi, induce
    from homalg.operators import hemisemi_id_for
    from homalg.reps import _rep_schemas
    from homalg.varieties import REQUIRED_PRODUCTS, VarietyTag, schemas_for

    rng = random.Random(39)
    cases, outputs = [], []
    for e in seed_catalog.values():
        value = e.value
        if e.kind == "algebra":
            syms = sorted(value.products)
            for tag in VarietyTag:
                interp = Interpretation({"A": value.dim}, {
                    s: (value.products.get(s) or value.product(syms[k % len(syms)]), ("A",) * 3)
                    for k, s in enumerate(REQUIRED_PRODUCTS[tag])},
                    {"alpha": (value.alpha, ("A", "A"))})
                cases += [(schemas_for(tag), interp), (schemas_for(tag), _bump_op(interp, rng))]
        elif e.kind == "rep":
            interp = value.interpretation()
            cases += [(_rep_schemas(value.kind), interp),
                      (_rep_schemas(value.kind), _bump_op(interp, rng))]
            outputs.append(hemisemi(value, hemisemi_id_for(value), check=False))
        elif e.kind == "operator":
            outputs += [induce(value, cid, check=False) for cid, row in INDUCED.items()
                        if row.takes == e.check_kind
                        and all(hasattr(value.rep, t) for t, _ in row.products.values())]
    for a in outputs:
        sym = rng.choice(sorted(a.products))
        where = rng.randrange(a.dim), rng.randrange(a.dim), rng.randrange(a.dim)
        bent = perturb_product(a, sym, where, Fraction(rng.choice((1, -1, 2))))
        cases += [(schemas_for(a.variety), a.interpretation()),
                  (schemas_for(a.variety), bent.interpretation())]
    return cases


def _last_compat_broken():
    """A 2-dim trialgebra (left 0, right(e0, e0) = e1, middle 0) with two
    constants of middle bumped, middle(e0, e0) = e0 and middle(e1, e0) = e1:
    every trialgebra axiom holds but the last, middle-compat-5."""
    from homalg.exact import LinearMap
    from homalg.varieties import AlgebraInstance, VarietyTag

    zero = StructureTensor.from_rule(2, 2, 2, {})
    base = AlgebraInstance("tri-right-square", 2, {
        "left": zero, "middle": zero,
        "right": StructureTensor.from_rule(2, 2, 2, {(0, 0): [0, 1]})},
        {"alpha": LinearMap.identity(2)}, VarietyTag.HOM_ASSOCIATIVE_TRIALGEBRA)
    return perturb_product(perturb_product(base, "middle", (0, 0, 0), 1),
                           "middle", (1, 0, 1), 1)


def _assert_check_all_is_one_by_one(schemas, interp, cold_binds):
    want, detail, reports = _one_by_one(schemas, interp)
    got = check_all(schemas, interp, "all")
    assert (_fields(got), got.detail, got.check) == (want, detail, "all"), schemas[0].name
    # afterwards every schema decided is answered from the memo, with its own report
    cold_binds.clear()
    for schema, report in zip(schemas, reports):
        again = check_schema(schema, interp)
        assert _fields(again) == _fields(report), schema.name
        assert again.check == f"schema:{schema.name}"
    assert not cold_binds, "a schema check_all decided was not answered from the memo"
    return got


def test_check_all_reports_what_schema_by_schema_checks_report(seed_catalog, cold_binds):
    statuses, failing, checked = set(), set(), 0
    for schemas, interp in _cases(seed_catalog):
        got = _assert_check_all_is_one_by_one(schemas, interp, cold_binds)
        checked += 1
        statuses.add(got.status)
        if not got.ok:
            failing.add(got.witness.identity)
    assert statuses == {"pass", "fail"} and checked > 400
    # failures land on first and later schemas of the long runs
    assert {"bar-left", "right-associativity", "middle-compat-3", "tridendriform-1",
            "right-composition", "module-linear-1"} <= failing, failing


def test_a_run_broken_only_in_its_last_schema(cold_binds):
    from homalg.varieties import VarietyTag, schemas_for

    bent = _last_compat_broken()
    schemas = schemas_for(VarietyTag.HOM_ASSOCIATIVE_TRIALGEBRA)
    _, _, reports = _one_by_one(schemas, bent.interpretation())
    assert [r.ok for r in reports] == [True] * 10 + [False]
    assert reports[-1].witness.identity == "middle-compat-5" == schemas[-1].name
    _assert_check_all_is_one_by_one(schemas, bent.interpretation(), cold_binds)


def test_a_run_whose_first_schemas_are_already_in_their_memos(seed_catalog, cold_binds):
    # the first two schemas of each tuple are checked on their own first, so
    # a run that starts there finds their verdicts kept and decides the rest
    from homalg.varieties import schemas_for

    bent = _last_compat_broken()
    seen = 0
    for schemas, interp in _cases(seed_catalog)[::3] + [(schemas_for(bent.variety),
                                                         bent.interpretation())]:
        for schema in schemas[:2]:
            check_schema(schema, interp)
        _assert_check_all_is_one_by_one(schemas, interp, cold_binds)
        seen += 1
    assert seen > 100


def _reach(plan, roots):
    """The nodes of plan that the given roots read, themselves included."""
    from homalg.engine import _children

    seen, todo = set(), list(roots)
    while todo:
        n = todo.pop()
        if n not in seen:
            seen.add(n)
            todo.extend(_children(plan.nodes[n]))
    return seen


def _counted_steps(monkeypatch):
    """Wrap the contraction steps of every plan built from now on: the
    returned list gets a node id each time one of its steps runs."""
    import homalg.engine as engine

    calls, real = [], engine._Plan._joins

    def counted(nid, step):
        def run(cur):
            calls.append(nid)
            return step(cur)
        return run

    def joins(self, *args):
        fills, (clauses, once, each, *rest) = real(self, *args)
        return fills, (clauses, tuple((n, counted(n, s)) for n, s in once),
                       tuple((n, counted(n, s)) for n, s in each), *rest)

    monkeypatch.setattr(engine._Plan, "_joins", joins)
    return calls


def _trialgebra_run(seed_catalog):
    """The 12-dim hemisemi-direct trialgebra of kx3_sum3, fresh copies of
    the trialgebra axioms (one run of 11 over x, y, z), and their run's
    clause set."""
    from homalg.constructions import hemisemi
    from homalg.engine import _runs
    from homalg.operators import hemisemi_id_for
    from homalg.varieties import VarietyTag, schemas_for

    rep = seed_catalog["kx3_sum3"].value
    a = hemisemi(rep, hemisemi_id_for(rep), check=False)
    schemas = tuple(_fresh(s) for s in schemas_for(VarietyTag.HOM_ASSOCIATIVE_TRIALGEBRA))
    ((stop, clause_set, _),) = _runs(schemas)
    assert a.variety is VarietyTag.HOM_ASSOCIATIVE_TRIALGEBRA and stop == 11
    return a, schemas, clause_set


def test_a_passing_run_runs_each_step_once_per_index_of_slot_0(seed_catalog, monkeypatch):
    from collections import Counter

    calls = _counted_steps(monkeypatch)
    a, schemas, clause_set = _trialgebra_run(seed_catalog)
    assert check_all(schemas, a.interpretation(), "all").ok
    ((plan,),) = [entry.plans for entry in clause_set.by_shape.values()]
    _, (_, once, each, _, _, _) = plan.joins
    ran = Counter(calls)
    assert {n: ran[n] for n, _ in once} == {n: 1 for n, _ in once}
    assert {n: ran[n] for n, _ in each} == {n: a.dim for n, _ in each}
    assert sum(ran.values()) == len(once) + a.dim * len(each)
    # the clauses share tables: one at a time they would read more steps
    steps = {n for n, _ in once + each}
    assert sum(len(_reach(plan, side) & steps) for side in plan.sides) > 1.5 * len(steps)


def test_a_run_failing_in_its_first_schema_runs_no_step_only_later_ones_read(seed_catalog,
                                                                             monkeypatch):
    calls = _counted_steps(monkeypatch)
    a, schemas, clause_set = _trialgebra_run(seed_catalog)
    bent = perturb_product(a, "left", (0, 0, 0), 1)
    report = check_all(schemas, bent.interpretation(), "all")
    assert report.witness.identity == "bar-left" == schemas[0].name
    ((plan,),) = [entry.plans for entry in clause_set.by_shape.values()]
    first = _reach(plan, plan.sides[0])
    later = set().union(*(_reach(plan, side) for side in plan.sides[1:])) - first
    assert calls and later and not later & set(calls)
    assert set(calls) <= first

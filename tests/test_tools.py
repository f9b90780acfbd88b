import importlib.util
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _opcount():
    return _tool("opcount")


def test_opcount_counts_the_instructions_of_every_frame_called():
    counted = _opcount().counted
    before = sys.gettrace()

    def loop(n):
        total = 0
        for i in range(n):
            total += square(i)
        return total

    def square(i):
        return i * i

    out, small = counted(lambda: loop(10))
    assert out == 285 and small > 10
    # the same work counts the same, more work counts more, and the
    # tracer that ran before is back afterwards
    assert counted(lambda: loop(10)) == (285, small)
    assert counted(lambda: loop(20))[1] > small
    assert sys.gettrace() is before


def test_loc_counts_code_lines_without_docstrings_comments_or_blanks():
    source = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


class Box:
    """Class docstring."""

    # a comment line
    size = 2


def area(box):
    """Function docstring,

    over three lines."""
    text = """a string that is
    not a docstring"""
    return box.size * len(text)
'''
    # import, class, size, def, text (two lines) and return
    assert _tool("loc").code_lines(source) == 7


def _kx2():
    """A fresh k[x]/(x^2) with the identity twist: new objects, so no check
    of it is answered from the verdict memo."""
    from homalg.exact import LinearMap, StructureTensor
    from homalg.varieties import AlgebraInstance

    t = StructureTensor.square_from_rule(2, {(0, 0): [1, 0], (0, 1): [0, 1], (1, 0): [0, 1]})
    return AlgebraInstance("kx2", 2, {"mul": t}, {"alpha": LinearMap.identity(2)})


def _battery(a):
    """A variety certification (engine.check_clauses, through check_schema)
    and an operator certification (operators' own binding of it), of the
    objects of a only."""
    from homalg.operators import OperatorCandidate, certify_operator
    from homalg.varieties import VarietyTag, certify

    return [certify(a, VarietyTag.HOM_ASSOCIATIVE),
            certify_operator(OperatorCandidate(a, a.alpha), "nijenhuis")]


def test_engine_work_counts_every_check_and_memo_answer_but_not_itself():
    import homalg.engine as engine
    import homalg.operators as operators

    tool = _opcount()
    real = engine.check_clauses
    a = _kx2()
    _battery(a)  # cold: from now on every check of a is a memo answer, the same work each time
    bare = tool.counted(lambda: _battery(a))[1]
    with tool.engine_work() as work:
        assert operators.check_clauses is not real
        reports, wrapped = tool.counted(lambda: _battery(a))
        calls = work["check_clauses"]
        fresh = _battery(_kx2())  # new objects: checked cold, no memo answer
    assert engine.check_clauses is operators.check_clauses is real
    assert wrapped == bare
    assert calls >= 2 and work["check_clauses"] == 2 * calls and work["memo_answers"] == calls
    for key in ("tuples_checked", "tuples_evaluated", "prefixes_visited"):
        assert [getattr(r, key) for r in fresh] == [getattr(r, key) for r in reports]
        assert work[key] == 2 * sum(getattr(r, key) for r in reports)


def test_count_pass_reports_instructions_and_engine_work_per_class():
    tool = _opcount()

    class Workload:
        """Two operations of class a, one of class b, one raising in class b."""

        def prepare(self):
            self.algebras = {}

        def timed(self, fn):
            return fn(), 0.0, 0.0

        def run_pass(self):
            records = []
            for cls, key in (("a", "first"), ("b", "second"), ("a", "third")):
                a = self.algebras.setdefault(key, _kx2())
                _, t0, ms = self.timed(lambda: _battery(a))
                records.append({"cls": cls, "key": key, "t0": t0, "ms": ms})
            try:
                self.timed(lambda: 1 // 0)
            except ZeroDivisionError:
                records.append({"cls": "b", "key": "raises", "ms": 0.0, "error": "1 // 0"})
            return records

    out = tool.count_pass(Workload())
    assert out == tool.count_pass(Workload())
    assert out["operations"] == {"a": 2, "b": 2} and out["errors"] == 1
    assert out["ops"]["a"] > out["ops"]["b"] > 0
    work = out["work"]
    # the counted pass is the second over the same objects: memo answers only
    calls = work["b"]["check_clauses"]
    assert calls >= 2 and work["a"]["check_clauses"] == 2 * calls
    assert work["a"]["memo_answers"] == 2 * calls and work["b"]["memo_answers"] == calls
    assert work["a"]["tuples_checked"] == 2 * work["b"]["tuples_checked"] > 0


class FreshBatteries:
    """A workload of one battery of fresh objects per class, so every pass
    checks cold."""

    def prepare(self):
        pass

    def timed(self, fn):
        return fn(), 0.0, 0.0

    def run_pass(self):
        records = []
        for cls in ("a", "b"):
            a = _kx2()
            _, t0, ms = self.timed(lambda: _battery(a))
            records.append({"cls": cls, "key": cls, "t0": t0, "ms": ms})
        return records


def test_count_pass_lists_the_code_objects_that_ran_the_most():
    import re

    tool = _opcount()
    out = tool.count_pass(FreshBatteries(), functions=5)
    assert out == tool.count_pass(FreshBatteries(), functions=5)  # the counts repeat exactly
    assert out["ops"] == tool.count_pass(FreshBatteries())["ops"]
    assert set(out["functions"]) == {"a", "b"}
    for cls, top in out["functions"].items():
        counts = [n for _, n in top]
        assert len(top) == 5 and counts == sorted(counts, reverse=True) and counts[-1] > 0
        assert sum(counts) <= out["ops"][cls]
        assert all(re.fullmatch(r"\S+\.py:\d+ \S+", label) for label, _ in top)
        assert any(label.startswith("src/homalg/engine.py:") for label, _ in top)
    # every code object listed: the counts add up to the class total
    every = tool.count_pass(FreshBatteries(), functions=10 ** 6)
    assert {cls: sum(n for _, n in top) for cls, top in every["functions"].items()} == out["ops"]


def test_count_pass_counts_the_same_whatever_checks_ran_before_it():
    # seeded histories of batteries kept alive, checked and dropped, dropped
    # at once, and counted: a fresh object that takes the id of a dropped one
    # must not meet a verdict memo entry left for it
    import random

    tool = _opcount()
    want = tool.count_pass(FreshBatteries())["ops"]
    rng = random.Random(0)
    got = []
    for _ in range(24):
        alive = []
        for _ in range(rng.randint(3, 10)):
            step = rng.choice("kdxc")
            if step == "k":
                alive.append(_kx2())
                _battery(alive[-1])
            elif step == "d":
                _battery(_kx2())
            elif step == "x":
                alive.clear()
            else:
                tool.count_pass(FreshBatteries())
        del alive
        got.append(tool.count_pass(FreshBatteries())["ops"])
    assert got == [want] * len(got)


class KeyedBatteries:
    """Fresh batteries under two keys of class a, one of them run twice, and
    one key of class b."""

    def prepare(self):
        pass

    def timed(self, fn):
        return fn(), 0.0, 0.0

    def run_pass(self):
        records = []
        for cls, key in (("a", "first"), ("b", "first"), ("a", "second"), ("a", "first")):
            a = _kx2()
            _, t0, ms = self.timed(lambda: _battery(a))
            records.append({"cls": cls, "key": key, "t0": t0, "ms": ms})
        return records


def test_count_pass_lists_the_instructions_of_each_operation_key():
    tool = _opcount()
    out = tool.count_pass(KeyedBatteries())
    assert out == tool.count_pass(KeyedBatteries())  # the counts repeat exactly
    items = out["items"]
    assert {cls: set(keys) for cls, keys in items.items()} == {"a": {"first", "second"},
                                                               "b": {"first"}}
    # the per-key counts add up to each class total; a key run twice adds both runs
    assert {cls: sum(keys.values()) for cls, keys in items.items()} == out["ops"]
    assert items["a"]["first"] == 2 * items["b"]["first"] > 0

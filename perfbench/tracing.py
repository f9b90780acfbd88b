"""The traced run: spans around homalg's public functions, counters on the
`exact` hot methods, and the per-layer metrics derived from them.

Everything is installed from the benchmark's side by rebinding names; homalg
itself is not edited.  Because homalg binds names with `from .x import y`,
every module that holds a reference to a wrapped function is patched, not
only the defining one (e.g. `certify` lives in varieties, constructions,
reps, forge, cli and the package namespace).

A span is [name, start, end, parent index, info, child seconds].  Child
seconds are the parts of its interval covered by child spans, by outermost
`exact` calls and by the tracer's own bookkeeping, so self time is
end - start - child seconds.  Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from statistics import mean

perf = time.perf_counter

# (module, function, span name); the layer is the span name's first part
SPANS = (
    ("engine", "check_schema", "engine.check_schema"),
    ("varieties", "certify", "varieties.certify"),
    ("varieties", "certify_multiplicative", "varieties.certify_multiplicative"),
    ("varieties", "is_morphism", "varieties.is_morphism"),
    ("reps", "certify_rep", "reps.certify_rep"),
    ("reps", "tensor_square_bimodule", "constructions.tensor_square_bimodule"),
    ("operators", "certify_operator", "operators.certify_operator"),
    ("constructions", "hemisemi", "constructions.hemisemi"),
    ("constructions", "induce", "constructions.induce"),
    ("constructions", "functor", "constructions.functor"),
    ("constructions", "yau_twist", "constructions.yau_twist"),
    ("constructions", "graph_closure", "constructions.graph_closure"),
    ("forge", "catalog", "forge.catalog"),
    ("forge", "sample_operator_candidates", "forge.sample_operator_candidates"),
    ("forge", "find_endomorphisms", "forge.find_endomorphisms"),
    ("dsl", "parse", "dsl.parse"),
    ("dsl", "serialize", "dsl.serialize"),
    ("cli", "main", "cli.main"),
)
BUILDS = {"constructions.hemisemi", "constructions.induce", "constructions.functor",
          "constructions.yau_twist", "constructions.tensor_square_bimodule"}
CERTIFIERS = {"varieties.certify", "varieties.certify_multiplicative", "varieties.is_morphism",
              "reps.certify_rep", "operators.certify_operator"}
# exact methods: counted and timed in aggregate, never as spans
EXACT = (
    ("StructureTensor", "apply", "exact.tensor_apply.calls"),
    ("LinearMap", "apply", "exact.map_apply.calls"),
    ("LinearMap", "compose", "exact.map_compose.calls"),
    ("Vector", "__eq__", "exact.vector_eq.calls"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {name: 0 for _, _, name in EXACT}
        self.exact_s = 0.0
        self.in_exact = False
        self.unique = set()
        self._undo = []

    # -- installation ------------------------------------------------------

    def install(self):
        for modname, _, _ in SPANS:
            importlib.import_module(f"homalg.{modname}")
        mods = [m for n, m in sys.modules.items() if n == "homalg" or n.startswith("homalg.")]
        for modname, fname, span in SPANS:
            original = getattr(sys.modules[f"homalg.{modname}"], fname)
            wrapper = self._span(span, original, _INFO.get(span))
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, attr, wrapper)
        exact = sys.modules["homalg.exact"]
        for cls_name, meth, counter in EXACT:
            cls = getattr(exact, cls_name)
            self._set(cls, meth, self._counted(counter, vars(cls)[meth]))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span(self, name, fn, info):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += span[2] - t0
            if info is not None:
                self.in_exact = True   # bookkeeping must not count as exact work
                try:
                    span[4] = info(self, args, result)
                finally:
                    self.in_exact = False
                if parent >= 0:
                    spans[parent][5] += perf() - span[2]
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, counter, fn):
        counts, stack, spans = self.counts, self.stack, self.spans

        def wrapper(*args):
            if self.in_exact:
                return fn(*args)
            counts[counter] += 1
            self.in_exact = True
            t0 = perf()
            try:
                return fn(*args)
            finally:
                dt = perf() - t0
                self.in_exact = False
                self.exact_s += dt
                if stack:
                    spans[stack[-1]][5] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, default=str) + "\n")

    def layer_metrics(self):
        spans = self.spans

        def by(name):
            return [s for s in spans if s[0] == name]

        def self_s(group):
            return sum(s[2] - s[1] - s[5] for s in group)

        def dur(group):
            return sum(s[2] - s[1] for s in group)

        def info_sum(group, field):
            return sum(s[4][field] for s in group if s[4])

        checks = by("engine.check_schema")
        m = dict(self.counts)
        m["exact.self_s"] = self.exact_s
        m["engine.check_schema.calls"] = len(checks)
        m["engine.check_schema.tuples"] = info_sum(checks, "tuples")
        m["engine.check_schema.self_s"] = self_s(checks)
        for kind, flag in (("polarized", True), ("multilinear", False)):
            group = [s for s in checks if s[4]["polarized"] is flag]
            tuples = info_sum(group, "tuples")
            m[f"engine.{kind}.us_per_tuple"] = dur(group) / tuples * 1e6 if tuples else 0.0
        fails = [s[4]["tuples"] for s in checks if s[4]["status"] != "pass"]
        m["engine.fail.tuples_to_witness"] = mean(fails) if fails else 0.0
        m["engine.check_schema.unique_share"] = len(self.unique) / len(checks) if checks else 0.0
        for name in ("varieties.certify", "reps.certify_rep", "operators.certify_operator",
                     "varieties.is_morphism", "constructions.graph_closure"):
            group = by(name)
            m[f"{name}.calls"] = len(group)
            m[f"{name}.self_s"] = self_s(group)
        m["operators.certify_operator.pairs"] = info_sum(by("operators.certify_operator"),
                                                         "tuples")
        m["varieties.is_morphism.pairs"] = info_sum(by("varieties.is_morphism"), "tuples")
        builds = [i for i, s in enumerate(spans) if s[0] in BUILDS]
        m["constructions.build.self_s"] = self_s([spans[i] for i in builds])
        build_set = set(builds)
        m["constructions.gate_checks"] = sum(
            1 for s in spans if s[0] in CERTIFIERS and s[3] in build_set)
        for name in ("forge.catalog", "forge.sample_operator_candidates",
                     "forge.find_endomorphisms"):
            m[f"{name}.s"] = dur(by(name))
        for name in ("dsl.parse", "dsl.serialize"):
            group = by(name)
            m[f"{name}.calls"] = len(group)
            m[f"{name}.s"] = dur(group)
            m[f"{name}.bytes"] = info_sum(group, "bytes")
        m["cli.main.self_s"] = self_s(by("cli.main"))
        return m

    def check_coverage(self):
        """Tuples of the check_schema spans directly under each certify and
        certify_rep span must add up to that certifier's tuples_checked."""
        under = {}
        for s in self.spans:
            if s[0] == "engine.check_schema" and s[3] >= 0:
                under[s[3]] = under.get(s[3], 0) + s[4]["tuples"]
        bad, checked = [], 0
        for i, s in enumerate(self.spans):
            if s[0] in ("varieties.certify", "reps.certify_rep"):
                checked += 1
                if under.get(i, 0) != s[4]["tuples"]:
                    bad.append(f"span {i} {s[0]}: schemas enumerated {under.get(i, 0)} tuples,"
                               f" report says {s[4]['tuples']}")
        return checked, bad


# -- per-span info, computed after the span's end ---------------------------


def _report_info(tracer, args, report):
    return {"tuples": report.tuples_checked, "status": report.status}


def _check_info(tracer, args, report):
    schema, interp = args[0], args[1]
    tracer.unique.add((
        schema.name, repr(schema.lhs), repr(schema.rhs),
        tuple(sorted(interp.sorts.items())),
        tuple(sorted((k, v) for k, v in interp.ops.items())),
        tuple(sorted((k, v) for k, v in interp.maps.items())),
    ))
    return {"tuples": report.tuples_checked, "status": report.status,
            "polarized": not schema.is_multilinear()}


def _parse_info(tracer, args, result):
    return {"bytes": len(args[0].encode("utf-8"))}


def _serialize_info(tracer, args, text):
    return {"bytes": len(text.encode("utf-8"))}


_INFO = {
    "engine.check_schema": _check_info,
    "varieties.certify": _report_info,
    "varieties.certify_multiplicative": _report_info,
    "varieties.is_morphism": _report_info,
    "reps.certify_rep": _report_info,
    "operators.certify_operator": _report_info,
    "constructions.graph_closure": _report_info,
    "dsl.parse": _parse_info,
    "dsl.serialize": _serialize_info,
}

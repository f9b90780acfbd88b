"""Command-line surface: certify, construct, and report over .halg files.

Machine output is one self-delimiting JSON record per line; a human summary
is available behind --summary.  Exit codes: 0 all checks pass, 1 at least
one identity failure (or inadmissible operator), 2 parse error, an input
file that cannot be read (missing, a directory, unreadable, not UTF-8) or a
construct output that cannot be written, 3 semantic error.  Read, write,
parse and semantic errors of the files are one JSON line on stderr,
{"error": "read" | "write" | "parse" | "semantic", "detail": ...}.
A stdout closed by its reader ends the run with status 1 and nothing on
stderr, and so does a run started without a stdout (`homalg report F >&-`),
which runs no command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .dsl import (
    Declaration,
    DslSemanticError,
    DslSyntaxError,
    SourceFile,
    parse,
    serialize,
)
from .engine import CheckReport, SemanticError, check_schema, check_schema_random
from .exact import ShapeError
from .operators import OPERATOR_KINDS, certify_operator, operator_kinds_for
from .reps import (
    AssocAction,
    AssocBimodule,
    CertificationError,
    certify_rep,
    direct_sum,
    regular,
    semidirect_product,
    tensor_square_bimodule,
)
from .varieties import (
    REQUIRED_PRODUCTS,
    AlgebraInstance,
    VarietyTag,
    certify,
    certify_multiplicative,
    schemas_for,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3

# construct ids that build a rep over --target, from the algebra and --n
_REP_BUILDERS = {
    "regular-bimodule": lambda a, n: regular(a, AssocBimodule),
    "regular-action": lambda a, n: regular(a, AssocAction),
    "tensor-square": lambda a, n: tensor_square_bimodule(a),
    "direct-sum": lambda a, n: direct_sum(a, n, AssocAction),
}


def _witness_json(w):
    doc = {
        "identity": w.identity,
        "tuple": [i + 1 for i in w.indices],
        "lhs": [str(c) for c in w.lhs_value.coords],
        "rhs": [str(c) for c in w.rhs_value.coords],
    }
    slots = [sort for _, sort in w.variables]
    if any(s != "A" for s in slots):
        doc["slots"] = ["u" if s == "V" else "e" for s in slots]
    return doc


def _record(target: str, check: str, report: CheckReport, ms: float) -> dict:
    doc = {"target": target, "check": check, "status": report.status, "ms": round(ms, 3)}
    if report.witness is not None:
        doc["witness"] = _witness_json(report.witness)
    if report.detail:
        doc["detail"] = report.detail
    return doc


class _Emitter:
    def __init__(self, summary: bool, out=None):
        self.summary = summary
        self.rows = []
        self.out = out or sys.stdout

    def emit(self, target, check, report, ms):
        self.rows.append(_record(target, check, report, ms))
        if not self.summary:
            print(json.dumps(self.rows[-1], sort_keys=True), file=self.out)

    def error(self, target, check, message):
        report = CheckReport("error", check, detail=message)
        self.emit(target, check, report, 0.0)

    def finish(self) -> int:
        if self.summary:
            width = max([len(r["target"]) for r in self.rows] + [6])
            print(f"{'target':<{width}}  {'check':<40} status", file=self.out)
            for r in self.rows:
                line = f"{r['target']:<{width}}  {r['check']:<40} {r['status']}"
                if "witness" in r:
                    w = r["witness"]
                    line += f"  [{w['identity']} @ {tuple(w['tuple'])}]"
                print(line, file=self.out)
            counts = {}
            for r in self.rows:
                counts[r["status"]] = counts.get(r["status"], 0) + 1
            print("summary:", ", ".join(f"{k}={v}" for k, v in sorted(counts.items())),
                  file=self.out)
        if any(r["status"] == "error" for r in self.rows):
            return EXIT_SEMANTIC
        if any(r["status"] in ("fail", "not-admissible") for r in self.rows):
            return EXIT_FAIL
        return EXIT_PASS


def _timed(fn):
    t0 = time.perf_counter()
    report = fn()
    return report, (time.perf_counter() - t0) * 1000.0


def _load(path: str):
    """The parsed file, or the exit code once its read or DSL error is on stderr."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(json.dumps({"error": "read", "detail": f"{path}: {exc}"}), file=sys.stderr)
        return EXIT_PARSE
    try:
        return parse(text)
    except DslSyntaxError as exc:
        error, code, detail = "parse", EXIT_PARSE, str(exc)
    except DslSemanticError as exc:
        error, code, detail = "semantic", EXIT_SEMANTIC, str(exc)
    print(json.dumps({"error": error, "detail": detail}), file=sys.stderr)
    return code


def _applicable_varieties(a: AlgebraInstance):
    for tag in VarietyTag:
        if all(sym in a.products for sym in REQUIRED_PRODUCTS[tag]):
            yield tag


# ---------------------------------------------------------------------------
# check


def _algebra_targets(args, source: SourceFile):
    """The algebra named by --target, or every algebra of the file."""
    if not args.target:
        return [d for d in source if d.kind == "algebra"]
    d = source.get(args.target)
    if d.kind != "algebra":
        raise SemanticError(f"{d.name!r} is not an algebra")
    return [d]


def _stray(flags, reader):
    """The error for flags given (not None) to a run that does not read them."""
    stray = [flag for flag, v in flags if v is not None]
    if stray:
        verb = "applies" if len(stray) == 1 else "apply"
        return f"{' and '.join(stray)} {verb} to {reader} only"
    return None


def _flag_error(args):
    """Why the flags of a check cannot run as given, or None.

    Each check reads only its own flags, and the branch chain of cmd_check
    runs the first check flag given: anything else would be ignored without
    a trace.
    """
    if args.variety or not args.operator:  # only the --operator branch reads them
        detail = _stray((("--kind", args.kind), ("--weight", args.weight)), "an --operator check")
        if detail:
            return detail
    given = [flag for flag, v in (("--variety", args.variety), ("--operator", args.operator),
                                  ("--rep", args.rep), ("--crossed-module", args.crossed_module),
                                  ("--multiplicative", args.multiplicative))
             if v not in (None, False)]
    if len(given) > 1:
        return f"{' and '.join(given)} are separate checks; give one per run"
    if args.cross_check and args.variety is None:
        return "--cross-check applies to a --variety check only"
    if not (args.variety or args.multiplicative):
        detail = _stray((("--target", args.target),), "a --variety or --multiplicative check")
        if detail:
            return detail
    if not args.cross_check:
        return _stray((("--samples", args.samples), ("--seed", args.seed), ("--grid", args.grid)),
                      "a --cross-check run")
    return None


def cmd_check(args, source: SourceFile) -> int:
    detail = _flag_error(args)
    if detail:
        print(json.dumps({"error": "semantic", "detail": detail}), file=sys.stderr)
        return EXIT_SEMANTIC
    emitter = _Emitter(args.summary)
    try:
        if args.variety:
            try:
                tag = VarietyTag(args.variety)
            except ValueError:
                emitter.error(args.target or "*", f"variety:{args.variety}", "unknown variety tag")
                return emitter.finish()
            if args.cross_check:  # refused before any target is certified
                samples = 50 if args.samples is None else args.samples
                if samples < 1:
                    raise SemanticError(
                        f"a random check needs at least one sample, got {samples}")
                grid = _parse_grid(args.grid)
            for d in _algebra_targets(args, source):
                report, ms = _timed(lambda: certify(d.value, tag))
                emitter.emit(d.name, f"variety:{tag.value}", report, ms)
                if args.cross_check and report.ok:
                    ok = _cross_check(d.value, tag, samples, args.seed or 0, grid)
                    emitter.emit(d.name, f"cross-check:{tag.value}",
                                 CheckReport("pass" if ok else "fail", "cross-check"), 0.0)
        elif args.operator:
            d = source.get(args.operator)
            if d.kind != "operator":
                raise SemanticError(f"{args.operator!r} is not an operator")
            kind = args.kind or "rel-avg"
            if args.weight is not None and kind != "o-operator":
                raise SemanticError("--weight applies to --kind o-operator only")
            try:
                weight = None if args.weight is None else Fraction(args.weight)
            except (ValueError, ZeroDivisionError):
                raise SemanticError(f"--weight expects a rational P/Q, got {args.weight!r}")
            report, ms = _timed(lambda: certify_operator(d.value, kind, weight=weight))
            check = f"operator:{kind}"
            if weight is not None:
                check += f":{weight}"
            emitter.emit(d.name, check, report, ms)
        elif args.rep:
            d = source.get(args.rep)
            if d.kind != "rep":
                raise SemanticError(f"{args.rep!r} is not a rep")
            report, ms = _timed(lambda: certify_rep(d.value))
            emitter.emit(d.name, f"rep:{d.value.kind}", report, ms)
        elif args.crossed_module:
            if not args.crossed_module.startswith("d="):
                raise SemanticError("--crossed-module takes d=OPERATORNAME")
            d = source.get(args.crossed_module[2:])
            if d.kind != "operator":
                raise SemanticError(f"{d.name!r} is not an operator")
            rep = d.value.rep
            if not isinstance(rep, AssocAction):
                raise SemanticError("crossed-module check needs an associative action")
            from .constructions import crossed_module_check

            report, ms = _timed(
                lambda: crossed_module_check(rep.base, rep, d.value.map)
            )
            emitter.emit(d.name, "crossed-module", report, ms)
        elif args.multiplicative:
            for d in _algebra_targets(args, source):
                report, ms = _timed(lambda: certify_multiplicative(d.value))
                emitter.emit(d.name, "multiplicative", report, ms)
        else:
            raise SemanticError("no check requested; use --variety/--operator/--rep/"
                                "--crossed-module/--multiplicative")
    except KeyError as exc:
        emitter.error(str(exc.args[0]), "lookup", f"no declaration named {exc.args[0]!r}")
    except (SemanticError, ShapeError) as exc:
        emitter.error(args.target or "*", "check", str(exc))
    return emitter.finish()


def _parse_grid(spec: str | None):
    """--grid N/D draws coordinates with numerators -N..N over denominators 1..D."""
    if not spec:
        return None, None
    try:
        n_txt, d_txt = spec.split("/", 1)
        n, d = int(n_txt), int(d_txt)
        if n < 1 or d < 1:
            raise ValueError
    except ValueError:
        raise SemanticError(f"--grid expects N/D with positive integers, got {spec!r}")
    return tuple(range(-n, n + 1)), tuple(range(1, d + 1))


def _cross_check(a: AlgebraInstance, tag: VarietyTag, samples: int, seed: int,
                 grid=(None, None)) -> bool:
    numerators, denominators = grid
    interp = a.interpretation()
    for schema in schemas_for(tag):
        exact = check_schema(schema, interp)
        for s in range(seed, seed + 5):
            rand = check_schema_random(schema, interp, samples, s,
                                       numerators=numerators,
                                       denominators=denominators)
            if rand.ok != exact.ok:
                return False
    return True


# ---------------------------------------------------------------------------
# construct


def cmd_construct(args, source: SourceFile) -> int:
    def need(flag):
        value = getattr(args, flag)
        if value is None:
            raise SemanticError(f"construction {args.id!r} needs --{flag}")
        return value

    def given(flag):
        return source.get(need(flag)).value

    from .constructions import (
        FUNCTORS,
        HEMISEMI,
        INDUCED,
        ConstructionId,
        bimodule_map_dialgebra,
        differential_dialgebra,
        functor,
        hemisemi,
        induce,
        yau_twist,
    )

    try:
        cid = args.id
        if cid in _REP_BUILDERS:
            base = given("target")
            rep = _REP_BUILDERS[cid](base, args.n)
            rep_name = f"{base.name}-{cid}" if cid != "direct-sum" else f"{base.name}-sum{args.n}"
            decls = [
                Declaration("algebra", base.name, base),
                Declaration("rep", rep_name, rep,
                            meta={"kind": rep.kind, "base": base.name}),
            ]
        else:
            if cid in FUNCTORS:
                out = functor(given("target"), ConstructionId(cid))
            elif cid in HEMISEMI:
                out = hemisemi(given("rep"), ConstructionId(cid))
            elif cid in INDUCED:
                out = induce(given("operator"), ConstructionId(cid))
            elif cid == "yau-twist":
                out = yau_twist(given("target"), need("map"))
            elif cid == "differential-dialgebra":
                out = differential_dialgebra(given("target"), need("map"))
            elif cid == "bimodule-map-dialgebra":
                cand = given("operator")
                out = bimodule_map_dialgebra(cand.rep, cand.map)
            elif cid == "semidirect":
                out = semidirect_product(given("rep"))
            else:
                raise SemanticError(f"unknown construction id {args.id!r}")
            decls = [Declaration("algebra", out.name, out)]
    except KeyError as exc:
        print(json.dumps({"error": "semantic",
                          "detail": f"no declaration named {exc.args[0]!r}"}),
              file=sys.stderr)
        return EXIT_SEMANTIC
    except CertificationError as exc:
        doc = {"error": "construction", "detail": str(exc)}
        if exc.report is not None and exc.report.witness is not None:
            doc["witness"] = _witness_json(exc.report.witness)
        print(json.dumps(doc), file=sys.stderr)
        return EXIT_SEMANTIC
    except (SemanticError, ShapeError) as exc:
        print(json.dumps({"error": "semantic", "detail": str(exc)}), file=sys.stderr)
        return EXIT_SEMANTIC

    header = f"constructed: {args.id} from {args.file}"
    text = serialize(SourceFile(decls), header=header)
    parse(text)  # round-trip guard before anything touches disk
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(json.dumps({"error": "write", "detail": f"{args.out}: {exc}"}), file=sys.stderr)
        return EXIT_PARSE
    print(json.dumps({"written": args.out, "declarations": [d.name for d in decls]}))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# report


def cmd_report(args, source: SourceFile) -> int:
    """Every applicable certification; one that cannot run (a rep over an
    algebra without the products its kind reads) is an error row."""
    emitter = _Emitter(args.summary)

    def run(target, check, certifier):
        try:
            report, ms = _timed(certifier)
        except (SemanticError, ShapeError) as exc:
            emitter.error(target, check, str(exc))
        else:
            emitter.emit(target, check, report, ms)

    for d in source:
        if d.kind == "algebra":
            for tag in _applicable_varieties(d.value):
                run(d.name, f"variety:{tag.value}", lambda: certify(d.value, tag))
            run(d.name, "multiplicative", lambda: certify_multiplicative(d.value))
        elif d.kind == "rep":
            run(d.name, f"rep:{d.value.kind}", lambda: certify_rep(d.value))
        else:
            for kind in operator_kinds_for(d.value.rep):
                run(d.name, f"operator:{kind}", lambda: certify_operator(d.value, kind))
    return emitter.finish()


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="homalg",
        description="certify twisted algebraic structures defined by structure constants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run one certification against a file")
    p_check.add_argument("file")
    p_check.add_argument("--target", help="declaration to check (default: all applicable)")
    p_check.add_argument("--variety", help="variety tag to certify")
    p_check.add_argument("--operator", help="operator declaration to certify")
    p_check.add_argument("--kind", choices=OPERATOR_KINDS,
                         help="operator kind for --operator (default: rel-avg)")
    p_check.add_argument("--weight", help="weight P/Q for the o-operator kind")
    p_check.add_argument("--rep", help="representation declaration to certify")
    p_check.add_argument("--crossed-module", help="d=OPERATORNAME")
    p_check.add_argument("--multiplicative", action="store_true",
                         help="check that the twist is an endomorphism")
    p_check.add_argument("--cross-check", action="store_true",
                         help="also sample the un-polarized identities on random vectors")
    p_check.add_argument("--samples", type=int,
                         help="random draws per seed for --cross-check (default: 50)")
    p_check.add_argument("--seed", type=int, help="first seed for --cross-check (default: 0)")
    p_check.add_argument("--grid", help="coordinate pool N/D for --cross-check draws")
    p_check.add_argument("--summary", action="store_true", help="human-readable table")
    p_check.set_defaults(fn=cmd_check)

    p_cons = sub.add_parser("construct", help="run a construction and write a new file")
    p_cons.add_argument("file")
    p_cons.add_argument("--id", required=True, help="construction identifier")
    p_cons.add_argument("--target", help="algebra declaration input")
    p_cons.add_argument("--rep", help="representation declaration input")
    p_cons.add_argument("--operator", help="operator declaration input")
    p_cons.add_argument("--map", help="map name inside the target algebra")
    p_cons.add_argument("--n", type=int, default=2, help="copies for direct-sum")
    p_cons.add_argument("--out", required=True)
    p_cons.set_defaults(fn=cmd_construct)

    p_rep = sub.add_parser("report", help="run every applicable certifier")
    p_rep.add_argument("file")
    p_rep.add_argument("--summary", action="store_true", help="human-readable table")
    p_rep.set_defaults(fn=cmd_report)

    # argparse reads a separated negative fraction ("--weight -1/2") as an
    # option, so such a value is joined to its flag ("--weight=-1/2")
    joined = []
    for tok in sys.argv[1:] if argv is None else argv:
        if joined and joined[-1] == "--weight" and tok[:1] == "-" and tok[1:2].isdigit():
            joined[-1] += "=" + tok
        else:
            joined.append(tok)
    args = parser.parse_args(joined)
    source = _load(args.file)
    if not isinstance(source, SourceFile):
        return source
    if sys.stdout is None:
        return EXIT_FAIL
    try:
        code = args.fn(args, source)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`homalg report F | head`); send what is
        # still buffered to devnull so the interpreter's last flush is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    return code


if __name__ == "__main__":
    sys.exit(main())

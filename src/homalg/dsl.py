"""The line-oriented definition language and its serializer.

A file is a sequence of blocks; `#` starts a comment, omitted products and
map columns are zero:

    algebra NAME dim N [variety TAG]
      op OPNAME: e<i> * e<j> = TERM { + TERM }
      map MAPNAME: e<i> = TERM { + TERM }
    end

    rep NAME over ALG dim M kind (bimodule|action|lie-module|lie-action|
                                  jordan-module|jordan-action)
      lmap l: e<i> * u<j> = ...        rmap r: u<j> * e<i> = ...
      act rho: e<i> * u<j> = ...       act pi: e<i> * u<j> = ...
      map beta: u<i> = ...
      op vmul: u<i> * u<j> = ...       (vbracket, vstar)
    end

    operator NAME: REP -> ALG
      u<i> = TERM { + TERM }

TERM is [RATIONAL *] BASISVEC with RATIONAL = -?INT[/POSINT]; BASISVEC is
e<k> on the algebra sort and u<k> on the representation sort; a bare 0
denotes the zero combination.  Names must be unique per file and forward
references are forbidden.  Every algebra block must define a map named
alpha; every rep block a map named beta.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import LinearMap, StructureTensor
from .operators import OperatorCandidate
from .reps import (
    AssocAction,
    AssocBimodule,
    JordanAction,
    JordanModule,
    LieAction,
    LieModule,
)
from .varieties import AlgebraInstance, VarietyTag


class DslSyntaxError(ValueError):
    """Lexical or grammatical problem; carries the 1-based line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.category = "syntax"


class DslSemanticError(ValueError):
    """Duplicate name, dangling reference, or dimension problem."""

    def __init__(self, line, message, category="semantic"):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.category = category


@dataclass
class Declaration:
    kind: str                  # algebra | rep | operator
    name: str
    value: object
    meta: dict = field(default_factory=dict)


@dataclass
class SourceFile:
    declarations: list

    def __iter__(self):
        return iter(self.declarations)

    def get(self, name: str) -> Declaration:
        for d in self.declarations:
            if d.name == name:
                return d
        raise KeyError(name)

    def names(self):
        return [d.name for d in self.declarations]


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*$")
_RATIONAL = re.compile(r"-?\d+(?:/\d+)?$")
_BASIS = re.compile(r"([eu])(\d+)$")

_REP_KINDS = {
    "bimodule": (AssocBimodule, ("l", "r"), None),
    "action": (AssocAction, ("l", "r"), "vmul"),
    "lie-module": (LieModule, ("rho",), None),
    "lie-action": (LieAction, ("rho",), "vbracket"),
    "jordan-module": (JordanModule, ("pi",), None),
    "jordan-action": (JordanAction, ("pi",), "vstar"),
}


def _parse_rational(tok, line):
    if not _RATIONAL.match(tok):
        raise DslSyntaxError(line, f"expected a rational number, got {tok!r}")
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise DslSyntaxError(line, f"zero denominator in {tok!r}") from None


def _parse_basis(tok, line):
    m = _BASIS.match(tok)
    if not m:
        raise DslSyntaxError(line, f"expected a basis vector like e1 or u2, got {tok!r}")
    return m.group(1), int(m.group(2))


def _parse_terms(text, line, sort, dim):
    """Parse 'TERM + TERM + ...' (or '0') into a dense coefficient list."""
    out = [Fraction(0)] * dim
    text = text.strip()
    if text == "0":
        return out
    if not text:
        raise DslSyntaxError(line, "empty right-hand side")
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise DslSyntaxError(line, "empty term in sum")
        if "*" in chunk:
            coeff_txt, basis_txt = (p.strip() for p in chunk.split("*", 1))
            coeff = _parse_rational(coeff_txt, line)
        else:
            coeff, basis_txt = Fraction(1), chunk
        prefix, idx = _parse_basis(basis_txt, line)
        if prefix != sort:
            raise DslSemanticError(
                line, f"term {chunk!r} has sort {prefix!r}, expected {sort!r}",
                category="dimension",
            )
        if not 1 <= idx <= dim:
            raise DslSemanticError(
                line, f"basis index {prefix}{idx} out of range 1..{dim}",
                category="dimension",
            )
        out[idx - 1] += coeff
    return out


class _Block:
    """Accumulates op rows and map columns for one declaration block."""

    def __init__(self):
        self.ops = {}
        self.maps = {}

    def set_op(self, name, key, value, line):
        rows = self.ops.setdefault(name, {})
        if key in rows:
            raise DslSemanticError(line, f"duplicate row for op {name!r} at {key}")
        rows[key] = value

    def set_map(self, name, idx, value, line):
        cols = self.maps.setdefault(name, {})
        if idx in cols:
            raise DslSemanticError(line, f"duplicate column for map {name!r} at index {idx}")
        cols[idx] = value


def _lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield lineno, stripped


def parse(text: str) -> SourceFile:
    """Parse a definition file into resolved declarations, in order."""
    decls = []
    seen = {}

    def declare(decl, line):
        if decl.name in seen:
            raise DslSemanticError(line, f"duplicate name {decl.name!r}", category="duplicate")
        seen[decl.name] = decl
        decls.append(decl)

    def lookup(name, want_kind, line):
        if name not in seen:
            raise DslSemanticError(line, f"reference to undeclared {name!r}",
                                   category="dangling")
        d = seen[name]
        if d.kind != want_kind:
            raise DslSemanticError(line, f"{name!r} is a {d.kind}, expected {want_kind}")
        return d

    stream = list(_lines(text))
    pos = 0
    while pos < len(stream):
        lineno, line = stream[pos]
        head = line.split()
        if head[0] == "algebra":
            pos, decl = _parse_algebra(stream, pos)
            declare(decl, lineno)
        elif head[0] == "rep":
            pos, decl = _parse_rep(stream, pos, lookup)
            declare(decl, lineno)
        elif head[0] == "operator":
            pos, decl = _parse_operator(stream, pos, lookup)
            declare(decl, lineno)
        else:
            raise DslSyntaxError(lineno, f"expected a block header, got {line!r}")
    return SourceFile(decls)


def _check_name(tok, line):
    if not _NAME.match(tok):
        raise DslSyntaxError(line, f"bad name {tok!r}")
    return tok


def _parse_int(tok, line, what):
    if not (tok.isascii() and tok.isdigit()) or int(tok) <= 0:
        raise DslSyntaxError(line, f"bad {what} {tok!r}")
    return int(tok)


def _split_decl_line(line, lineno):
    if ":" not in line:
        raise DslSyntaxError(lineno, f"missing ':' in {line!r}")
    head, rest = line.split(":", 1)
    if "=" not in rest:
        raise DslSyntaxError(lineno, f"missing '=' in {line!r}")
    lhs, rhs = rest.split("=", 1)
    return head.split(), lhs.strip(), rhs.strip()


def _parse_algebra(stream, pos):
    lineno, header = stream[pos]
    toks = header.split()
    variety = None
    if len(toks) == 6 and toks[4] == "variety":
        try:
            variety = VarietyTag(toks[5])
        except ValueError:
            raise DslSemanticError(lineno, f"unknown variety tag {toks[5]!r}")
        toks = toks[:4]
    if len(toks) != 4 or toks[2] != "dim":
        raise DslSyntaxError(lineno, "expected 'algebra NAME dim N [variety TAG]'")
    name = _check_name(toks[1], lineno)
    dim = _parse_int(toks[3], lineno, "dimension")
    block = _Block()
    pos += 1
    while True:
        if pos >= len(stream):
            raise DslSyntaxError(lineno, f"algebra {name!r} has no 'end'")
        ln, line = stream[pos]
        if line == "end":
            pos += 1
            break
        head, lhs, rhs = _split_decl_line(line, ln)
        if head[0] == "op" and len(head) == 2:
            opname = _check_name(head[1], ln)
            parts = [p.strip() for p in lhs.split("*")]
            if len(parts) != 2:
                raise DslSyntaxError(ln, "op row needs 'e<i> * e<j>'")
            (s1, i), (s2, j) = _parse_basis(parts[0], ln), _parse_basis(parts[1], ln)
            if s1 != "e" or s2 != "e":
                raise DslSemanticError(ln, "algebra products act on e-vectors")
            for idx in (i, j):
                if not 1 <= idx <= dim:
                    raise DslSemanticError(ln, f"basis index e{idx} out of range 1..{dim}",
                                           category="dimension")
            block.set_op(opname, (i - 1, j - 1), _parse_terms(rhs, ln, "e", dim), ln)
        elif head[0] == "map" and len(head) == 2:
            mapname = _check_name(head[1], ln)
            s, i = _parse_basis(lhs, ln)
            if s != "e" or not 1 <= i <= dim:
                raise DslSemanticError(ln, f"bad map column {lhs!r}", category="dimension")
            block.set_map(mapname, i - 1, _parse_terms(rhs, ln, "e", dim), ln)
        else:
            raise DslSyntaxError(ln, f"unexpected line in algebra block: {line!r}")
        pos += 1
    if "alpha" not in block.maps:
        raise DslSemanticError(lineno, f"algebra {name!r} lacks the twist map 'alpha'")
    products = {
        sym: StructureTensor.from_rule(dim, dim, dim, rows)
        for sym, rows in block.ops.items()
    }
    maps = {
        sym: LinearMap.from_columns(
            [cols.get(i, [0] * dim) for i in range(dim)], dim
        )
        for sym, cols in block.maps.items()
    }
    value = AlgebraInstance(name, dim, products, maps, variety)
    return pos, Declaration("algebra", name, value)


def _parse_rep(stream, pos, lookup):
    lineno, header = stream[pos]
    toks = header.split()
    if len(toks) != 8 or toks[2] != "over" or toks[4] != "dim" or toks[6] != "kind":
        raise DslSyntaxError(lineno, "expected 'rep NAME over ALG dim M kind KIND'")
    name = _check_name(toks[1], lineno)
    base = lookup(toks[3], "algebra", lineno).value
    vdim = _parse_int(toks[5], lineno, "dimension")
    kind = toks[7]
    if kind not in _REP_KINDS:
        raise DslSemanticError(lineno, f"unknown rep kind {kind!r}")
    cls, action_names, vprod_name = _REP_KINDS[kind]
    block = _Block()
    pos += 1
    while True:
        if pos >= len(stream):
            raise DslSyntaxError(lineno, f"rep {name!r} has no 'end'")
        ln, line = stream[pos]
        if line == "end":
            pos += 1
            break
        head, lhs, rhs = _split_decl_line(line, ln)
        parts = [p.strip() for p in lhs.split("*")]
        if head[0] in ("lmap", "act") and len(head) == 2:
            keyword, actname = head
            if keyword == "lmap" and actname != "l":
                raise DslSemanticError(ln, "lmap must be named 'l'")
            if keyword == "act" and actname not in ("rho", "pi"):
                raise DslSemanticError(ln, "act must be named 'rho' or 'pi'")
            if len(parts) != 2:
                raise DslSyntaxError(ln, f"{keyword} row needs 'e<i> * u<j>'")
            (s1, i), (s2, j) = _parse_basis(parts[0], ln), _parse_basis(parts[1], ln)
            if (s1, s2) != ("e", "u"):
                raise DslSemanticError(ln, f"{keyword} rows read 'e<i> * u<j>'")
            _range_check(i, base.dim, ln, "e")
            _range_check(j, vdim, ln, "u")
            block.set_op(actname, (i - 1, j - 1), _parse_terms(rhs, ln, "u", vdim), ln)
        elif head[0] == "rmap" and len(head) == 2:
            if head[1] != "r":
                raise DslSemanticError(ln, "rmap must be named 'r'")
            if len(parts) != 2:
                raise DslSyntaxError(ln, "rmap row needs 'u<j> * e<i>'")
            (s1, j), (s2, i) = _parse_basis(parts[0], ln), _parse_basis(parts[1], ln)
            if (s1, s2) != ("u", "e"):
                raise DslSemanticError(ln, "rmap rows read 'u<j> * e<i>'")
            _range_check(i, base.dim, ln, "e")
            _range_check(j, vdim, ln, "u")
            block.set_op("r", (i - 1, j - 1), _parse_terms(rhs, ln, "u", vdim), ln)
        elif head[0] == "map" and len(head) == 2:
            if head[1] != "beta":
                raise DslSemanticError(ln, "rep blocks define only the map 'beta'")
            s, i = _parse_basis(lhs, ln)
            if s != "u":
                raise DslSemanticError(ln, "beta columns are u-vectors")
            _range_check(i, vdim, ln, "u")
            block.set_map("beta", i - 1, _parse_terms(rhs, ln, "u", vdim), ln)
        elif head[0] == "op" and len(head) == 2:
            opname = head[1]
            if vprod_name is None or opname != vprod_name:
                raise DslSemanticError(ln, f"rep kind {kind!r} does not take op {opname!r}")
            if len(parts) != 2:
                raise DslSyntaxError(ln, f"op row needs 'u<i> * u<j>'")
            (s1, i), (s2, j) = _parse_basis(parts[0], ln), _parse_basis(parts[1], ln)
            if (s1, s2) != ("u", "u"):
                raise DslSemanticError(ln, "rep products act on u-vectors")
            _range_check(i, vdim, ln, "u")
            _range_check(j, vdim, ln, "u")
            block.set_op(opname, (i - 1, j - 1), _parse_terms(rhs, ln, "u", vdim), ln)
        else:
            raise DslSyntaxError(ln, f"unexpected line in rep block: {line!r}")
        pos += 1
    if "beta" not in block.maps:
        raise DslSemanticError(lineno, f"rep {name!r} lacks the twist map 'beta'")
    beta = LinearMap.from_columns(
        [block.maps["beta"].get(i, [0] * vdim) for i in range(vdim)], vdim
    )

    def action(sym):
        rows = block.ops.get(sym, {})
        return StructureTensor.from_rule(base.dim, vdim, vdim, rows)

    def vprod(sym):
        rows = block.ops.get(sym, {})
        return StructureTensor.from_rule(vdim, vdim, vdim, rows)

    extra = {}
    if vprod_name is not None:
        extra[vprod_name] = vprod(vprod_name)
    value = cls(base, vdim, *(action(sym) for sym in action_names), beta, **extra)
    return pos, Declaration("rep", name, value, meta={"kind": kind, "base": base.name})


def _range_check(idx, dim, line, prefix):
    if not 1 <= idx <= dim:
        raise DslSemanticError(line, f"basis index {prefix}{idx} out of range 1..{dim}",
                               category="dimension")


def _parse_operator(stream, pos, lookup):
    lineno, header = stream[pos]
    m = re.match(r"operator\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$", header)
    if not m:
        raise DslSyntaxError(lineno, "expected 'operator NAME: REP -> ALG'")
    name = _check_name(m.group(1), lineno)
    rep_decl = lookup(m.group(2), "rep", lineno)
    alg_decl = lookup(m.group(3), "algebra", lineno)
    rep = rep_decl.value
    if rep.base.name != alg_decl.name:
        raise DslSemanticError(
            lineno, f"operator target {alg_decl.name!r} is not the base of {rep_decl.name!r}"
        )
    cols = {}
    pos += 1
    while pos < len(stream):
        ln, line = stream[pos]
        if line == "end":
            pos += 1
            break
        if "=" not in line or line.split()[0] in ("algebra", "rep", "operator"):
            raise DslSyntaxError(ln, f"operator {name!r} has no 'end'")
        lhs, rhs = (p.strip() for p in line.split("=", 1))
        s, i = _parse_basis(lhs, ln)
        if s != "u":
            raise DslSemanticError(ln, "operator columns are u-vectors")
        _range_check(i, rep.v_dim, ln, "u")
        if i - 1 in cols:
            raise DslSemanticError(ln, f"duplicate column u{i}")
        cols[i - 1] = _parse_terms(rhs, ln, "e", rep.base.dim)
        pos += 1
    else:
        raise DslSyntaxError(lineno, f"operator {name!r} has no 'end'")
    mat = LinearMap.from_columns(
        [cols.get(i, [0] * rep.base.dim) for i in range(rep.v_dim)], rep.base.dim
    )
    value = OperatorCandidate(rep, mat)
    return pos, Declaration(
        "operator", name, value, meta={"rep": rep_decl.name, "algebra": alg_decl.name}
    )


# ---------------------------------------------------------------------------
# serialization


def _fmt_terms(coeffs, prefix):
    parts = []
    for idx, c in enumerate(coeffs, start=1):
        if c == 0:
            continue
        if c == 1:
            parts.append(f"{prefix}{idx}")
        else:
            parts.append(f"{c} * {prefix}{idx}")
    return " + ".join(parts) if parts else "0"


def _emit_tensor(lines, keyword, sym, tensor, lp, rp, op, swap=False):
    wrote = False
    coeffs = tensor.coeffs
    for i in range(tensor.left_dim):
        for j in range(tensor.right_dim):
            row = coeffs[i][j]
            if not any(row):
                continue
            wrote = True
            if swap:
                lhs = f"{rp}{j + 1} * {lp}{i + 1}"
            else:
                lhs = f"{lp}{i + 1} * {rp}{j + 1}"
            lines.append(f"  {keyword} {sym}: {lhs} = {_fmt_terms(row, op)}")
    if not wrote:
        lhs = f"{rp}1 * {lp}1" if swap else f"{lp}1 * {rp}1"
        lines.append(f"  {keyword} {sym}: {lhs} = 0")


def _emit_map(lines, sym, linmap, prefix):
    wrote = False
    matrix = linmap.matrix
    for j in range(linmap.src_dim):
        col = [matrix[i][j] for i in range(linmap.dst_dim)]
        if not any(col):
            continue
        wrote = True
        lines.append(f"  map {sym}: {prefix}{j + 1} = {_fmt_terms(col, prefix)}")
    if not wrote:
        lines.append(f"  map {sym}: {prefix}1 = 0")


def serialize_algebra(a: AlgebraInstance) -> str:
    head = f"algebra {a.name} dim {a.dim}"
    if a.variety is not None:
        head += f" variety {a.variety.value}"
    lines = [head]
    for sym in sorted(a.products):
        _emit_tensor(lines, "op", sym, a.products[sym], "e", "e", "e")
    for sym in sorted(a.maps, key=lambda s: (s != "alpha", s)):
        _emit_map(lines, sym, a.maps[sym], "e")
    lines.append("end")
    return "\n".join(lines)


def serialize_rep(name: str, rep) -> str:
    lines = [f"rep {name} over {rep.base.name} dim {rep.v_dim} kind {rep.kind}"]
    if isinstance(rep, AssocBimodule):
        _emit_tensor(lines, "lmap", "l", rep.l, "e", "u", "u")
        _emit_tensor(lines, "rmap", "r", rep.r, "e", "u", "u", swap=True)
    elif isinstance(rep, LieModule):
        _emit_tensor(lines, "act", "rho", rep.rho, "e", "u", "u")
    elif isinstance(rep, JordanModule):
        _emit_tensor(lines, "act", "pi", rep.pi, "e", "u", "u")
    _emit_map(lines, "beta", rep.beta, "u")
    for sym, tensor in sorted(rep.v_ops().items()):
        _emit_tensor(lines, "op", sym, tensor, "u", "u", "u")
    lines.append("end")
    return "\n".join(lines)


def serialize_operator(name: str, rep_name: str, candidate: OperatorCandidate) -> str:
    rep = candidate.rep
    lines = [f"operator {name}: {rep_name} -> {rep.base.name}"]
    wrote = False
    matrix = candidate.map.matrix
    for j in range(rep.v_dim):
        col = [matrix[i][j] for i in range(candidate.map.dst_dim)]
        if not any(col):
            continue
        wrote = True
        lines.append(f"  u{j + 1} = {_fmt_terms(col, 'e')}")
    if not wrote:
        lines.append("  u1 = 0")
    lines.append("end")
    return "\n".join(lines)


def serialize(source: SourceFile, header: str = "") -> str:
    """Render declarations back to canonical DSL text; round-trips through parse."""
    chunks = []
    if header:
        chunks.extend(f"# {line}" for line in header.splitlines())
    for d in source.declarations:
        if d.kind == "algebra":
            chunks.append(serialize_algebra(d.value))
        elif d.kind == "rep":
            chunks.append(serialize_rep(d.name, d.value))
        else:
            chunks.append(serialize_operator(d.name, d.meta["rep"], d.value))
    return "\n\n".join(chunks) + "\n"

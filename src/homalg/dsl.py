"""The line-oriented definition language and its serializer.

A file is a sequence of blocks; `#` starts a comment, omitted products and
map columns are zero:

    algebra NAME dim N [variety TAG]
      op OPNAME: e<i> * e<j> = TERM { + TERM }
      map MAPNAME: e<i> = TERM { + TERM }
    end

    rep NAME over ALG dim M kind KIND
      lmap l: e<i> * u<j> = ...      rmap r: u<j> * e<i> = ...   bimodule, action
      act rho: e<i> * u<j> = ...                                 lie-module, lie-action
      act pi: e<i> * u<j> = ...                                  jordan-module, jordan-action
      map beta: u<i> = ...
      op vmul: u<i> * u<j> = ...                                 action
      op vbracket: ... / op vstar: ...                           lie-action / jordan-action
    end

    operator NAME: REP -> ALG
      u<i> = TERM { + TERM }
    end

TERM is [RATIONAL *] BASISVEC with RATIONAL = -?INT[/POSINT]; BASISVEC is
e<k> on the algebra sort and u<k> on the representation sort; a bare 0
denotes the zero combination.  Numbers and indices are ASCII digits 0-9.
Names must be unique per file and forward references are forbidden.  Every
algebra block must define a map named alpha; every rep block a map named beta.

Every row of an algebra or rep block is read against one table of row forms
(`_Form`): the keyword fixes the sorts of the left-hand side and of the
terms, and which names the row takes.  A rep kind takes only its own rows
(say `act rho` in a bimodule block is a semantic error naming the kind), and a
row with nothing before its `:` is a syntax error.  The serializer writes
every row through the same forms.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .exact import LinearMap, StructureTensor
from .operators import OperatorCandidate
from .records import FrozenRecord, Record
from .reps import REP_CLASSES
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


class Declaration(Record):
    __slots__ = _fields = ("kind", "name", "value", "meta")

    def __init__(self, kind: str, name: str, value: object, meta: dict | None = None):
        self.kind = kind               # algebra | rep | operator
        self.name = name
        self.value = value
        self.meta = {} if meta is None else meta


class SourceFile(Record):
    __slots__ = _fields = ("declarations",)

    def __init__(self, declarations: list):
        self.declarations = declarations

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
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?$")
_BASIS = re.compile(r"([eu])([0-9]+)$")

_REP_KINDS = {cls.kind: cls for cls in REP_CLASSES}


class _Form(FrozenRecord):
    """One row shape: `KEYWORD NAME: LHS = TERMS`, or `LHS = TERMS` for operators.

    `sorts` are the LHS sorts in source order ("ee", "eu", "ue", "e" or "u");
    a "ue" row is stored swapped, as (e, u), like the rmap tensor it fills.
    `out` is the sort of the terms and `names` the names the row takes (None:
    any valid name).  A wrong LHS sort raises `sort_error` in `category`.
    """

    __slots__ = _fields = ("keyword", "sorts", "out", "names", "sort_error", "category")

    def __init__(self, keyword: str, sorts: str, out: str, names: tuple | None,
                 sort_error: str, category: str = "semantic"):
        object.__setattr__(self, "keyword", keyword)
        object.__setattr__(self, "sorts", sorts)
        object.__setattr__(self, "out", out)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "sort_error", sort_error)
        object.__setattr__(self, "category", category)

    def flip(self, pair):
        """Source order <-> stored order."""
        return pair[::-1] if self.sorts == "ue" else pair


_ALGEBRA_FORMS = {
    "op": _Form("op", "ee", "e", None, "algebra products act on e-vectors"),
    "map": _Form("map", "e", "e", None, "algebra map columns are e-vectors", "dimension"),
}
_OPERATOR_FORM = _Form("operator", "u", "e", None, "operator columns are u-vectors")


def _rep_forms(cls):
    """The row forms of one rep class, in serialization order: its action rows
    (`cls.acts`), beta's columns, then its product on V (`cls.vprod`)."""

    def taken(*names):
        return tuple(n for n in names if n in cls.acts)

    return {
        "lmap": _Form("lmap", "eu", "u", taken("l"), "lmap rows read 'e<i> * u<j>'"),
        "rmap": _Form("rmap", "ue", "u", taken("r"), "rmap rows read 'u<j> * e<i>'"),
        "act": _Form("act", "eu", "u", taken("rho", "pi"), "act rows read 'e<i> * u<j>'"),
        "map": _Form("map", "u", "u", ("beta",), "beta columns are u-vectors"),
        "op": _Form("op", "uu", "u", (cls.vprod,) if cls.vprod else (),
                    "rep products act on u-vectors"),
    }


_REP_FORMS = {kind: _rep_forms(cls) for kind, cls in _REP_KINDS.items()}


def _int(digits, line):
    """int() of a matched numeral; one longer than Python converts
    (sys.get_int_max_str_digits()) is a syntax error, not a ValueError."""
    try:
        return int(digits)
    except ValueError:
        raise DslSyntaxError(line, f"numeral of {len(digits)} digits is too long") from None


def _parse_rational(tok, line):
    """(numerator, positive denominator) of a rational token, not reduced."""
    if not _RATIONAL.match(tok):
        raise DslSyntaxError(line, f"expected a rational number, got {tok!r}")
    num, _, den = tok.partition("/")
    den = _int(den, line) if den else 1
    if not den:
        raise DslSyntaxError(line, f"zero denominator in {tok!r}")
    return _int(num, line), den


def _parse_basis(tok, line):
    m = _BASIS.match(tok)
    if not m:
        raise DslSyntaxError(line, f"expected a basis vector like e1 or u2, got {tok!r}")
    return m.group(1), _int(m.group(2), line)


def _range_check(idx, dim, line, prefix):
    if not 1 <= idx <= dim:
        raise DslSemanticError(line, f"basis index {prefix}{idx} out of range 1..{dim}",
                               category="dimension")


def _parse_terms(text, line, sort, dim):
    """Parse 'TERM + TERM + ...' (or '0') into a sparse row: the (0-based
    index, coefficient) pairs of its nonzero coefficients, index ascending.

    Integer numerators are accumulated per index over one denominator, so a
    row with integer coefficients holds ints; otherwise its coefficients are
    Fractions.  The work follows the terms written, not the dimension.
    """
    nums, den = {}, 1
    text = text.strip()
    if text == "0":
        return []
    if not text:
        raise DslSyntaxError(line, "empty right-hand side")
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise DslSyntaxError(line, "empty term in sum")
        if "*" in chunk:
            coeff_txt, basis_txt = (p.strip() for p in chunk.split("*", 1))
            num, d = _parse_rational(coeff_txt, line)
        else:
            (num, d), basis_txt = (1, 1), chunk
        prefix, idx = _parse_basis(basis_txt, line)
        if prefix != sort:
            raise DslSemanticError(
                line, f"term {chunk!r} has sort {prefix!r}, expected {sort!r}",
                category="dimension",
            )
        _range_check(idx, dim, line, prefix)
        if den % d:
            scale = d // gcd(den, d)
            nums, den = {k: x * scale for k, x in nums.items()}, den * scale
        nums[idx - 1] = nums.get(idx - 1, 0) + num * (den // d)
    return [(k, x if den == 1 else Fraction(x, den)) for k, x in sorted(nums.items()) if x]


def _read_lhs(form, lhs, line, dims):
    """The stored 0-based index tuple of a row's LHS, checked for arity, sorts and range."""
    parts = lhs.split("*")
    if len(parts) != len(form.sorts):
        pattern = " * ".join(f"{s}<{v}>" for s, v in zip(form.sorts, form.flip("ij")))
        raise DslSyntaxError(line, f"{form.keyword} row needs {pattern!r}")
    basis = [_parse_basis(p.strip(), line) for p in parts]
    if "".join([s for s, _ in basis]) != form.sorts:
        raise DslSemanticError(line, form.sort_error, category=form.category)
    key = []
    for sort, idx in form.flip(basis):
        _range_check(idx, dims[sort], line, sort)
        key.append(idx - 1)
    return tuple(key)


def _assemble(form, rows, dims):
    """The map (one LHS sort) or tensor a form's sparse rows fill; absent rows
    are zero, and only the rows given are read."""
    out = dims[form.out]
    if len(form.sorts) == 1:
        return LinearMap.from_sparse(dims[form.sorts], out, {i: row for (i,), row in rows.items()})
    left, right = form.flip(form.sorts)
    return StructureTensor.from_sparse(dims[left], dims[right], out, rows)


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
    if not (tok.isascii() and tok.isdigit()) or _int(tok, line) <= 0:
        raise DslSyntaxError(line, f"bad {what} {tok!r}")
    return _int(tok, line)


def _split_decl_line(line, lineno):
    if ":" not in line:
        raise DslSyntaxError(lineno, f"missing ':' in {line!r}")
    head, rest = line.split(":", 1)
    if "=" not in rest:
        raise DslSyntaxError(lineno, f"missing '=' in {line!r}")
    lhs, rhs = rest.split("=", 1)
    return head.split(), lhs.strip(), rhs.strip()


def _parse_rows(stream, pos, what, forms, dims):
    """Read the rows of the block whose header is stream[pos], through its `end`.

    Each `KEYWORD NAME: LHS = TERMS` row is read against forms[KEYWORD]; `what`
    names the block in errors and `dims` maps each sort to its dimension.
    Returns the position after `end` and {(keyword, name): {stored key: terms}},
    in order of first appearance.
    """
    lineno = stream[pos][0]
    tables = {}
    for pos in range(pos + 1, len(stream)):
        ln, line = stream[pos]
        if line == "end":
            return pos + 1, tables
        head, lhs, rhs = _split_decl_line(line, ln)
        form = forms.get(head[0]) if len(head) == 2 else None
        if form is None:
            raise DslSyntaxError(ln, f"unexpected line in {what} block: {line!r}")
        name = head[1]
        if form.names is None:
            _check_name(name, ln)
        elif name not in form.names:
            raise DslSemanticError(ln, f"{what} does not take {form.keyword} {name!r}")
        key = _read_lhs(form, lhs, ln, dims)
        terms = _parse_terms(rhs, ln, form.out, dims[form.out])
        rows = tables.setdefault((form.keyword, name), {})
        if key in rows:
            raise DslSemanticError(ln, f"duplicate {form.keyword} row for {name!r} at {lhs}")
        rows[key] = terms
    raise DslSyntaxError(lineno, f"{what} has no 'end'")


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
    dims = {"e": _parse_int(toks[3], lineno, "dimension")}
    pos, tables = _parse_rows(stream, pos, f"algebra {name!r}", _ALGEBRA_FORMS, dims)
    if ("map", "alpha") not in tables:
        raise DslSemanticError(lineno, f"algebra {name!r} lacks the twist map 'alpha'")
    built = {"op": {}, "map": {}}
    for (keyword, sym), rows in tables.items():
        built[keyword][sym] = _assemble(_ALGEBRA_FORMS[keyword], rows, dims)
    value = AlgebraInstance(name, dims["e"], built["op"], built["map"], variety)
    return pos, Declaration("algebra", name, value)


def _parse_rep(stream, pos, lookup):
    lineno, header = stream[pos]
    toks = header.split()
    if len(toks) != 8 or toks[2] != "over" or toks[4] != "dim" or toks[6] != "kind":
        raise DslSyntaxError(lineno, "expected 'rep NAME over ALG dim M kind KIND'")
    name = _check_name(toks[1], lineno)
    base = lookup(toks[3], "algebra", lineno).value
    dims = {"e": base.dim, "u": _parse_int(toks[5], lineno, "dimension")}
    kind = toks[7]
    if kind not in _REP_KINDS:
        raise DslSemanticError(lineno, f"unknown rep kind {kind!r}")
    forms = _REP_FORMS[kind]
    pos, tables = _parse_rows(stream, pos, f"rep kind {kind!r}", forms, dims)
    if ("map", "beta") not in tables:
        raise DslSemanticError(lineno, f"rep {name!r} lacks the twist map 'beta'")
    fields = {sym: _assemble(form, tables.get((form.keyword, sym), {}), dims)
              for form in forms.values() for sym in form.names}
    value = _REP_KINDS[kind](base, dims["u"], **fields)
    return pos, Declaration("rep", name, value, meta={"kind": kind, "base": base.name})


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
    dims = {"e": rep.base.dim, "u": rep.v_dim}
    cols = {}
    for pos in range(pos + 1, len(stream)):
        ln, line = stream[pos]
        if line == "end":
            break
        if "=" not in line or line.split()[0] in ("algebra", "rep", "operator"):
            raise DslSyntaxError(ln, f"operator {name!r} has no 'end'")
        lhs, rhs = (p.strip() for p in line.split("=", 1))
        key = _read_lhs(_OPERATOR_FORM, lhs, ln, dims)
        if key in cols:
            raise DslSemanticError(ln, f"duplicate column u{key[0] + 1}")
        cols[key] = _parse_terms(rhs, ln, "e", dims["e"])
    else:
        raise DslSyntaxError(lineno, f"operator {name!r} has no 'end'")
    value = OperatorCandidate(rep, _assemble(_OPERATOR_FORM, cols, dims))
    return pos + 1, Declaration(
        "operator", name, value, meta={"rep": rep_decl.name, "algebra": alg_decl.name}
    )


# ---------------------------------------------------------------------------
# serialization


def _fmt_terms(entries, den, prefix):
    """The terms of a sparse row of (0-based index, nonzero integer numerator)
    over den, or "0"."""
    parts = []
    for idx, n in entries:
        if n == den:
            parts.append(f"{prefix}{idx + 1}")
        else:
            parts.append(f"{n if den == 1 else Fraction(n, den)} * {prefix}{idx + 1}")
    return " + ".join(parts) if parts else "0"


def _emit(lines, form, sym, value):
    """Append the nonzero rows of a map or tensor as rows of form (one zero row
    if there are none); operator rows (sym None) have no `KEYWORD NAME:` head."""
    head = f"  {form.keyword} {sym}: " if sym else "  "
    lhs = " * ".join(f"{s}{{{p}}}" for s, p in zip(form.sorts, form.flip(range(2))))
    if len(form.sorts) == 1:
        rows = (((j + 1,), col) for j, col in enumerate(value._cols))
    else:
        rows = (((i + 1, j + 1), row)
                for i, plane in enumerate(value._rows) for j, row in enumerate(plane))
    for key, nums in [row for row in rows if row[1]] or [((1, 1), ())]:
        lines.append(f"{head}{lhs.format(*key)} = {_fmt_terms(nums, value._d, form.out)}")


def serialize_algebra(a: AlgebraInstance) -> str:
    head = f"algebra {a.name} dim {a.dim}"
    if a.variety is not None:
        head += f" variety {a.variety.value}"
    lines = [head]
    for sym in sorted(a.products):
        _emit(lines, _ALGEBRA_FORMS["op"], sym, a.products[sym])
    for sym in sorted(a.maps, key=lambda s: (s != "alpha", s)):
        _emit(lines, _ALGEBRA_FORMS["map"], sym, a.maps[sym])
    lines.append("end")
    return "\n".join(lines)


def serialize_rep(name: str, rep) -> str:
    lines = [f"rep {name} over {rep.base.name} dim {rep.v_dim} kind {rep.kind}"]
    for form in _REP_FORMS[rep.kind].values():
        for sym in form.names:
            _emit(lines, form, sym, getattr(rep, sym))
    lines.append("end")
    return "\n".join(lines)


def serialize_operator(name: str, rep_name: str, candidate: OperatorCandidate) -> str:
    lines = [f"operator {name}: {rep_name} -> {candidate.rep.base.name}"]
    _emit(lines, _OPERATOR_FORM, None, candidate.map)
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

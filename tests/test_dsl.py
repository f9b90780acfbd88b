import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from homalg.exact import LinearMap, StructureTensor
from homalg.varieties import AlgebraInstance
from homalg.dsl import DslSemanticError, DslSyntaxError, parse, serialize
from homalg.forge import catalog_source_files, data_dir
from homalg.varieties import VarietyTag, certify


def test_empty_file():
    assert parse("").declarations == []
    assert parse("# only a comment\n\n").declarations == []


def test_parse_simple_algebra():
    src = parse(
        """
        # dual numbers
        algebra kx2 dim 2 variety hom-associative
          op mul: e1 * e1 = e1
          op mul: e1 * e2 = e2
          op mul: e2 * e1 = e2
          map alpha: e1 = e1
          map alpha: e2 = e2
        end
        """
    )
    a = src.get("kx2").value
    assert a.dim == 2 and a.variety is VarietyTag.HOM_ASSOCIATIVE
    assert a.product("mul").coeff(0, 1, 1) == 1
    assert a.product("mul").coeff(1, 1, 0) == 0
    assert certify(a, VarietyTag.HOM_ASSOCIATIVE).ok


def test_parse_rational_coefficients():
    src = parse(
        """
        algebra j dim 2
          op circ: e1 * e1 = e1
          op circ: e1 * e2 = 1/2 * e2
          op circ: e2 * e1 = -1/2 * e2 + e1
          map alpha: e1 = e1
          map alpha: e2 = 2 * e2
        end
        """
    )
    t = src.get("j").value.product("circ")
    assert t.coeff(0, 1, 1) == Fraction(1, 2)
    assert t.coeff(1, 0, 1) == Fraction(-1, 2)
    assert t.coeff(1, 0, 0) == 1


def test_out_of_range_index_is_dimension_error():
    text = """
    algebra d dim 2
      op m: e1 * e3 = e1
      map alpha: e1 = e1
    end
    """
    with pytest.raises(DslSemanticError) as err:
        parse(text)
    assert err.value.category == "dimension"


def test_missing_alpha_rejected():
    with pytest.raises(DslSemanticError):
        parse("algebra a dim 1\n  op m: e1 * e1 = e1\nend\n")


def test_duplicate_name_rejected():
    text = (
        "algebra a dim 1\n  map alpha: e1 = e1\nend\n"
        "algebra a dim 1\n  map alpha: e1 = e1\nend\n"
    )
    with pytest.raises(DslSemanticError) as err:
        parse(text)
    assert err.value.category == "duplicate"


def test_forward_reference_rejected():
    text = (
        "rep r over a dim 1 kind bimodule\n  map beta: u1 = u1\nend\n"
        "algebra a dim 1\n  map alpha: e1 = e1\nend\n"
    )
    with pytest.raises(DslSemanticError) as err:
        parse(text)
    assert err.value.category == "dangling"


def test_syntax_error_carries_line():
    with pytest.raises(DslSyntaxError) as err:
        parse("algebra a dim 1\n  op m e1 * e1 = e1\nend\n")
    assert err.value.line == 2


def test_zero_rhs_declares_symbol():
    src = parse(
        "algebra z dim 2\n  op mul: e1 * e1 = 0\n  map alpha: e1 = e1\n  map alpha: e2 = e2\nend\n"
    )
    assert src.get("z").value.product("mul").is_zero()


def test_rep_and_operator_blocks():
    text = """
    algebra a dim 1
      op mul: e1 * e1 = e1
      map alpha: e1 = e1
    end

    rep reg over a dim 1 kind bimodule
      lmap l: e1 * u1 = u1
      rmap r: u1 * e1 = u1
      map beta: u1 = u1
    end

    operator k: reg -> a
      u1 = e1
    end
    """
    src = parse(text)
    rep = src.get("reg").value
    assert rep.kind == "bimodule" and rep.v_dim == 1
    cand = src.get("k").value
    assert cand.map.entry(0, 0) == 1
    from homalg.operators import certify_operator

    assert certify_operator(cand, "rel-avg").ok


def test_operator_target_must_match_rep_base():
    text = """
    algebra a dim 1
      op mul: e1 * e1 = e1
      map alpha: e1 = e1
    end
    algebra b dim 1
      op mul: e1 * e1 = e1
      map alpha: e1 = e1
    end
    rep reg over a dim 1 kind bimodule
      lmap l: e1 * u1 = u1
      rmap r: u1 * e1 = u1
      map beta: u1 = u1
    end
    operator k: reg -> b
      u1 = e1
    end
    """
    with pytest.raises(DslSemanticError):
        parse(text)


def test_round_trip_all_shipped_files():
    for path in sorted(data_dir().glob("*.halg")):
        text = path.read_text(encoding="utf-8")
        src = parse(text)
        again = parse(serialize(src))
        assert [d.name for d in src] == [d.name for d in again]
        for d1, d2 in zip(src, again):
            if d1.kind == "algebra":
                assert d1.value.products == d2.value.products
                assert d1.value.maps == d2.value.maps
                assert d1.value.variety == d2.value.variety
            elif d1.kind == "rep":
                assert d1.value.interpretation().ops.keys() == d2.value.interpretation().ops.keys()
                assert d1.value.beta == d2.value.beta
            else:
                assert d1.value.map == d2.value.map


def test_shipped_files_match_regeneration():
    generated = catalog_source_files()
    for fname, text in generated.items():
        shipped = (data_dir() / fname).read_text(encoding="utf-8")
        assert shipped == text, f"{fname} drifted from the catalog"


def test_mixed_sort_term_rejected():
    text = """
    algebra a dim 1
      op mul: e1 * e1 = e1
      map alpha: e1 = e1
    end
    rep reg over a dim 1 kind bimodule
      lmap l: e1 * u1 = e1
      rmap r: u1 * e1 = u1
      map beta: u1 = u1
    end
    """
    with pytest.raises(DslSemanticError) as err:
        parse(text)
    assert err.value.category == "dimension"


def test_duplicate_op_row_rejected():
    text = (
        "algebra a dim 1\n"
        "  op mul: e1 * e1 = e1\n"
        "  op mul: e1 * e1 = 0\n"
        "  map alpha: e1 = e1\n"
        "end\n"
    )
    with pytest.raises(DslSemanticError):
        parse(text)


def test_rep_missing_beta_rejected():
    text = (
        "algebra a dim 1\n  op mul: e1 * e1 = e1\n  map alpha: e1 = e1\nend\n"
        "rep r over a dim 1 kind bimodule\n  lmap l: e1 * u1 = u1\nend\n"
    )
    with pytest.raises(DslSemanticError):
        parse(text)


def test_operator_index_out_of_range():
    text = (
        "algebra a dim 1\n  op mul: e1 * e1 = e1\n  map alpha: e1 = e1\nend\n"
        "rep r over a dim 1 kind bimodule\n"
        "  lmap l: e1 * u1 = u1\n  rmap r: u1 * e1 = u1\n  map beta: u1 = u1\nend\n"
        "operator k: r -> a\n  u2 = e1\nend\n"
    )
    with pytest.raises(DslSemanticError) as err:
        parse(text)
    assert err.value.category == "dimension"


@st.composite
def random_algebras(draw):
    dim = draw(st.integers(1, 3))
    coeffs = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    products = {}
    for sym in draw(st.sets(st.sampled_from(["mul", "left", "right"]), min_size=1)):
        products[sym] = StructureTensor(
            [[[draw(coeffs) for _ in range(dim)] for _ in range(dim)]
             for _ in range(dim)]
        )
    maps = {"alpha": LinearMap([[draw(coeffs) for _ in range(dim)] for _ in range(dim)])}
    return AlgebraInstance(draw(st.sampled_from(["a", "b_2", "x-y"])), dim, products, maps)


@given(random_algebras())
def test_serializer_round_trips_arbitrary_instances(a):
    from homalg.dsl import Declaration, SourceFile

    text = serialize(SourceFile([Declaration("algebra", a.name, a)]))
    back = parse(text).get(a.name).value
    assert back.products == a.products
    assert back.maps == a.maps


# ---------------------------------------------------------------------------
# fuzzing: mutated shipped files, edge-case numbers, templated blocks, arbitrary text


_SHIPPED = {p.name: p.read_text(encoding="utf-8") for p in sorted(data_dir().glob("*.halg"))}
_MAX_DIM = 9  # the largest dimension a shipped file declares
_VOCABULARY = (
    "algebra", "rep", "operator", "end", "op", "map", "lmap", "rmap", "act", "dim",
    "variety", "kind", "over", "->", ":", "=", "*", "+", "#", "0", "1", "-1", "1/2", "1/0",
    "-0/3", "e0", "e1", "e2", "e10", "u1", "u3", "alpha", "beta", "mul", "l", "r", "rho",
    "vmul", "hom-jordan", "action", "bimodule", "lie-action", "kx2", "²", "١",
)


def _dims_are_small(text):
    """Whether every 'dim N' in the text asks for at most _MAX_DIM, so no case is huge."""
    for line in text.splitlines():
        toks = line.split()
        for word, value in zip(toks, toks[1:]):
            if word == "dim" and value.isascii() and value.isdigit() and int(value) > _MAX_DIM:
                return False
    return True


@st.composite
def mutated_sources(draw):
    """A shipped file with a few lines dropped, repeated, swapped or re-tokenized."""
    lines = _SHIPPED[draw(st.sampled_from(sorted(_SHIPPED)))].splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("drop", "repeat", "swap", "token", "cut", "insert")))
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "token":
            toks = lines[i].split() or [""]
            toks[draw(st.integers(0, len(toks) - 1))] = draw(
                st.sampled_from(_VOCABULARY) | st.text(max_size=3))
            lines[i] = " ".join(toks)
        elif edit == "cut":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        else:
            lines.insert(i, draw(st.text(max_size=12)))
        if not lines:
            break
    return "\n".join(lines)


_EDGE_NUMBERS = ("1/0", "²", "0", "-0/3", "١", "007", "-1", "9", "-2/3")
_NUMERIC_SLOTS = (
    (r"(?<=\bdim )\d+", "{}"),          # a dimension
    (r"(?<== )(?=[eu]\d)", "{} * "),     # a coefficient before a basis vector
    (r"(?<=[eu])\d+", "{}"),             # a basis index
)


@st.composite
def numeric_edits(draw):
    """A shipped file with one dimension, coefficient or basis index made an edge case."""
    text = _SHIPPED[draw(st.sampled_from(sorted(_SHIPPED)))]
    pattern, fmt = draw(st.sampled_from(_NUMERIC_SLOTS))
    spots = list(re.finditer(pattern, text))
    if not spots:
        return text
    spot = spots[draw(st.integers(0, len(spots) - 1))]
    return text[:spot.start()] + fmt.format(draw(st.sampled_from(_EDGE_NUMBERS))) + text[spot.end():]


_REP_ROWS = {
    "bimodule": ("lmap l: e1 * u1 = u2", "rmap r: u1 * e1 = u1"),
    "action": ("lmap l: e1 * u1 = u1", "rmap r: u2 * e1 = u1", "op vmul: u1 * u2 = u2"),
    "lie-module": ("act rho: e2 * u1 = u2",),
    "jordan-action": ("act pi: e1 * u2 = u1", "op vstar: u2 * u2 = u1"),
}


@st.composite
def templated_sources(draw):
    """A well-formed algebra with a random set of products, a rep of a random kind
    over it and an operator, so the rep may lack the products its kind reads."""
    products = draw(st.sets(st.sampled_from(("mul", "circ", "bracket")), max_size=2))
    rows = [f"  op {p}: e{i} * e{j} = e{k}" for p in sorted(products)
            for i, j, k in draw(st.sets(st.sampled_from(((1, 1, 1), (1, 2, 2), (2, 1, 2))),
                                        min_size=1))]
    blocks = ["algebra a dim 2", "  map alpha: e1 = e1", *rows, "end"]
    if draw(st.booleans()):
        kind = draw(st.sampled_from(sorted(_REP_ROWS)))
        rows = draw(st.sets(st.sampled_from(_REP_ROWS[kind])))
        blocks += [f"rep v over a dim 2 kind {kind}", "  map beta: u1 = u1",
                   *(f"  {row}" for row in sorted(rows)), "end"]
        if draw(st.booleans()):
            blocks += ["operator k: v -> a", f"  u1 = {draw(st.sampled_from(('e1', 'e2')))}", "end"]
    return "\n".join(blocks) + "\n"


def _parse_or_dsl_error(text):
    assume(_dims_are_small(text))
    try:
        parse(text)
    except (DslSyntaxError, DslSemanticError):
        pass


@settings(max_examples=150)
@given(mutated_sources() | templated_sources() | st.text(max_size=200))
def test_parse_raises_only_dsl_errors(text):
    _parse_or_dsl_error(text)


@settings(max_examples=150)
@given(numeric_edits())
def test_parse_raises_only_dsl_errors_on_edge_numbers(text):
    _parse_or_dsl_error(text)


@settings(max_examples=50)
@given(templated_sources() | mutated_sources() | numeric_edits())
def test_report_keeps_its_exit_codes_on_mutated_files(text):
    import contextlib
    import io
    import tempfile

    from homalg.cli import main

    assume(_dims_are_small(text))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/fuzz.halg"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["report", path])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_parse_rejects_non_ascii_dimensions_and_zero_denominators():
    with pytest.raises(DslSyntaxError, match="bad dimension"):
        parse("algebra a dim ²\nend\n")
    with pytest.raises(DslSyntaxError, match="zero denominator"):
        parse("algebra a dim 1\n  op mul: e1 * e1 = 1/0 * e1\n  map alpha: e1 = e1\nend\n")


_LONG = "7" * 5000  # past Python's 4,300-digit int() limit


@pytest.mark.parametrize("text, line", [
    (f"algebra a dim 1\n  op mul: e1 * e1 = {_LONG} * e1\n  map alpha: e1 = e1\nend\n", 2),
    (f"algebra a dim 1\n  op mul: e1 * e1 = 1/{_LONG} * e1\n  map alpha: e1 = e1\nend\n", 2),
    (f"algebra a dim 1\n  op mul: e1 * e{_LONG} = e1\n  map alpha: e1 = e1\nend\n", 2),
    (f"algebra a dim {_LONG}\n  map alpha: e1 = e1\nend\n", 1),
], ids=["coefficient", "denominator", "basis-index", "dimension"])
def test_a_numeral_too_long_for_int_is_a_syntax_error(text, line):
    with pytest.raises(DslSyntaxError, match="numeral of 5000 digits is too long") as err:
        parse(text)
    assert err.value.line == line


@pytest.mark.parametrize("text, line", [
    ("algebra a dim 1\n  : e1 * e1 = e1\n  map alpha: e1 = e1\nend\n", 2),
    ("algebra a dim 1\n  map alpha: e1 = e1\nend\n"
     "rep v over a dim 1 kind lie-module\n  : e1 * u1 = u1\n  map beta: u1 = u1\nend\n", 5),
])
def test_empty_row_keyword_is_a_syntax_error(text, line):
    with pytest.raises(DslSyntaxError) as err:
        parse(text)
    assert err.value.line == line


_LIE_BASE = "algebra a dim 1\n  op bracket: e1 * e1 = 0\n  map alpha: e1 = e1\nend\n"


@pytest.mark.parametrize("kind, row", [
    ("lie-module", "lmap l: e1 * u1 = 5 * u1"),
    ("lie-module", "rmap r: u1 * e1 = u1"),
    ("lie-module", "act pi: e1 * u1 = u1"),
    ("bimodule", "act rho: e1 * u1 = u1"),
    ("jordan-module", "act rho: e1 * u1 = u1"),
])
def test_rep_rows_foreign_to_the_kind_are_rejected(kind, row):
    keyword, name = row.split(":")[0].split()
    text = _LIE_BASE + f"rep v over a dim 1 kind {kind}\n  {row}\n  map beta: u1 = u1\nend\n"
    with pytest.raises(DslSemanticError) as err:
        parse(text)
    assert err.value.line == 6 and err.value.category == "semantic"
    assert f"rep kind {kind!r} does not take {keyword} {name!r}" in str(err.value)


@pytest.mark.parametrize("text", [
    "algebra a dim 1\n  op m: e١ * e1 = e1\n  map alpha: e1 = e1\nend\n",
    "algebra a dim 1\n  op m: e1 * e1 = e١\n  map alpha: e1 = e1\nend\n",
    "algebra a dim 1\n  op m: e1 * e1 = ١/٣ * e1\n  map alpha: e1 = e1\nend\n",
    "algebra a dim 1\n  op m: e1 * e1 = 1/٣ * e1\n  map alpha: e1 = e1\nend\n",
])
def test_non_ascii_digits_are_syntax_errors(text):
    with pytest.raises(DslSyntaxError) as err:
        parse(text)
    assert err.value.line == 2


def test_memory_follows_the_file_not_the_cube_of_its_dimension():
    # one product entry at dim 20 and at dim 40: the tensor stores exactly
    # that entry, and the traced peak of parse grows less than x5 when the
    # dimension doubles (its argument pairs grow x4, a dense cube x8)
    import tracemalloc

    peaks = []
    for dim in (20, 40):
        text = (f"algebra big dim {dim} variety hom-associative\n"
                "  op mul: e1 * e1 = e1\n  map alpha: e1 = e1\nend\n")
        tracemalloc.start()
        try:
            a = parse(text).get("big").value
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        rows = a.product("mul")._rows
        assert [(i, j, e) for i, plane in enumerate(rows) for j, row in enumerate(plane)
                for e in row] == [(0, 0, (0, 1))]
    assert peaks[1] < 5 * peaks[0], peaks


def test_zero_rows_and_columns_are_one_shared_list():
    # at dim 40 the tensor has 1,600 argument pairs and the map 40 columns,
    # all but one zero: they share one empty list, so what parse keeps for
    # the file is under half of what one list per pair would cost
    import sys
    import tracemalloc

    text = ("algebra big dim 40 variety hom-associative\n"
            "  op mul: e1 * e1 = e1\n  map alpha: e1 = e1\nend\n")
    parse(text)  # warm the caches parsing fills
    tracemalloc.start()
    try:
        src = parse(text)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 40 * 40 * sys.getsizeof([]) / 2, kept
    a = src.get("big").value
    empty = [row for plane in a.product("mul")._rows for row in plane if not row]
    empty += [col for col in a.alpha._cols if not col]
    assert len(empty) == 40 * 40 - 1 + 39 and all(e is empty[0] for e in empty)


def test_terms_are_summed_per_index_and_cancelled_terms_drop():
    # repeated indices add up, over one denominator when fractions meet, and
    # a sum that cancels is a zero row; the values are the dense builders'
    text = ("algebra a dim 3\n"
            "  op mul: e1 * e2 = e3 + 1/2 * e1 + e3 + -1/3 * e1\n"
            "  op mul: e2 * e2 = e2 + -1 * e2\n"
            "  op mul: e3 * e1 = 0\n"
            "  map alpha: e2 = 2/4 * e3 + e1\n"
            "end\n")
    a = parse(text).get("a").value
    third = Fraction(1, 6)
    assert a.product("mul") == StructureTensor.from_rule(3, 3, 3, {(0, 1): [third, 0, 2]})
    assert a.alpha == LinearMap.from_columns([[0, 0, 0], [1, 0, Fraction(1, 2)], [0, 0, 0]], 3)
    assert a.product("mul")._rows[1] is a.product("mul")._rows[2]  # zero planes, shared

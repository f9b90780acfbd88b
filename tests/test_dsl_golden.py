"""Replay of the recorded outcome of `dsl.parse` on a seeded mutation corpus.

The corpus is the 11 shipped `data/*.halg` files and 3000 distinct line
mutations of them, generated below from a fixed `random.Random` seed, then
the LONG_NUMERALS inputs.  Each
mutant applies one to three edits: drop a line, repeat it, swap two lines,
cut a line short, replace one token, or insert a faulty row.  The faulty rows have a wrong
name, wrong sorts, a wrong arity, an index out of range, a row keyword foreign
to the block or rep kind, or an empty keyword.

The golden file maps the SHA-256 of each input to its outcome: `ok` and the
SHA-256 of `serialize(parse(text))` when the text parses, else the error
class, its `category` and its `line`.  Messages are not pinned.

Record (only from a parser whose outcomes are trusted):

    PYTHONPATH=src python tests/test_dsl_golden.py --record
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from homalg.dsl import DslSemanticError, DslSyntaxError, parse, serialize
from homalg.forge import data_dir

GOLDEN = Path(__file__).parent / "golden" / "dsl_outcomes.json"
SEED = 20261018
MUTANTS = 3000

_VOCABULARY = (
    "algebra", "rep", "operator", "end", "op", "map", "lmap", "rmap", "act", "dim",
    "variety", "kind", "over", "->", ":", "=", "*", "+", "0", "1", "-1", "1/2", "3",
    "e0", "e1", "e2", "e9", "u0", "u1", "u3", "alpha", "beta", "mul", "l", "r", "rho",
    "pi", "vmul", "vbracket", "vstar", "bimodule", "action", "lie-module", "jordan-action",
    "hom-lie", "kx2", "x y", "",
)

FAULTY_ROWS = (
    # wrong name
    "op 1bad: e1 * e1 = e1", "map -x: e1 = e1", "lmap x: e1 * u1 = u1", "rmap q: u1 * e1 = u1",
    "act sigma: e1 * u1 = u1", "map gamma: u1 = u1", "op vfoo: u1 * u1 = u1",
    # wrong sorts, on the left or in the terms
    "op mul: e1 * u1 = e1", "op mul: e1 * e1 = u1", "map alpha: u1 = e1", "map beta: e1 = u1",
    "lmap l: u1 * e1 = u1", "rmap r: e1 * u1 = u1", "act rho: u1 * u1 = u1",
    "act pi: e1 * u1 = e1", "op vmul: e1 * u1 = u1", "u1 = u1", "e1 = e1",
    # wrong arity
    "op mul: e1 = e1", "op mul: e1 * e1 * e1 = e1", "map alpha: e1 * e1 = e1",
    "lmap l: e1 = u1", "rmap r: u1 * e1 * e1 = u1", "act rho: e1 = u1", "map beta: u1 * u1 = u1",
    "op a b: e1 * e1 = e1", "u1 * u2 = e1",
    # index out of range
    "op mul: e1 * e9 = e1", "op mul: e1 * e1 = e9", "map alpha: e0 = e1", "lmap l: e1 * u9 = u1",
    "rmap r: u9 * e1 = u1", "rmap r: u1 * e9 = u1", "act rho: e9 * u1 = u1",
    "map beta: u1 = u9", "op vmul: u0 * u1 = u1", "u9 = e1", "u1 = e9",
    # foreign to the block or the rep kind
    "lmap l: e1 * u1 = u1", "rmap r: u1 * e1 = u1", "act rho: e1 * u1 = u1",
    "act pi: e1 * u1 = u1", "op vmul: u1 * u1 = u1", "op vbracket: u1 * u1 = u1",
    "op vstar: u1 * u1 = u1",
    # empty keyword
    ": e1 * e1 = e1", ": e1 * u1 = u1", ": u1 = u1", " : e1 = e1",
)

# a numeral past Python's 4,300-digit int() limit as a coefficient, a basis
# index and a dimension
_LONG = "7" * 5000
LONG_NUMERALS = (
    f"algebra a dim 1\n  op mul: e1 * e1 = {_LONG} * e1\n  map alpha: e1 = e1\nend\n",
    f"algebra a dim 1\n  op mul: e1 * e{_LONG} = e1\n  map alpha: e1 = e1\nend\n",
    f"algebra a dim {_LONG}\n  map alpha: e1 = e1\nend\n",
)


def _mutate(rng, lines):
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        edit = rng.choice(("drop", "repeat", "swap", "cut", "token", "insert"))
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "cut":
            lines[i] = lines[i][:rng.randint(0, len(lines[i]))]
        elif edit == "token":
            toks = lines[i].split() or [""]
            toks[rng.randrange(len(toks))] = rng.choice(_VOCABULARY)
            lines[i] = "  " + " ".join(toks)
        else:
            lines.insert(i, "  " + rng.choice(FAULTY_ROWS))
    return "\n".join(lines) + "\n"


def corpus():
    """The shipped files, MUTANTS distinct seeded mutations of them, then LONG_NUMERALS."""
    shipped = [p.read_text(encoding="utf-8") for p in sorted(data_dir().glob("*.halg"))]
    yield from shipped
    rng = random.Random(SEED)
    seen = set(shipped)
    while len(seen) < len(shipped) + MUTANTS:
        text = _mutate(rng, rng.choice(shipped).splitlines())
        if text not in seen:
            seen.add(text)
            yield text
    yield from LONG_NUMERALS


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome(text):
    try:
        return f"ok {_sha(serialize(parse(text)))}"
    except (DslSyntaxError, DslSemanticError) as exc:
        return f"{type(exc).__name__} {exc.category} {exc.line}"


def replay():
    return {_sha(text): outcome(text) for text in corpus()}


def test_parse_outcomes_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = replay()
    assert len(want) >= 3000 and list(got) == list(want)
    diff = [k for k in want if got[k] != want[k]]
    assert not diff, f"{len(diff)} inputs differ, first {diff[0]}: {want[diff[0]]} -> {got[diff[0]]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    docs = replay()
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = [json.dumps(k) + ": " + json.dumps(v) for k, v in docs.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(docs)} inputs to {GOLDEN}")

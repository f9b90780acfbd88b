"""Replay of the recorded output of `forge.find_endomorphisms`.

The golden file pins, for every case below, the ordered list of maps the
search returns, each as its rows of Fraction strings.  The cases are:

* every catalog algebra in full mode over `GridSpec((-1, 0, 1))`; for
  `zero3`, where all 3^9 maps pass, only the count and the SHA-256 of the
  ordered list (its JSON with sorted keys, as written below) are stored;
* every two-dimensional catalog algebra in diagonal mode over
  `GridSpec((-1, 0, 1, 2, 3))`.

Record (only from a search whose output is trusted):

    PYTHONPATH=src python tests/test_endomorphism_golden.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

from homalg.forge import GridSpec, catalog, find_endomorphisms

GOLDEN = Path(__file__).parent / "golden" / "endomorphisms.json"

FULL_GRID = GridSpec((-1, 0, 1))
DIAGONAL_GRID = GridSpec((-1, 0, 1, 2, 3))
DIGESTED = {"full:zero3"}


def matrices_doc(found):
    return [[[str(x) for x in row] for row in f.matrix] for f in found]


def digest_doc(doc):
    blob = json.dumps(doc, sort_keys=True).encode()
    return {"count": len(doc), "sha256": hashlib.sha256(blob).hexdigest()}


def cases():
    """(key, algebra, grid, mode) for every pinned case, in file order."""
    algebras = [e for e in catalog() if e.kind == "algebra"]
    for e in algebras:
        yield f"full:{e.id}", e.value, FULL_GRID, "full"
    for e in algebras:
        if e.value.dim == 2:
            yield f"diagonal:{e.id}", e.value, DIAGONAL_GRID, "diagonal"


def replay():
    out = {}
    for key, a, grid, mode in cases():
        doc = matrices_doc(find_endomorphisms(a, grid, mode=mode))
        out[key] = digest_doc(doc) if key in DIGESTED else doc
    return out


def test_endomorphisms_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = replay()
    assert list(got) == list(want)
    diff = [k for k in want if got[k] != want[k]]
    assert not diff, f"{len(diff)} cases differ, first {diff[0]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    docs = replay()
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = [json.dumps(k) + ": " + json.dumps(d) for k, d in docs.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(docs)} cases to {GOLDEN}")

"""Replay of the recorded `homalg report` output on the shipped catalog.

The golden file holds, per shipped `data/*.halg` file, the exit status and
every JSON line `homalg report FILE` prints, with the `ms` field removed and
nothing else touched: the lines must come out byte-identical.

Record (only from a CLI whose output is trusted):

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from homalg.cli import main
from homalg.forge import data_dir

GOLDEN = Path(__file__).parent / "golden" / "cli_report.json"


def _drop_ms(line):
    doc = json.loads(line)
    doc.pop("ms")
    return json.dumps(doc, sort_keys=True)


def report(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["report", str(path)])
    return {"exit": code, "lines": [_drop_ms(line) for line in out.getvalue().splitlines()]}


def replay():
    return {p.name: report(p) for p in sorted(data_dir().glob("*.halg"))}


def test_report_matches_golden():
    want = json.loads(GOLDEN.read_text())
    got = replay()
    assert sorted(got) == sorted(want) and len(want) == 11
    for name in want:
        assert got[name] == want[name], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    docs = replay()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(docs)} files to {GOLDEN}")

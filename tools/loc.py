"""Code lines per Python file and in total, not counting docstrings,
comments or blank lines, each beside the file's source bytes.

    python3 tools/loc.py [PATH ...]

Each PATH is a file or a directory, searched for *.py files; with none, it
counts src/homalg/ of the checkout it sits in.  A line is a code line when a
token other than a comment or a docstring starts, ends or spans it, so a
multi-line string that is not a docstring counts every line it spans.  A
docstring is the string statement that opens a module, class or function.
Source bytes count everything: a process that compiles a module from
source (no bytecode cache, as under PYTHONDONTWRITEBYTECODE=1) peaks in
memory with the size of its largest module, docstrings included.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tree) -> set:
    """The (line, column) at which each docstring of the tree starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines of one Python source text."""
    docstrings = _docstrings(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src" / "homalg"])
    args = parser.parse_args(argv)
    files = []
    for path in args.paths:
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    total = size = 0
    for path in files:
        source = path.read_bytes()
        n = code_lines(source.decode("utf-8"))
        total, size = total + n, size + len(source)
        print(f"{n:6d}  {len(source):8d}  {path}")
    print(f"{total:6d}  {size:8d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

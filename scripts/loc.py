#!/usr/bin/env python3
"""Count code lines of Python files: lines holding a token that is not a
comment, with blank lines and the docstrings of modules, classes and
functions left out.  Prints one line per file and the total.  With no
path it counts the package, src/cubetrees.

    python scripts/loc.py [path ...]
"""

import argparse
import ast
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cubetrees"

SKIPPED = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """Line numbers spanned by the docstrings that ast finds."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    lines = set()
    with path.open("rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type not in SKIPPED:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", type=Path, default=[PACKAGE], help="Python files or directories searched for *.py")
    args = parser.parse_args()
    files = [f for p in args.paths for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p])]
    total = 0
    for f in files:
        count = code_lines(f)
        total += count
        print(f"{count:6d}  {f}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()

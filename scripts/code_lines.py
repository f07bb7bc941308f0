#!/usr/bin/env python3
"""Count the code lines of the selectree package, per module and in total.

A code line is a non-blank line that holds something other than a ``#``
comment and lies outside every module, class and function docstring.  A
line that a multi-line expression or string spans counts as code.  Modules
are listed by their count, the largest first:

    python scripts/code_lines.py
    python scripts/code_lines.py --src ../other/src
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

# Tokens that are not code on their own.
_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of the module's, classes' and functions' docstrings."""
    lines = set()
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "src",
        help="the source tree holding the selectree package (default: this repo's src)",
    )
    args = parser.parse_args()
    counts = {
        path.stem: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted((args.src / "selectree").glob("*.py"))
    }
    width = max(map(len, counts)) + 2
    for name, count in sorted(counts.items(), key=lambda item: -item[1]):
        print(f"{name:<{width}}{count:>5}")
    print(f"{'total':<{width}}{sum(counts.values()):>5}")


if __name__ == "__main__":
    main()

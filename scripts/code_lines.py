"""Count the code lines of each module of src/regpow, and their total.

A code line is a physical line that holds a token other than a comment or a
docstring (a string that is the first statement of a module, class or
function); blank lines, comments and docstrings are not counted.  A token
that spans lines, such as a multi-line string, counts on every line it spans.

    python scripts/code_lines.py [SRC_DIR]

prints `module,lines` rows, sorted by module, then `total,N`.
"""
from __future__ import annotations

import argparse
import ast
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.Module) -> set:
    """(line, column) of every docstring's first character."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of physical lines of source that hold a token other than a comment or a docstring."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in SKIPPED or (token.type == tokenize.STRING and token.start in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=os.path.join(ROOT, "src", "regpow"),
                        help="the package directory (default: src/regpow)")
    args = parser.parse_args(argv)
    total = 0
    for name in sorted(os.listdir(args.src)):
        if name.endswith(".py"):
            with open(os.path.join(args.src, name), encoding="utf-8") as fh:
                count = code_lines(fh.read())
            total += count
            print(f"{name[:-3]},{count}")
    print(f"total,{total}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Print the code lines of each gammaproc module and their total.

A code line is a line that holds a token other than a comment or a
docstring (the string that opens a module, class or function).  Blank
lines, comment lines and docstring lines do not count; a multi-line token,
such as a bracketed expression's string literal, counts every line it spans.

    python scripts/code_lines.py                   # this tree's src/gammaproc
    python scripts/code_lines.py ../other/src/gammaproc

Only ``ast`` and ``tokenize`` from the standard library are used.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_spans(tree):
    """((line, col), (end line, end col)) of every module, class and function docstring."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield (first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)


def code_lines(path):
    """The number of lines of ``path`` that hold a token other than a comment or docstring."""
    with open(path, "rb") as fh:
        source = fh.read()
    spans = list(_docstring_spans(ast.parse(source)))
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _SKIP:
                continue
            if tok.type == tokenize.STRING and any(a <= tok.start and tok.end <= b
                                                   for a, b in spans):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("root", nargs="?", default=os.path.join(here, "..", "src", "gammaproc"),
                   help="package directory to count (default: this tree's src/gammaproc)")
    ns = p.parse_args(argv)
    total = 0
    for name in sorted(os.listdir(ns.root)):
        if name.endswith(".py"):
            n = code_lines(os.path.join(ns.root, name))
            total += n
            print(f"{n:6d} {name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

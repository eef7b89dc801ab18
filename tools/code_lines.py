"""Count the code lines of Python sources: the one size count that
CHANGES.md's "src/ code lines" figures use.

A code line is a non-blank line that holds a token other than a comment
and is not part of a docstring (the string that opens a module, class or
function body).  A multi-line string or statement counts every line it
spans.

    python tools/code_lines.py src/spectral_homotopy

prints the total over every .py file under each path given.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines of the Python file ``path``."""
    source = Path(path).read_text()
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(paths):
    files = sorted(f for p in map(Path, paths)
                   for f in ([p] if p.is_file() else p.rglob("*.py")))
    print(f"{sum(map(code_lines, files))} code lines in {len(files)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["src"]))

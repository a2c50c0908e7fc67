"""Code lines of each module of a package: non-blank lines holding code,
with comments and docstrings left out.

Run as ``python tools/code_lines.py [package-dir]`` (default
``src/dopplerkb``); it prints one line per module and the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    with path.open("rb") as f:
        lines = {row for tok in tokenize.tokenize(f.readline) if tok.type not in SKIP
                 for row in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    package = Path(sys.argv[1] if len(sys.argv) > 1 else "src/dopplerkb")
    counts = {path.name: code_lines(path) for path in sorted(package.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")

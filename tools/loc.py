"""Line counts of the ``mgg`` package, per module and by kind.

    python3 tools/loc.py

Reads ``src/mgg/*.py`` of the checkout holding this script and prints one
row per module, then the total, counting each line as exactly one of:

* docstring: a line of a module, class or function docstring;
* comment: a line holding only a comment;
* blank: an empty or all-whitespace line outside a docstring;
* code: every other line.

Run it in two checkouts and subtract to report a change's net lines by kind.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mgg"
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The lines of one module's source, by kind."""
    docstrings = docstring_lines(ast.parse(source))
    # A line is a comment line when a comment is the first token on it.
    comments, coded = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT and token.start[0] not in coded:
            comments.add(token.start[0])
        elif token.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT):
            coded.update(range(token.start[0], token.end[0] + 1))
    kinds = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        if number in docstrings:
            kinds["docstring"] += 1
        elif number in comments:
            kinds["comment"] += 1
        elif not line.strip():
            kinds["blank"] += 1
        else:
            kinds["code"] += 1
    return kinds


def main() -> int:
    paths = sorted(PACKAGE.glob("*.py"))
    rows = [(path.name, count(path.read_text(encoding="utf-8"))) for path in paths]
    rows.append(("total", {kind: sum(kinds[kind] for _, kinds in rows) for kind in KINDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{kind:>11}" for kind in KINDS + ("lines",)))
    for name, kinds in rows:
        cells = [kinds[kind] for kind in KINDS] + [sum(kinds.values())]
        print(f"{name:<{width}}" + "".join(f"{cell:>11}" for cell in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tracked size numbers of the source tree (ROADMAP aim 2).

Prints, per Python file under the given root (default ``src``), the raw
line count and the *code-only* count -- physical lines that carry at least
one token other than a comment, outside module / class / function
docstrings -- then the totals, the number of options (parameters with a
default on public functions and on ``__init__``s) and the distinct
``REPRO_[A-Z_]+`` environment-knob names the tree mentions.

    python tools/loc.py [root] [--quiet]
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from pathlib import Path
from typing import Set, Tuple

_BLANK = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}
_KNOB = re.compile(r"REPRO_[A-Z_]+")


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def options(tree: ast.AST) -> int:
    """Defaulted parameters of the public functions and ``__init__``s."""
    return sum(
        len(node.args.defaults)
        + sum(default is not None for default in node.args.kw_defaults)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and (not node.name.startswith("_") or node.name == "__init__")
    )


def count(text: str) -> Tuple[int, int]:
    """``(raw lines, code-only lines)`` of one source text."""
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _BLANK:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main(argv) -> int:
    quiet = "--quiet" in argv
    roots = [arg for arg in argv if not arg.startswith("--")] or ["src"]
    total_raw = total_code = total_options = 0
    knobs: Set[str] = set()
    for root in roots:
        for path in sorted(Path(root).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            raw, code = count(text)
            total_raw += raw
            total_code += code
            total_options += options(ast.parse(text))
            knobs.update(_KNOB.findall(text))
            if not quiet:
                print(f"{raw:7d} {code:7d}  {path}")
    print(
        f"{total_raw:7d} {total_code:7d}  total (raw, code-only) "
        f"under {' '.join(roots)}"
    )
    print(f"{total_options} options (defaulted parameters of public functions)")
    print(f"{len(knobs)} REPRO_* names: {' '.join(sorted(knobs))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

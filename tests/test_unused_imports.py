"""No module under ``src/`` or ``tests/`` imports a name it never reads.

An AST scan standing in for a linter's unused-import rule: every name an
``import`` binds (``import a.b`` binds ``a``, ``from m import x as y`` binds
``y``), at any depth, must be read somewhere in the same module -- as a
name, including inside a string annotation.  Re-exports are exempt:
``__init__.py`` files, names listed in ``__all__`` and the explicit
``from m import x as x`` form -- as are ``from __future__`` imports.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(
    path
    for directory in ("src", "tests")
    for path in (ROOT / directory).rglob("*.py")
    if path.name != "__init__.py"
)


def imported_names(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` for every name an import statement binds,
    except explicit ``x as x`` re-exports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*" and alias.asname != alias.name:
                    yield (alias.asname or alias.name), node.lineno


def _annotations(tree: ast.AST) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for argument in (
                *arguments.posonlyargs,
                *arguments.args,
                *arguments.kwonlyargs,
                arguments.vararg,
                arguments.kwarg,
            ):
                if argument is not None and argument.annotation is not None:
                    yield argument.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def read_names(tree: ast.AST) -> Set[str]:
    """Every name the module reads, string annotations parsed as code."""
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= read_names(ast.parse(node.value, mode="eval"))
    return names


def exported_names(tree: ast.Module) -> Set[str]:
    """The string entries of a top-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return {
                element.value
                for element in getattr(node.value, "elts", ())
                if isinstance(element, ast.Constant)
            }
    return set()


def unused_imports(source: str) -> List[Tuple[str, int]]:
    tree = ast.parse(source)
    used = read_names(tree) | exported_names(tree)
    return sorted(
        {(name, line) for name, line in imported_names(tree) if name not in used},
        key=lambda item: (item[1], item[0]),
    )


class TestScanner:
    def test_flags_an_unread_name(self):
        source = "from typing import Dict, List\nimport os.path\nx: List[int] = []\n"
        assert unused_imports(source) == [("Dict", 1), ("os", 2)]

    def test_reads_attributes_string_annotations_and_nested_imports(self):
        source = (
            "from __future__ import annotations\n"
            "import os.path\n"
            "from typing import Optional\n"
            "def f(x: 'Optional[int]') -> None:\n"
            "    import json as j\n"
            "    return os.path.join(j.dumps(x))\n"
        )
        assert unused_imports(source) == []

    def test_all_and_the_as_form_exempt_a_re_export(self):
        source = "from typing import Dict\n__all__ = ['Dict']\n"
        assert unused_imports(source) == []
        assert unused_imports("from typing import Dict as Dict\n") == []


def test_no_module_imports_a_name_it_never_reads():
    offenders = {
        str(path.relative_to(ROOT)): found
        for path in SCANNED
        if (found := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}

"""Every module-level import in ``src/repro`` is used by its module.

An ``ast`` scan (stdlib only) of every ``src/repro/**/*.py`` outside the
package ``__init__.py`` files, which import to re-export.  A module-level
import (at the top level, or inside a top-level ``if``/``try``) must be
named somewhere in its module: as a name or attribute base, inside a
quoted annotation, or in ``__all__``.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, List, Set

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro")


def _module_imports(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            yield from _module_imports(node.body)
            yield from _module_imports(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                yield from _module_imports(block)
            for handler in node.handlers:
                yield from _module_imports(handler.body)


def _bound_names(tree: ast.Module) -> Dict[str, int]:
    """Name bound by each module-level import -> its line."""
    bound: Dict[str, int] = {}
    for node in _module_imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    return bound


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> Set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def _unused_imports() -> List[str]:
    found = []
    for root, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if not name.endswith(".py") or name == "__init__.py":
                continue
            path = os.path.join(root, name)
            with open(path) as handle:
                tree = ast.parse(handle.read(), path)
            used = _used_names(tree)
            for bound, line in sorted(_bound_names(tree).items()):
                if bound not in used:
                    found.append(f"{os.path.relpath(path, SRC)}:{line}: {bound}")
    return sorted(found)


def test_every_module_level_import_is_used():
    assert _unused_imports() == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse(
        "import os\nfrom typing import List, TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from x import Y\n"
        "def f(a: 'Y') -> List[int]:\n    return []\n"
    )
    assert sorted(set(_bound_names(tree)) - _used_names(tree)) == ["os"]

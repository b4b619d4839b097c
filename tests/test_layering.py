"""Layering: no module imports a private name from another subpackage."""

from __future__ import annotations

import ast
from pathlib import Path

import superbraid

ROOT = Path(superbraid.__file__).parent


def cross_private_imports(source: str, package: tuple[str, ...]) -> list[str]:
    """Imports in source, read as a module of package, that reach a
    _-prefixed name or module inside another superbraid subpackage."""
    own = package[1:2]
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else ()
            module = base + tuple(filter(None, (node.module or "").split(".")))
            imports = [(module, [alias.name for alias in node.names])]
        elif isinstance(node, ast.Import):
            imports = [(tuple(alias.name.split(".")), []) for alias in node.names]
        else:
            continue
        for target, names in imports:
            if target[:1] != ("superbraid",) or target[1:2] == own:
                continue
            private = [part for part in (*target[1:], *names)
                       if part.startswith("_") and not part.startswith("__")]
            if private:
                found.append(f"line {node.lineno}: {'.'.join(target)} "
                             f"-> {', '.join(private)}")
    return found


def test_no_module_imports_a_private_name_across_subpackages():
    violations = []
    for path in sorted(ROOT.rglob("*.py")):
        rel = path.relative_to(ROOT)
        package = ("superbraid", *rel.parent.parts)
        for hit in cross_private_imports(path.read_text(), package):
            violations.append(f"{rel}: {hit}")
    assert not violations, "\n".join(violations)


def test_checker_flags_cross_package_private_imports():
    cli = ("superbraid", "cli")
    assert cross_private_imports(
        "from ..homology_engine.engine import _braid_system", cli)
    assert cross_private_imports(
        "from superbraid.exact_linalg.snf import _dense_snf", cli)
    assert cross_private_imports("import os, superbraid.cli._hidden",
                                 ("superbraid", "series"))
    assert not cross_private_imports("from .fixtures import _private", cli)
    assert not cross_private_imports(
        "from ..homology_engine import braid_system", cli)
    assert not cross_private_imports("from __future__ import annotations", cli)

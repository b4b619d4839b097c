"""Layering: no module imports a private name from another subpackage,
nothing outside the command-line front end imports it, the engine does not
read the reference tables, and the local systems of coxeter_complex do not
import the curve representation built on them."""

from __future__ import annotations

import ast
from pathlib import Path

import superbraid

ROOT = Path(superbraid.__file__).parent


def _imports(source: str, package: tuple[str, ...]):
    """(line, absolute module, imported names) for each import in source,
    read as a module of package."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else ()
            module = base + tuple(filter(None, (node.module or "").split(".")))
            yield node.lineno, module, [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, tuple(alias.name.split(".")), []


def cross_private_imports(source: str, package: tuple[str, ...]) -> list[str]:
    """Imports in source, read as a module of package, that reach a
    _-prefixed name or module inside another superbraid subpackage."""
    own = package[1:2]
    found = []
    for line, target, names in _imports(source, package):
        if target[:1] != ("superbraid",) or target[1:2] == own:
            continue
        private = [part for part in (*target[1:], *names)
                   if part.startswith("_") and not part.startswith("__")]
        if private:
            found.append(f"line {line}: {'.'.join(target)} "
                         f"-> {', '.join(private)}")
    return found


def imports_reaching(source: str, package: tuple[str, ...],
                     subpackage: str) -> list[str]:
    """Imports in source, read as a module of package, that reach
    superbraid.<subpackage>."""
    found = []
    for line, target, names in _imports(source, package):
        reached = [target] + [target + (name,) for name in names]
        if any(t[:2] == ("superbraid", subpackage) for t in reached):
            found.append(f"line {line}: {'.'.join(target)}")
    return found


def cli_imports(source: str, package: tuple[str, ...]) -> list[str]:
    """Imports in source, read as a module of package, that reach
    superbraid.cli from outside it."""
    if package[:2] == ("superbraid", "cli"):
        return []
    return imports_reaching(source, package, "cli")


def _modules():
    for path in sorted(ROOT.rglob("*.py")):
        rel = path.relative_to(ROOT)
        yield rel, path.read_text(), ("superbraid", *rel.parent.parts)


def test_no_module_imports_a_private_name_across_subpackages():
    violations = [f"{rel}: {hit}" for rel, source, package in _modules()
                  for hit in cross_private_imports(source, package)]
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


def test_only_the_front_end_imports_the_front_end():
    violations = [f"{rel}: {hit}" for rel, source, package in _modules()
                  for hit in cli_imports(source, package)]
    assert not violations, "\n".join(violations)


def test_checker_flags_imports_of_the_front_end():
    engine = ("superbraid", "homology_engine")
    top = ("superbraid",)
    assert cli_imports("from ..cli.fixtures import fixture", engine)
    assert cli_imports("from .. import cli", engine)
    assert cli_imports("import superbraid.cli.main as cli", engine)
    assert cli_imports("from superbraid import cli", engine)
    assert cli_imports("from .cli import main", top)
    assert not cli_imports("from ..reference import fixture", engine)
    assert not cli_imports("from .reference import fixture", top)
    assert not cli_imports("from .client import x", top)
    assert not cli_imports("from .fixtures import fixture",
                           ("superbraid", "cli"))
    assert not cli_imports("from ..reference import fixture",
                           ("superbraid", "cli"))


def test_the_engine_does_not_import_the_reference_tables():
    """Calibration certifies the representation against reduced Burau, so
    only the golden-table checks of the front end and the tests read the
    reference tables."""
    violations = [f"{rel}: {hit}" for rel, source, package in _modules()
                  if package[:2] == ("superbraid", "homology_engine")
                  for hit in imports_reaching(source, package, "reference")]
    assert not violations, "\n".join(violations)
    engine = ("superbraid", "homology_engine")
    assert imports_reaching("from ..reference import fixture", engine,
                            "reference")
    assert imports_reaching("from .. import reference", engine, "reference")
    assert not imports_reaching("from ..surface_rep.burau import burau",
                                engine, "reference")


def test_local_systems_do_not_import_the_curve_representation():
    """coxeter_complex sits below surface_rep, which builds its braid action
    as a coxeter_complex.LocalSystem; an import back would be a cycle."""
    violations = [f"{rel}: {hit}" for rel, source, package in _modules()
                  if package[:2] == ("superbraid", "coxeter_complex")
                  for hit in imports_reaching(source, package, "surface_rep")]
    assert not violations, "\n".join(violations)
    cx = ("superbraid", "coxeter_complex")
    assert imports_reaching("from ..surface_rep.twists import RelationError",
                            cx, "surface_rep")
    assert imports_reaching("from .. import surface_rep", cx, "surface_rep")
    assert not imports_reaching("from .groups import CoxeterSpec", cx,
                                "surface_rep")

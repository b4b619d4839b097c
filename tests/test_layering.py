"""Layering: no module imports a private name from another subpackage,
nothing outside the command-line front end imports it, the engine does not
read the reference tables, the local systems of coxeter_complex do not
import the curve representation built on them, no module keeps mutable
state of its own (what a process keeps lives in functools caches), no
module imports a name it never reads, and the program's environment
variables and options match a pinned inventory."""

from __future__ import annotations

import argparse
import ast
from pathlib import Path
from types import MappingProxyType

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


_MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set,
                     ast.DictComp, ast.ListComp, ast.SetComp)


def _is_mutable(value) -> bool:
    return isinstance(value, _MUTABLE_DISPLAYS) or (
        isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
        and value.func.id in ("dict", "list", "set"))


def mutable_module_state(source: str) -> list[str]:
    """Module-level names that source binds to a dict, list or set display
    (a comprehension included) or to a dict(), list() or set() call.
    __all__ is exempt; function and class bodies are not module level."""
    found = []

    def visit(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets
                         if isinstance(t, ast.Name) and t.id != "__all__"]
                if names and node.value is not None and _is_mutable(
                        node.value):
                    found.append(f"line {node.lineno}: {', '.join(names)}")
            for field in ("body", "orelse", "finalbody", "handlers"):
                visit(getattr(node, field, ()))

    visit(ast.parse(source).body)
    return found


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


def test_no_module_keeps_mutable_state():
    """Module state is immutable: a memo is a functools cache, and a table
    is a tuple, a frozenset or a MappingProxyType."""
    violations = [f"{rel}: {hit}" for rel, source, _ in _modules()
                  for hit in mutable_module_state(source)]
    assert not violations, "\n".join(violations)


def test_checker_flags_mutable_module_state():
    assert mutable_module_state("_MEMO: dict[int, int] = {}")
    assert mutable_module_state("_SEEN = []")
    assert mutable_module_state("PRIMES = {2, 3, 5}")
    assert mutable_module_state("TABLE = {k: k for k in range(3)}")
    assert mutable_module_state("ROWS = [k for k in range(3)]")
    assert mutable_module_state("_MEMO = dict()")
    assert mutable_module_state("A = B = list()")
    assert mutable_module_state("if True:\n    _MEMO = set()")
    assert mutable_module_state("try:\n    pass\nexcept ImportError:\n"
                                "    _MEMO = {}")
    assert not mutable_module_state("__all__ = ['x', 'y']")
    assert not mutable_module_state("GRID = (1, 2)\nKEYS = frozenset({1})")
    assert not mutable_module_state(
        "TABLE = MappingProxyType({1: 2})")
    assert not mutable_module_state("def f():\n    seen = []")
    assert not mutable_module_state("class C:\n    rows = []")
    assert not mutable_module_state("_ANNOTATED: dict")


def unused_imports(source: str) -> list[str]:
    """Names that source imports and never reads.  A module that defines
    __all__ imports to re-export, and a from __future__ import is a
    directive, so neither is checked."""
    tree = ast.parse(source)
    if any(isinstance(target, ast.Name) and target.id == "__all__"
           for node in tree.body if isinstance(node, ast.Assign)
           for target in node.targets):
        return []
    imported = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom)
                and node.module != "__future__")):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in read and name != "*"]


def test_no_unused_imports():
    violations = [f"{rel}: {hit}" for rel, source, _ in _modules()
                  for hit in unused_imports(source)]
    assert not violations, "\n".join(violations)


def test_checker_flags_unused_imports():
    assert unused_imports("import os") == ["line 1: os"]
    assert unused_imports("from .systems import RelationError, LocalSystem\n"
                          "x: LocalSystem") == ["line 1: RelationError"]
    assert unused_imports("import numpy as np") == ["line 1: np"]
    assert unused_imports("def f():\n    import json") == ["line 2: json"]
    assert not unused_imports("import os.path\nos.path.join('a')")
    assert not unused_imports("from .a import b\ndef f(x: b): pass")
    assert not unused_imports("from __future__ import annotations")
    assert not unused_imports("from .a import b\n__all__ = ['b']")
    assert not unused_imports("from .a import b\ntry:\n    b()\n"
                              "except ImportError:\n    pass")


def environment_reads(source: str) -> list[str]:
    """The variables source reads through os.environ.get, os.environ[...]
    or os.getenv.  A key that is not a string literal reads as its source
    text, so it cannot pass for a name of the inventory."""
    found = []
    for node in ast.walk(ast.parse(source)):
        key = None
        if (isinstance(node, ast.Call) and node.args and ast.unparse(
                node.func) in ("os.environ.get", "os.getenv")):
            key = node.args[0]
        elif (isinstance(node, ast.Subscript)
              and ast.unparse(node.value) == "os.environ"):
            key = node.slice
        if key is not None:
            literal = (isinstance(key, ast.Constant)
                       and isinstance(key.value, str))
            found.append(key.value if literal else ast.unparse(key))
    return found


# Every knob of the program: the environment variables it reads and each
# subcommand's options (help aside).  A new one is an edit to this table.
ENVIRONMENT = frozenset({"SUPERBRAID_BIT_BUDGET", "SUPERBRAID_CACHE"})
OPTIONS = MappingProxyType({
    "twist": ("--n", "--d", "--k", "--construction", "--format"),
    "homology": ("--n", "--d", "--coeff", "--trivial", "--cache-dir",
                 "--format"),
    "table": ("--d", "--n-max", "--cache-dir", "--format"),
    "series": ("--p", "--mode", "--max-q", "--max-t", "--format"),
    "verify": ("--window", "--inject-fault", "--cache-dir", "--format"),
})


def test_knob_inventory():
    from superbraid.cli.main import build_parser

    read = {name for _, source, _ in _modules()
            for name in environment_reads(source)}
    assert read == ENVIRONMENT
    parser = build_parser()
    [commands] = [action for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    options = {name: tuple(option for action in sub._actions
                           if not isinstance(action, argparse._HelpAction)
                           for option in action.option_strings)
               for name, sub in commands.choices.items()}
    assert options == dict(OPTIONS)


def test_checker_finds_environment_reads():
    assert environment_reads('import os\nos.environ.get("A", "1")') == ["A"]
    assert environment_reads('x = os.environ["B"]') == ["B"]
    assert environment_reads('os.getenv("C")') == ["C"]
    assert environment_reads("os.getenv(NAME)") == ["NAME"]
    assert environment_reads('os.environ.get(f"X_{k}")') == ["f'X_{k}'"]
    assert environment_reads(
        'def f():\n    return os.environ["D"]') == ["D"]
    assert not environment_reads('config.get("A")')
    assert not environment_reads('os.environ.copy()')
    assert not environment_reads('"os.getenv(\'A\')"')

"""The import layering that keeps the verifier independent, and the
label boundary.

``verify`` and ``oracle`` may import nothing of the package but
``topology``, and ``topology`` nothing of the package at all, so no
constructor or path code can reach the checks.  Only the CLI imports
the oracle: the constructor reads its base families from a table.
``paths``, ``verify`` and ``oracle`` work on plain int labels and never
name ``Vertex``, and a ``SteinerTree`` is its label edges only.  Everything is read from the source with ``ast``, including
imports inside functions.

The package ``__init__`` imports nothing, so each of ``topology``,
``verify``, ``oracle``, ``paths`` and ``construct`` loads, at run time,
only the package modules that its source imports.  Importing the CLI, and then running a serial
sweep, loads none of the modules that only some commands need.  Both
are checked in a fresh interpreter, since pytest itself has long since
loaded the whole package, ``dataclasses`` and ``logging``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aqsteiner

PACKAGE_DIR = Path(aqsteiner.__file__).parent


def package_imports(source: str) -> set[str]:
    """The package modules that a module's source imports, at any depth."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                parts = node.module.split(".") if node.module else []
            elif node.module and node.module.split(".")[0] == "aqsteiner":
                parts = node.module.split(".")[1:]
            else:
                continue
            # "from . import paths" names the module in its aliases
            found.update([parts[0]] if parts else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "aqsteiner":
                    found.add(parts[1] if len(parts) > 1 else "aqsteiner")
    return found


def module_imports(name: str) -> set[str]:
    return package_imports((PACKAGE_DIR / f"{name}.py").read_text())


def test_import_reader_sees_every_form():
    source = (
        "import json\n"
        "from . import construct as c\n"
        "from .topology import Vertex\n"
        "import aqsteiner.cli\n"
        "from aqsteiner.verify import oracle_tau\n"
        "def f():\n"
        "    from . import paths\n"
    )
    assert package_imports(source) == {"construct", "topology", "cli", "verify", "paths"}


def test_verify_imports_only_topology():
    assert module_imports("verify") == {"topology"}


def test_oracle_imports_only_topology():
    assert module_imports("oracle") == {"topology"}


def test_only_the_cli_imports_the_oracle():
    modules = sorted(path.stem for path in PACKAGE_DIR.glob("*.py"))
    assert [name for name in modules if "oracle" in module_imports(name)] == ["cli"]


def test_topology_imports_nothing_from_the_package():
    assert module_imports("topology") == set()


def test_package_init_imports_nothing_from_the_package():
    assert module_imports("__init__") == set()


def names_used(source: str) -> set[str]:
    """Every identifier that the source names: variables, attributes and
    imported aliases."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update([node.name.split(".")[-1], node.asname or ""])
    return found


def test_name_reader_sees_every_form():
    source = (
        "from .topology import Vertex as V\n"
        "import aqsteiner.topology\n"
        "def f(t):\n"
        "    return topology.Vertex(t, 3).bits\n"
    )
    assert {"Vertex", "V", "topology", "bits"} <= names_used(source)
    assert "Vertex" in names_used("def f(v: Vertex): pass\n")
    # prose in a docstring is not a use
    assert "Vertex" not in names_used("'a Vertex in a string'\n")


def test_paths_and_verify_never_name_vertex():
    for name in ("paths", "verify", "oracle"):
        assert "Vertex" not in names_used((PACKAGE_DIR / f"{name}.py").read_text()), name


def test_steiner_tree_holds_only_edges():
    tree = next(
        node
        for node in ast.walk(ast.parse((PACKAGE_DIR / "construct.py").read_text()))
        if isinstance(node, ast.ClassDef) and node.name == "SteinerTree"
    )
    fields = [stmt.target.id for stmt in tree.body if isinstance(stmt, ast.AnnAssign)]
    assert fields == ["edges"]


# dataclasses drags in inspect, dis and tokenize; the process pool drags
# in logging, and only ``sweep --jobs`` above 1 uses it; only the
# ``oracle`` and ``info`` commands use the oracle
UNUSED_AT_IMPORT = ("dataclasses", "inspect", "concurrent.futures", "logging", "aqsteiner.oracle")


def test_cli_import_and_serial_sweep_stay_lean():
    code = (
        "import contextlib, io, sys\n"
        "import aqsteiner.cli as cli\n"
        "print(cli.__file__)\n"
        f"unused = {UNUSED_AT_IMPORT!r}\n"
        "print(sorted(m for m in unused if m in sys.modules))\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = cli.main(['sweep', '-n', '4', '--samples', '5'])\n"
        "print(code, sorted(m for m in unused if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    module, at_import, after_sweep = proc.stdout.splitlines()
    assert Path(module).parent == PACKAGE_DIR
    assert at_import == "[]"
    assert after_sweep == "0 []"


@pytest.mark.parametrize(
    "module, loaded",
    [
        ("topology", ["topology"]),
        ("verify", ["topology", "verify"]),
        ("paths", ["paths", "topology", "verify"]),
        ("oracle", ["oracle", "topology"]),
        ("construct", ["construct", "paths", "topology", "verify"]),
    ],
)
def test_each_import_loads_only_what_it_imports(module, loaded):
    code = (
        "import sys\n"
        f"import aqsteiner.{module} as m\n"
        "print(m.__file__)\n"
        "print(sorted(k.split('.')[1] for k in sys.modules if k.startswith('aqsteiner.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    path, modules = proc.stdout.splitlines()
    assert Path(path).parent == PACKAGE_DIR
    assert modules == repr(loaded)

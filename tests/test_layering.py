"""The import layering that keeps the verifier independent.

``verify`` may import nothing of the package but ``topology``, and
``topology`` nothing of the package at all, so no constructor or path
code can reach the checks.  Imports are read from the source with
``ast``, including those inside functions.
"""

import ast
from pathlib import Path

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


def test_topology_imports_nothing_from_the_package():
    assert module_imports("topology") == set()


"""Import the aqsteiner package from the ``src/`` tree of this checkout.

The package attribute ``aqsteiner.construct`` is the constructor function,
which hides the submodule of the same name, so every submodule is taken
with ``importlib.import_module``.  Importing this module raises
``ImportError`` when the checkout holds no package source, or when the
package would come from somewhere else.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "aqsteiner"

if not (PACKAGE_DIR / "__init__.py").is_file():
    raise ImportError(f"no aqsteiner package source under {PACKAGE_DIR}")
if str(PACKAGE_DIR.parent) not in sys.path:
    sys.path.insert(0, str(PACKAGE_DIR.parent))

topology = importlib.import_module("aqsteiner.topology")
paths = importlib.import_module("aqsteiner.paths")
construct = importlib.import_module("aqsteiner.construct")
verify = importlib.import_module("aqsteiner.verify")
cli = importlib.import_module("aqsteiner.cli")

if Path(topology.__file__).resolve().parent != PACKAGE_DIR.resolve():
    raise ImportError(f"aqsteiner was imported from {topology.__file__}, not from {PACKAGE_DIR}")

"""No module of the package or the test suite imports a name it never uses, the
package imports nothing beyond numpy and the standard library, and no package
module reads another's underscore names."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "scbsim").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source):
    """Names bound by an import statement that no expression of the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_guard_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from math import pi, tau\nprint(np.e, tau)\n")
    assert unused_imports(source) == [(2, "os"), (4, "pi")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def foreign_imports(source):
    """(line, module) of each absolute import that is neither numpy nor standard library.

    pyproject.toml makes numpy the package's one dependency; scipy, mpmath and
    hypothesis come with the test extra only.
    """
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append((node.lineno, node.module))
    return sorted((line, name) for line, name in imported
                  if name.split(".")[0] != "numpy"
                  and name.split(".")[0] not in sys.stdlib_module_names)


def test_guard_finds_foreign_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from numpy.linalg import svd\nimport scipy.special\nfrom mpmath import mp\n"
              "from . import numerics\n")
    assert foreign_imports(source) == [(5, "scipy.special"), (6, "mpmath")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_depends_on_numpy_only(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def private_reads(source):
    """(line, name) of each underscore name a module reads from another module of
    the package: ``alias._name`` on an alias bound by ``from . import module``, or
    ``from .module import _name``.  Dunder names are public."""
    tree = ast.parse(source)
    modules = set()
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                else:
                    reads.append((node.lineno, f"{node.module}.{alias.name}"))
    reads += [(node.lineno, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules]
    return sorted((line, name) for line, name in reads
                  if name.rsplit(".", 1)[1].startswith("_")
                  and not name.rsplit(".", 1)[1].startswith("__"))


def test_guard_finds_private_reads():
    source = ("import numpy as np\nfrom . import montecarlo as mc\nfrom . import numerics\n"
              "from .scenario import ConfigError, _RULES\n"
              "mc._cancel(np._x)\nmc.cancel()\nnumerics._gamma\nnumerics.__name__\n")
    assert private_reads(source) == [(4, "scenario._RULES"), (5, "mc._cancel"),
                                     (7, "numerics._gamma")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_reads_no_private_name_of_another_module(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []

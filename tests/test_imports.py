"""No module of the package or the test suite imports a name it never uses, the
package imports nothing beyond numpy and the standard library, no package
module reads another's underscore names, and the package's only bit generator
is numpy's SFC64."""

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


# The one per-trial stream: numpy.random's SFC64, run through a Generator.
RANDOM_NAMES = {"SFC64", "Generator"}


def random_reads(source):
    """(line, name) of each numpy.random name a module reads other than SFC64 and
    Generator: ``<name>.random.X`` and ``from numpy.random import X``.  Binding the
    module itself to a name (``from numpy import random``, ``import numpy.random
    as r``) reads "random", since the guard does not follow such a name."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            reads += [(node.lineno, "random") for alias in node.names
                      if alias.name == "numpy.random" and alias.asname]
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            reads += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            reads += [(node.lineno, "random") for alias in node.names if alias.name == "random"]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
              and node.value.attr == "random" and isinstance(node.value.value, ast.Name)):
            reads.append((node.lineno, node.attr))
    return sorted((line, name) for line, name in reads if name not in RANDOM_NAMES)


def test_guard_finds_other_generators():
    source = ("import numpy as np\nimport numpy.random as npr\nfrom numpy import random\n"
              "from numpy.random import Philox, SFC64\n"
              "np.random.Generator(np.random.SFC64(0))\nnp.random.default_rng(1)\n"
              "numpy.random.PCG64(2)\nnp.linalg.random\n")
    assert random_reads(source) == [(2, "random"), (3, "random"), (4, "Philox"),
                                    (6, "default_rng"), (7, "PCG64")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_draws_from_sfc64_only(path):
    """The package constructs no numpy.random bit generator other than SFC64."""
    assert random_reads(path.read_text(encoding="utf-8")) == []

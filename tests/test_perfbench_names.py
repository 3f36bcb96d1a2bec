"""Every scbsim name the benchmark reads exists in the package.

``perfbench/`` imports scbsim modules, reads their attributes and patches
the special functions by name (``replay.recorded_special_functions``).  A
name deleted or no longer imported in the package would surface only when
the benchmark runs, and a missing patch target only in a traced run, as a
failed call-count gate.  This walks the benchmark's sources instead.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
FILES = sorted(PERFBENCH.glob("*.py"))


def missing_names(source):
    """(line, 'module.name') of each scbsim name the source reads that does not exist."""
    tree = ast.parse(source)
    modules = {}    # local alias -> scbsim module
    missing = []

    def need(module, name, line):
        if not hasattr(module, name):
            missing.append((line, f"{module.__name__}.{name}"))

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scbsim":
            for alias in node.names:
                if node.module == "scbsim":
                    modules[alias.asname or alias.name] = importlib.import_module(
                        f"scbsim.{alias.name}")
                else:
                    need(importlib.import_module(node.module), alias.name, node.lineno)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            need(modules[node.value.id], node.attr, node.lineno)
        # (module, "name", replacement) patch tuples
        elif (isinstance(node, ast.Tuple) and len(node.elts) == 3
              and isinstance(node.elts[0], ast.Name) and node.elts[0].id in modules
              and isinstance(node.elts[1], ast.Constant) and isinstance(node.elts[1].value, str)):
            need(modules[node.elts[0].id], node.elts[1].value, node.lineno)
    return sorted(missing)


def test_guard_finds_missing_names():
    source = ("from scbsim import numerics, montecarlo as mc\n"
              "from scbsim.channel import assemble_batch, no_such_function\n"
              "x = mc.CHUNK + mc.NO_CHUNK\n"
              "patches = [(numerics, 'exp_scaled_e1', f), (numerics, 'exp_scaled_e9', f)]\n")
    assert missing_names(source) == [(2, "scbsim.channel.no_such_function"),
                                     (3, "scbsim.montecarlo.NO_CHUNK"),
                                     (4, "scbsim.numerics.exp_scaled_e9")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_perfbench_reads_only_existing_names(path):
    assert missing_names(path.read_text(encoding="utf-8")) == []

"""The benchmark's eppsim-facing modules still import against this checkout.

perfbench/ (run by `python3 perfbench/run.py`) calls eppsim through
workloads.py, traced.py and worker.py. Its own self-checks never import
eppsim, so a removed or renamed name they use would otherwise show only
when the benchmark runs.
"""

import ast
import importlib
from pathlib import Path

import pytest

import eppsim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("workloads", "traced", "worker")


@pytest.mark.parametrize("module", MODULES)
def test_perfbench_module_imports(module, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module(module)


@pytest.mark.parametrize("module", MODULES)
def test_perfbench_reads_only_names_eppsim_has(module):
    tree = ast.parse((PERFBENCH / f"{module}.py").read_text())
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "eppsim"
    }
    assert [name for name in sorted(used) if not hasattr(eppsim, name)] == []

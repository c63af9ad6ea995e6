"""The benchmark's eppsim-facing modules still import and run against this checkout.

perfbench/ (run by `python3 perfbench/run.py`) calls eppsim through
workloads.py, traced.py and worker.py. Its own self-checks never import
eppsim, so a removed or renamed name they use, or a call whose signature
or result changed under its traced rebuild, would otherwise show only
when the benchmark runs (the rebuild only under `--trace 1`). The
rebuild is checked here with the benchmark's own comparison.
"""

import ast
import importlib
from pathlib import Path

import pytest

import eppsim
from eppsim.presets import FIG_DT_GRID, figure_recipe, run_figure
from eppsim.taq import empirical_curve, empirical_kskip, pair_days, parse_trades, saturation_scale
from golden import write_trade_files

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


FIGURES = ("2a", "6b", "8b", "10b")


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's spans, traced and worker modules, imported from perfbench/."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return tuple(importlib.import_module(m) for m in ("spans", "traced", "worker"))


@pytest.mark.parametrize("name", FIGURES)
def test_traced_rebuild_of_a_figure_equals_run_figure(perfbench, name):
    spans, traced, worker = perfbench
    recipe = figure_recipe(name, seed=3, n_replications=2)
    rebuilt = traced.Traced(spans.Tracer(), {}).figure(recipe)
    assert worker.compare(name, rebuilt, run_figure(recipe)) == []


def test_traced_rebuild_of_the_trade_pipeline_equals_the_program(perfbench, tmp_path):
    spans, traced, worker = perfbench
    backend = traced.Traced(spans.Tracer(), {})
    path = write_trade_files(tmp_path)[0]
    # each stage is fed the program's own result of the stage before
    parsed = parse_trades(path)
    days, skipped = pair_days(parsed, "AAA", "BBB")
    curve = empirical_curve(days, FIG_DT_GRID)
    stages = {
        "parse": (backend.parse(path), parsed),
        "pair": (backend.pair(parsed, "AAA", "BBB"), (days, skipped)),
        "curve": (backend.curve(days, FIG_DT_GRID), curve),
        "scale": (backend.scale(curve), saturation_scale(curve)),
        "kskip": (backend.kskip(days, 10), empirical_kskip(days, 10)),
    }
    for op, (rebuilt, program) in stages.items():
        assert worker.compare(op, rebuilt, program) == [], op

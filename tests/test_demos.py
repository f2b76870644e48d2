"""The scripts outside the package: the demos run, and the benchmark's imports resolve."""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize(
    "script", ["spectrum_vs_oracle.py", "transcendental_curve.py", "wavefunction_series.py"]
)
def test_demo_runs(capsys, script):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "perfbench").glob("*.py")))
def test_benchmark_names_resolve(script):
    # every name perfbench imports from rabispec, and every attribute it reads
    # off an imported rabispec module, exists; no benchmark code runs
    tree = ast.parse((ROOT / "perfbench" / script).read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rabispec"):
            source = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(source, alias.name, None)
                if value is None:
                    value = importlib.import_module(f"{node.module}.{alias.name}")
                if isinstance(value, type(importlib)):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                assert hasattr(modules[node.value.id], node.attr), (script, ast.unparse(node))

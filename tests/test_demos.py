"""The narrative scripts in ``demos/`` run to completion."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script", ["spectrum_vs_oracle.py", "transcendental_curve.py", "wavefunction_series.py"]
)
def test_demo_runs(capsys, script):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out.strip()

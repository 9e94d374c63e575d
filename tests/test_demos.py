"""Smoke test for the demo scripts that the test battery runs."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_demo_02_torus_degeneracy(capsys):
    runpy.run_path(str(DEMOS / "02_torus_degeneracy.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "Z3 on torus:2x2: dim 6561" in out
    assert "gauge-orbit kernel basis: 9 vectors, worst H-residual 0.00e+00" in out
    assert "every torus instance shows the |G|^2-fold topological degeneracy" in out

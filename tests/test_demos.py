"""Smoke test for the demo scripts that the test battery runs."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_demo_01_model_tour(capsys):
    runpy.run_path(str(DEMOS / "01_model_tour.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "dense spectrum: min eigenvalue 0.00e+00, kernel dimension 128" in out
    assert "counting oracle agrees: 2 ** (V - 1 - interior) = 128" in out


def test_demo_02_torus_degeneracy(capsys):
    runpy.run_path(str(DEMOS / "02_torus_degeneracy.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "Z3 on torus:2x2: dim 6561" in out
    assert "gauge-orbit kernel basis: 9 vectors, worst H-residual 0.00e+00" in out
    assert "every torus instance shows the |G|^2-fold topological degeneracy" in out


def test_demo_03_anyons_and_braiding(capsys):
    runpy.run_path(str(DEMOS / "03_anyons_and_braiding.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "Z3 on free:3x3; excitation site (1, 1)/(1, 1)" in out
    assert "(chi, c) = (1, 1):  <H> = 2.000000   predicted 2" in out
    assert "lambda[1,2] = +1.000e+00 <--" in out
    assert "  (1,1)     0    1/3    2/3    1/3    2/3      0    2/3      0    1/3" in out
    assert "(entries are exponents k/n of exp(2 pi i k/n); 0 means the strips commute)" in out


def test_demo_04_boundary_sectors(capsys):
    runpy.run_path(str(DEMOS / "04_boundary_sectors.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "  kernel dimension 1280 of 4096 (dense eigh)" in out
    for sector, dim in [("chi=0, c=0", 128), ("chi=0, c=1", 512), ("chi=1, c=0", 128),
                        ("chi=1, c=1", 512)]:
        assert f"  sector ({sector}): dimension {dim}" in out
    assert "  total 1280 == dense kernel 1280" in out
    gaps = [line for line in out.splitlines() if ": gap " in line]
    assert len(gaps) == 4
    assert all(line.endswith("gap 0.00e+00") for line in gaps), gaps


def test_demo_05_verification_battery(capsys):
    runpy.run_path(str(DEMOS / "05_verification_battery.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "verification: group Z2, region torus:2x2, seed 7" in out
    assert "summary: 21 passed, 0 failed, 17 skipped" in out
    selected = out.split("selected boundary checks on Z2 free:3x3:\n")[1].splitlines()
    assert [line.split()[0] for line in selected] == [
        "boundary.charge-equality-eps", "boundary-loop.projection-mu",
        "energy.interior-boundary", "weights.single-excitation"]
    for line in selected:  # "<id> residual <r> < <threshold> [<time>]"
        _, _, residual, _, threshold, _ = line.split()
        assert float(residual) < float(threshold)


def test_demo_06_weak_star_limit(capsys):
    runpy.run_path(str(DEMOS / "06_weak_star_limit.py"), run_name="__main__")
    out = capsys.readouterr().out
    for spec, q in [("Z2", 2), ("Z3", 3), ("Z2xZ2", 4)]:
        assert f"{spec}: excitation (chi, c) at site (1, 1), far probes at (2, 2)" in out
        assert (f"  {q * q} of {q * q} labels read exactly the same on free LxL, "
                "L = 4, 8, 16, 32") in out
    same = [line.split()[7:] for line in out.splitlines() if "same at L = 8, 16, 32" in line]
    assert [len(row) for row in same] == [4, 9, 16]
    assert all(v == "yes" for row in same for v in row)
    # on Z3 the loop of character 1 around the site reads the flux c as exp(-2 pi i c / 3)
    assert ("  encircling-loop-1                 1  -0.5-0.866i  -0.5+0.866i"
            "            1  -0.5-0.866i  -0.5+0.866i            1  -0.5-0.866i  -0.5+0.866i") in out

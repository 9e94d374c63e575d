"""End-to-end tests for the qdouble command line interface."""

import json
import time
import tracemalloc

import numpy as np
import pytest

import qdouble.verify as verify_mod
from qdouble.cli import EXIT_CAP, EXIT_CHECK_FAIL, EXIT_CONFIG, EXIT_OK, main
from qdouble.groups import Phase, parse_group_spec
from qdouble.lattice import parse_region_spec
from qdouble.operators import Operator, QuantumDouble


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes


def test_verify_small_region_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", "Z2", "--region", "free:2x3")
    assert code == EXIT_OK
    assert "summary:" in out
    assert "0 failed" in out


def test_dimension_cap_exits_three(capsys):
    code, _, err = run_cli(capsys, "verify", "--group", "Z2", "--region", "lambda:2")
    assert code == EXIT_CAP
    assert "2^40" in err


def test_unsafe_cap_refuses_a_vector_larger_than_memory(capsys):
    # 2^40 dimensions pass the --unsafe-cap dimension cap, but one complex
    # vector would take 16 TiB: refused before anything is allocated
    import scipy.sparse.linalg  # noqa: F401  (imported by the solver; not timed)

    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code, _, err = run_cli(capsys, "spectrum", "--group", "Z2", "--region", "free:5x5",
                               "--unsafe-cap", "-k", "2")
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_CAP
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    assert line.startswith("error:") and "bytes per complex vector" in line
    assert peak < 16 << 20
    assert elapsed < 1.0


def test_bad_group_exits_two(capsys):
    code, _, err = run_cli(capsys, "verify", "--group", "Z0", "--region", "free:3x3")
    assert code == EXIT_CONFIG
    assert "error" in err


def test_bad_region_exits_two(capsys):
    code, _, _ = run_cli(capsys, "verify", "--group", "Z2", "--region", "free:3")
    assert code == EXIT_CONFIG


def test_unknown_task_exits_two(capsys):
    assert main(["frobnicate"]) == EXIT_CONFIG


def test_failing_check_exits_one(capsys):
    cid = "internal.always-fails"
    verify_mod._check(cid, "synthetic failure", 1e-12)(lambda ctx: 1.0)
    try:
        code, out, _ = run_cli(capsys, "verify", "--group", "Z2", "--region", "torus:2x2")
        assert code == EXIT_CHECK_FAIL
        assert "FAIL" in out
    finally:
        del verify_mod._REGISTRY[cid]


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_torus_csv(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--group", "Z2",
                           "--region", "torus:2x2", "-k", "6")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "index,eigenvalue,residual"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [0, 1, 2, 3, 4, 5]
    vals = np.array([float(r[1]) for r in rows])
    # q^2 = 4 ground states, then the first excited level at 2
    assert np.allclose(vals[:4], 0.0, atol=1e-8)
    assert np.allclose(vals[4:], 2.0, atol=1e-8)
    assert all(float(r[2]) < 1e-8 for r in rows)


def test_spectrum_k_clipped_with_warning(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--group", "Z2",
                             "--region", "free:2x2", "-k", "99")
    assert code == EXIT_OK
    assert "clipped" in err
    assert len(out.strip().splitlines()) == 1 + 16  # header + full 2^4 spectrum


def test_spectrum_boundary_kernel_ground(capsys):
    # fully charged boundary Hamiltonian has ground energy exactly 0
    code, out, _ = run_cli(capsys, "spectrum", "--group", "Z2", "--region", "free:3x3",
                           "--boundary", "eps_mu", "-k", "1")
    assert code == EXIT_OK
    row = out.strip().splitlines()[1].split(",")
    assert abs(float(row[1])) < 1e-10


def test_spectrum_json_fields(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--group", "Z2",
                           "--region", "free:2x3", "-k", "2", "--json")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["task"] == "spectrum"
    assert blob["group"] == "Z2"
    assert len(blob["rows"]) == 2
    assert abs(blob["rows"][0]["eigenvalue"]) < 1e-8
    assert blob["method"] == "dense" and blob["meta"] == {}


def test_spectrum_json_reports_the_iterations(capsys):
    # 2^16 dimensions, above DENSE_EIG_LIMIT: LOBPCG reports its work
    code, out, _ = run_cli(capsys, "spectrum", "--group", "Z2", "--region", "free:2x6",
                           "-k", "2", "--json")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["method"] == "iterative"
    assert blob["meta"]["sigma"] == 11.0
    assert 0 < blob["meta"]["iterations"] <= 2000
    assert all(r["residual"] < 1e-9 * blob["meta"]["sigma"] for r in blob["rows"])


@pytest.mark.parametrize("region, k, built", [("free:2x6", 2, 2), ("torus:2x4", 6, 4)])
def test_spectrum_json_reports_the_kernel_columns(capsys, region, k, built):
    # LOBPCG's first min(k, ground dimension) start columns are built ground states
    code, out, _ = run_cli(capsys, "spectrum", "--group", "Z2", "--region", region,
                           "-k", str(k), "--json")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["method"] == "iterative"
    assert blob["meta"]["kernel_columns"] == built
    assert len(blob["rows"]) == k


def test_one_process_parses_each_call_on_its_own(capsys):
    # the parser is built once; each call still gets its own flags and defaults
    code, out, _ = run_cli(capsys, "spectrum", "--group", "Z2", "--region", "free:3x3",
                           "--boundary", "eps_mu", "--seed", "3", "-k", "2", "--json")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert (blob["boundary"], blob["seed"], len(blob["rows"])) == ("eps_mu", 3, 2)
    code, out, _ = run_cli(capsys, "sectors", "--group", "Z2", "--region", "free:3x3", "--json")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert (blob["task"], blob["seed"]) == ("sectors", 7)
    code, out, _ = run_cli(capsys, "spectrum", "--group", "Z2", "--region", "torus:2x2",
                           "--json")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert (blob["region"], blob["boundary"], blob["seed"]) == ("torus:2x2", "none", 7)
    assert len(blob["rows"]) == 6  # the default k


@pytest.mark.parametrize("group, region, boundary", [
    ("Z2", "free:2x3", "none"), ("Z3", "free:2x2", "none"), ("Z2", "torus:2x2", "none"),
])
def test_spectrum_levels_add_up_to_the_dimension(capsys, group, region, boundary):
    code, out, _ = run_cli(capsys, "spectrum", "--group", group, "--region", region,
                           "--boundary", boundary, "-k", "2", "--json")
    assert code == EXIT_OK
    blob = json.loads(out)
    model = QuantumDouble(parse_group_spec(group), parse_region_spec(region))
    levels = blob["levels"]
    assert [lv["energy"] for lv in levels] == sorted(lv["energy"] for lv in levels)
    assert sum(lv["multiplicity"] for lv in levels) == model.space.dim
    # the solver's lowest eigenvalue is the lowest counted level
    assert blob["rows"][0]["eigenvalue"] == pytest.approx(levels[0]["energy"], abs=1e-8)


def test_spectrum_17_digit_csv(capsys):
    _, out, _ = run_cli(capsys, "spectrum", "--group", "Z2",
                        "--region", "torus:2x2", "-k", "5")
    val = out.strip().splitlines()[-1].split(",")[1]
    # 17 significant digits round-trip doubles exactly
    assert float(val) == float(f"{float(val):.17g}")
    assert val == f"{float(val):.17g}"


# ---------------------------------------------------------------------------
# sectors


def test_sectors_json_z2_3x3(capsys):
    code, out, _ = run_cli(capsys, "sectors", "--group", "Z2",
                           "--region", "free:3x3", "--json")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["kernel_dim"] == 1280
    dims = {(r["chi_digits"], r["c_digits"]): r["dim"] for r in blob["rows"]}
    assert dims == {("0", "0"): 128, ("0", "1"): 512, ("1", "0"): 128, ("1", "1"): 512}
    weights = {(r["chi_digits"], r["c_digits"]): r["weight"] for r in blob["rows"]}
    assert weights[("0", "0")] == pytest.approx(1.0, abs=1e-10)
    assert weights[("1", "1")] == pytest.approx(0.0, abs=1e-10)


def test_sectors_counts_without_diagonalizing(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("qdouble sectors diagonalized or densified")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(Operator, "to_dense", refuse)
    code, out, _ = run_cli(capsys, "sectors", "--group", "Z2",
                           "--region", "free:3x3", "--json")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["method"] == "counting"
    # the rows and kernel dimension the dense eigh route printed
    assert blob["kernel_dim"] == 1280
    rows = [(r["chi_digits"], r["c_digits"], r["dim"]) for r in blob["rows"]]
    assert rows == [("0", "0", 128), ("0", "1", 512), ("1", "0", 128), ("1", "1", 512)]
    weights = [r["weight"] for r in blob["rows"]]
    assert weights == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-12)


def test_sectors_past_the_dense_limit_z3_4x4(capsys):
    code, out, _ = run_cli(capsys, "sectors", "--group", "Z3", "--region", "free:4x4",
                           "--unsafe-cap", "--json")
    assert code == EXIT_OK
    blob = json.loads(out)
    # E = 24 edges, F = 9 faces, I = 4 full stars: at most one nontrivial
    # charge and one nontrivial flux survive in the kernel of H^{eps,mu}
    base = 3 ** (24 - 9 - 4)
    dims = {(r["chi_digits"], r["c_digits"]): r["dim"] for r in blob["rows"]}
    want = {(str(chi), str(c)): base * (4 if chi else 1) * (9 if c else 1)
            for chi in range(3) for c in range(3)}
    assert dims == want
    assert blob["kernel_dim"] == sum(want.values())


def test_sectors_needs_the_boundary_loops(capsys):
    code, _, err = run_cli(capsys, "sectors", "--group", "Z2", "--region", "free:2x3")
    assert code == EXIT_CONFIG
    assert "3x3" in err


@pytest.mark.parametrize("region, boundary, reason", [
    ("torus:2x2", "eps", "a torus has no boundary"),
    ("free:2x3", "mu", "3x3"),
])
def test_spectrum_boundary_needs_the_boundary_loops(capsys, region, boundary, reason):
    code, out, err = run_cli(capsys, "spectrum", "--group", "Z2", "--region", region,
                             "--boundary", boundary, "-k", "2")
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("error:") and reason in err
    assert "Traceback" not in err


def test_sectors_rejects_torus(capsys):
    code, _, err = run_cli(capsys, "sectors", "--group", "Z2", "--region", "torus:2x2")
    assert code == EXIT_CONFIG
    assert "free region" in err


# ---------------------------------------------------------------------------
# braid


def test_braid_z2_character_table(capsys):
    code, out, _ = run_cli(capsys, "braid", "--group", "Z2", "--json")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["character_exponents"] == [["0", "0"], ["0", "1/2"]]
    assert len(blob["crossing_exponents"]) == 4
    assert all(len(row) == 4 for row in blob["crossing_exponents"])
    table = {
        (a, b): blob["crossing_exponents"][i][j]
        for i, a in enumerate(blob["labels"])
        for j, b in enumerate(blob["labels"])
    }
    # charge crossing flux picks up the phase -1 = exp(2 pi i * 1/2)
    assert table[("1;0", "0;1")] == "1/2"
    assert table[("0;1", "1;0")] == "1/2"
    assert table[("1;1", "1;1")] == "0"  # chi(c) twice: (-1)^2
    assert table[("0;0", "1;1")] == "0"


def test_braid_z3_rational_exponents(capsys):
    code, out, _ = run_cli(capsys, "braid", "--group", "Z3", "--json")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["character_exponents"][1][1] == "1/3"
    assert blob["character_exponents"][2][1] == "2/3"
    assert len(blob["crossing_exponents"]) == 9


def test_braid_reads_the_crossing_strips(capsys, monkeypatch):
    monkeypatch.setattr(QuantumDouble, "crossing_phase", lambda self, *labels: Phase.one())
    code, out, _ = run_cli(capsys, "braid", "--group", "Z2", "--json")
    assert code == EXIT_OK
    assert {x for row in json.loads(out)["crossing_exponents"] for x in row} == {"0"}


def test_braid_allocates_no_vector_so_the_dimension_cap_passes(capsys):
    # 8^12 configurations exceed the cap, but braid only composes terms
    code, out, _ = run_cli(capsys, "braid", "--group", "Z2xZ4", "--json")
    assert code == EXIT_OK
    assert run_cli(capsys, "braid", "--group", "Z2xZ4", "--json", "--unsafe-cap")[1] == out
    code, _, err = run_cli(capsys, "excite", "--group", "Z2xZ4", "--json")
    assert code == EXIT_CAP and "--unsafe-cap" in err


def test_braid_needs_an_interior_vertex(capsys):
    code, _, err = run_cli(capsys, "braid", "--group", "Z2", "--region", "free:2x2")
    assert code == EXIT_CONFIG
    assert "interior vertex" in err


def test_braid_csv_row_count(capsys):
    code, out, _ = run_cli(capsys, "braid", "--group", "Z2")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "label_a,label_b,exponent"
    assert len(lines) == 1 + 16


# ---------------------------------------------------------------------------
# excite


def test_excite_z3_defaults(capsys):
    code, out, _ = run_cli(capsys, "excite", "--group", "Z3",
                           "--region", "free:3x3", "--chi", "1", "--c", "1", "--json")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["energy"] == pytest.approx(2.0, abs=1e-10)
    assert blob["boundary_energy"] == pytest.approx(0.0, abs=1e-10)
    assert blob["path_independence_residual"] == pytest.approx(0.0, abs=1e-12)
    weights = {(r["chi_digits"], r["c_digits"]): r["weight"] for r in blob["sector_weights"]}
    assert weights[("1", "1")] == pytest.approx(1.0, abs=1e-10)
    assert weights[("0", "0")] == pytest.approx(0.0, abs=1e-10)


def test_excite_pure_charge_energy_one(capsys):
    code, out, _ = run_cli(capsys, "excite", "--group", "Z2",
                           "--region", "free:3x3", "--chi", "1", "--c", "0", "--json")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["energy"] == pytest.approx(1.0, abs=1e-10)
    assert blob["boundary_energy"] == pytest.approx(0.0, abs=1e-10)


def test_excite_rejects_torus(capsys):
    code, _, err = run_cli(capsys, "excite", "--group", "Z2", "--region", "torus:3x3")
    assert code == EXIT_CONFIG
    assert "free region" in err


def test_excite_rejects_boundary_vertex(capsys):
    code, _, err = run_cli(capsys, "excite", "--group", "Z2", "--region", "free:3x3",
                           "--vertex", "0,0", "--face", "0,0")
    assert code == EXIT_CONFIG
    assert "full star" in err


def test_excite_rejects_bad_label(capsys):
    code, _, err = run_cli(capsys, "excite", "--group", "Z2", "--region", "free:3x3",
                           "--chi", "7", "--c", "0")
    assert code == EXIT_CONFIG
    assert "labels" in err


# ---------------------------------------------------------------------------
# config file, output file, determinism


def test_config_file_supplies_flags(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"group": "Z3", "region": "free:2x2", "k": 2}))
    code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg), "--json")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["group"] == "Z3"
    assert len(blob["rows"]) == 2


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"group": "Z3", "region": "free:2x2", "k": 2}))
    code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg),
                           "--group", "Z2", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["group"] == "Z2"


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"group": "Z2", "wibble": 3}))
    code, _, err = run_cli(capsys, "spectrum", "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert "wibble" in err


@pytest.mark.parametrize("key, value", [("unsafe_cap", "false"), ("json", "no"), ("seed", 7.9),
                                        ("seed", True), ("k", "2"), ("group", 2)])
def test_config_value_of_the_wrong_type_rejected(tmp_path, capsys, key, value):
    # a string "false" must not lift the cap, "no" must not turn JSON on,
    # and 7.9 must not be truncated to seed 7
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"region": "free:5x5", key: value}))
    code, out, err = run_cli(capsys, "sectors", "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert f"config key {key!r}" in err and repr(value) in err
    assert out == ""


def test_config_values_of_the_field_types_apply(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"unsafe_cap": False, "region": "free:5x5"}))
    assert run_cli(capsys, "sectors", "--config", str(cfg))[0] == EXIT_CAP
    cfg.write_text(json.dumps({"unsafe_cap": True, "json": True, "seed": 11, "out": None,
                               "group": "Z3", "region": "free:2x2", "k": 2}))
    code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
    assert code == EXIT_OK
    blob = json.loads(out)
    assert (blob["group"], blob["seed"], len(blob["rows"])) == ("Z3", 11, 2)


def test_missing_config_file_rejected(capsys):
    code, _, _ = run_cli(capsys, "spectrum", "--config", "/no/such/file.json")
    assert code == EXIT_CONFIG


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "spec.csv"
    code, out, _ = run_cli(capsys, "spectrum", "--group", "Z2",
                           "--region", "torus:2x2", "-k", "3", "--out", str(path))
    assert code == EXIT_OK
    assert out == ""  # payload went to the file
    assert path.read_text().startswith("index,eigenvalue,residual")


def test_json_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = main(["spectrum", "--group", "Z2", "--region", "torus:2x2",
                     "-k", "4", "--json", "--out", str(path)])
        assert code == EXIT_OK
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_verify_json_is_seed_free_up_to_timing(capsys):
    # the per-check wall_time differs between runs and the seed is only
    # recorded; every other field is the same at any seed
    blobs = []
    for seed in ("7", "11"):
        code, out, _ = run_cli(capsys, "verify", "--group", "Z2", "--region", "free:3x3",
                               "--seed", seed, "--json")
        assert code == EXIT_OK
        blob = json.loads(out)
        del blob["seed"], blob["config"]["seed"]
        for row in blob["results"]:
            del row["wall_time"]
        blobs.append(blob)
    assert blobs[0] == blobs[1]


def test_verify_json_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "--group", "Z2",
                           "--region", "free:2x3", "--json")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["summary"]["failed"] == 0
    assert len(blob["results"]) == 38

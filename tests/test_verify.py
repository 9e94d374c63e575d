"""Tests for the named verification battery."""

import json

import pytest

from qdouble.groups import make_group
from qdouble.lattice import Region
from qdouble.operators import Operator, QuantumDouble
from qdouble.verify import (
    TOL_ALGEBRAIC,
    CheckError,
    check_ids,
    run_check,
    run_suite,
)
import qdouble.states as states_mod
import qdouble.verify as verify_mod

Z2 = make_group([2])
Z3 = make_group([3])


# ---------------------------------------------------------------------------
# registry


def test_registry_has_38_checks():
    ids = check_ids()
    assert len(ids) == 38
    assert ids == sorted(ids)
    assert len(set(ids)) == 38


def test_registry_known_ids_present():
    # spot-check the stable public names
    ids = set(check_ids())
    for cid in [
        "star.compose",
        "plaquette.orthogonal",
        "terms.projectors-commute",
        "ribbon.path-independence",
        "ribbon.crossing-phase",
        "charge.completeness",
        "boundary.charge-equality-eps",
        "boundary-hamiltonian.kernel-span",
        "sectors.direct-sum",
        "energy.interior-pair",
        "excitation.boundary-ground",
        "weights.mixture-linear",
    ]:
        assert cid in ids


def test_unknown_check_id_raises():
    with pytest.raises(KeyError, match="unknown check id"):
        run_check("no.such-check", Z2, Region.free(2, 2))


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        verify_mod._check("star.compose", "dup", 1e-12)(lambda ctx: 0.0)


# ---------------------------------------------------------------------------
# single checks


def test_run_check_star_compose_torus():
    res = run_check("star.compose", Z2, Region.torus(2, 2), seed=7)
    assert res.passed is True
    assert res.residual < TOL_ALGEBRAIC
    assert res.group == "Z2"
    assert res.region == "torus:2x2"
    assert res.statement


def test_run_check_fuse_small_region():
    res = run_check("ribbon.fuse-same-path", Z3, Region.free(2, 3), seed=7)
    assert res.passed is True
    assert res.residual < TOL_ALGEBRAIC


def test_pass_iff_residual_below_threshold():
    res = run_check("weights.ground-state", Z2, Region.free(3, 3), seed=7)
    assert res.passed == (res.residual < res.threshold)
    assert not res.skipped


def test_skip_has_no_residual_or_verdict():
    res = run_check("boundary-loop.projection-eps", Z2, Region.torus(2, 2))
    assert res.skipped
    assert res.residual is None
    assert res.passed is None
    assert "no boundary" in res.reason


def test_small_free_region_skips_boundary_loop():
    res = run_check("boundary-hamiltonian.ground-zero", Z2, Region.free(2, 3))
    assert res.skipped
    assert "3x3" in res.reason


def test_check_error_carries_id():
    # a check that raises (rather than failing) must abort with its id
    cid = "internal.broken-check"

    def boom(ctx):
        raise RuntimeError("synthetic")

    verify_mod._check(cid, "raises on purpose", 1e-12)(boom)
    try:
        with pytest.raises(CheckError, match=cid):
            run_check(cid, Z2, Region.torus(2, 2))
    finally:
        del verify_mod._REGISTRY[cid]


# ---------------------------------------------------------------------------
# suite runs


@pytest.fixture(scope="module")
def torus_report():
    return run_suite(Z2, Region.torus(2, 2), seed=7)


def test_suite_torus_no_failures(torus_report):
    passed, failed, skipped = torus_report.counts
    assert failed == 0
    assert torus_report.ok
    assert passed + skipped == 38


def test_suite_torus_boundary_checks_skip(torus_report):
    by_id = {r.check_id: r for r in torus_report.results}
    for cid in [
        "boundary-loop.projection-eps",
        "boundary-loop.projection-mu",
        "boundary.charge-equality-eps",
        "boundary.charge-equality-mu",
        "boundary-hamiltonian.positive",
        "boundary-hamiltonian.ground-zero",
        "boundary-hamiltonian.kernel-span",
        "sectors.direct-sum",
        "energy.boundary-pair",
        "energy.interior-boundary",
        "excitation.boundary-ground",
    ]:
        assert by_id[cid].skipped, cid
        assert "no boundary" in by_id[cid].reason


def test_suite_torus_bulk_checks_pass(torus_report):
    by_id = {r.check_id: r for r in torus_report.results}
    for cid in [
        "star.compose",
        "plaquette.adjoint",
        "ribbon.path-independence",
        "ribbon.crossing-phase",
        "charge.ribbon-end",
        "energy.interior-pair",
        "weights.ground-state",
    ]:
        assert by_id[cid].passed is True, cid


def test_suite_results_ordered_by_id(torus_report):
    ids = [r.check_id for r in torus_report.results]
    assert ids == sorted(ids)
    assert ids == check_ids()


def test_suite_deterministic_residuals():
    a = run_suite(Z2, Region.torus(2, 2), seed=7)
    b = run_suite(Z2, Region.torus(2, 2), seed=7)
    for ra, rb in zip(a.results, b.results):
        assert ra.check_id == rb.check_id
        assert ra.residual == rb.residual  # bit-identical, same seed stream
        assert ra.passed == rb.passed


def test_threshold_override_fails_check():
    rep = run_suite(Z2, Region.torus(2, 2), seed=7,
                    threshold_overrides={"weights.ground-state": 1e-30})
    by_id = {r.check_id: r for r in rep.results}
    assert by_id["weights.ground-state"].passed is False
    assert not rep.ok
    assert rep.counts[1] == 1
    assert rep.config["threshold_overrides"] == {"weights.ground-state": 1e-30}


def test_report_json_round_trip(torus_report):
    blob = json.loads(torus_report.to_json())
    assert blob["group"] == "Z2"
    assert blob["region"] == "torus:2x2"
    assert blob["seed"] == 7
    assert len(blob["results"]) == 38
    assert blob["summary"]["failed"] == 0
    row = blob["results"][0]
    for field in ("check_id", "statement", "residual", "threshold",
                  "passed", "skipped", "reason", "wall_time"):
        assert field in row


def test_report_text_has_summary_line(torus_report):
    text = torus_report.to_text()
    assert text.splitlines()[0].startswith("verification: group Z2")
    assert "summary:" in text.splitlines()[-1]


def test_check_result_is_frozen():
    res = run_check("star.compose", Z2, Region.torus(2, 2))
    with pytest.raises(AttributeError):
        res.passed = False


def test_suite_small_free_region_all_green():
    rep = run_suite(Z2, Region.free(2, 3), seed=7)
    assert rep.ok
    passed, failed, skipped = rep.counts
    assert failed == 0
    assert passed >= 9  # algebraic checks that need no interior still run


# ---------------------------------------------------------------------------
# shared per-run artifacts


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_suite_builds_uniform_mixture_once(monkeypatch):
    builds = _count_calls(monkeypatch, states_mod, "_flat_orbit_representatives")
    ctx = verify_mod._Ctx(QuantumDouble(Z3, Region.free(3, 3)), seed=7)
    for cid in ("boundary-hamiltonian.ground-zero", "boundary-hamiltonian.kernel-span"):
        assert verify_mod._run_one(cid, ctx, None).passed is True
    assert len(builds) == 1


def test_boundary_positive_reuses_kernel_spectrum(monkeypatch):
    densified = _count_calls(monkeypatch, Operator, "to_dense")
    ctx = verify_mod._Ctx(QuantumDouble(Z2, Region.free(3, 3)), seed=7)
    for cid in ("boundary-hamiltonian.positive", "sectors.direct-sum"):
        assert verify_mod._run_one(cid, ctx, None).passed is True
    assert len(densified) == 1

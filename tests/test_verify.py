"""Tests for the named verification battery."""

import itertools
import json

import numpy as np
import pytest

from qdouble.groups import make_group
from qdouble.lattice import Region, ribbon_to_boundary
from qdouble.operators import DENSE_MATRIX_LIMIT, Operator, QuantumDouble
from qdouble.sparse import sparse_apply, squared_norms, take_parts, to_columns
from qdouble.spectral import sector_dimensions
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
Z4 = make_group([4])

# the local operator identities of acceptance criterion 01 that compare
# operators through _Ctx.probe
LOCAL_PROBE_CHECKS = (
    "star.compose",
    "star.adjoint",
    "plaquette.orthogonal",
    "plaquette.adjoint",
    "star-plaquette.exchange",
    "terms.projectors-commute",
    "ribbon.fuse-same-path",
    "ribbon.endpoint-exchange",
    "ribbon.concatenate",
    "ribbon.crossing-phase",
)


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
    # Z2 free:3x3 is the one boundary instance below the dense cutoff: the
    # three kernel checks densify one matrix between them, and decide exactly
    densified = _count_calls(monkeypatch, Operator, "to_dense")
    ctx = verify_mod._Ctx(QuantumDouble(Z2, Region.free(3, 3)), seed=7)
    for cid in ("boundary-hamiltonian.positive", "boundary-hamiltonian.kernel-span",
                "sectors.direct-sum"):
        result = verify_mod._run_one(cid, ctx, None)
        assert result.passed is True and result.residual == 0.0, cid
    assert len(densified) == 1


def test_kernel_checks_fail_without_the_flux_strips(monkeypatch):
    # ground vectors dressed by charge strips alone span sectors (0, 0) and
    # (1, 0), 128 + 128 of the 1280 kernel dimensions
    original = verify_mod._kernel_family

    def no_flux(ctx, ground, n_ground):
        family, sectors = original(ctx, ground, n_ground)
        keep = np.flatnonzero(sectors[:, 1] == 0)
        return take_parts(family, ctx.region.num_edges, keep), sectors[keep]

    monkeypatch.setattr(verify_mod, "_kernel_family", no_flux)
    ctx = verify_mod._Ctx(QuantumDouble(Z2, Region.free(3, 3)), seed=7)
    span = verify_mod._run_one("boundary-hamiltonian.kernel-span", ctx, None)
    assert span.passed is False and span.residual == 1280 - 256
    direct = verify_mod._run_one("sectors.direct-sum", ctx, None)
    assert direct.passed is False and direct.residual == 512


@pytest.mark.parametrize("orders", [[2], [3], [2, 2]], ids=["Z2", "Z3", "Z2xZ2"])
def test_kernel_family_sectors_match_the_sector_projectors(orders):
    model = QuantumDouble(make_group(orders), Region.free(3, 3))
    ctx = verify_mod._Ctx(model, seed=7)
    num_edges, q = model.region.num_edges, model.group.size
    ground, n_ground = ctx.mixture.stack, len(ctx.mixture.weights)
    if model.space.dim > DENSE_MATRIX_LIMIT:  # a sample of ground parts
        ground, n_ground = take_parts(ground, num_edges, [0, 1, n_ground - 1]), 3
    family, sectors = verify_mod._kernel_family(ctx, ground, n_ground)
    assert len({tuple(s) for s in sectors}) == q * q
    for chi, c in itertools.product(range(q), repeat=2):
        kept = sparse_apply(model.sector_projector(chi, c), family)
        inside = (sectors == (chi, c)).all(axis=1)
        assert np.allclose(squared_norms(kept, num_edges, len(sectors)), inside, rtol=0, atol=1e-12)


def test_sector_dimensions_of_the_dense_kernel_equal_the_family_ranks(z2_boundary_eigh):
    model, vals, vecs = z2_boundary_eigh
    ctx = verify_mod._Ctx(model, seed=7)
    family, sectors = verify_mod._kernel_family(ctx, ctx.mixture.stack, len(ctx.mixture.weights))
    ranks = {}
    for chi, c in itertools.product(range(2), repeat=2):
        labels = np.flatnonzero((sectors == (chi, c)).all(axis=1))
        part = take_parts(family, model.region.num_edges, labels)
        cols = to_columns(part, model.space, len(labels), np.complex128)
        ranks[(chi, c)] = verify_mod._rank(cols, verify_mod.TOL_KERNEL)
    assert ranks == {(0, 0): 128, (0, 1): 512, (1, 0): 128, (1, 1): 512}
    assert sector_dimensions(model, vecs[:, vals < 1e-8]) == ranks


# ---------------------------------------------------------------------------
# comparison on the joint support


def test_probe_separates_unequal_operators():
    for group, region in ((Z3, Region.free(3, 3)), (Z4, Region.free(3, 3))):
        model = QuantumDouble(group, region)
        ctx = verify_mod._Ctx(model, seed=7)
        ctx.reseed("probe-test")
        v = region.interior_vertices()[0]
        f = region.faces()[0]
        rib = ribbon_to_boundary(region, region.site(v, v))
        far = region.faces()[-1]
        pairs = {
            "star shifts by 1 and 2": (model.star_shift(v, 1), model.star_shift(v, 2)),
            "plaquette and identity": (model.plaquette(f), model.identity()),
            "ribbon with the wrong phase": (
                model.ribbon_char(rib, 1, 1), model.ribbon_char(rib, 1, 1).scaled(-1.0)),
            "ribbon without its phase": (model.ribbon_char(rib, 1, 1), model.ribbon_char(rib, 0, 1)),
            # 8 edges: above the exact limit on Z4, so random probes decide
            "star times far plaquette": (
                model.star_shift(v, 1).compose(model.plaquette(far)),
                model.star_shift(v, 2).compose(model.plaquette(far)),
            ),
        }
        for name, (a, b) in pairs.items():
            assert ctx.probe(a, b) >= 0.5, (group.spec, name)
            assert ctx.probe(a, a) < TOL_ALGEBRAIC, (group.spec, name)


def test_local_checks_stay_off_the_full_space(monkeypatch):
    ctx = verify_mod._Ctx(QuantumDouble(Z4, Region.free(3, 3)), seed=7)

    def refuse(*args, **kwargs):
        raise AssertionError("a local check touched the 4^12-dim space")

    for name in ("random_vectors", "shift_perm", "form_values", "apply_terms"):
        monkeypatch.setattr(ctx.model.space, name, refuse)
    for cid in LOCAL_PROBE_CHECKS:
        assert verify_mod._run_one(cid, ctx, None).passed is True, cid


def test_local_check_residuals_do_not_depend_on_the_seed():
    region = Region.free(3, 3)
    for cid in LOCAL_PROBE_CHECKS:
        a = run_check(cid, Z4, region, seed=7)
        b = run_check(cid, Z4, region, seed=11)
        assert a.passed is True and b.passed is True, cid
        assert a.residual == b.residual, cid


def test_crossing_check_shares_one_space_across_label_pairs(monkeypatch):
    # one space per probe would be q^4 = 256 spaces on Z4; only pairs whose
    # joint support is smaller than the strips' get a space of their own
    import qdouble.operators as operators_mod

    built = []
    original = operators_mod.HilbertSpace.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(operators_mod.HilbertSpace, "__init__", counting_init)
    result = run_check("ribbon.crossing-phase", Z4, Region.free(3, 3), seed=7)
    assert result.passed is True
    assert len(built) < Z4.size ** 4 // 2

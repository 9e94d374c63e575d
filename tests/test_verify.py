"""Tests for the named verification battery."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from qdouble.groups import make_group, parse_group_spec
from qdouble.lattice import Region, parse_region_spec, ribbon_to_boundary
from qdouble.operators import DENSE_MATRIX_LIMIT, MIXTURE_SUPPORT_LIMIT, Operator, QuantumDouble
from qdouble.sparse import (SparseState, grow, row_keys, sparse_apply, squared_norms,
                            stack_matrix, stack_rank, take_parts)
from qdouble.states import spanning_family
from qdouble.verify import (
    TOL_ALGEBRAIC,
    CheckError,
    check_ids,
    run_check,
    run_suite,
)
import qdouble.cli as cli_mod
import qdouble.states as states_mod
import qdouble.verify as verify_mod

import reference as ref

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
# the other checks that compare operators through _Ctx.probe on Z4 free
# 3x3, where their joint supports have 7 to 12 edges
WIDE_PROBE_CHECKS = (
    "boundary.charge-equality-mu",
    "boundary-loop.projection-mu",
    "charge.local-invariance",
)
# instances on which every probe of run_suite is compared with the oracle
ORACLE_INSTANCES = (
    ("Z2", "free:3x3"), ("Z3", "free:3x3"), ("Z2xZ2", "free:3x3"), ("Z4", "free:3x3"),
    ("Z2", "torus:3x3"), ("Z3", "torus:2x2"),
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
        assert ra.residual == rb.residual  # bit-identical
        assert ra.passed == rb.passed


def test_a_tighter_registered_tolerance_fails_its_check(monkeypatch):
    statement, _, fn = verify_mod._REGISTRY["weights.ground-state"]
    monkeypatch.setitem(verify_mod._REGISTRY, "weights.ground-state", (statement, 1e-30, fn))
    rep = run_suite(Z2, Region.torus(2, 2), seed=7)
    by_id = {r.check_id: r for r in rep.results}
    assert by_id["weights.ground-state"].passed is False
    assert by_id["weights.ground-state"].threshold == 1e-30
    assert not rep.ok
    assert rep.counts[1] == 1
    assert rep.config == {"group": "Z2", "region": "torus:2x2", "seed": 7}


def test_report_json_round_trip(torus_report):
    blob = json.loads(json.dumps(torus_report.to_json_dict()))
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
    ctx = verify_mod._Ctx(QuantumDouble(Z3, Region.free(3, 3)))
    for cid in ("boundary-hamiltonian.ground-zero", "boundary-hamiltonian.kernel-span"):
        assert verify_mod._run_one(cid, ctx).passed is True
    assert len(builds) == 1


def test_residual_checks_apply_one_term_operator(monkeypatch):
    # each |A v - lambda v| or |F_a v - F_b v| is one application of the term
    # operator A - lambda I or F_a - F_b: no image is added to another
    ctx = verify_mod._Ctx(QuantumDouble(Z2, Region.free(4, 4)))
    omega = ctx.omega
    added = _count_calls(monkeypatch, SparseState, "add")
    for cid in ("ribbon.excitation-energy", "ribbon.closed-trivial", "ribbon.path-independence",
                "charge.vanish-on-ground", "charge.ribbon-start", "charge.ribbon-end"):
        result = verify_mod._run_one(cid, ctx)
        assert result.passed is True and result.residual == 0.0, cid
    site = ctx.region.site((1, 1), (1, 1))
    assert cli_mod._route_residual(ctx.model, site, 1, 1) == 0.0
    assert added == [] and ctx.omega is omega


def test_boundary_positive_reuses_kernel_spectrum(monkeypatch):
    # on Z2 free:3x3 the three kernel checks decide exactly without
    # densifying the whole matrix
    densified = _count_calls(monkeypatch, Operator, "to_dense")
    ctx = verify_mod._Ctx(QuantumDouble(Z2, Region.free(3, 3)))
    for cid in ("boundary-hamiltonian.positive", "boundary-hamiltonian.kernel-span",
                "sectors.direct-sum"):
        result = verify_mod._run_one(cid, ctx)
        assert result.passed is True and result.residual == 0.0, cid
    assert densified == []


def test_kernel_checks_fail_without_the_flux_strips(monkeypatch):
    # ground vectors dressed by charge strips alone span sectors (0, 0) and
    # (1, 0), 128 + 128 of the 1280 kernel dimensions
    original = verify_mod._kernel_family

    def no_flux(ctx, ground):
        family, sectors = original(ctx, ground)
        keep = np.flatnonzero(sectors[:, 1] == 0)
        return take_parts(family, keep), sectors[keep]

    monkeypatch.setattr(verify_mod, "_kernel_family", no_flux)
    ctx = verify_mod._Ctx(QuantumDouble(Z2, Region.free(3, 3)))
    span = verify_mod._run_one("boundary-hamiltonian.kernel-span", ctx)
    assert span.passed is False and span.residual == 1280 - 256
    direct = verify_mod._run_one("sectors.direct-sum", ctx)
    assert direct.passed is False and direct.residual == 512


@pytest.mark.parametrize("orders", [[2], [3], [2, 2]], ids=["Z2", "Z3", "Z2xZ2"])
def test_kernel_family_sectors_match_the_sector_projectors(orders):
    model = QuantumDouble(make_group(orders), Region.free(3, 3))
    ctx = verify_mod._Ctx(model)
    q = model.group.size
    ground = ctx.mixture.stack
    if model.space.dim > DENSE_MATRIX_LIMIT:  # a sample of ground parts
        ground = take_parts(ground, [0, 1, ground.n_parts - 1])
    family, sectors = verify_mod._kernel_family(ctx, ground)
    assert len({tuple(s) for s in sectors}) == q * q
    for chi, c in itertools.product(range(q), repeat=2):
        kept = sparse_apply(model.sector_projector(chi, c), family)
        inside = (sectors == (chi, c)).all(axis=1)
        assert np.allclose(squared_norms(kept), inside, rtol=0, atol=1e-12)


def test_sector_dimensions_of_the_dense_kernel_equal_the_family_ranks(z2_boundary_eigh):
    model, vals, vecs = z2_boundary_eigh
    ctx = verify_mod._Ctx(model)
    family, sectors = verify_mod._kernel_family(ctx, ctx.mixture.stack)
    ranks = {}
    for chi, c in itertools.product(range(2), repeat=2):
        labels = np.flatnonzero((sectors == (chi, c)).all(axis=1))
        part = take_parts(family, labels)
        cols = stack_matrix(part, model.space, np.complex128).toarray()
        ranks[(chi, c)] = ref._rank(cols, verify_mod.TOL_KERNEL)
    assert ranks == {(0, 0): 128, (0, 1): 512, (1, 0): 128, (1, 1): 512}
    assert ref.sector_dimensions(model, vecs[:, vals < 1e-8]) == ranks


# the checks that decide by a rank of a stack
RANK_CHECKS = ("boundary-hamiltonian.kernel-span", "sectors.direct-sum", "ribbon.span-full-space")


@pytest.mark.parametrize("group_spec, region_spec",
                         [("Z2", "free:3x3"), ("Z3", "free:2x3"), ("Z2xZ2", "free:2x3")])
def test_stack_rank_equals_the_dense_rank(group_spec, region_spec):
    model = QuantumDouble(parse_group_spec(group_spec), parse_region_spec(region_spec))
    ctx = verify_mod._Ctx(model)
    num_edges, dim, tol = model.region.num_edges, model.space.dim, verify_mod.TOL_KERNEL
    family, sectors = ctx.kernel_family
    ground, n_ground = ctx.mixture.stack, len(ctx.mixture.weights)
    # every odd part is a ground part under a nontrivial total flux
    # projector: it cancels to zero and leaves no row
    cancelled = grow(ground, [model.total_flux_projector(1)])
    assert np.array_equal(np.unique(cancelled.labels), 2 * np.arange(n_ground))
    stacks = [(family, len(sectors)), (cancelled, 2 * n_ground),
              (take_parts(family, []), 0)]
    span = spanning_family(model)
    if dim <= DENSE_MATRIX_LIMIT:
        stacks.append((span, dim))
    else:
        # no interior vertex: every part is one configuration, and the dim
        # parts reach every configuration once, so the rank is dim
        assert span.n_configs == len(np.unique(row_keys(span.digits[:, :num_edges]))) == dim
        assert stack_rank(span, 1e-8) == dim
    for st, n in stacks:
        assert st.n_parts == n
        got = stack_rank(st, tol)
        dtype = np.complex128 if st.amps.imag.any() else np.float64
        cols = stack_matrix(st, model.space, dtype).toarray()
        assert got == ref._rank(cols, tol)
        # zero rows leave the rank alone; the one larger matrix, the Z2
        # free:3x3 spanning family, takes its full SVD in criterion 10
        support = cols[np.any(cols != 0, axis=1)]
        if support.size <= 1 << 23:
            assert got == np.linalg.matrix_rank(support)
    assert stack_rank(cancelled, tol) == n_ground
    assert stack_rank(take_parts(family, []), tol) == 0


@pytest.mark.parametrize("group_spec, region_spec, n_parts",
                         [("Z3", "free:3x3", 2187 * 9 * 9), ("Z2", "free:3x4", 512 * 9 * 9)])
def test_rank_checks_pass_on_the_whole_family(monkeypatch, group_spec, region_spec, n_parts):
    # both regions have more than 4096 dimensions; kernel-span dresses every
    # ground part, 2,187 on Z3 and 512 on Z2, with 8 charge and 8 flux strips
    sizes = []
    original = verify_mod._kernel_family

    def recorded(ctx, ground):
        family, sectors = original(ctx, ground)
        sizes.append(len(sectors))
        return family, sectors

    monkeypatch.setattr(verify_mod, "_kernel_family", recorded)
    ctx = verify_mod._Ctx(QuantumDouble(parse_group_spec(group_spec),
                                        parse_region_spec(region_spec)))
    for cid in RANK_CHECKS:
        result = verify_mod._run_one(cid, ctx)
        assert result.passed is True and result.residual == 0.0, cid
    assert sizes == [n_parts]


@pytest.mark.parametrize("orders", [[4], [2, 2]], ids=["Z4", "Z2xZ2"])
def test_rank_checks_skip_by_rows_before_building(monkeypatch, orders):
    # 4^8 mixture rows times (1 + 12)^2 strips, and 4^12 parts of 4 seed rows
    def refuse(*args, **kwargs):
        raise AssertionError("a skipped rank check grew its family")

    monkeypatch.setattr(verify_mod, "grow", refuse)
    monkeypatch.setattr(states_mod, "grow", refuse)
    ctx = verify_mod._Ctx(QuantumDouble(make_group(orders), Region.free(3, 3)))
    rows = dict(zip(RANK_CHECKS, (11_075_584, 11_075_584, 67_108_864)))
    tracemalloc.start()
    try:
        results = [verify_mod._run_one(cid, ctx) for cid in RANK_CHECKS]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for result in results:
        assert result.skipped, result.check_id
        assert f"{rows[result.check_id]} exceeds the limit {MIXTURE_SUPPORT_LIMIT}" in result.reason
    assert peak < 16 << 20


# ---------------------------------------------------------------------------
# comparison on the joint support


def test_probe_separates_unequal_operators():
    for group, region in ((Z3, Region.free(3, 3)), (Z4, Region.free(3, 3))):
        model = QuantumDouble(group, region)
        ctx = verify_mod._Ctx(model)
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
            # 8 edges, 4^8 configurations on Z4: compared on the 4 values of
            # the plaquette's holonomy form
            "star times far plaquette": (
                model.star_shift(v, 1).compose(model.plaquette(far)),
                model.star_shift(v, 2).compose(model.plaquette(far)),
            ),
        }
        for name, (a, b) in pairs.items():
            assert ctx.probe(a, b) >= 0.5, (group.spec, name)
            assert ctx.probe(a, a) < TOL_ALGEBRAIC, (group.spec, name)
            if ref.restricted_dim(a, b) <= DENSE_MATRIX_LIMIT:
                assert abs(ctx.probe(a, b) - ref.exact_probe(a, b)) <= 1e-15, (group.spec, name)


def test_local_checks_stay_off_the_full_space(monkeypatch):
    ctx = verify_mod._Ctx(QuantumDouble(Z4, Region.free(3, 3)))

    def refuse(*args, **kwargs):
        raise AssertionError("a local check touched the 4^12-dim space")

    for name in ("random_vectors", "shift_perm", "form_values", "apply_terms"):
        monkeypatch.setattr(ctx.model.space, name, refuse)
    for cid in LOCAL_PROBE_CHECKS + WIDE_PROBE_CHECKS + ("boundary-hamiltonian.positive",):
        assert verify_mod._run_one(cid, ctx).passed is True, cid


def test_positive_is_exact_and_seed_free():
    # every eigenvalue of H^{eps,mu} with its multiplicity, from its blocks on
    # the image of its holonomy forms: no iterative solve and no start vector
    for seed in (7, 11):
        result = run_check("boundary-hamiltonian.positive", Z3, Region.free(3, 3), seed=seed)
        assert result.passed is True and result.residual == 0.0, seed


def test_label_pairs_are_every_pair():
    ctx = verify_mod._Ctx(QuantumDouble(make_group([5]), Region.free(3, 3)))
    assert ctx.label_pairs() == list(itertools.product(range(5), repeat=2))


def test_local_check_residuals_do_not_depend_on_the_seed():
    region = Region.free(3, 3)
    for cid in LOCAL_PROBE_CHECKS + WIDE_PROBE_CHECKS:
        a = run_check(cid, Z4, region, seed=7)
        b = run_check(cid, Z4, region, seed=11)
        assert a.passed is True and b.passed is True, cid
        assert a.residual == b.residual, cid


def test_crossing_check_builds_no_space(monkeypatch):
    # the q^4 = 256 label pairs on Z4 are compared on the image of their
    # holonomy forms, not on a Hilbert space of their own
    import qdouble.operators as operators_mod

    built = []
    original = operators_mod.HilbertSpace.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    model = QuantumDouble(Z4, Region.free(3, 3))
    monkeypatch.setattr(operators_mod.HilbertSpace, "__init__", counting_init)
    ctx = verify_mod._Ctx(model)
    assert verify_mod._run_one("ribbon.crossing-phase", ctx).passed is True
    assert built == []


def test_crossing_check_images_each_form_tuple_once(monkeypatch):
    # every label pair of the q^4 = 256 on Z4 reads at most the two strips'
    # direct-path forms, so the run images at most the 4 subsets of them
    images = []
    form_image = verify_mod.form_image

    def counting(*args):
        images.append(args[1])
        return form_image(*args)

    monkeypatch.setattr(verify_mod, "form_image", counting)
    result = run_check("ribbon.crossing-phase", Z4, Region.free(3, 3))
    assert result.passed is True and result.residual == 0.0
    assert 1 <= len(images) <= 4
    assert len(set(map(tuple, images))) == len(images)


@pytest.mark.parametrize("group_spec, region_spec", ORACLE_INSTANCES)
def test_probe_equals_the_restricted_matrix_oracle(monkeypatch, group_spec, region_spec):
    compared = []
    probe = verify_mod._Ctx.probe

    def checked(self, op_a, op_b):
        got = probe(self, op_a, op_b)
        if ref.restricted_dim(op_a, op_b) <= DENSE_MATRIX_LIMIT:
            assert abs(got - ref.exact_probe(op_a, op_b)) <= 1e-15
            compared.append(got)
        return got

    monkeypatch.setattr(verify_mod._Ctx, "probe", checked)
    report = run_suite(parse_group_spec(group_spec), parse_region_spec(region_spec), seed=7)
    assert report.ok
    assert len(compared) >= 70

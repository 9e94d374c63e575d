import itertools
import time

import numpy as np
import pytest
import scipy.sparse

import qdouble.sparse as sparse_mod
import qdouble.states as states_mod
from qdouble.groups import GroupError, make_group
from qdouble.lattice import (
    Region,
    RibbonError,
    direct_ribbon,
    dual_ribbon,
    ribbon_between,
    ribbon_to_boundary,
)
from qdouble.operators import (COMPOSE_TERM_LIMIT, DimensionCapError, ProductOp, QuantumDouble,
                               ScaledOp, SumOp, Term, TermOp)
from qdouble.spectral import ground_space
from qdouble.sparse import SparseState, sparse_apply, stack
from qdouble.states import (
    StateFunctional,
    charge_transport,
    conditional_sector_state,
    eventual_constancy_check,
    frustration_free_state,
    detector_energy_residual,
    indistinguishability_check,
    mix,
    probe_family,
    sector_weights,
    seed_expectation,
    single_excitation_state,
    spanning_matrix,
)

import reference as ref

Z2 = make_group([2])
Z3 = make_group([3])
Z4 = make_group([4])
Z2xZ2 = make_group([2, 2])


@pytest.fixture(scope="module")
def model33():
    return QuantumDouble(Z2, Region.free(3, 3))


@pytest.fixture(scope="module")
def omega33(model33):
    return frustration_free_state(model33)


def test_seed_vector_structure(model33, omega33):
    # gauge orbit of the identity configuration: q^(#interior) configurations
    vec = omega33.vector
    assert vec.n_configs == 2
    assert vec.norm() == pytest.approx(1.0)
    assert omega33.expect(model33.identity()) == pytest.approx(1.0)


def test_seed_vector_matches_dense_projection(model33, omega33):
    space = model33.space
    dense = space.basis_vector([0] * space.num_edges)
    for p in ref.ground_projector_factors(model33):
        dense = p.apply(dense)
    dense /= np.linalg.norm(dense)
    assert np.linalg.norm(omega33.vector.to_dense(space) - dense) < 1e-13


def test_frustration_freeness(model33, omega33):
    for v in model33.region.interior_vertices():
        assert omega33.expect(model33.star(v)) == pytest.approx(1.0, abs=1e-12)
    for f in model33.region.faces():
        assert omega33.expect(model33.plaquette(f)) == pytest.approx(1.0, abs=1e-12)
    assert abs(omega33.expect(model33.hamiltonian())) < 1e-12


def test_uniform_mixture_against_dense_trace():
    # oracle: tr(P A)/tr(P) with P assembled densely from a ground basis
    for group, region in [(Z2, Region.free(2, 3)), (Z2, Region.free(3, 3))]:
        model = QuantumDouble(group, region)
        mixture = frustration_free_state(model, "uniform-mixture")
        basis = ref._projector_ground_basis(model, np.random.default_rng(7), 1e-8).vectors
        assert len(mixture.parts) == basis.shape[1]
        probes = [
            model.plaquette((0, 0)),
            model.ribbon_char(direct_ribbon(region, ("h", 0, 0)), 1, 0),
            model.ribbon_char(dual_ribbon(region, ("v", 0, 0)), 0, 1),
        ]
        if region.interior_vertices():
            probes.append(model.star_shift((1, 1), 1))
        for op in probes:
            dense_val = np.trace(basis.conj().T @ op.apply(basis)) / basis.shape[1]
            assert mixture.expect(op) == pytest.approx(dense_val, abs=1e-10)


def _projector_product(model, digits):
    """The oracle: every star average and plaquette projector applied in turn."""
    state = SparseState.basis_state(model.group, model.region.num_edges, digits)
    for p in ref.ground_projector_factors(model):
        state = sparse_apply(p, state)
    return state.normalized()


def _assert_same_state(built, oracle):
    assert np.array_equal(built.digits, oracle.digits)
    assert np.max(np.abs(built.amps - oracle.amps)) <= 1e-15


@pytest.mark.parametrize("group, region, sample", [
    (Z2, Region.free(3, 3), None),
    (Z2, Region.free(3, 4), None),
    (Z3, Region.free(2, 3), None),
    (Z3, Region.free(3, 3), 64),
    (Z4, Region.free(2, 3), None),
    (Z4, Region.free(3, 3), 64),
    (Z2xZ2, Region.free(2, 3), None),
    (Z2xZ2, Region.free(3, 3), 64),
    (Z2, Region.torus(2, 2), None),
    (Z2, Region.torus(2, 3), None),
    (Z3, Region.torus(2, 2), None),
    (Z4, Region.torus(2, 2), None),
    (Z2xZ2, Region.torus(2, 2), None),
], ids=lambda x: getattr(x, "spec", None) or str(x))
def test_orbit_states_equal_the_projector_product(group, region, sample):
    model = QuantumDouble(group, region)
    seed = frustration_free_state(model).vector
    _assert_same_state(seed, _projector_product(model, np.zeros(region.num_edges, np.uint8)))
    reps = states_mod._flat_orbit_representatives(model)
    parts = frustration_free_state(model, "uniform-mixture").parts
    assert len(parts) == len(reps)
    picks = range(len(reps))
    if sample is not None:
        picks = np.random.default_rng(7).choice(len(reps), sample, replace=False)
    for k in picks:
        assert parts[k][0] == 1.0 / len(reps)
        _assert_same_state(parts[k][1], _projector_product(model, reps[k]))


def _representatives_by_loop(model):
    """The reference: one gradient (free) or winding pair (torus) at a time."""
    region, group = model.region, model.group
    mul, inv, q = group.mul_table(), group.inv_table(), group.size
    if region.is_torus:
        reps = np.zeros((q * q, region.num_edges), dtype=np.uint8)
        for k, (a, b) in enumerate(itertools.product(range(q), repeat=2)):
            reps[k, [region.edge_id(("h", 0, j)) for j in range(region.n)]] = a
            reps[k, [region.edge_id(("v", i, 0)) for i in range(region.m)]] = b
        return reps
    interior = set(region.interior_vertices())
    free = [v for v in region.vertices() if v not in interior and v != (0, 0)]
    reps = []
    for assignment in itertools.product(range(q), repeat=len(free)):
        potential = dict.fromkeys(region.vertices(), 0) | dict(zip(free, assignment))
        digits = np.zeros(region.num_edges, dtype=np.uint8)
        for e in region.edges():
            tail, head = region.edge_endpoints(e)
            digits[region.edge_id(e)] = mul[potential[head], inv[potential[tail]]]
        reps.append(digits)
    return np.array(reps)


@pytest.mark.parametrize("group, region", [
    (Z3, Region.free(3, 3)), (Z2xZ2, Region.free(2, 3)), (Z4, Region.torus(2, 3)),
], ids=lambda x: getattr(x, "spec", None) or str(x))
def test_flat_orbit_representatives_match_the_loop(group, region):
    model = QuantumDouble(group, region)
    reps = states_mod._flat_orbit_representatives(model)
    assert reps.dtype == np.uint8
    assert np.array_equal(reps, _representatives_by_loop(model))


def test_orbit_seed_equals_the_projector_product_z3_5x5():
    model = QuantumDouble(Z3, Region.free(5, 5))
    oracle = _projector_product(model, np.zeros(model.region.num_edges, np.uint8))
    seed = frustration_free_state(model).vector
    assert seed.n_configs == 3**9
    _assert_same_state(seed, oracle)


def test_uniform_mixture_builds_without_projectors_or_merges(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the orbit construction applied an operator or merged")

    monkeypatch.setattr(states_mod, "sparse_apply", forbidden)
    monkeypatch.setattr(sparse_mod, "sparse_apply", forbidden)
    monkeypatch.setattr(SparseState, "_merge", forbidden)
    parts = frustration_free_state(QuantumDouble(Z4, Region.free(3, 3)), "uniform-mixture").parts
    assert len(parts) == 4**7
    assert all(s.n_configs == 4 for _, s in parts)


@pytest.mark.parametrize("group, region", [
    (Z2, Region.torus(2, 2)), (Z3, Region.torus(2, 3)), (Z3, Region.free(3, 4)),
], ids=lambda x: getattr(x, "spec", None) or str(x))
def test_refusal_counts_the_built_support(monkeypatch, group, region):
    refused = {}

    def recorded(size, limit, what):
        refused[what] = size
        refuse_above(size, limit, what)

    refuse_above = states_mod.refuse_above
    monkeypatch.setattr(states_mod, "refuse_above", recorded)
    model = QuantumDouble(group, region)
    seed = frustration_free_state(model).vector
    mixture = frustration_free_state(model, "uniform-mixture")
    assert refused["ground seed configurations"] == seed.n_configs
    assert refused["uniform mixture configurations"] == sum(s.n_configs for _, s in mixture.parts)


def test_uniform_mixture_is_frustration_free(model33):
    mixture = frustration_free_state(model33, "uniform-mixture")
    assert mixture.expect(model33.star((1, 1))) == pytest.approx(1.0, abs=1e-12)
    assert mixture.expect(model33.plaquette((1, 1))) == pytest.approx(1.0, abs=1e-12)


def test_open_interior_ribbon_has_zero_ground_expectation():
    region = Region.free(3, 4)
    model = QuantumDouble(Z2, region)
    omega = frustration_free_state(model)
    rib = ribbon_between(region, region.site((1, 1), (1, 1)), region.site((1, 2), (1, 2)))
    for chi, c in [(0, 1), (1, 0), (1, 1)]:
        val = omega.expect(model.ribbon_char(rib, chi, c))
        assert abs(val) < 1e-12
    assert omega.expect(model.ribbon_char(rib, 0, 0)) == pytest.approx(1.0)


def test_single_excitation_energy(model33):
    # H expectation 2 - [chi trivial] - [c trivial] for a boundary-routed ribbon
    site = model33.region.site((1, 1), (1, 1))
    for chi in range(2):
        for c in range(2):
            state = single_excitation_state(model33, site, chi, c)
            want = 2 - (chi == 0) - (c == 0)
            assert state.expect(model33.hamiltonian()) == pytest.approx(want, abs=1e-12)
            bnd = state.expect(model33.hamiltonian(boundary="eps_mu"))
            assert abs(bnd) < 1e-12


def test_single_excitation_is_boundary_ground_z3():
    model = QuantumDouble(Z3, Region.free(3, 3))
    site = model.region.site((1, 1), (0, 0))
    state = single_excitation_state(model, site, 2, 1)
    assert state.expect(model.hamiltonian()) == pytest.approx(2.0, abs=1e-12)
    h_bnd = model.hamiltonian(boundary="eps_mu")
    vec = state.vector
    assert vec.apply(h_bnd).norm() < 1e-12


def test_single_excitation_reads_numpy_and_group_labels():
    model = QuantumDouble(Z3, Region.free(3, 3))
    site = model.region.site((1, 1), (1, 1))
    plain = single_excitation_state(model, site, 2, 1)
    labels = [(np.int64(2), np.int64(1)), (Z3.character_from_index(2), Z3.element_from_index(1))]
    for chi, c in labels:
        state = single_excitation_state(model, site, chi, c)
        assert (state.info["chi"], state.info["c"]) == (2, 1)
        assert np.array_equal(state.stack.digits, plain.stack.digits)
        assert np.array_equal(state.stack.amps, plain.stack.amps)
    for chi, c in [(np.int64(3), 0), (0, np.int64(3)), (-1, 0)]:
        with pytest.raises(GroupError, match="out of range"):
            single_excitation_state(model, site, chi, c)


def test_ribbon_path_independence_on_ground(model33, omega33):
    # equal endpoints, different L-route: identical action on the ground state
    region = model33.region
    s0 = region.site((1, 1), (1, 1))
    s1 = region.site((2, 2), (1, 1))
    for chi, c in [(1, 0), (0, 1), (1, 1)]:
        a = omega33.vector.apply(model33.ribbon_char(ribbon_between(region, s0, s1, "xy"), chi, c))
        b = omega33.vector.apply(model33.ribbon_char(ribbon_between(region, s0, s1, "yx"), chi, c))
        assert a.add(b.scaled(-1.0)).norm() < 1e-12


def test_excitation_routes_agree_locally(model33):
    # different boundary endpoints: same charge at the site, so the same
    # energy, sector weights, and site-local expectations
    site = model33.region.site((1, 1), (1, 1))
    a = single_excitation_state(model33, site, 1, 1, direction=(1, 0))
    b = single_excitation_state(model33, site, 1, 1, direction=(0, 1))
    assert a.expect(model33.hamiltonian()) == pytest.approx(b.expect(model33.hamiltonian()))
    wa, wb = sector_weights(a), sector_weights(b)
    assert wa.as_dict() == pytest.approx(wb.as_dict(), abs=1e-12)
    for name, op in probe_family(model33, site, (1, 1)):
        assert a.expect(op) == pytest.approx(b.expect(op), abs=1e-12), name


def test_single_excitation_validation(model33):
    with pytest.raises(ValueError):
        single_excitation_state(model33, model33.region.site((0, 1), (0, 1)), 1, 1)
    torus_model = QuantumDouble(Z2, Region.torus(2, 2))
    with pytest.raises(ValueError):
        single_excitation_state(torus_model, None, 1, 1)
    site = model33.region.site((1, 1), (1, 1))
    with pytest.raises(RibbonError, match="is not one of the steps"):
        single_excitation_state(model33, site, 1, 1, direction=(0, 2))


def test_sector_weights_ground(model33, omega33):
    w = sector_weights(omega33)
    assert w[(0, 0)] == pytest.approx(1.0, abs=1e-12)
    assert w[(1, 0)] == pytest.approx(0.0, abs=1e-12)
    assert w[(0, 1)] == pytest.approx(0.0, abs=1e-12)
    mixture = frustration_free_state(model33, "uniform-mixture")
    assert sector_weights(mixture)[(0, 0)] == pytest.approx(1.0, abs=1e-12)


def test_sector_weights_single_excitation(model33):
    site = model33.region.site((1, 1), (1, 1))
    for chi in range(2):
        for c in range(2):
            state = single_excitation_state(model33, site, chi, c)
            w = sector_weights(state)
            for sigma in range(2):
                for d in range(2):
                    want = 1.0 if (sigma, d) == (chi, c) else 0.0
                    assert w[(sigma, d)] == pytest.approx(want, abs=1e-10)


def test_sector_weights_z3_excitation():
    model = QuantumDouble(Z3, Region.free(3, 3))
    state = single_excitation_state(model, model.region.site((1, 1), (1, 1)), 1, 2)
    w = sector_weights(state)
    assert w[(1, 2)] == pytest.approx(1.0, abs=1e-10)
    assert sum(w.as_dict().values()) == pytest.approx(1.0, abs=1e-10)


def test_sector_weights_mixture_linearity(model33, omega33):
    site = model33.region.site((1, 1), (1, 1))
    exc = single_excitation_state(model33, site, 1, 1)
    half = mix([(omega33, 0.5), (exc, 0.5)])
    w = sector_weights(half)
    assert w[(0, 0)] == pytest.approx(0.5, abs=1e-10)
    assert w[(1, 1)] == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("group", [Z2, Z3, Z4, Z2xZ2], ids=["Z2", "Z3", "Z4", "Z2xZ2"])
def test_sector_weights_match_the_per_projector_loop(group):
    # every (chi, c) excitation, the uniform mixture, and a conditional state,
    # whose stack is sorted by row rather than by part
    model = QuantumDouble(group, Region.free(3, 3))
    q, site = group.size, model.region.site((1, 1), (1, 1))
    excited = [single_excitation_state(model, site, chi, c) for chi in range(q) for c in range(q)]
    blend = mix([(frustration_free_state(model), 0.5)] + [(e, 0.5 / q**2) for e in excited])
    states = excited + [frustration_free_state(model, "uniform-mixture"),
                        conditional_sector_state(blend, 1, q - 1)]
    for state in states:
        got, want = sector_weights(state).as_dict(), ref.per_projector_sector_weights(state)
        assert got.keys() == want.keys()
        assert max(abs(got[key] - want[key]) for key in want) < 1e-12


def test_sector_weights_refuse_before_matching(monkeypatch, model33):
    # five row widths and 41 bytes a row
    state = frustration_free_state(model33, "uniform-mixture")
    need = state.stack.n_configs * (5 * state.stack.digits.shape[1] + 41)
    monkeypatch.setattr(states_mod, "PHYSICAL_MEMORY_BYTES", need)
    assert sector_weights(state)[(0, 0)] == pytest.approx(1.0, abs=1e-12)

    def no_matching(*args):
        raise AssertionError("rows were matched before refusing")

    monkeypatch.setattr(states_mod, "PHYSICAL_MEMORY_BYTES", need - 1)
    monkeypatch.setattr(states_mod, "shift_matches", no_matching)
    with pytest.raises(DimensionCapError, match="sector weight bytes"):
        sector_weights(state)


def test_sector_weights_record_their_instance(model33, omega33):
    w = sector_weights(omega33)
    assert (w.group_spec, w.region_spec) == ("Z2", "free:3x3")
    assert list(w.as_dict()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert w[(0, 0)] == pytest.approx(1.0)


def test_conditional_state_recovers_component(model33, omega33):
    site = model33.region.site((1, 1), (1, 1))
    exc = single_excitation_state(model33, site, 1, 1)
    half = mix([(omega33, 0.5), (exc, 0.5)])
    cond = conditional_sector_state(half, 1, 1)
    assert cond.info["weight"] == pytest.approx(0.5, abs=1e-10)
    for name, op in probe_family(model33, site, (1, 1)):
        assert cond.expect(op) == pytest.approx(exc.expect(op), abs=1e-10), name


def test_conditional_on_ground_sector_is_identity(model33, omega33):
    cond = conditional_sector_state(omega33, 0, 0)
    for v in model33.region.interior_vertices():
        assert cond.expect(model33.star(v)) == pytest.approx(1.0, abs=1e-12)
    assert abs(cond.expect(model33.hamiltonian())) < 1e-12


def test_conditional_vanishing_sector_raises(model33, omega33):
    with pytest.raises(ValueError):
        conditional_sector_state(omega33, 1, 1)


def test_one_sided_equals_sandwiched_for_interior_ops(model33, omega33):
    site = model33.region.site((1, 1), (1, 1))
    exc = single_excitation_state(model33, site, 1, 0)
    half = mix([(omega33, 0.5), (exc, 0.5)])
    cond = conditional_sector_state(half, 1, 0)
    for name, op in probe_family(model33, site, (1, 1)):
        one = ref.one_sided_sector_expectation(half, 1, 0, op)
        assert one == pytest.approx(cond.expect(op), abs=1e-10), name


def test_charge_transport_morphism(model33, omega33):
    region = model33.region
    rib = ribbon_to_boundary(region, region.site((1, 1), (1, 1)))
    a = model33.star_shift((1, 1), 1)
    b = model33.plaquette_indicator((1, 1), 1)
    probe = omega33.vector
    alpha_id = charge_transport(model33, rib, 1, 1, model33.identity())
    assert probe.apply(alpha_id).add(probe.scaled(-1.0)).norm() < 1e-12
    ab = charge_transport(model33, rib, 1, 1, a @ b)
    a_b = charge_transport(model33, rib, 1, 1, a) @ charge_transport(model33, rib, 1, 1, b)
    diff = probe.apply(ab).add(probe.apply(a_b).scaled(-1.0))
    assert diff.norm() < 1e-12


def test_transport_of_ground_equals_excited(model33, omega33):
    region = model33.region
    site = region.site((1, 1), (1, 1))
    exc = single_excitation_state(model33, site, 1, 1)
    long_rib = ribbon_to_boundary(region, site, direction=(0, -1))
    for name, op in probe_family(model33, site, (1, 1)):
        transported = omega33.expect(charge_transport(model33, long_rib, 1, 1, op))
        assert transported == pytest.approx(exc.expect(op), abs=1e-10), name


def test_detector_energy_residual_reads_one_expectation(monkeypatch, model33):
    # omega(H - D^eps - D^mu) in one pass reads exactly 0 on the flux
    # excitation, where three expectations subtracted read 2.2e-16
    state = single_excitation_state(model33, model33.region.site((1, 1), (1, 1)), 0, 1)
    calls, expect = [], StateFunctional.expect
    monkeypatch.setattr(StateFunctional, "expect",
                        lambda self, op: calls.append(op) or expect(self, op))
    assert detector_energy_residual(state) == 0.0
    assert len(calls) == 1


def test_detector_energy_expectations(model33, omega33):
    site = model33.region.site((1, 1), (1, 1))
    assert detector_energy_residual(omega33) < 1e-12
    both = single_excitation_state(model33, site, 1, 1)
    assert both.expect(model33.hamiltonian()) == pytest.approx(2.0, abs=1e-12)
    de = both.expect(model33.detector_eps())
    dm = both.expect(model33.detector_mu())
    assert de == pytest.approx(1.0, abs=1e-12)
    assert dm == pytest.approx(1.0, abs=1e-12)
    assert detector_energy_residual(both) < 1e-12
    charge_only = single_excitation_state(model33, site, 1, 0)
    assert charge_only.expect(model33.hamiltonian()) == pytest.approx(1.0, abs=1e-12)
    assert charge_only.expect(model33.detector_eps()) == pytest.approx(1.0, abs=1e-12)
    assert abs(charge_only.expect(model33.detector_mu())) < 1e-12
    assert detector_energy_residual(charge_only) < 1e-12


def test_eventual_constancy_small_vs_large():
    dev = eventual_constancy_check(Z2, Region.free(4, 4), Region.free(5, 5), (1, 1), 1, 1)
    assert dev < 1e-10


def test_eventual_constancy_validation():
    with pytest.raises(ValueError):
        eventual_constancy_check(Z2, Region.free(4, 4), Region.torus(5, 5), (1, 1), 1, 1)
    with pytest.raises(ValueError):
        eventual_constancy_check(Z2, Region.free(5, 5), Region.free(4, 4), (1, 1), 1, 1)
    with pytest.raises(ValueError):
        eventual_constancy_check(Z2, Region.free(4, 4), Region.free(5, 5), (0, 0), 1, 1)
    with pytest.raises(ValueError, match="not interior in free:4x4"):  # the far vertex
        eventual_constancy_check(Z2, Region.free(4, 4), Region.free(5, 5), (3, 3), 1, 1)
    with pytest.raises(ValueError, match="boundary ribbons differ"):
        eventual_constancy_check(Z2, Region.free(4, 4), Region.free(5, 5), (2, 2), 1, 1)
    with pytest.raises(GroupError):
        eventual_constancy_check(Z2, Region.free(4, 4), Region.free(5, 5), (1, 1), 2, 1)


def _seed_probes(model):
    """The probe family at site (1, 1), H, both detectors, and a single-edge
    shift, which breaks the flatness of its faces and so leaves dPhi."""
    region = model.region
    site = region.site((1, 1), (1, 1))
    probes = probe_family(model, site, (region.m - 2, region.n - 2))
    edge_shift = TermOp(model.space, [Term(1.0, ((region.edge_id(("h", 1, 1)), 1),))])
    probes += [("H", model.hamiltonian()), ("detector-eps", model.detector_eps()),
               ("detector-mu", model.detector_mu()), ("edge-shift", edge_shift)]
    return site, probes


SEED_CASES = [(g, Region.free(m, m)) for g in (Z2, Z3, Z4, Z2xZ2) for m in (3, 4)]
SEED_CASES += [(Z3, Region.free(5, 5))]


@pytest.mark.parametrize("group, region", SEED_CASES,
                         ids=[f"{g.spec}-{r.spec}" for g, r in SEED_CASES])
def test_seed_expectation_matches_the_stack_route(group, region):
    model = QuantumDouble(group, region)
    site, probes = _seed_probes(model)
    omega = frustration_free_state(model)
    for name, op in probes:
        assert abs(seed_expectation(model, op) - omega.expect(op)) < 1e-12, name
    assert seed_expectation(model, probes[-1][1]) == 0  # no term of the shift meets dPhi
    ribbon = ribbon_to_boundary(region, site)
    for chi, c in itertools.product(range(group.size), repeat=2):
        excited = single_excitation_state(model, site, chi, c)
        for name, op in probes:
            got = seed_expectation(model, charge_transport(model, ribbon, chi, c, op))
            assert abs(got - excited.expect(op)) < 1e-12, (chi, c, name)


def test_seed_expectation_refuses_tori_trees_and_other_spaces(model33):
    op = model33.star((1, 1))
    with pytest.raises(TypeError):
        seed_expectation(model33, op @ ProductOp(model33.space, [op, op]))
    with pytest.raises(TypeError):
        seed_expectation(model33, SumOp(model33.space, [op, op]))
    with pytest.raises(ValueError):
        seed_expectation(QuantumDouble(Z2, Region.torus(2, 2)), model33.identity())
    with pytest.raises(ValueError, match="operator on 12 edges, state on 24"):
        seed_expectation(QuantumDouble(Z2, Region.free(4, 4)), op)
    with pytest.raises(GroupError):
        seed_expectation(QuantumDouble(Z3, Region.free(3, 3)), op)


def test_eventual_constancy_reads_exactly_at_every_size():
    # the stack route read 3.09e-13 on the first pair and refused the second
    assert eventual_constancy_check(Z3, Region.free(4, 4), Region.free(5, 5), (1, 1), 1, 2) == 0.0
    assert eventual_constancy_check(Z3, Region.free(5, 5), Region.free(6, 6), (1, 1), 1, 2) == 0.0
    t0 = time.perf_counter()
    deviation = eventual_constancy_check(Z3, Region.free(16, 16), Region.free(32, 32), (1, 1), 1, 2)
    assert time.perf_counter() - t0 < 1.0
    assert deviation == 0.0


def test_vector_seed_vs_mixture_inner_block():
    model = QuantumDouble(Z2, Region.free(4, 4))
    assert indistinguishability_check(model) < 1e-10


@pytest.mark.parametrize("group, region", [(Z2, Region.free(3, 4)), (Z3, Region.free(3, 3))],
                         ids=["Z2-free:3x4", "Z3-free:3x3"])
def test_mixture_expect_matches_the_per_part_sum(monkeypatch, group, region):
    # Z2 free:3x4 has 512 parts, so the stack's labels take two bytes; a mix
    # of the seed, an excitation and the mixture has parts of every support
    model = QuantumDouble(group, region)
    site = region.site((1, 1), (1, 1))
    state = mix([(frustration_free_state(model, "uniform-mixture"), 0.5),
                 (frustration_free_state(model, "vector-seed"), 0.25),
                 (single_excitation_state(model, site, 1, 1), 0.25)])
    loop = ribbon_between(region, site, region.site((1, 2), (1, 2)))
    ops = [model.star((1, 1)), model.plaquette((1, 1)), model.ribbon_char(loop, 1, 1),
           model.star_shift((1, 1), 1), model.hamiltonian()]
    calls = []
    monkeypatch.setattr(states_mod, "sparse_apply",
                        lambda op, st: calls.append(op) or sparse_apply(op, st))
    for op in ops:
        want = sum(w * s.dot(sparse_apply(op, s)) for w, s in state.parts)
        assert abs(state.expect(op) - want) < 1e-13
    assert calls == []  # no sparse_apply for a TermOp


@pytest.mark.parametrize("group, region", [(Z2, Region.free(3, 4)), (Z3, Region.free(3, 3))],
                         ids=["Z2-free:3x4", "Z3-free:3x3"])
def test_sum_and_product_expectations_match_the_per_part_sum(monkeypatch, group, region):
    model, q, n_edges = QuantumDouble(group, region), group.size, region.num_edges
    space, site = model.space, region.site((1, 1), (1, 1))
    state = mix([(frustration_free_state(model, "vector-seed"), 0.5),
                 (single_excitation_state(model, site, 1, 1), 0.5)])
    edge_pairs = list(itertools.combinations(range(n_edges), 2))
    marks = TermOp(space, [Term(0.5 + 0.25j * g, (), ((((e, 1), (f, 1)), g),))
                           for e, f in edge_pairs for g in range(1, q)])
    moves = TermOp(space, [Term(1.0, ((e, g), (f, h))) for e, f in edge_pairs
                           for g in range(1, q) for h in range(1, q)])
    wide = marks @ moves  # past COMPOSE_TERM_LIMIT, so never expanded
    assert isinstance(wide, ProductOp) and len(marks) * len(moves) > COMPOSE_TERM_LIMIT
    ops = [(SumOp(space, [model.star((1, 1)), model.plaquette((1, 1))]), 0),
           (ScaledOp(space, 2.5j, model.hamiltonian()), 0),
           (wide, 1),
           (SumOp(space, [ScaledOp(space, -0.5, wide), model.star_shift((1, 1), 1)]), 1)]
    wants = [sum(w * s.dot(sparse_apply(op, s)) for w, s in state.parts) for op, _ in ops]
    for (op, n_inner), want in zip(ops, wants):
        calls = []
        monkeypatch.setattr(sparse_mod, "sparse_apply",
                            lambda factor, st: calls.append(factor) or sparse_apply(factor, st))
        assert abs(state.expect(op) - want) < 1e-13
        assert len(calls) == n_inner  # only a product's inner factor is applied
        monkeypatch.undo()


def test_a_term_free_flux_projector_serves_every_consumer():
    # on a torus the total flux form is empty: the projector is I or nothing
    model = QuantumDouble(Z3, Region.torus(2, 2))
    assert model.total_flux_form() == ()
    assert [(t.coeff, t.key) for t in model.total_flux_projector(0).terms] == [(1.0, ((), (), ()))]
    assert all(len(model.total_flux_projector(c)) == 0 for c in (1, 2))
    dims = ref.sector_dimensions(model, ground_space(model).vectors)
    assert dims == {(chi, c): 9 * (chi == c == 0) for chi in range(3) for c in range(3)}
    mixture = frustration_free_state(model, "uniform-mixture")
    weights = sector_weights(mixture).as_dict()
    assert weights[(0, 0)] == pytest.approx(1.0, abs=1e-12)
    assert sum(abs(v) for k, v in weights.items() if k != (0, 0)) < 1e-12
    same = conditional_sector_state(mixture, 0, 0)
    assert np.array_equal(same.weights, mixture.weights)
    with pytest.raises(ValueError, match="vanishing weight"):
        conditional_sector_state(mixture, 0, 1)


def parts_mix(items):
    """The stack and weights of `mix` through one state per part."""
    pairs = [(w * pw, s) for func, w in items for pw, s in func.parts if w * pw > 0]
    return stack([s for _, s in pairs]), np.array([w for w, _ in pairs])


@pytest.mark.parametrize("group, region", [(Z2, Region.free(3, 4)), (Z3, Region.free(3, 3))],
                         ids=["Z2-free:3x4", "Z3-free:3x3"])
def test_mix_relabels_the_stacks_as_the_parts_route(group, region):
    # the conditional state's stack is sorted by row, not by part, and its
    # excitation part has weight 0; the mixture has one more part of weight
    # 0, and the seed enters with weight 0
    model = QuantumDouble(group, region)
    site = region.site((1, 1), (1, 1))
    ground = frustration_free_state(model, "uniform-mixture")
    excited = single_excitation_state(model, site, 1, 1)
    conditional = conditional_sector_state(mix([(ground, 0.5), (excited, 0.5)]), 0, 0)
    weights = np.full(len(ground.weights), 1.0 / (len(ground.weights) - 1))
    weights[1] = 0.0
    thinned = StateFunctional(model, ground.stack, weights)
    items = [(conditional, 0.5), (thinned, 0.25), (frustration_free_state(model), 0.0),
             (excited, 0.25)]
    got = mix(items)
    want, want_weights = parts_mix(items)
    assert 0.0 in conditional.weights
    assert got.stack.num_edges == want.num_edges
    assert got.stack.digits.tobytes() == want.digits.tobytes()
    assert got.stack.amps.tobytes() == want.amps.tobytes()
    assert got.weights.tobytes() == want_weights.tobytes()


def test_spanning_matrix_no_interior():
    model = QuantumDouble(Z2, Region.free(2, 3))
    cols = spanning_matrix(model).toarray()
    assert cols.shape == (128, 128)
    s = np.linalg.svd(cols, compute_uv=False)
    assert int(np.sum(s > 1e-8 * s[0])) == 128


def spanning_oracle(model):
    """The per-column loop: for every column, the strips of its index digits
    applied one by one to the seed vector, then densified (complex)."""
    region, q = model.region, model.group.size
    gauge = [region.edge_id(("h", v[0], v[1])) for v in region.interior_vertices()]
    other = [e for e in range(region.num_edges) if e not in gauge]
    omega = states_mod._seed_vector(model)
    cols = []
    for zs in itertools.product(range(q), repeat=len(other)):
        base = omega
        for eid, g in zip(other, zs):
            if g:
                strip = model.ribbon_char(dual_ribbon(region, region.edge_tuple(eid)), 0, g)
                base = sparse_apply(strip, base)
        for sigmas in itertools.product(range(q), repeat=len(gauge)):
            vec = base
            for eid, s in zip(gauge, sigmas):
                if s:
                    strip = model.ribbon_char(direct_ribbon(region, region.edge_tuple(eid)), s, 0)
                    vec = sparse_apply(strip, vec)
            cols.append(vec.to_dense(model.space))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize(
    "group, region",
    [(Z2, Region.free(3, 3)), (Z3, Region.free(2, 3)), (Z2, Region.free(2, 3))],
    ids=["Z2-free:3x3", "Z3-free:2x3", "Z2-free:2x3"],
)
def test_spanning_matrix_stays_real(monkeypatch, group, region):
    # the stacked build equals, byte for byte, the per-column loop, whose
    # complex columns have imaginary part exactly 0
    model = QuantumDouble(group, region)
    cols = spanning_matrix(model).toarray()
    oracle = spanning_oracle(model)
    assert cols.dtype == np.float64
    assert np.all(oracle.imag == 0)
    assert np.array_equal(cols, oracle.real)
    monkeypatch.setattr(states_mod, "is_real", lambda op: False)
    with pytest.raises(ValueError, match="real strips"):
        spanning_matrix(model)


def test_spanning_matrix_torus_rejected():
    model = QuantumDouble(Z2, Region.torus(2, 2))
    with pytest.raises(ValueError):
        spanning_matrix(model)


@pytest.mark.parametrize("region", [Region.free(3, 3), Region.free(2, 3)],
                         ids=["free:3x3", "free:2x3"])
def test_spanning_matrix_is_the_sparse_stack(region):
    # one stored entry per row of the family: dim parts of q^I rows each
    model = QuantumDouble(Z2, region)
    dim, n_interior = model.space.dim, len(region.interior_vertices())
    m = spanning_matrix(model)
    assert m.format == "csc" and m.dtype == np.float64 and m.shape == (dim, dim)
    assert m.nnz == dim * 2 ** n_interior


def test_spanning_matrix_beyond_the_dense_limit():
    # Z2 free:3x4: 131,072 columns of 4 entries 1/2 each, orthonormal exactly
    model = QuantumDouble(Z2, Region.free(3, 4))
    m = spanning_matrix(model)
    assert m.shape == (131072, 131072) and m.nnz == 524288
    assert (m.T @ m != scipy.sparse.identity(131072, format="csc")).nnz == 0


def test_spanning_matrix_refuses_before_allocating(monkeypatch):
    # Z2 free:2x9 has 25 edges and no interior vertex: 2^25 parts of one row
    # each are more rows than MIXTURE_SUPPORT_LIMIT
    model = QuantumDouble(Z2, Region.free(2, 9))

    def refuse(*args, **kwargs):
        raise AssertionError("the spanning family grew before refusing")

    monkeypatch.setattr(states_mod, "grow", refuse)
    with pytest.raises(DimensionCapError, match="spanning family rows"):
        spanning_matrix(model)

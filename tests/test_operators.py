import numpy as np
import pytest

from qdouble.groups import GroupError, make_group
from qdouble.lattice import (
    Region,
    concat_ribbons,
    crossing_pair,
    direct_ribbon,
    dual_ribbon,
    face_direct_loop,
    ribbon_between,
    ribbon_to_boundary,
    vertex_dual_loop,
)
from qdouble.operators import (
    DimensionCapError,
    HilbertSpace,
    ProductOp,
    QuantumDouble,
    ScaledOp,
    SumOp,
    Term,
    TermOp,
    form_image,
    is_real,
    sparse_matrix,
)
from qdouble.spectral import ground_space
import qdouble.operators as operators_mod
import qdouble.states as states_mod
import qdouble.verify as verify_mod

import reference as ref


def probe_residual(op_a, op_b, rng, k=4, sparse=None):
    """Max relative residual of (A - B) on random probes."""
    space = op_a.space
    if sparse is None:
        psi = space.random_vectors(rng, k)
    else:
        psi = np.zeros((space.dim, k), dtype=complex)
        idx = rng.choice(space.dim, size=(sparse, k))
        psi[idx, np.arange(k)] = rng.standard_normal((sparse, k)) + 1j * rng.standard_normal(
            (sparse, k)
        )
        psi /= np.linalg.norm(psi, axis=0, keepdims=True)
    a, b = op_a.apply(psi), op_b.apply(psi)
    num = np.linalg.norm(a - b, axis=0)
    den = np.maximum(np.maximum(np.linalg.norm(a, axis=0), np.linalg.norm(b, axis=0)), 1.0)
    return float(np.max(num / den))


def oracle_residual(op, colfn, rng, k=2, sparse=64):
    """Compare the engine against a column-function oracle on sparse probes."""
    space = op.space
    out = 0.0
    for _ in range(k):
        psi = np.zeros(space.dim, dtype=complex)
        idx = rng.choice(space.dim, size=min(sparse, space.dim), replace=False)
        psi[idx] = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        psi /= np.linalg.norm(psi)
        a = op.apply(psi)
        b = ref.apply_column_op(colfn, space.dim, psi)
        out = max(out, np.linalg.norm(a - b) / max(np.linalg.norm(a), 1.0))
    return out


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(7)


def test_star_shift_matches_reference(rng):
    for orders, region in [
        ((3,), Region.free(2, 2)),
        ((2,), Region.torus(2, 2)),
        ((2, 2), Region.free(2, 2)),
    ]:
        group = make_group(orders)
        model = QuantumDouble(group, region)
        for v in [(0, 0), (1, 1)]:
            for g in group.elements():
                col = ref.star_column(orders, region, v, g.digits)
                assert oracle_residual(model.star_shift(v, g), col, rng) < 1e-13


def test_star_average_matches_reference_and_projects(rng):
    orders, region = (3,), Region.free(2, 2)
    group = make_group(orders)
    model = QuantumDouble(group, region)
    a = model.star((0, 0))
    col = ref.star_average_column(orders, region, (0, 0))
    assert oracle_residual(a, col, rng) < 1e-13
    assert probe_residual(a.compose(a), a, rng) < 1e-13
    assert probe_residual(a.adjoint(), a, rng) < 1e-13


def test_star_shifts_compose_as_the_group(rng):
    group = make_group([2, 2])
    model = QuantumDouble(group, Region.torus(2, 2))
    v = (1, 0)
    for g in group.elements():
        for h in group.elements():
            lhs = model.star_shift(v, g).compose(model.star_shift(v, h))
            rhs = model.star_shift(v, g * h)
            assert probe_residual(lhs, rhs, rng, k=1) < 1e-13


def test_star_shift_adjoint_is_inverse(rng):
    group = make_group([4])
    model = QuantumDouble(group, Region.free(3, 3))
    v = (1, 1)
    g = group.element((3,))
    assert probe_residual(model.star_shift(v, g).adjoint(), model.star_shift(v, g.inverse()), rng) < 1e-13


def test_plaquette_matches_reference(rng):
    orders, region = (3,), Region.free(2, 2)
    group = make_group(orders)
    model = QuantumDouble(group, region)
    for h in group.elements():
        col = ref.plaquette_column(orders, region, (0, 0), h.digits)
        assert oracle_residual(model.plaquette_indicator((0, 0), h), col, rng) < 1e-13


def test_plaquette_family_is_orthogonal_resolution(rng):
    group = make_group([2, 2])
    model = QuantumDouble(group, Region.torus(2, 2))
    f = (1, 1)
    total = None
    for h in group.elements():
        b = model.plaquette_indicator(f, h)
        total = b if total is None else total + b
        for h2 in group.elements():
            prod = b.compose(model.plaquette_indicator(f, h2))
            target = b if h == h2 else TermOp(model.space, [])
            assert probe_residual(prod, target, rng, k=1) < 1e-13
    assert probe_residual(total, model.identity(), rng) < 1e-13


def test_stars_commute_with_plaquettes_everywhere(rng):
    group = make_group([3])
    region = Region.torus(2, 2)
    model = QuantumDouble(group, region)
    g = group.element((1,))
    for v in region.vertices():
        for f in region.faces():
            for h in group.elements():
                a, b = model.star_shift(v, g), model.plaquette_indicator(f, h)
                assert probe_residual(a.compose(b), b.compose(a), rng, k=1) < 1e-13


def test_stars_at_different_vertices_commute(rng):
    group = make_group([4])
    model = QuantumDouble(group, Region.free(3, 3))
    a = model.star_shift((1, 1), group.element((1,)))
    b = model.star_shift((2, 1), group.element((3,)))
    assert probe_residual(a.compose(b), b.compose(a), rng, k=1) < 1e-13


def test_ribbon_char_matches_reference_small(rng):
    orders = (3,)
    group = make_group(orders)
    region = Region.free(3, 3)
    model = QuantumDouble(group, region)
    ribbons = [
        direct_ribbon(region, ("h", 1, 1)),
        dual_ribbon(region, ("v", 1, 1)),
        ribbon_to_boundary(region, region.site((1, 1), (1, 1))),
        ribbon_between(region, region.site((0, 1), (0, 1)), region.site((2, 1), (1, 1))),
    ]
    for rib in ribbons:
        for chi in group.characters():
            for c in group.elements():
                op = model.ribbon_char(rib, chi, c)
                col = ref.ribbon_char_column(orders, region, rib, chi.digits, c.digits)
                assert oracle_residual(op, col, rng, k=1) < 1e-13


def test_ribbon_char_matches_reference_z2xz2(rng):
    orders = (2, 2)
    group = make_group(orders)
    region = Region.free(3, 3)
    model = QuantumDouble(group, region)
    rib = ribbon_to_boundary(region, region.site((1, 1), (0, 0)))
    chi = group.character((1, 0))
    c = group.element((1, 1))
    op = model.ribbon_char(rib, chi, c)
    col = ref.ribbon_char_column(orders, region, rib, chi.digits, c.digits)
    assert oracle_residual(op, col, rng, k=1) < 1e-13


def test_ribbon_element_transform(rng):
    # indicator flavor = |G|^-1 sum_chi chi(g) F^{chi,c}
    group = make_group([3])
    region = Region.free(3, 3)
    model = QuantumDouble(group, region)
    rib = ribbon_to_boundary(region, region.site((1, 1), (1, 1)))
    c = group.element((2,))
    for g in group.elements():
        terms = []
        for chi in group.characters():
            w = chi(g).to_complex() / group.size
            terms.extend(model.ribbon_char(rib, chi, c).scaled(w).terms)
        assert probe_residual(
            TermOp(model.space, terms).simplify(), model.ribbon_element(rib, g, c), rng, k=1
        ) < 1e-13


def test_ribbon_fusion_on_same_path(rng):
    group = make_group([2, 2])
    region = Region.free(3, 3)
    model = QuantumDouble(group, region)
    rib = ribbon_to_boundary(region, region.site((1, 1), (1, 1)))
    chi1, chi2 = group.character((1, 0)), group.character((0, 1))
    c1, c2 = group.element((0, 1)), group.element((1, 1))
    lhs = model.ribbon_char(rib, chi1, c1).compose(model.ribbon_char(rib, chi2, c2))
    rhs = model.ribbon_char(rib, chi1 * chi2, c1 * c2)
    assert probe_residual(lhs, rhs, rng) < 1e-13


def test_ribbon_adjoint_equals_reversed(rng):
    group = make_group([4])
    region = Region.free(3, 3)
    model = QuantumDouble(group, region)
    rib = ribbon_between(region, region.site((0, 1), (0, 1)), region.site((2, 1), (1, 1)))
    chi = group.character((1,))
    c = group.element((3,))
    adj = model.ribbon_char(rib, chi, c).adjoint()
    rev = model.ribbon_char(rib.reversed(), chi, c)
    assert probe_residual(adj, rev, rng) < 1e-13
    # and both equal F^{conj chi, inverse c} on the original strip
    flipped = model.ribbon_char(rib, chi.inverse(), c.inverse())
    assert probe_residual(adj, flipped, rng) < 1e-13


def test_ribbon_unitary(rng):
    group = make_group([3])
    region = Region.free(3, 3)
    model = QuantumDouble(group, region)
    rib = ribbon_to_boundary(region, region.site((1, 1), (0, 1)))
    op = model.ribbon_char(rib, group.character((2,)), group.element((1,)))
    assert probe_residual(op.compose(op.adjoint()), model.identity(), rng) < 1e-13


def test_ribbon_concatenation(rng):
    group = make_group([2])
    region = Region.free(4, 4)
    model = QuantumDouble(group, region)
    mid = region.site((2, 2), (2, 2))
    r1 = ribbon_between(region, region.site((1, 1), (0, 0)), mid)
    r2 = ribbon_between(region, mid, region.site((2, 3), (2, 2)))
    whole = concat_ribbons(r1, r2)
    chi, c = group.character((1,)), group.element((1,))
    lhs = model.ribbon_char(whole, chi, c)
    rhs = model.ribbon_char(r1, chi, c).compose(model.ribbon_char(r2, chi, c))
    assert probe_residual(lhs, rhs, rng, k=2) < 1e-13


def test_closed_dual_loop_is_a_star_shift(rng):
    group = make_group([4])
    region = Region.free(3, 3)
    model = QuantumDouble(group, region)
    loop = vertex_dual_loop(region, (1, 1))
    c = group.element((1,))
    for chi in group.characters():
        op = model.ribbon_char(loop, chi, c)
        assert probe_residual(op, model.star_shift((1, 1), c.inverse()), rng, k=1) < 1e-13


def test_closed_direct_loop_is_a_flux_phase(rng):
    group = make_group([3])
    region = Region.torus(2, 2)
    model = QuantumDouble(group, region)
    loop = face_direct_loop(region, (0, 0))
    chi = group.character((1,))
    flux = model.ribbon_char(loop, chi, 0)  # conj(chi) of the face's holonomy, no shift
    assert [(t.shift, t.phases) for t in flux.terms] == [((), ((model._face_form((0, 0)), 2),))]
    for c in group.elements():
        op = model.ribbon_char(loop, chi, c)
        assert probe_residual(op, flux, rng, k=1) < 1e-13


def test_crossing_scalar_is_chi_d_xi_c(rng):
    region = Region.free(3, 3)
    for orders in [(2,), (3,), (2, 2)]:
        group = make_group(orders)
        model = QuantumDouble(group, region)
        rho, sigma = crossing_pair(region)
        for chi in group.characters():
            for xi in group.characters():
                for c in group.elements():
                    for d in group.elements():
                        scalar = model.crossing_phase(rho, chi, c, sigma, xi, d)
                        expect = chi(d) * xi(c)
                        assert scalar.exponent == expect.exponent
        # numerically, on one nontrivial pick
        chi, xi = group.characters()[1], group.characters()[-1]
        c, d = group.elements()[1], group.elements()[-1]
        f1 = model.ribbon_char(rho, chi, c)
        f2 = model.ribbon_char(sigma, xi, d)
        scalar = model.crossing_phase(rho, chi, c, sigma, xi, d).to_complex()
        assert probe_residual(f1.compose(f2), f2.compose(f1).scaled(scalar), rng, k=1) < 1e-13


def test_crossing_scalar_z2_charge_vs_flux_is_minus_one():
    # a pure charge strip crossing a pure flux strip anticommutes
    group = make_group([2])
    model = QuantumDouble(group, Region.free(3, 3))
    rho, sigma = crossing_pair(Region.free(3, 3))
    assert model.crossing_phase(rho, 1, 0, sigma, 0, 1).to_complex() == pytest.approx(-1.0)
    assert model.crossing_phase(rho, 0, 1, sigma, 1, 0).to_complex() == pytest.approx(-1.0)
    # two identical dyon strips pick up (-1)^2 = +1
    assert model.crossing_phase(rho, 1, 1, sigma, 1, 1).to_complex() == pytest.approx(1.0)


def test_hamiltonian_matches_reference(rng):
    for orders, region in [
        ((3,), Region.free(2, 2)),
        ((2,), Region.torus(2, 2)),
        ((2,), Region.free(3, 3)),
    ]:
        group = make_group(orders)
        model = QuantumDouble(group, region)
        h = model.hamiltonian()
        col = ref.hamiltonian_column(orders, region)
        assert oracle_residual(h, col, rng, k=1) < 1e-13
        assert probe_residual(h.adjoint(), h, rng, k=1) < 1e-13


def test_hamiltonian_projector_terms_commute(rng):
    group = make_group([2])
    region = Region.torus(2, 2)
    model = QuantumDouble(group, region)
    ops = ref.ground_projector_factors(model)
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            assert probe_residual(ops[i].compose(ops[j]), ops[j].compose(ops[i]), rng, k=1) < 1e-13


def test_boundary_charge_equals_global_detector(rng):
    group = make_group([2])
    model = QuantumDouble(group, Region.free(3, 3))
    assert probe_residual(model.boundary_charge_eps(), model.detector_eps(), rng) < 1e-12
    assert probe_residual(model.boundary_charge_mu(), model.detector_mu(), rng) < 1e-12


def test_boundary_charge_equality_z3(rng):
    group = make_group([3])
    model = QuantumDouble(group, Region.free(3, 3))
    assert probe_residual(model.boundary_charge_eps(), model.detector_eps(), rng, k=2) < 1e-12
    assert probe_residual(model.boundary_charge_mu(), model.detector_mu(), rng, k=2) < 1e-12


def test_sector_projectors_resolve_identity(rng):
    group = make_group([2])
    model = QuantumDouble(group, Region.free(3, 3))
    total = None
    for chi in group.characters():
        for c in group.elements():
            p = model.sector_projector(chi, c)
            assert probe_residual(p.compose(p), p, rng, k=1) < 1e-12
            total = p if total is None else total + p
    assert probe_residual(total, model.identity(), rng) < 1e-12


def test_to_dense_matches_reference_matrix(rng):
    orders, region = (2,), Region.torus(2, 2)
    group = make_group(orders)
    model = QuantumDouble(group, region)
    h = model.hamiltonian()
    dense = h.to_dense()
    mat = ref.to_matrix(ref.hamiltonian_column(orders, region), model.space.dim)
    assert np.max(np.abs(dense - mat)) < 1e-13


def test_dimension_cap():
    group = make_group([4])
    model = QuantumDouble(group, Region.free(4, 4), cap=1 << 20)
    assert model.space.dim == 4 ** 24
    with pytest.raises(DimensionCapError):
        model.space.random_vectors(np.random.default_rng(0), 1)


def test_size_policy_refuses_before_allocating(monkeypatch):
    z2 = make_group([2])

    def enumerate_orbits(model):
        raise AssertionError("the uniform mixture enumerated before refusing")

    monkeypatch.setattr(states_mod, "_flat_orbit_representatives", enumerate_orbits)
    with pytest.raises(DimensionCapError):
        states_mod.frustration_free_state(QuantumDouble(z2, Region.free(5, 5)), "uniform-mixture")
    with pytest.raises(DimensionCapError):
        ground_space(QuantumDouble(z2, Region.torus(5, 5)))
    with pytest.raises(DimensionCapError):  # 2^24 x 2048 float64 columns, about 275 GB
        ground_space(QuantumDouble(z2, Region.free(4, 4)))


def test_basis_indexing_roundtrip():
    group = make_group([2, 3])
    model = QuantumDouble(group, Region.free(2, 2))
    space = model.space
    for idx in [0, 1, space.dim - 1, 17, 100 % space.dim]:
        assert space.basis_index(ref.packed_config(space, idx)) == idx


# ---------------------------------------------------------------------------
# support restriction


def embedded_columns(op, cols):
    """Columns `cols` of the full-space matrix of `op`, rebuilt from the exact
    matrix of its restriction to its support: A = A_S (x) I."""
    space = op.space
    edges = sorted(ref.support(op))
    (small,) = ref.restrict([op], edges)
    mat = sparse_matrix(small)
    cols = np.asarray(cols)
    digits = np.array([ref.packed_config(space, int(z)) for z in cols]).reshape(len(cols), -1)
    full_weights = space.q ** np.array(edges, dtype=np.int64)
    on_support = digits[:, edges]
    sub = on_support @ (space.q ** np.arange(len(edges), dtype=np.int64))
    rest = cols - on_support @ full_weights
    # the full-space offset of every configuration of the small space
    small_offsets = np.array(
        [np.dot(ref.packed_config(small.space, i), full_weights) for i in range(small.space.dim)],
        dtype=np.int64,
    ).reshape(-1)
    picked = mat[:, sub].tocoo()
    out = np.zeros((space.dim, len(cols)), dtype=np.complex128)
    np.add.at(out, (rest[picked.col] + small_offsets[picked.row], picked.col), picked.data)
    return out


def restriction_cases(model):
    region = model.region
    v = region.interior_vertices()[0]
    f = region.faces()[0]
    star, plaq = model.star_shift(v, 1), model.plaquette_indicator(f, 1)
    # the ribbon starts at v, so it does not commute with the star there
    ribbon = model.ribbon_char(ribbon_to_boundary(region, region.site(v, v)), 1, 1)
    commutator = ribbon.compose(star) - star.compose(ribbon)
    assert commutator.terms
    return {
        "star": star,
        "plaquette indicator": plaq,
        "open ribbon": ribbon,
        "boundary loop": model.boundary_charge_eps(),
        "composed commutator": commutator,
        "product": ProductOp(model.space, [ribbon, ScaledOp(model.space, 0.5j, star)]),
        "sum": SumOp(model.space, [star, plaq]),
        "empty-support identity": model.identity(),
    }


def test_support_unions_shift_and_form_edges():
    model = QuantumDouble(make_group([2]), Region.free(3, 3))
    region = model.region
    v, f = region.interior_vertices()[0], region.faces()[0]
    star_edges = {e for e, _ in region.star_edges(v)}
    face_edges = {e for e, _ in region.face_boundary_ids(f)}
    assert ref.support(model.star_shift(v, 1)) == star_edges
    assert ref.support(model.plaquette(f)) == face_edges
    assert ref.support(model.identity()) == set()
    both = ProductOp(model.space, [model.star(v), ScaledOp(model.space, 2.0, model.plaquette(f))])
    assert ref.support(both) == star_edges | face_edges
    assert ref.support(SumOp(model.space, [model.star(v), model.plaquette(f)])) == star_edges | face_edges


@pytest.mark.parametrize("orders", [(2,), (3,)])
def test_restriction_embeds_back_to_the_full_operator(orders):
    model = QuantumDouble(make_group(orders), Region.free(3, 3))
    dim = model.space.dim
    if dim <= 4096:
        cols = np.arange(dim)
    else:
        cols = np.random.default_rng(7).choice(dim, size=16, replace=False)
    eye = np.zeros((dim, len(cols)), dtype=np.complex128)
    eye[cols, np.arange(len(cols))] = 1.0
    for name, op in restriction_cases(model).items():
        want = op.to_dense() if dim <= 4096 else op.apply(eye)
        got = embedded_columns(op, cols)
        assert np.max(np.abs(got - want)) < 1e-13, name


def test_to_dense_matches_apply_on_basis_columns():
    # to_dense reads the exact sparse matrix; apply is the independent route
    model = QuantumDouble(make_group([2]), Region.free(3, 3))
    dim = model.space.dim
    for name, op in restriction_cases(model).items():
        dense = op.to_dense()
        for start in range(0, dim, 512):
            eye = np.zeros((dim, 512), dtype=np.complex128)
            eye[np.arange(start, start + 512), np.arange(512)] = 1.0
            assert np.max(np.abs(dense[:, start:start + 512] - op.apply(eye))) < 1e-13, name


def test_restrict_puts_every_operator_on_one_space():
    model = QuantumDouble(make_group([3]), Region.free(3, 3))
    region = model.region
    v, f = region.interior_vertices()[0], region.faces()[0]
    star, plaq = model.star(v), model.plaquette(f)
    edges = ref.support(star) | ref.support(plaq)
    small_star, small_plaq = ref.restrict([star, plaq], edges)
    assert small_star.space is small_plaq.space
    assert small_star.space.num_edges == len(edges)
    assert ref.support(small_star) | ref.support(small_plaq) == set(range(len(edges)))


def test_restrict_rejects_edges_missing_from_the_support():
    model = QuantumDouble(make_group([2]), Region.free(3, 3))
    v = model.region.interior_vertices()[0]
    with pytest.raises(ValueError, match="support"):
        ref.restrict([model.star(v)], [0])


@pytest.mark.parametrize("orders, forms", [
    # two generators; the second form reads the first factor twice over
    ((2, 2), (((0, 1), (1, 1)), ((1, 1), (2, 1), (3, 1)), ((0, 1), (3, 1)), ((2, 2), (3, 1)))),
    ((4,), (((0, 2),), ((0, 1), (1, 3)), ((1, 2), (2, 2)), ((2, 1), (3, 1)), ((0, 3), (3, 2)))),
    # weights 2 and 3 on Z6 reach proper subgroups
    ((6,), (((0, 2), (1, 4)), ((1, 3), (2, 3)), ((2, 2), (3, 3)))),
    ((2, 4), (((0, 2), (1, 1)), ((1, 2), (2, 3)), ((3, 5),))),
    ((3,), ()),
], ids=["Z2xZ2", "Z4", "Z6", "Z2xZ4", "no-forms"])
def test_form_image_is_every_value_tuple_of_the_forms(orders, forms):
    group = make_group(orders)
    space = HilbertSpace(group, 4)
    cols = [space.form_values(f) for f in forms]
    brute = {tuple(int(c[i]) for c in cols) for i in range(space.dim)}
    image = form_image(group, forms, space.cap)
    assert image.shape == (len(brute), len(forms))
    assert {tuple(row) for row in image} == brute
    if forms:  # the bound q^min(k, edges) is checked before anything is built
        with pytest.raises(DimensionCapError):
            form_image(group, forms, group.size ** min(len(forms), 4) - 1)


def test_sparse_matrix_refuses_above_the_dense_limit():
    model = QuantumDouble(make_group([2]), Region.free(3, 4))
    with pytest.raises(DimensionCapError):
        sparse_matrix(model.identity())


def sparse_matrix_cases(model):
    """Operators of every kind `sparse_matrix` builds, on one model."""
    region, space = model.region, model.space
    a, b = region.site((0, 0), (0, 0)), region.site((1, 1), (1, 1))
    ribbon = model.ribbon_char(ribbon_between(region, a, b), 1, 1)
    site = model.site_charge_projector(a, 1, 1)
    cases = {
        "H": model.hamiltonian(),
        "ribbon": ribbon,
        "site charge projector": site,
        "empty": TermOp(space, []),
        # unsimplified: each ribbon term meets its negative, the star stays
        "cancelling terms": TermOp(space, ribbon.terms + ribbon.scaled(-1.0).terms
                                   + model.star_shift((1, 0), 1).terms),
        "sum": SumOp(space, [ribbon, site]),
        "product": ProductOp(space, [ribbon, ScaledOp(space, 0.5j, site), ribbon.adjoint()]),
        "scaled": ScaledOp(space, -2.0 + 1j, model.hamiltonian()),
    }
    if min(region.m, region.n) >= 3:  # the boundary loops exist
        cases["H eps,mu"] = model.hamiltonian(boundary="eps_mu")
    return cases


@pytest.mark.parametrize("orders, region", [
    ((2,), Region.free(3, 3)), ((3,), Region.free(2, 3)), ((2, 2), Region.free(2, 3)),
], ids=["Z2-free3x3", "Z3-free2x3", "Z2xZ2-free2x3"])
def test_sparse_matrix_matches_the_entry_per_term_oracle(orders, region):
    model = QuantumDouble(make_group(orders), region)
    dim = model.space.dim
    for name, op in sparse_matrix_cases(model).items():
        got, want = sparse_matrix(op, dim).tocsc(), ref.coo_sparse_matrix(op, dim).tocsc()
        for m in (got, want):
            m.sum_duplicates()
            m.eliminate_zeros()
        assert np.array_equal(got.indptr, want.indptr), name
        assert np.array_equal(got.indices, want.indices), name
        assert np.all(np.abs(got.data - want.data) <= 1e-15), name
    assert sparse_matrix(TermOp(model.space, []), dim).nnz == 0


def test_sparse_matrix_refuses_entries_larger_than_memory(monkeypatch):
    # 28 bytes an entry, one entry per shift and column, plus 64 a column
    model = QuantumDouble(make_group([2]), Region.free(3, 3))
    h = model.hamiltonian()
    need = model.space.dim * (28 * len({t.shift for t in h.terms}) + 64)
    monkeypatch.setattr(operators_mod, "PHYSICAL_MEMORY_BYTES", need)
    assert sparse_matrix(h).nnz

    def no_table(*args):
        raise AssertionError("a table was built before refusing")

    monkeypatch.setattr(operators_mod, "PHYSICAL_MEMORY_BYTES", need - 1)
    monkeypatch.setattr(HilbertSpace, "form_values", no_table)
    monkeypatch.setattr(HilbertSpace, "shift_perm", no_table)
    with pytest.raises(DimensionCapError, match="sparse matrix bytes"):
        sparse_matrix(h)


def test_sparse_matrix_is_float64_exactly_for_real_operators():
    # the same entries as the complex term-by-term matrix, real part kept
    z2 = QuantumDouble(make_group([2]), Region.free(3, 3))
    h = z2.hamiltonian()
    m = sparse_matrix(h)
    assert m.dtype == np.float64
    oracle = ref.coo_sparse_matrix(h)
    assert oracle.dtype == np.complex128 and not np.any(oracle.imag.toarray())
    assert np.array_equal(m.toarray(), oracle.real.toarray())
    z3 = QuantumDouble(make_group([3]), Region.free(3, 3))
    p = z3.total_charge_projector(1)
    m = sparse_matrix(p, z3.space.dim)
    assert m.dtype == np.complex128
    assert (m != ref.coo_sparse_matrix(p, z3.space.dim)).nnz == 0


def test_sparse_matrix_hands_scipy_int32_rows_without_a_copy():
    # Z2 torus:3x3 H, 262,144 columns: with intp rows scipy copied them to
    # int32, a peak of 2.22 times the returned matrix (tracemalloc)
    import tracemalloc

    model = QuantumDouble(make_group([2]), Region.torus(3, 3))
    h, dim = model.hamiltonian(), model.space.dim
    tracemalloc.start()
    try:
        m = sparse_matrix(h, dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.indices.dtype == m.indptr.dtype == np.int32
    assert peak < 2 * (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)
    assert (m != ref.coo_sparse_matrix(h, dim)).nnz == 0


@pytest.mark.parametrize("orders, region", [
    ([2], Region.free(3, 3)), ([3], Region.free(3, 3)), ([4], Region.free(3, 3)),
    ([2, 2], Region.free(3, 3)), ([3], Region.free(4, 4)), ([4], Region.torus(2, 2)),
], ids=["Z2-free:3x3", "Z3-free:3x3", "Z4-free:3x3", "Z2xZ2-free:3x3", "Z3-free:4x4",
        "Z4-torus:2x2"])
def test_total_flux_projector_equals_the_per_face_product(orders, region):
    model = QuantumDouble(make_group(orders), region)
    ctx = verify_mod._Ctx(model)
    for c in range(model.group.size):
        op = model.total_flux_projector(c)
        assert all(len(t.phases) <= 1 for t in op.terms)  # one summed form, not one per face
        assert ctx.probe(op, ref.per_face_flux_projector(model, c)) < 1e-14


def test_sparse_matrix_refuses_before_grouping_the_diagonals(monkeypatch):
    model = QuantumDouble(make_group([2]), Region.free(3, 3))
    h = model.hamiltonian()
    need = model.space.dim * (28 * len({t.shift for t in h.terms}) + 64)

    def no_diagonal(*args):
        raise AssertionError("the diagonals were grouped before refusing")

    monkeypatch.setattr(operators_mod, "PHYSICAL_MEMORY_BYTES", need - 1)
    monkeypatch.setattr(operators_mod, "shift_diagonals", no_diagonal)
    with pytest.raises(DimensionCapError, match="sparse matrix bytes"):
        sparse_matrix(h)


def test_to_dense_is_real_exactly_when_the_terms_are():
    z2 = QuantumDouble(make_group([2]), Region.free(3, 3))
    for op in (z2.hamiltonian(), z2.hamiltonian(boundary="eps_mu")):
        assert is_real(op)
        dense = op.to_dense()
        assert dense.dtype == np.float64
        assert np.array_equal(dense, sparse_matrix(op).toarray())
    z3 = QuantumDouble(make_group([3]), Region.free(2, 3))
    rib = ribbon_between(z3.region, z3.region.site((0, 0), (0, 0)), z3.region.site((1, 1), (1, 1)))
    for chi in (1, 2):
        op = z3.ribbon_char(rib, chi, 1)
        assert not is_real(op)
        dense = op.to_dense()
        assert dense.dtype == np.complex128
        assert np.array_equal(dense, sparse_matrix(op).toarray())
        # the strip plus its entrywise conjugate (inverse charge, same shift)
        # is real; i times it is not
        pair = op + z3.ribbon_char(rib, 3 - chi, 1)
        assert is_real(pair) and not is_real(1j * pair)
        # the complex route leaves rounding dust on the imaginary part
        full = sparse_matrix(pair).toarray()
        assert np.array_equal(pair.to_dense(), full.real)
        assert np.max(np.abs(full.imag)) < 1e-15
        assert is_real(ProductOp(z3.space, [pair, z3.hamiltonian()]))
        assert not is_real(SumOp(z3.space, [pair, op]))
    # Z3 vertex charge projectors are Hermitian but complex; free:2x3 has no
    # full star, so its total charge projector for chi != 1 is exactly 0
    assert not is_real(QuantumDouble(z3.group, Region.free(3, 3)).total_charge_projector(1))
    assert z3.total_charge_projector(1).terms == ()
    assert is_real(z3.hamiltonian())


# ---------------------------------------------------------------------------
# the dense engine on the tensor view


def dense_engine_cases(model):
    """Operators of every kind the dense engine applies, on one model."""
    region = model.region
    a, b = region.site((0, 0), (0, 0)), region.site((1, 1), (1, 1) if (1, 1) in region.faces() else (0, 0))
    vertex = (region.interior_vertices() or [(1, 0)])[0]
    cases = {
        "H": model.hamiltonian(),
        "star shift": model.star_shift(vertex, model.group.size - 1),
        "ribbon": model.ribbon_char(ribbon_between(region, a, b), 1, 1),
        "ribbon element": model.ribbon_element(ribbon_between(region, a, b), 1, 1),
        "site charge": model.site_charge_projector(a, 1, 1),
        # a shift times a phase of an end face's flux, which the shift moves
        "ribbon after flux": (model.ribbon_char(ribbon_between(region, a, b), 1, 1)
                              @ model.ribbon_char(face_direct_loop(region, a.face), 1, 0)),
    }
    for k in (0, 1):
        cases[f"total charge {k}"] = model.total_charge_projector(k)
        cases[f"total flux {k}"] = model.total_flux_projector(k)
    if not region.is_torus and min(region.m, region.n) >= 3:  # the boundary loops exist
        cases["H eps,mu"] = model.hamiltonian(boundary="eps_mu")
    return cases


DENSE_ENGINE_INSTANCES = [
    ((2,), Region.free(3, 3)), ((2,), Region.torus(2, 3)), ((3,), Region.free(2, 3)),
    ((3,), Region.torus(2, 2)), ((4,), Region.free(2, 3)), ((2, 2), Region.free(2, 3)),
    ((2, 2), Region.torus(2, 2)), ((2, 4), Region.free(2, 2)),
]
DENSE_ENGINE_IDS = ["Z2-free:3x3", "Z2-torus:2x3", "Z3-free:2x3", "Z3-torus:2x2",
                    "Z4-free:2x3", "Z2xZ2-free:2x3", "Z2xZ2-torus:2x2", "Z2xZ4-free:2x2"]


@pytest.mark.parametrize("orders, region", DENSE_ENGINE_INSTANCES, ids=DENSE_ENGINE_IDS)
def test_apply_equals_the_entry_per_term_matrix(orders, region):
    model = QuantumDouble(make_group(orders), region)
    space = model.space
    rng = np.random.default_rng(7)
    batch = rng.standard_normal((space.dim, 3)) + 1j * rng.standard_normal((space.dim, 3))
    batch /= np.linalg.norm(batch, axis=0)
    for name, op in dense_engine_cases(model).items():
        want = ref.coo_sparse_matrix(op, space.dim) @ batch
        got = op.apply(batch)
        assert got.shape == batch.shape and got.dtype == np.complex128, name
        assert np.max(np.abs(got - want)) <= 1e-13, name
        single = op.apply(batch[:, 1])
        assert single.shape == (space.dim,), name
        assert np.max(np.abs(single - want[:, 1])) <= 1e-13, name


@pytest.mark.parametrize("orders, region", [
    ((2,), Region.free(3, 3)), ((3,), Region.free(2, 3)), ((2, 2), Region.free(2, 3)),
    ((2, 4), Region.free(2, 2)), ((3,), Region.torus(2, 2)),
], ids=["Z2-free:3x3", "Z3-free:2x3", "Z2xZ2-free:2x3", "Z2xZ4-free:2x2", "Z3-torus:2x2"])
def test_shift_perm_and_form_values_equal_the_digit_loop(orders, region):
    model = QuantumDouble(make_group(orders), region)
    space, q = model.space, model.group.size
    els = ref.group_elements(orders)
    ops = list(dense_engine_cases(model).values())
    shifts = {t.shift for op in ops for t in op.terms}
    forms = {f for op in ops for t in op.terms for f, _ in t.phases + t.indicators}
    shifts.add(((0, 1), (region.num_edges - 1, q - 1)))
    forms |= {((0, 2), (region.num_edges - 1, 3)), ()}  # weights past +-1; the empty form
    configs = [ref.config_of(orders, region, i) for i in range(space.dim)]
    for shift in shifts:
        want = []
        for config in configs:
            moved = list(config)
            for e, g in shift:
                moved[e] = ref.add(orders, moved[e], els[g])
            want.append(ref.config_index(orders, moved))
        got = space.shift_perm(shift)
        assert got.dtype == np.intp and got.tolist() == want, shift
    for form in forms:
        want = []
        for config in configs:
            value = (0,) * len(orders)
            for e, c in form:
                value = ref.add(orders, value, ref.scal(orders, c, config[e]))
            want.append(ref.elem_index(orders, value))
        got = space.form_values(form)
        assert got.dtype == np.uint8 and got.tolist() == want, form
    assert len(shifts) > 2 and len(forms) > 3


def test_apply_holds_the_output_and_one_term_besides_its_input():
    import tracemalloc

    model = QuantumDouble(make_group([3]), Region.free(3, 3))
    region = model.region
    psi = np.random.default_rng(7).standard_normal(model.space.dim).astype(np.complex128)
    a, b = region.site((0, 0), (0, 0)), region.site((1, 1), (1, 1))
    ops = {
        "star shift": (model.star_shift(region.interior_vertices()[0], 1), 1.1),
        "ribbon": (model.ribbon_char(ribbon_between(region, a, b), 1, 2), 1.1),
        "H": (model.hamiltonian(), 2.1),
    }
    for name, (op, vectors) in ops.items():
        assert (len(op.terms) == 1) == (name != "H"), name
        tracemalloc.start()
        try:
            op.apply(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= vectors * psi.nbytes, (name, peak / psi.nbytes)


@pytest.mark.parametrize("orders", [(3,), (4,), (5,), (2, 2)], ids=["Z3", "Z4", "Z5", "Z2xZ2"])
def test_total_charge_projector_is_exact_where_every_gauge_shift_is_empty(orders):
    model = QuantumDouble(make_group(orders), Region.torus(2, 2))
    assert not any(model.gauge_shift(g) for g in range(model.group.size))
    assert model.total_charge_projector(0).terms == (Term(1.0),)
    for chi in range(1, model.group.size):
        assert model.total_charge_projector(chi).terms == (), chi


def label_builders(model):
    """Every builder that reads a group label, by (name, slot kind), as a
    function of that one label with the others trivial."""
    region = model.region
    site, face = region.site((1, 1), (1, 1)), (0, 0)
    rib = ribbon_to_boundary(region, site)
    rho, sigma = crossing_pair(region)
    return {
        ("star_shift", "element"): lambda g: model.star_shift((1, 1), g),
        ("vertex_charge", "character"): lambda chi: model.vertex_charge((1, 1), chi),
        ("plaquette_indicator", "element"): lambda h: model.plaquette_indicator(face, h),
        ("ribbon_char chi", "character"): lambda chi: model.ribbon_char(rib, chi, 0),
        ("ribbon_char c", "element"): lambda c: model.ribbon_char(rib, 0, c),
        ("ribbon_element g", "element"): lambda g: model.ribbon_element(rib, g, 0),
        ("ribbon_element c", "element"): lambda c: model.ribbon_element(rib, 0, c),
        ("crossing_phase chi", "character"): lambda chi: model.crossing_phase(rho, chi, 0,
                                                                              sigma, 0, 0),
        ("crossing_phase c", "element"): lambda c: model.crossing_phase(rho, 0, c, sigma, 0, 0),
        ("crossing_phase xi", "character"): lambda xi: model.crossing_phase(rho, 0, 0,
                                                                            sigma, xi, 0),
        ("crossing_phase d", "element"): lambda d: model.crossing_phase(rho, 0, 0, sigma, 0, d),
        ("gauge_shift", "element"): model.gauge_shift,
        ("total_charge_projector", "character"): model.total_charge_projector,
        ("total_flux_projector", "element"): model.total_flux_projector,
        ("sector_projector chi", "character"): lambda chi: model.sector_projector(chi, 0),
        ("sector_projector c", "element"): lambda c: model.sector_projector(0, c),
        ("site_charge_projector chi", "character"): lambda chi: model.site_charge_projector(
            site, chi, 0),
        ("site_charge_projector c", "element"): lambda c: model.site_charge_projector(
            site, 0, c),
    }


LABEL_BUILDERS = list(label_builders(QuantumDouble(make_group([2, 2]), Region.free(3, 3))))


@pytest.mark.parametrize("name, kind", LABEL_BUILDERS, ids=[name for name, _ in LABEL_BUILDERS])
def test_builders_refuse_a_label_outside_the_group(name, kind):
    # Z2xZ2 free:3x3: an index outside [0, 4) or a label of Z4 is refused; a
    # label of an equal group and the last index are read
    group = make_group([2, 2])
    build = label_builders(QuantumDouble(group, Region.free(3, 3)))[name, kind]
    twin, z4 = make_group([2, 2]), make_group([4])
    build(3)
    build(getattr(twin, kind)((1, 1)))
    for bad in (4, -1, 7, np.int64(-2)):
        with pytest.raises(GroupError, match=f"{kind} index {int(bad)} out of range"):
            build(bad)
    with pytest.raises(GroupError, match="mixed groups"):
        build(getattr(z4, kind)((1,)))

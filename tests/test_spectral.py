import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from qdouble.groups import make_group, parse_group_spec
from qdouble.lattice import Region, parse_region_spec, ribbon_to_boundary
from qdouble.operators import (DENSE_EIG_LIMIT, MIXTURE_SUPPORT_LIMIT, DimensionCapError,
                               HilbertSpace, QuantumDouble, TermOp, is_real, sparse_matrix)
import qdouble.spectral as spectral_mod
from qdouble.spectral import (
    form_spectrum,
    ground_dimension_count,
    ground_space,
    sector_counts,
    spectrum_counts,
    spectrum_lowest,
    subspace_iteration,
)
from qdouble.sparse import SparseState
from qdouble.states import frustration_free_state, mixture_rows
from qdouble.verify import run_check

import reference as ref


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(7)


def test_ground_dimension_count_against_dense():
    # the counting formula must reproduce dense kernel dimensions exactly
    cases = [
        ((2,), Region.free(2, 2), 8),
        ((3,), Region.free(2, 2), 27),
        ((2,), Region.free(2, 3), 32),
        ((2,), Region.torus(2, 2), 4),
    ]
    for orders, region, expected in cases:
        group = make_group(orders)
        model = QuantumDouble(group, region)
        assert ground_dimension_count(group, region) == expected
        vals = np.linalg.eigvalsh(model.hamiltonian().to_dense(DENSE_EIG_LIMIT))
        keep = vals < 1e-8
        assert int(np.sum(keep)) == expected
        assert np.all(np.abs(vals[keep]) < 1e-10)
        assert ground_space(model).dim == expected


def test_ground_dimension_count_torus_is_group_size_squared():
    assert ground_dimension_count(make_group([3]), Region.torus(2, 2)) == 9
    assert ground_dimension_count(make_group([2, 2]), Region.torus(2, 2)) == 16
    assert ground_dimension_count(make_group([2]), Region.torus(3, 3)) == 4


def assert_orbit_basis_matches(model, oracle):
    """ground_space spans the oracle's space: the same dimension, every
    principal cosine 1, orthonormal columns and residuals at most 1e-12."""
    basis = ground_space(model)
    assert basis.method == "orbit"
    assert basis.dim == oracle.dim == ground_dimension_count(model.group, model.region)
    assert np.linalg.norm(basis.vectors.T @ basis.vectors - np.eye(basis.dim)) < 1e-12
    cosines = np.linalg.svd(basis.vectors.T @ oracle.vectors, compute_uv=False)
    assert np.allclose(cosines, 1.0, rtol=0, atol=1e-10)
    assert basis.residuals.max() <= 1e-12


def test_projector_ground_basis_matches_dense_span(rng):
    group = make_group([2])
    region = Region.torus(2, 2)
    model = QuantumDouble(group, region)
    vals, vecs = np.linalg.eigh(model.hamiltonian().to_dense(DENSE_EIG_LIMIT))
    dense = vecs[:, vals < 1e-8]
    proj = ref._projector_ground_basis(model, rng, 1e-8)
    assert proj.dim == dense.shape[1] == 4
    assert np.all(proj.residuals < 1e-10)
    # identical subspaces: dense projector reproduces every projector vector
    overlap = dense @ (dense.conj().T @ proj.vectors)
    assert np.linalg.norm(overlap - proj.vectors) < 1e-9
    # orthonormality
    gram = proj.vectors.conj().T @ proj.vectors
    assert np.linalg.norm(gram - np.eye(4)) < 1e-10
    assert_orbit_basis_matches(model, proj)


def test_projector_ground_basis_torus_z3(rng):
    group = make_group([3])
    model = QuantumDouble(group, Region.torus(2, 2))
    basis = ref._projector_ground_basis(model, rng, 1e-8)
    assert basis.dim == 9
    assert np.all(basis.residuals < 1e-10)
    assert_orbit_basis_matches(model, basis)


def test_projector_ground_basis_larger_torus(rng):
    group = make_group([2])
    model = QuantumDouble(group, Region.torus(3, 3))
    basis = ref._projector_ground_basis(model, rng, 1e-8)
    assert basis.dim == 4
    assert np.all(basis.residuals < 1e-10)
    assert_orbit_basis_matches(model, basis)


def test_free_3x3_ground_dimension(rng):
    group = make_group([2])
    model = QuantumDouble(group, Region.free(3, 3))
    assert ground_dimension_count(group, Region.free(3, 3)) == 128
    basis = ground_space(model)
    assert basis.dim == 128
    assert np.all(basis.residuals < 1e-10)
    assert_orbit_basis_matches(model, ref._projector_ground_basis(model, rng, 1e-8))


def test_dense_spectrum_torus_2x2_z2():
    group = make_group([2])
    model = QuantumDouble(group, Region.torus(2, 2))
    spec = spectrum_lowest(model, 8)
    assert np.allclose(spec.values[:4], 0.0, atol=1e-10)
    # charges only appear in pairs: nothing between 0 and 2
    assert spec.values[4] == pytest.approx(2.0, abs=1e-10)
    assert np.all(spec.residuals < 1e-8)


def test_subspace_iteration_matches_dense(rng):
    group = make_group([2])
    model = QuantumDouble(group, Region.torus(2, 2))
    h = model.hamiltonian()
    dense = np.linalg.eigvalsh(h.to_dense())
    # LOBPCG locks converged columns, whose residuals can end just above
    # tol * sigma; it restarts from its own block instead of failing
    for start in [rng] + [np.random.default_rng(seed) for seed in range(40)]:
        it = subspace_iteration(h, 6, start, tol=1e-10)
        assert np.allclose(it.values, dense[:6], atol=1e-8)
        assert np.all(it.residuals < 1e-8)
        assert it.meta["iterations"] <= 2000


def test_iterative_solvers_apply_the_matrix_and_the_terms_only_for_residuals(monkeypatch):
    events = []
    inside = []
    apply_terms = HilbertSpace.apply_terms

    def spy_apply(self, terms, psi):
        assert not inside, "the solver applied the terms"
        events.append("apply")
        return apply_terms(self, terms, psi)

    def spy(solver):
        def run(a, *args, **kwargs):
            assert scipy.sparse.issparse(a)
            events.append(solver.__name__)
            inside.append(True)
            try:
                return solver(a, *args, **kwargs)
            finally:
                inside.pop()
        return run

    def spy_sparse(self, terms):
        events.append("sparse apply")
        return sparse_apply_terms(self, terms)

    sparse_apply_terms = SparseState.apply_terms
    monkeypatch.setattr(HilbertSpace, "apply_terms", spy_apply)
    monkeypatch.setattr(SparseState, "apply_terms", spy_sparse)
    for name in ("lobpcg", "eigsh"):
        monkeypatch.setattr(scipy.sparse.linalg, name, spy(getattr(scipy.sparse.linalg, name)))
    model = QuantumDouble(make_group([2]), Region.torus(2, 2))
    # a start whose first solve ends just above the bound, so LOBPCG restarts
    subspace_iteration(model.hamiltonian(), 6, np.random.default_rng(12), tol=1e-10)
    assert events.count("lobpcg") >= 2
    assert events == ["lobpcg", "apply"] * (len(events) // 2)
    events.clear()
    # building the start block from the orbit states applies no term
    spectrum_lowest(QuantumDouble(make_group([2]), Region.free(2, 6)), 2)
    assert events[:1] == ["lobpcg"]
    assert events == ["lobpcg", "apply"] * (len(events) // 2)
    events.clear()
    result = run_check("boundary-hamiltonian.positive", make_group([3]), Region.free(3, 3))
    assert result.passed and result.residual == 0.0
    assert events == []


def _spy_lobpcg(monkeypatch):
    """Record the matrix dtype and the preconditioner's diagonal of each call."""
    calls = []
    lobpcg = scipy.sparse.linalg.lobpcg

    def run(a, x, *args, **kwargs):
        calls.append((a.dtype, x.dtype, kwargs["M"].diagonal()))
        return lobpcg(a, x, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "lobpcg", run)
    return calls


def test_subspace_iteration_stays_real_on_a_real_hamiltonian(monkeypatch):
    calls = _spy_lobpcg(monkeypatch)
    model = QuantumDouble(make_group([2]), Region.free(3, 4))
    h = model.hamiltonian()
    it = subspace_iteration(h, 2, np.random.default_rng(7))
    assert it.vectors.dtype == np.float64
    assert np.all(np.abs(it.values) < 1e-8)
    assert np.all(it.residuals < 1e-9 * it.meta["sigma"])
    jacobi = 1.0 / (sparse_matrix(h, model.space.cap).diagonal().real + 1.0)
    assert calls and all(a == x == np.float64 and np.array_equal(m, jacobi) for a, x, m in calls)


def test_subspace_iteration_keeps_a_complex_operator_complex(monkeypatch):
    # H plus a nontrivial Z3 charge demand on every vertex: nonnegative and
    # Hermitian, but its characters are not closed under conjugation
    model = QuantumDouble(make_group([3]), Region.free(2, 3))
    terms = list(model.hamiltonian().terms)
    for v in model.region.vertices():
        terms += model.identity().terms + model.vertex_charge(v, 1).scaled(-1.0).terms
    op = TermOp(model.space, terms).simplify()
    assert not is_real(op)
    dense = np.linalg.eigvalsh(op.to_dense())
    calls = _spy_lobpcg(monkeypatch)
    it = subspace_iteration(op, 6, np.random.default_rng(7), tol=1e-10)
    assert it.vectors.dtype == np.complex128
    assert np.allclose(it.values, dense[:6], atol=1e-8)
    assert len(set(np.round(dense[:6]))) == 3  # levels 0, 1 and 2
    assert np.all(it.residuals < 1e-10 * it.meta["sigma"])
    jacobi = 1.0 / (sparse_matrix(op).diagonal().real + 1.0)
    assert calls and all(a == x == np.complex128 and np.array_equal(m, jacobi) for a, x, m in calls)


def test_subspace_iteration_refuses_unconverged(rng):
    group = make_group([2])
    model = QuantumDouble(group, Region.torus(2, 2))
    with pytest.raises(RuntimeError):
        subspace_iteration(model.hamiltonian(), 6, rng, tol=1e-12, max_iter=3)


def test_subspace_iteration_refuses_a_block_too_large_for_lobpcg(monkeypatch):
    # with 5k > dim LOBPCG would densify the operator through np.eye(dim)
    model = QuantumDouble(make_group([2]), Region.torus(2, 2))

    def no_eye(*args, **kwargs):
        raise AssertionError("np.eye called")

    monkeypatch.setattr(np, "eye", no_eye)
    with pytest.raises(DimensionCapError):
        subspace_iteration(model.hamiltonian(), 60, np.random.default_rng(7))


def test_spectrum_lowest_iterative_agrees_with_the_counts():
    # 2^17 dimensions, above DENSE_EIG_LIMIT: the LOBPCG branch
    model = QuantumDouble(make_group([2]), Region.free(3, 4))
    assert model.space.dim > DENSE_EIG_LIMIT
    spec = spectrum_lowest(model, 4, boundary="eps_mu")
    assert spec.method == "iterative"
    assert np.all(np.abs(spec.values) < 1e-8)
    assert np.all(spec.residuals < 1e-9 * spec.meta["sigma"])
    assert spectrum_counts(model, "eps_mu")[0] >= 4


@pytest.mark.parametrize("spec, k, boundary", [("free:2x6", 2, "none"), ("free:3x4", 4, "eps_mu")])
def test_lobpcg_starts_from_the_built_ground_space(spec, k, boundary):
    model = QuantumDouble(make_group([2]), parse_region_spec(spec))
    blocks = []
    for seed in (7, 11):
        basis = spectrum_lowest(model, k, boundary=boundary, rng=np.random.default_rng(seed))
        assert basis.method == "iterative" and basis.meta["kernel_columns"] == k
        assert basis.meta["iterations"] <= 2
        assert np.all(basis.residuals < 1e-12)
        assert np.all(np.abs(basis.values) < 1e-12)
        blocks.append(basis.vectors)
    # the seed still reaches the columns
    assert not np.allclose(blocks[0], blocks[1])


def test_lobpcg_adds_random_columns_beyond_the_built_ground_space():
    # 4 built ground states and 2 random columns, which find the level 2
    model = QuantumDouble(make_group([2]), Region.torus(2, 4))
    spec = spectrum_lowest(model, 6)
    assert spec.method == "iterative" and spec.meta["kernel_columns"] == 4
    counts = spectrum_counts(model)
    levels = [e for e, n in counts.items() for _ in range(n)][:6]
    assert levels == [0, 0, 0, 0, 2, 2]
    assert np.allclose(spec.values, levels, atol=1e-8)
    assert np.all(spec.residuals < 1e-9 * spec.meta["sigma"])


def test_the_mixture_is_below_its_row_limit_wherever_a_vector_fits():
    # spectrum_lowest builds the mixture after the dense-vector refusal.
    # With q^r rows in q^E dimensions, 3 r <= 1 + 2 E on every region kind
    # (equal on free 2xn), so rows^3 <= q dim^2 and every space up to 2^29
    # dimensions, an 8 GiB complex vector, passes both refusals
    specs = [f"{kind}:{m}x{n}" for kind in ("free", "torus")
             for m in range(2, 16) for n in range(m, 16)]
    specs += [f"lambda:{size}" for size in range(1, 8)]
    checked = 0
    for spec in specs:
        region = parse_region_spec(spec)
        r = mixture_rows(QuantumDouble(make_group([2]), region)).bit_length() - 1
        e = region.num_edges
        assert 3 * r <= 1 + 2 * e
        assert (3 * r == 1 + 2 * e) == (spec.startswith("free:2x"))
        q = 2
        while q**e <= 1 << 29:
            assert q**r < MIXTURE_SUPPORT_LIMIT
            checked += 1
            q += 1
    assert checked > 200


def test_sector_dimensions_ground_and_excited():
    group = make_group([2])
    region = Region.free(3, 3)
    model = QuantumDouble(group, region)
    ground = ground_space(model)
    dims = ref.sector_dimensions(model, ground.vectors)
    assert dims[(0, 0)] == 128
    assert sum(dims.values()) == 128

    # one ribbon-excited vector per sector lands where it should
    omega = ground.vectors[:, :1].copy()
    for p in ref.ground_projector_factors(model):
        omega = p.apply(omega)
    omega /= np.linalg.norm(omega)
    rib = ribbon_to_boundary(region, region.site((1, 1), (1, 1)))
    cols = []
    for chi in range(2):
        for c in range(2):
            v = model.ribbon_char(rib, chi, c).apply(omega[:, 0])
            cols.append(v / np.linalg.norm(v))
    basis = np.stack(cols, axis=1)
    gram = basis.conj().T @ basis
    assert np.linalg.norm(gram - np.eye(4)) < 1e-10
    dims = ref.sector_dimensions(model, basis)
    assert dims == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}


# ---------------------------------------------------------------------------
# exact spectra by counting charge and flux labels


def _dense_levels(model, boundary):
    vals = np.linalg.eigvalsh(model.hamiltonian(boundary=boundary).to_dense(8192))
    levels = np.round(vals).astype(int)
    assert np.max(np.abs(vals - levels)) < 1e-9
    energies, mult = np.unique(levels, return_counts=True)
    return {int(e): int(n) for e, n in zip(energies, mult)}


@pytest.mark.parametrize(
    "orders, spec, boundary",
    [
        ((2,), "free:3x3", "none"),
        ((2,), "free:3x3", "eps"),
        ((2,), "free:3x3", "eps_mu"),
        ((3,), "free:2x3", "none"),
        ((3,), "free:2x2", "none"),
        ((4,), "free:2x2", "none"),
        ((2,), "torus:2x2", "none"),
        ((2,), "torus:2x3", "none"),
    ],
)
def test_spectrum_counts_equal_dense_multiplicities(orders, spec, boundary):
    model = QuantumDouble(make_group(orders), parse_region_spec(spec))
    levels = _dense_levels(model, boundary)
    assert spectrum_counts(model, boundary) == levels
    assert form_spectrum(model.hamiltonian(boundary=boundary)) == levels


@pytest.mark.parametrize(
    "group_spec, spec, boundary",
    [
        ("Z2", "free:3x4", "none"),
        ("Z2", "free:3x4", "eps_mu"),
        ("Z4", "free:3x3", "eps_mu"),
        ("Z2xZ2", "free:3x3", "eps_mu"),
        ("Z2xZ4", "free:3x3", "eps_mu"),
        ("Z2", "free:4x4", "eps_mu"),
        ("Z3", "torus:2x2", "none"),
    ],
)
def test_form_spectrum_equals_the_counts_beyond_the_dense_route(group_spec, spec, boundary):
    # two independent exact routes: blocks on the form image, and counting
    # charge and flux labels; 2^17 to 8^12 dimensions
    model = QuantumDouble(parse_group_spec(group_spec), parse_region_spec(spec))
    assert form_spectrum(model.hamiltonian(boundary=boundary)) == spectrum_counts(model, boundary)


def test_form_spectrum_refuses_by_bytes_before_building_blocks(monkeypatch):
    # Z2 torus:3x3: 256 blocks of 256 rows, 128 MiB as float64
    h = QuantumDouble(make_group([2]), Region.torus(3, 3)).hamiltonian()
    monkeypatch.setattr(spectral_mod, "PHYSICAL_MEMORY_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionCapError, match="form spectrum bytes"):
            form_spectrum(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sector_counts_resolve_the_dense_spectrum_by_sector():
    # H^{eps,mu} commutes with every sector projector P: the spectrum of
    # H + 5 (I - P) below 5 is the spectrum of H inside the sector
    group = make_group([2])
    model = QuantumDouble(group, Region.free(3, 3))
    h = model.hamiltonian(boundary="eps_mu").to_dense()
    counts = sector_counts(group, model.region, "eps_mu")
    for chi in range(2):
        for c in range(2):
            p = model.sector_projector(chi, c).to_dense()
            vals = np.linalg.eigvalsh(h + 5.0 * (np.eye(len(h)) - p))
            inside = np.round(vals[vals < 4.5]).astype(int)
            got = {(int(e), chi, c): int(n) for e, n in zip(*np.unique(inside, return_counts=True))}
            want = {key: n for key, n in counts.items() if key[1:] == (chi, c)}
            assert got == want


def test_counts_add_up_to_the_dimension_at_any_size():
    for orders, spec in [((4,), "lambda:3"), ((2, 2), "torus:5x5"), ((3,), "free:4x7")]:
        group, region = make_group(orders), parse_region_spec(spec)
        model = QuantumDouble(group, region)
        for boundary in ("none",) if region.is_torus else ("none", "eps", "mu", "eps_mu"):
            levels = spectrum_counts(model, boundary)
            assert sum(levels.values()) == group.size**region.num_edges
            assert min(levels) == 0


def test_ground_dimension_count_is_the_counted_energy_zero_level():
    for orders, spec in [((2,), "free:3x3"), ((3,), "torus:2x2"), ((2, 3), "free:4x5")]:
        group, region = make_group(orders), parse_region_spec(spec)
        q, n_v, n_i = group.size, region.m * region.n, len(region.interior_vertices())
        closed = q**2 if region.is_torus else q ** (n_v - 1 - n_i)
        assert ground_dimension_count(group, region) == closed
        assert spectrum_counts(QuantumDouble(group, region))[0] == closed


def test_two_charges_on_z3_free_4x4_see_the_product_of_the_charges():
    # two strips from interior sites to the boundary put a charge on each
    # site; the eps loop measures their product, so equal charges (product
    # nontrivial on Z3) cost 2 - 1 and opposite charges (product trivial) 2
    group = make_group([3])
    region = Region.free(4, 4)
    model = QuantumDouble(group, region)
    h = model.hamiltonian(boundary="eps")
    counts = sector_counts(group, region, "eps")
    omega = frustration_free_state(model).vector
    rib_a = ribbon_to_boundary(region, region.site((1, 1), (0, 0)))
    rib_b = ribbon_to_boundary(region, region.site((2, 2), (2, 2)))
    for chi_b, want in ((1, 1), (2, 2)):
        psi = omega.apply(model.ribbon_char(rib_a, 1, 0)).apply(model.ribbon_char(rib_b, chi_b, 0))
        psi = psi.normalized()
        energy = psi.dot(psi.apply(h)).real
        assert energy == pytest.approx(want, abs=1e-12)
        assert psi.apply(h).add(psi.scaled(-want)).norm() < 1e-12
        weights = [psi.dot(psi.apply(model.total_charge_projector(chi))).real for chi in range(3)]
        total = int(np.argmax(weights))
        assert weights[total] == pytest.approx(1.0, abs=1e-12)
        assert (total != 0) == (want == 1)
        assert counts[(want, total, 0)] > 0

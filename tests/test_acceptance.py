"""End-to-end acceptance battery: ten numbered criteria at fixed tolerances.

Each test covers one criterion and prints exactly one summary line,

    [acceptance] NN <title>: PASS|FAIL (<measured numbers>)

before asserting, so the line survives into the failure report as well.
Run with `pytest tests/test_acceptance.py -v -s` to see all ten lines.

Two geometric facts shape the instances below.  A free m x n region is a
vertex grid, so a free 3x3 patch has a single full star at (1, 1): a strip
with BOTH end sites fully charged (the C = 2 energy case) first fits on a
free 3x4 patch, and that is where criterion 04 measures it.  Second, the
spanning-rank SVD and the dense kernel diagonalization need the full matrix,
so they run on the q^12 <= 4096 instances and are size-skipped elsewhere.
"""

import itertools
import time
from fractions import Fraction

import numpy as np

from qdouble.groups import Phase, parse_group_spec
from qdouble.lattice import (
    Ribbon,
    Site,
    Triangle,
    crossing_pair,
    parse_region_spec,
    ribbon_between,
    ribbon_to_boundary,
)
from qdouble.operators import QuantumDouble
from qdouble.sparse import SparseState
from qdouble.spectral import ground_dimension_count
from qdouble.states import (
    StateFunctional,
    eventual_constancy_check,
    frustration_free_state,
    detector_energy_residual,
    sector_weights,
    single_excitation_state,
    spanning_matrix,
)
from qdouble.verify import run_check

import reference as ref

Z2 = parse_group_spec("Z2")
Z3 = parse_group_spec("Z3")
Z4 = parse_group_spec("Z4")
Z2X2 = parse_group_spec("Z2xZ2")
FREE33 = parse_region_spec("free:3x3")
FREE34 = parse_region_spec("free:3x4")

TOL_PROBE = 1e-12
TOL_STATE = 1e-10
TOL_RANK = 1e-8

RELATION_IDS = (
    "star.compose",
    "star.adjoint",
    "plaquette.orthogonal",
    "plaquette.adjoint",
    "star-plaquette.exchange",
    "terms.projectors-commute",
)
RIBBON_IDS = (
    "ribbon.closed-trivial",
    "ribbon.concatenate",
    "ribbon.crossing-phase",
    "ribbon.endpoint-exchange",
    "ribbon.excitation-energy",
    "ribbon.fuse-same-path",
    "ribbon.path-independence",
    "ribbon.span-full-space",
)


def _report(num, title, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {num:02d} {title}: {status} ({detail})")


# ---------------------------------------------------------------------------
# shared heavy artifacts (z2_boundary_eigh is in conftest.py)


def _boundary_family(model):
    """Ground parts plus the boundary-routed charge and flux strips that
    dress them; the same generating set the kernel-span check uses."""
    region, q = model.region, model.group.size
    sites = [
        region.site(v, f)
        for v in region.interior_vertices()
        for f in region.quadrant_faces(v).values()
    ]
    charge = [None] + [
        model.ribbon_char(ribbon_to_boundary(region, s), chi, 0)
        for s in sites
        for chi in range(1, q)
    ]
    flux = [None] + [
        model.ribbon_char(ribbon_to_boundary(region, s), 0, c)
        for s in sites
        for c in range(1, q)
    ]
    parts = [p for _, p in frustration_free_state(model, "uniform-mixture").parts]
    return parts, charge, flux


def _family_vector(parts, charge, flux, idx) -> SparseState:
    i, j, k = idx
    vec = parts[i]
    if charge[j] is not None:
        vec = vec.apply(charge[j])
    if flux[k] is not None:
        vec = vec.apply(flux[k])
    return vec


def _collar_ribbon(region) -> Ribbon:
    # west-boundary collar: both end vertices on the boundary, both end
    # faces outside, so no Hamiltonian term sees either end
    eid = region.edge_id
    t1 = Triangle("dual", eid(("h", 0, 0)), -1, Site((0, 0), (0, -1)), Site((0, 0), (0, 0)))
    t2 = Triangle("direct", eid(("v", 0, 0)), +1, Site((0, 0), (0, 0)), Site((0, 1), (0, 0)))
    t3 = Triangle("dual", eid(("h", 0, 1)), -1, Site((0, 1), (0, 0)), Site((0, 1), (0, 1)))
    t4 = Triangle("dual", eid(("v", 0, 1)), -1, Site((0, 1), (0, 1)), Site((0, 1), (-1, 1)))
    return Ribbon(region, (t1, t2, t3, t4))


# ---------------------------------------------------------------------------
# the ten criteria


def test_criterion_01_operator_identities():
    """Local term relations and the eight strip properties on four instances."""
    instances = (
        (Z2, FREE33),
        (Z3, FREE33),
        (Z2, parse_region_spec("torus:3x3")),
        (Z4, FREE33),
    )
    t0 = time.perf_counter()
    failures, skips = [], []
    worst = 0.0
    for group, region in instances:
        for cid in RELATION_IDS + RIBBON_IDS:
            res = run_check(cid, group, region)
            if res.skipped:
                skips.append((group.spec, region.spec, cid, res.reason))
                continue
            if not res.passed or res.residual >= TOL_PROBE:
                failures.append((group.spec, region.spec, cid, res.residual))
            worst = max(worst, res.residual)
    wall = time.perf_counter() - t0
    # the spanning-rank SVD needs the one dense instance (Z2 free 3x3, where
    # it runs and passes); elsewhere it size-skips and is criterion 10's job
    stray = [s for s in skips if s[2] != "ribbon.span-full-space"]
    ok = not failures and not stray and wall < 300.0
    _report(
        1,
        "operator identities",
        ok,
        f"worst residual {worst:.2e} over 4 instances x 14 checks, "
        f"{len(skips)} size-forced skips, {wall:.0f}s",
    )
    assert not failures, failures
    assert not stray, stray
    assert wall < 300.0


def test_criterion_02_boundary_projector_equality():
    """The global charge detectors equal the boundary loop operators."""
    worst = 0.0
    for group in (Z2, Z3):
        model = QuantumDouble(group, FREE33)
        rng = np.random.default_rng(7)
        psi = model.space.random_vectors(rng, 8)
        pairs = (
            (model.detector_eps(), model.boundary_charge_eps()),
            (model.detector_mu(), model.boundary_charge_mu()),
        )
        for det, loop in pairs:
            num = np.linalg.norm(det.apply(psi) - loop.apply(psi), axis=0)
            den = np.linalg.norm(psi, axis=0)
            worst = max(worst, float(np.max(num / den)))
    ok = worst < TOL_STATE
    _report(2, "boundary projector equality", ok, f"worst relative residual {worst:.2e} on 8 probes, Z2 and Z3")
    assert ok, worst


def test_criterion_03_torus_degeneracy():
    """dim ker H on a torus is the squared group order."""
    cases = ((Z2, "torus:2x2"), (Z2, "torus:3x3"), (Z3, "torus:2x2"))
    rows = []
    for group, rspec in cases:
        region = parse_region_spec(rspec)
        model = QuantumDouble(group, region)
        want = group.size**2
        if model.space.dim <= 8192:
            vals = np.linalg.eigvalsh(model.hamiltonian().to_dense(max_dim=8192))
            got = int(np.sum(vals < TOL_RANK))
            method = "dense"
        else:
            basis = ref._projector_ground_basis(model, np.random.default_rng(7), TOL_RANK)
            assert float(basis.residuals.max()) < TOL_RANK
            got = basis.dim
            method = "projector"
        count = ground_dimension_count(group, region)
        rows.append((group.spec, rspec, got, want, count, method))
    ok = all(got == want == count for _, _, got, want, count, _ in rows)
    detail = ", ".join(f"{g} {r}: {got} ({m})" for g, r, got, _, _, m in rows)
    _report(3, "torus ground degeneracy", ok, detail)
    assert ok, rows


def _pair_energy_worst(model, rib, case) -> float:
    """Worst eigenvector residual of H (F Omega) = C (2 - d_chi - d_c) F Omega
    over every label pair, where C counts fully charged end sites."""
    region = model.region
    n_star = sum(1 for s in (rib.start, rib.end) if s.vertex in region.interior_vertices())
    n_plaq = sum(1 for s in (rib.start, rib.end) if region.face_in_region(s.face))
    assert n_star == n_plaq == case
    h = model.hamiltonian()
    omega = frustration_free_state(model).vector
    q = model.group.size
    worst = 0.0
    for chi in range(q):
        for c in range(q):
            exc = omega.apply(model.ribbon_char(rib, chi, c))
            e = case * (2 - (chi == 0) - (c == 0))
            worst = max(worst, exc.apply(h).add(exc.scaled(-float(e))).norm())
    return worst


def test_criterion_04_ribbon_energies():
    """Strip excitation energies C (2 - d_chi - d_c) for C = 0, 1, 2.

    A free 3x3 patch has one full star, so it realizes C = 0 (boundary
    collar) and C = 1 (interior to boundary); the C = 2 interior pair first
    fits on a free 3x4 patch and is measured there.
    """
    worst = 0.0
    for group in (Z2, Z3):
        m33 = QuantumDouble(group, FREE33)
        worst = max(worst, _pair_energy_worst(m33, _collar_ribbon(FREE33), 0))
        site = FREE33.site((1, 1), (1, 1))
        worst = max(worst, _pair_energy_worst(m33, ribbon_to_boundary(FREE33, site), 1))
        m34 = QuantumDouble(group, FREE34)
        rib2 = ribbon_between(FREE34, FREE34.site((1, 1), (1, 1)), FREE34.site((1, 2), (1, 2)))
        worst = max(worst, _pair_energy_worst(m34, rib2, 2))
    ok = worst < TOL_STATE
    _report(
        4,
        "ribbon excitation energies",
        ok,
        f"worst residual {worst:.2e}, all labels, C=0,1 on free 3x3, C=2 on free 3x4, Z2 and Z3",
    )
    assert ok, worst


def test_criterion_05_boundary_hamiltonian_structure(z2_boundary_eigh):
    """PSD, kernel dimension equals the generating span, sectors add up."""
    model, vals, vecs = z2_boundary_eigh
    min_eig = float(vals[0])
    keep = vals < TOL_RANK
    kernel_dim = int(np.sum(keep))
    kernel = vecs[:, keep]
    parts, charge, flux = _boundary_family(model)
    shape = (len(parts), len(charge), len(flux))
    cols = np.empty((model.space.dim, int(np.prod(shape))), dtype=complex)
    for k, idx in enumerate(itertools.product(*map(range, shape))):
        cols[:, k] = _family_vector(parts, charge, flux, idx).to_dense(model.space)
    svals = np.linalg.svd(cols, compute_uv=False)
    span_dim = int(np.sum(svals > TOL_RANK * svals[0]))
    dims = ref.sector_dimensions(model, kernel)
    ok = min_eig > -1e-12 and kernel_dim == span_dim and sum(dims.values()) == kernel_dim
    _report(
        5,
        "boundary Hamiltonian structure",
        ok,
        f"min eig {min_eig:.1e}, kernel {kernel_dim} == span {span_dim} from "
        f"{cols.shape[1]} generators, sector dims sum {sum(dims.values())}",
    )
    assert min_eig > -1e-12
    assert kernel_dim == span_dim
    assert sum(dims.values()) == kernel_dim


def test_criterion_06_energy_equals_boundary_charges(z2_boundary_eigh):
    """On boundary-kernel states, <H> = <D_eps> + <D_mu>.

    Z2 uses the full dense kernel basis.  The Z3 kernel (inside a 3^12
    dimensional space) has no dense basis on this hardware, so a seeded
    sample of the generating family stands in for it.
    """
    model, vals, vecs = z2_boundary_eigh
    kernel = vecs[:, vals < TOL_RANK]
    worst = ref.detector_energy_check(model, kernel)
    n_dense = kernel.shape[1]

    model3 = QuantumDouble(Z3, FREE33)
    parts, charge, flux = _boundary_family(model3)
    shape = (len(parts), len(charge), len(flux))
    rng = np.random.default_rng(7)
    samples = [frustration_free_state(model3)]
    picks = [tuple(int(rng.integers(s)) for s in shape) for _ in range(24)]
    for idx in picks:
        samples.append(StateFunctional.pure(model3, _family_vector(parts, charge, flux, idx)))
    a = _family_vector(parts, charge, flux, picks[0])
    b = _family_vector(parts, charge, flux, picks[1])
    samples.append(StateFunctional.pure(model3, a.add(b.scaled(0.6 + 0.8j))))
    worst = max(worst, max(detector_energy_residual(s) for s in samples))
    ok = worst < TOL_STATE
    _report(
        6,
        "energy equals boundary charges",
        ok,
        f"worst gap {worst:.2e} over {n_dense} Z2 kernel vectors and {len(samples)} Z3 kernel samples",
    )
    assert ok, worst


def test_criterion_07_sector_weights():
    """Weights are a point mass at the created label; the ground state sits
    entirely in the trivial sector."""
    worst = 0.0
    for group in (Z2, Z3):
        model = QuantumDouble(group, FREE33)
        q = group.size
        site = FREE33.site((1, 1), (1, 1))
        w = sector_weights(frustration_free_state(model))
        for key, val in w.items():
            worst = max(worst, abs(val - (1.0 if key == (0, 0) else 0.0)))
        for chi in range(q):
            for c in range(q):
                if (chi, c) == (0, 0):
                    continue
                w = sector_weights(single_excitation_state(model, site, chi, c))
                for key, val in w.items():
                    worst = max(worst, abs(val - (1.0 if key == (chi, c) else 0.0)))
    ok = worst < TOL_STATE
    _report(7, "sector weights", ok, f"worst deviation {worst:.2e} over all labels, Z2 and Z3")
    assert ok, worst


def _seeded_superposition(group, rng, k=3) -> SparseState:
    """A normalized superposition of k random configurations on FREE33."""
    digits = rng.integers(0, group.size, size=(k, FREE33.num_edges), dtype=np.uint8)
    amps = rng.normal(size=k) + 1j * rng.normal(size=k)
    return SparseState(group, FREE33.num_edges, digits, amps).normalized()


def test_criterion_08_braiding_table():
    """Crossing scalars against the package convention chi(d) xi(c).

    For the strips rho, sigma of `crossing_pair`, labeled (chi, c) and
    (xi, d), F_rho F_sigma = chi(d) xi(c) F_sigma F_rho.  Every one of the
    q^4 label pairs is checked twice: exactly, on the rational exponent of
    `crossing_phase`, and by composing the two strip operators in both
    orders on a seeded superposition, which does not go through
    `crossing_phase`.  Reversing either strip conjugates the scalar and
    swapping the strips inverts it, so the reachable scalars are chi(d) xi(c)
    and its conjugate; the mixed form chi(d) conj(xi(c)) is neither unless
    the characters are real.
    """
    groups = (Z2, Z3, Z4, Z2X2)
    rho, sigma = crossing_pair(FREE33)
    rho_rev, sigma_rev = rho.reversed(), sigma.reversed()
    mismatches = {}
    orientation_faults = {}
    worst_float = 0.0
    n_pairs = 0
    for group in groups:
        model = QuantumDouble(group, FREE33)
        rng = np.random.default_rng(7)
        labels = list(itertools.product(group.characters(), group.elements()))
        pairs = len(labels) ** 2
        bad = bad_orientation = 0
        for (chi, c), (xi, d) in itertools.product(labels, repeat=2):
            expected = chi(d) * xi(c)
            measured = model.crossing_phase(rho, chi, c, sigma, xi, d)
            bad += measured.exponent != expected.exponent
            conjugated = measured.conjugate().exponent
            bad_orientation += (
                model.crossing_phase(rho_rev, chi, c, sigma, xi, d).exponent != conjugated
                or model.crossing_phase(rho, chi, c, sigma_rev, xi, d).exponent != conjugated
                or model.crossing_phase(sigma, xi, d, rho, chi, c).exponent
                != (Phase.one() / measured).exponent
            )
            # float cross-check of the expected scalar: compose the two strip
            # operators in both orders on a seeded superposition
            f1 = model.ribbon_char(rho, chi, c)
            f2 = model.ribbon_char(sigma, xi, d)
            psi = _seeded_superposition(group, rng)
            v12 = psi.apply(f2).apply(f1)
            v21 = psi.apply(f1).apply(f2)
            resid = v12.add(v21.scaled(-expected.to_complex())).norm()
            worst_float = max(worst_float, resid)
        n_pairs += pairs
        if bad:
            mismatches[group.spec] = f"{bad}/{pairs}"
        if bad_orientation:
            orientation_faults[group.spec] = f"{bad_orientation}/{pairs}"
    # the two nontrivial Z2 species: pure charge crossing pure flux
    z2m = QuantumDouble(Z2, FREE33)
    s11 = z2m.crossing_phase(
        rho,
        Z2.character_from_index(1),
        Z2.element_from_index(0),
        sigma,
        Z2.character_from_index(0),
        Z2.element_from_index(1),
    )
    sign_flip = s11.exponent == Fraction(1, 2)
    ok = not mismatches and not orientation_faults and worst_float < TOL_PROBE and sign_flip
    detail = (
        f"{n_pairs} label pairs on {', '.join(g.spec for g in groups)}, operator cross-check {worst_float:.2e}, "
        f"Z2 charge x flux = exp(2 pi i {s11.exponent})"
    )
    if mismatches:
        detail += f"; chi(d) xi(c) unrealized for {mismatches}"
    if orientation_faults:
        detail += f"; reversal or swap faults {orientation_faults}"
    _report(8, "braiding table", ok, detail)
    assert sign_flip, s11
    assert worst_float < TOL_PROBE, worst_float
    assert not mismatches, f"crossing scalar differs from chi(d) xi(c): {mismatches}"
    assert not orientation_faults, (
        f"reversing a strip does not conjugate, or swapping does not invert: {orientation_faults}"
    )


def test_criterion_09_eventual_constancy():
    """A fixed probe family around one excitation reads the same in a free
    4x4 patch and a free 5x5 patch containing it."""
    small, large = parse_region_spec("free:4x4"), parse_region_spec("free:5x5")
    worst = 0.0
    for chi, c in ((1, 0), (0, 1), (1, 1)):
        worst = max(worst, eventual_constancy_check(Z2, small, large, (1, 1), chi, c))
    ok = worst < TOL_STATE
    _report(9, "eventual constancy", ok, f"worst probe deviation {worst:.2e}, free 4x4 vs 5x5")
    assert ok, worst


def test_criterion_10_spanning_rank():
    """Ribbon products on the ground vector span the whole space."""
    model = QuantumDouble(Z2, FREE33)
    cols = spanning_matrix(model).toarray()
    svals = np.linalg.svd(cols, compute_uv=False)
    rank = int(np.sum(svals > TOL_RANK * svals[0]))
    ok = rank == model.space.dim == 4096
    _report(10, "spanning rank", ok, f"numerical rank {rank} of {model.space.dim}")
    assert ok, rank

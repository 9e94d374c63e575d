"""Finite-volume states of the model and their charge decompositions.

States are convex mixtures of normalized sparse vectors, one stack with a
weight per part, so an expectation is read on the rows that carry
amplitude, with no image of the operator built.  Ground states are gauge
orbits of flat configurations: the frustration-free vector Omega is the
orbit of the identity configuration, and the uniform ground mixture
averages one orbit per flat sector.  Excited states attach a ribbon operator
routed to the boundary.  On a free patch `seed_expectation` reads
<Omega|A|Omega>, and through `charge_transport` an excitation's, from the
term algebra with no rows, so `eventual_constancy_check` runs at any size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lattice import Region, Site, direct_ribbon, dual_ribbon, face_direct_loop, ribbon_to_boundary
from .operators import (MIXTURE_SUPPORT_LIMIT, PHYSICAL_MEMORY_BYTES, Operator, QuantumDouble,
                        Term, TermOp, _form_on_shift, holonomy_values, is_real, refuse_above)
from .sparse import (SparseState, grow, matrix_elements, row_keys, scale_parts, shift_matches,
                     sorted_keys, sparse_apply, split_parts, squared_norms, stack, stack_matrix,
                     stack_rows, take_parts)

__all__ = [
    "StateFunctional",
    "SectorWeights",
    "mix",
    "probe_family",
    "frustration_free_state",
    "single_excitation_state",
    "sector_weights",
    "conditional_sector_state",
    "charge_transport",
    "seed_expectation",
    "detector_energy_residual",
    "eventual_constancy_check",
    "indistinguishability_check",
    "mixture_rows",
    "spanning_family",
    "spanning_matrix",
]

WEIGHT_TOL = 1e-10


@dataclass
class StateFunctional:
    """A convex mixture of normalized sparse vectors on one model, held as
    one stack (see `sparse.stack`) with a weight per part label."""

    model: QuantumDouble
    stack: SparseState
    weights: np.ndarray
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.weights) != self.stack.n_parts:
            raise ValueError(f"{len(self.weights)} weights for {self.stack.n_parts} parts")

    @classmethod
    def pure(cls, model: QuantumDouble, state: SparseState, info=None) -> "StateFunctional":
        return cls(model, state.normalized(), np.ones(1), info or {})

    def expect(self, op: Operator) -> complex:
        """sum_p w_p <s_p|A s_p>, read on the stack's own rows
        (`sparse.matrix_elements`)."""
        return complex(np.dot(self.weights, matrix_elements(op, self.stack, self.stack)))

    @cached_property
    def parts(self) -> tuple:
        """((weight, state), ...) of the parts of positive weight (`sparse.split_parts`)."""
        return tuple((float(w), s) for w, s in zip(self.weights, split_parts(self.stack)) if w > 0)

    def expect_real(self, op: Operator, tol: float = 1e-9) -> float:
        val = self.expect(op)
        if abs(val.imag) > tol:
            raise ValueError(f"expectation {val} has a non-negligible imaginary part")
        return val.real

    @property
    def vector(self) -> SparseState:
        if self.stack.n_parts != 1:
            raise ValueError("mixture has no single state vector")
        return self.stack


def mix(functionals_and_weights) -> StateFunctional:
    """Convex combination of StateFunctionals on the same model: the parts
    of positive weight, in order, relabelled into one stack."""
    items = list(functionals_and_weights)
    model = items[0][0].model
    if any(func.model is not model for func, _ in items):
        raise ValueError("cannot mix states of different models")
    kept = [(func.stack, w * func.weights, np.flatnonzero(w * func.weights > 0))
            for func, w in items]
    weights = np.concatenate([pw[keep] for _, pw, keep in kept])
    total = sum(weights)
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValueError(f"mixture weights add to {total}, not 1")
    st = stack([take_parts(st, keep) for st, _, keep in kept])
    return StateFunctional(model, st, weights, {"kind": "mixture"})


# ---------------------------------------------------------------------------
# ground states


def _gauge_vertices(region: Region) -> list:
    """Vertices whose potentials generate the gauge group: the interior ones
    on a free patch, all but (0, 0) on a torus (constants act trivially)."""
    return region.vertices()[1:] if region.is_torus else region.interior_vertices()


def _gradients(model: QuantumDouble, vertices) -> np.ndarray:
    """Edge digits of the gradient h(head) h(tail)^-1 of every potential h on
    `vertices` (identity elsewhere), one row each in itertools.product order:
    each vertex's star-shift rows folded through the product table."""
    group, region = model.group, model.region
    mul, inv = group.mul_table(), group.inv_table()
    q, n_edges = group.size, region.num_edges
    rows = np.zeros((1, n_edges), dtype=np.uint8)
    for v in vertices:
        step = np.zeros((q, n_edges), dtype=np.uint8)
        for eid, sign in region.star_edges(v):
            step[:, eid] = mul[step[:, eid], np.arange(q) if sign < 0 else inv]
        rows = mul[rows[:, None, :], step[None, :, :]].reshape(-1, n_edges)
    return rows


def _orbit_rows(model: QuantumDouble, reps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gauge orbit of each row of `reps`, as (len(reps), n, num_edges)
    rows and the n amplitudes of the normalized uniform superposition: what
    the ground projector product makes of a flat configuration.  The gauge
    group acts freely, so every orbit has one row per potential on the gauge
    vertices, sorted as a merge sorts them."""
    offsets = _gradients(model, _gauge_vertices(model.region))
    n, n_edges = offsets.shape
    rows = model.group.mul_table()[reps[:, None, :], offsets[None]]
    order = np.argsort(row_keys(rows.reshape(-1, n_edges)).reshape(len(reps), n), axis=1)
    rows = np.take_along_axis(rows, order[:, :, None], axis=1)
    return rows, np.full(n, 1.0 / np.sqrt(n), dtype=np.complex128)


def _seed_vector(model: QuantumDouble) -> SparseState:
    """The gauge orbit of the identity configuration."""
    n_orbit = model.group.size ** len(_gauge_vertices(model.region))
    refuse_above(n_orbit, MIXTURE_SUPPORT_LIMIT, "ground seed configurations")
    rows, amps = _orbit_rows(model, np.zeros((1, model.region.num_edges), dtype=np.uint8))
    return SparseState(model.group, model.region.num_edges, rows[0], amps, merged=True)


def _flat_orbit_representatives(model: QuantumDouble) -> np.ndarray:
    """One flat configuration per gauge orbit, one row each.

    Free patch: gradients of potentials that vanish on the interior vertices
    and at the anchor (0,0).  Torus: one winding pair per flux sector, the
    potential gauge-fixed away entirely.
    """
    region, q = model.region, model.group.size
    if region.is_torus:
        windings = np.indices((q, q), dtype=np.uint8).reshape(2, -1).T
        reps = np.zeros((q * q, region.num_edges), dtype=np.uint8)
        reps[:, [region.edge_id(("h", 0, j)) for j in range(region.n)]] = windings[:, :1]
        reps[:, [region.edge_id(("v", i, 0)) for i in range(region.m)]] = windings[:, 1:]
        return reps
    interior = set(region.interior_vertices())
    return _gradients(model, [v for v in region.vertices() if v not in interior and v != (0, 0)])


def frustration_free_state(model: QuantumDouble, choice: str = "vector-seed") -> StateFunctional:
    """Zero-energy state of the plain Hamiltonian.

    'vector-seed' is the gauge orbit of the identity configuration;
    'uniform-mixture' averages the orbit state of every gauge orbit of flat
    configurations (the fully mixed ground functional).
    """
    if choice == "vector-seed":
        return StateFunctional.pure(model, _seed_vector(model), {"kind": "vector-seed"})
    if choice != "uniform-mixture":
        raise ValueError(f"unknown ground state choice {choice!r}")
    refuse_above(mixture_rows(model), MIXTURE_SUPPORT_LIMIT, "uniform mixture configurations")
    rows, amps = _orbit_rows(model, _flat_orbit_representatives(model))
    return StateFunctional(model, stack_rows(model.group, rows, amps),
                           np.full(len(rows), 1.0 / len(rows)), {"kind": "uniform-mixture"})


def mixture_rows(model: QuantumDouble) -> int:
    """Configurations of the uniform ground mixture: every flat one, the
    gradients of potentials up to a constant, times the q^2 winding pairs on
    a torus."""
    region = model.region
    return model.group.size ** (len(region.vertices()) - 1 + 2 * region.is_torus)


# ---------------------------------------------------------------------------
# excitations


def single_excitation_state(
    model: QuantumDouble, site: Site, chi, c, direction=None
) -> StateFunctional:
    """Normalized F^{chi,c} Omega for the default ribbon from `site` out of
    the region; carries charge (chi, c) at the site and nothing else inside."""
    region = model.region
    if region.is_torus:
        raise ValueError("single-excitation states need a boundary to route to")
    if site.vertex not in region.interior_vertices():
        raise ValueError(f"site vertex {site.vertex} is not interior")
    ribbon = ribbon_to_boundary(region, site, direction)
    info = {  # the labels' range is checked before any operator is built
        "kind": "single-excitation",
        "site": site,
        "chi": model._chi_idx(chi),
        "c": model._g_idx(c),
        "ribbon": ribbon,
    }
    omega = _seed_vector(model)
    excited = sparse_apply(model.ribbon_char(ribbon, chi, c), omega)
    return StateFunctional.pure(model, excited, info)


def charge_transport(model: QuantumDouble, ribbon, chi, c, op: Operator) -> Operator:
    """Conjugation by the ribbon unitary: A -> F* A F."""
    f = model.ribbon_char(ribbon, chi, c)
    return f.adjoint() @ (op @ f)


def seed_expectation(model: QuantumDouble, op: TermOp) -> complex:
    """<Omega|A|Omega> on the vector seed of a free patch, from the term
    algebra alone.  Omega is uniform on dPhi, the gradients of potentials on
    the interior vertices, so a term coeff * shift_s * D adds coeff times
    the mean of D on dPhi when s is in dPhi (`_is_gradient`), else nothing.
    With each indicator [G = u] = (1/|G|) sum_psi conj psi(u) psi(G), D sums
    characters prod_i chi_i(F_i(x)); at x = dh each factorizes over the
    vertices, with mean 1 when prod_i chi_i^a_iv is trivial at every
    interior v, a_iv the signed weight of F_i on the star of v, and else 0."""
    if not isinstance(op, TermOp):
        raise TypeError(f"seed expectations read a TermOp, not {type(op).__name__}")
    region, group, q = model.region, model.group, model.group.size
    if region.is_torus:
        raise ValueError("seed expectations need a free patch")
    op.space.require_acts_on(group, region.num_edges)
    mul, power, conj = group.mul_table(), group.pow_table(), group.char_values(group.inv_table())
    total = 0j
    for t in op.terms:
        if t.coeff == 0 or not _is_gradient(model, t.shift):
            continue
        # one row per tuple of characters: the phases' own, then every psi
        chis = np.array(list(itertools.product(*[[chi] for _, chi in t.phases],
                                               *[range(q)] * len(t.indicators))), dtype=np.intp)
        forms = [dict(form) for form, _ in t.phases + t.indicators]
        # a_iv vanishes but at the interior endpoints of the forms' edges
        ends = {v for w in forms for e in w for v in region.edge_endpoints(region.edge_tuple(e))}
        stars = [star for star in map(region.star_edges, ends) if len(star) == 4]
        charge = np.zeros((len(chis), len(stars)), dtype=np.uint8)
        for k, w in enumerate(forms):
            a = np.array([sum(s * w.get(e, 0) for e, s in star) for star in stars], dtype=np.intp)
            charge = mul[charge, power[(a % len(power))[None, :], chis[:, k, None]]]
        weight = np.prod([conj[chis[:, k], u]  # row psi of conj is conj(psi)
                          for k, (_, u) in enumerate(t.indicators, len(t.phases))], axis=0)
        total += t.coeff * np.sum(weight * (charge == 0).all(axis=1)) / q ** len(t.indicators)
    return complex(total)


def _is_gradient(model: QuantumDouble, shift: tuple) -> bool:
    """Whether a shift is the gradient of a potential on the interior
    vertices of a free patch: it moves only edges with an interior endpoint,
    as the rim joins the others, and is flat on the faces it touches."""
    region, moved, faces = model.region, dict(shift), set()
    for edge in moved:
        e = region.edge_tuple(edge)
        if not any(map(region.has_full_star, region.edge_endpoints(e))):
            return False
        faces.update(f for f in region.faces_of_edge(e) if region.face_in_region(f))
    return not any(_form_on_shift(model.group, form, [(e, moved[e]) for e, _ in form if e in moved])
                   for form in map(model._face_form, faces))


# ---------------------------------------------------------------------------
# sector weights and conditional states


@dataclass(frozen=True)
class SectorWeights:
    """Convex weights of the global (charge, flux) sectors of a state."""

    group_spec: str
    region_spec: str
    entries: tuple  # ((chi_index, c_index, value), ...) in packed order

    def __getitem__(self, key) -> float:
        chi, c = key
        for ci, gi, v in self.entries:
            if (ci, gi) == (chi, c):
                return v
        raise KeyError(key)

    def as_dict(self) -> dict:
        return {(ci, gi): v for ci, gi, v in self.entries}


def sector_weights(state: StateFunctional) -> SectorWeights:
    """lambda_{chi,c} = omega(P_chi P_c), all from one pass; sums to one.

    P_chi = (1/q) sum_g conj(chi)(g) T_g, T_g the global gauge shift, and
    P_c = [total flux = c] is diagonal and commutes with every T_g.  So
    lambda_{chi,c} = (1/q) sum_g conj(chi)(g) M[g, c], where M[g, c] sums
    w conj(s(x + T_g)) s(x) over the rows x of total flux c: one row
    matching per g, and the flux read once from the summed holonomy form.
    """
    model, group = state.model, state.model.group
    q, st, n = group.size, state.stack, state.stack.n_parts
    # per row: its flux, bin and product (25 bytes), and the sorted keys and
    # sort order of the rows with one row matching's moved copy and indices
    refuse_above(st.n_configs * (5 * st.digits.shape[1] + 41), PHYSICAL_MEMORY_BYTES,
                 "sector weight bytes")
    flux = holonomy_values(group, lambda edge: st.digits[:, edge], st.n_configs,
                           model.total_flux_form())
    bins = st.labels * q + flux  # (part, flux) of every row
    m, keys = np.zeros((q, q), dtype=np.complex128), sorted_keys(st)
    for g in range(q):
        i, j = shift_matches(st, st, model.gauge_shift(g), keys)
        terms = st.amps[j].conj() * st.amps[i]
        per_part = (np.bincount(bins[i], terms.real, n * q)
                    + 1j * np.bincount(bins[i], terms.imag, n * q)).reshape(n, q)
        m[g] = state.weights @ per_part
    lam = group.char_values(group.inv_table()) @ m / q  # row chi of the table is conj(chi)
    if np.abs(lam.imag).max() > 1e-9:
        raise ValueError(f"sector weights {lam} have a non-negligible imaginary part")
    lam = lam.real
    if lam.min() < -1e-12:
        raise ValueError(f"negative sector weight {lam.min()} at {divmod(int(lam.argmin()), q)}")
    if abs(lam.sum() - 1.0) > WEIGHT_TOL:
        raise ValueError(f"sector weights add to {lam.sum()}, not 1")
    entries = tuple((chi, c, float(lam[chi, c])) for chi in range(q) for c in range(q))
    return SectorWeights(model.group.spec, model.region.spec, entries)


def conditional_sector_state(state: StateFunctional, chi, c) -> StateFunctional:
    """The state conditioned on global sector (chi, c): omega(D . D)/omega(D),
    one application of D to the whole stack, then each part renormalized."""
    model = state.model
    proj = sparse_apply(model.sector_projector(chi, c), state.stack)
    n2 = squared_norms(proj)
    lam = float(np.dot(state.weights, n2))
    if lam <= 1e-10:
        raise ValueError(f"sector {(chi, c)} has vanishing weight {lam}")
    # a part D s_l with no rows has n2 = 0 and keeps weight 0
    proj = scale_parts(proj, 1.0 / np.sqrt(np.where(n2 > 0, n2, 1.0)))
    return StateFunctional(model, proj, state.weights * n2 / lam,
                           {"kind": "conditional", "sector": (chi, c), "weight": lam})


# ---------------------------------------------------------------------------
# ground-state identities


def detector_energy_residual(state: StateFunctional) -> float:
    """|omega(H - D^eps - D^mu)| for a sparse state, one expectation."""
    model = state.model
    return abs(state.expect(model.hamiltonian() - model.detector_eps() - model.detector_mu()))


# ---------------------------------------------------------------------------
# probe families and stability checks


def probe_family(model: QuantumDouble, site: Site, far_vertex) -> list:
    """Named local observables around an excitation site plus distant ones."""
    region, group = model.region, model.group
    q = group.size
    probes = [("star-average", model.star(site.vertex))]
    for g in range(1, q):
        probes.append((f"star-shift-{g}", model.star_shift(site.vertex, g)))
    for h in range(q):
        probes.append((f"flux-indicator-{h}", model.plaquette_indicator(site.face, h)))
    loop = face_direct_loop(region, site.face)
    for s in range(1, q):
        probes.append((f"encircling-loop-{s}", model.ribbon_char(loop, s, 0)))
    far_face = far_vertex
    probes.append(("far-star", model.star(far_vertex)))
    probes.append(("far-flux", model.plaquette_indicator(far_face, 0)))
    far_edge = ("h", far_vertex[0], far_vertex[1])
    probes.append(
        ("far-edge-character", model.ribbon_char(direct_ribbon(region, far_edge), 1 % q, 0))
    )
    probes.append(
        ("far-edge-shift", model.ribbon_char(dual_ribbon(region, far_edge), 0, 1 % q))
    )
    return probes


def eventual_constancy_check(
    group, region_small: Region, region_large: Region, site_coords, chi, c
) -> float:
    """Max deviation of a fixed probe family between the same excitation
    built in a small free region and in a larger one containing it; the far
    probes sit at the small region's last interior vertex.  Each probe A is
    read as `seed_expectation` of F* A F: no configuration row is built."""
    if region_small.is_torus or region_large.is_torus:
        raise ValueError("embedding mismatch: constancy check needs free regions")
    if region_small.m > region_large.m or region_small.n > region_large.n:
        raise ValueError("embedding mismatch: small region does not fit in large")
    (vx, vy) = site_coords
    far_vertex = (region_small.m - 2, region_small.n - 2)
    values, routes = {}, []
    for region in (region_small, region_large):
        model = QuantumDouble(group, region)
        for v in ((vx, vy), far_vertex):
            if v not in region.interior_vertices():
                raise ValueError(f"embedding mismatch: {v} not interior in {region.spec}")
        site = region.site((vx, vy), (vx, vy))
        rib = ribbon_to_boundary(region, site)
        routes.append([(t.kind, region.edge_tuple(t.edge), t.sign, t.s0, t.s1)
                       for t in rib.triangles])
        for name, op in probe_family(model, site, far_vertex):
            transported = charge_transport(model, rib, chi, c, op)
            values.setdefault(name, []).append(seed_expectation(model, transported))
    if routes[0] != routes[1]:
        raise ValueError("embedding mismatch: boundary ribbons differ on the overlap")
    return max(abs(small_val - large_val) for small_val, large_val in values.values())


def indistinguishability_check(model: QuantumDouble) -> float:
    """Max deviation between the vector seed and the uniform ground mixture
    on observables supported on interior-interior edges only: the star at
    vertex (1, 1) and the plaquette, loops and edges of face (1, 1)."""
    region, group = model.region, model.group
    q = group.size
    vec = frustration_free_state(model, "vector-seed")
    mixd = frustration_free_state(model, "uniform-mixture")
    face = (1, 1)
    probes = [("star", model.star((1, 1))), ("plaquette", model.plaquette(face))]
    for s in range(1, q):
        probes.append((f"loop-{s}", model.ribbon_char(face_direct_loop(region, face), s, 0)))
    for e, sgn in region.face_boundary(face):
        eid = region.edge_id(e)
        for g in range(q):
            probes.append(
                (f"edge-{eid}-{g}", TermOp(model.space, [Term(1.0, (), (), ((((eid, 1),), g),))]))
            )
        for g in range(1, q):
            # off-diagonal probe: a bare single-edge shift, expectation 0
            probes.append(
                (f"shift-{eid}-{g}", TermOp(model.space, [Term(1.0, ((eid, g),))]))
            )
    worst = 0.0
    for _, op in probes:
        worst = max(worst, abs(vec.expect(op) - mixd.expect(op)))
    return worst


# ---------------------------------------------------------------------------
# spanning family


def spanning_family(model: QuantumDouble) -> SparseState:
    """Products of single-edge ribbon operators applied to the ground seed
    vector, one stack part per basis dimension; full rank means ribbon
    operators generate everything from the ground space.

    Shifting along a transversal of the gauge orbits reaches every orbit
    coset, and the character ribbons on one out-edge per interior vertex
    separate the configurations inside each orbit.

    Part j = sum_a z_a q^(E-1-a) applies strip z_a on each axis a (the other
    edges, then the gauge edges): the parts grow as one stack, one `grow` per
    axis, (q-1)·E applications in all.  Each strip maps a row to one row, so
    the stack has dim times the seed's rows, refused above
    MIXTURE_SUPPORT_LIMIT before it grows.
    """
    axes, st = _spanning_axes(model), _seed_vector(model)
    refuse_above(model.space.dim * st.n_configs, MIXTURE_SUPPORT_LIMIT, "spanning family rows")
    for strips in axes:
        st = grow(st, strips)
    return st


def _spanning_axes(model: QuantumDouble) -> list[list[TermOp]]:
    """The q-1 strips of every axis of the spanning family."""
    region, q = model.region, model.group.size
    if region.is_torus:
        raise ValueError("the spanning family is built for free regions")
    gauge_edges = [region.edge_id(("h", v[0], v[1])) for v in region.interior_vertices()]
    other_edges = [eid for eid in range(region.num_edges) if eid not in gauge_edges]
    axes = [[model.ribbon_char(dual_ribbon(region, region.edge_tuple(eid)), 0, g)
             for g in range(1, q)] for eid in other_edges]
    return axes + [[model.ribbon_char(direct_ribbon(region, region.edge_tuple(eid)), s, 0)
                    for s in range(1, q)] for eid in gauge_edges]


def spanning_matrix(model: QuantumDouble):
    """The spanning family as a float64 scipy CSC matrix of shape (dim, dim),
    column j its part j (`sparse.stack_matrix`), refused unless every strip
    is real."""
    if not all(is_real(op) for strips in _spanning_axes(model) for op in strips):
        raise ValueError("the spanning family needs real strips")
    return stack_matrix(spanning_family(model), model.space, np.float64)

"""Named verification battery for the model's operator and state identities.

Every identity the package relies on is a registered check with a stable
id, a self-contained statement, a residual, and a threshold.  `run_suite`
executes the whole battery on one (group, region) instance; `run_check`
runs a single id.  Checks that need a boundary skip themselves on tori
with an explicit reason, and checks whose blocks or stacks are too large for
this machine skip before they build them instead of guessing.  Nothing is
drawn at random: a run depends only on (group, region).

Operator identities are compared exactly, in the term algebra, at any
support: every term reads a configuration only through its holonomy forms,
so A = B exactly when every shift's diagonal factor agrees on every tuple of
values those forms can take together (`_Ctx.probe`).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .groups import Group
from .lattice import (Region, Ribbon, RibbonError, Site, Triangle, boundary_ribbon, concat_ribbons,
                      crossing_pair, direct_ribbon, dual_ribbon, face_direct_loop, ribbon_between,
                      ribbon_to_boundary, vertex_dual_loop)
from .operators import (DEFAULT_DIM_CAP, MIXTURE_SUPPORT_LIMIT, DimensionCapError, QuantumDouble,
                        TermOp, form_image, refuse_above, shift_diagonals)
from .spectral import form_spectrum, sector_counts, spectrum_counts
from .sparse import (SparseState, grow, scale_parts, sparse_apply, squared_norms, stack_rank,
                     take_parts)
from .states import (StateFunctional, detector_energy_residual, frustration_free_state, mix,
                     mixture_rows, sector_weights, single_excitation_state, spanning_family)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "CheckError",
    "check_ids",
    "run_check",
    "run_suite",
    "TOL_ALGEBRAIC",
    "TOL_KERNEL",
    "TOL_EIG",
]

TOL_ALGEBRAIC = 1e-12
TOL_KERNEL = 1e-10
TOL_EIG = 1e-8


class CheckError(RuntimeError):
    """A check raised an exception (as opposed to failing its threshold)."""


class _Skip(Exception):
    """A check does not apply to this instance; the message says why."""


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    statement: str
    group: str
    region: str
    residual: float | None
    threshold: float
    passed: bool | None
    skipped: bool = False
    reason: str = ""
    wall_time: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerificationReport:
    results: tuple[CheckResult, ...]
    group: str
    region: str
    seed: int
    config: dict

    @property
    def counts(self) -> tuple[int, int, int]:
        passed = sum(1 for r in self.results if r.passed is True)
        failed = sum(1 for r in self.results if r.passed is False)
        skipped = sum(1 for r in self.results if r.skipped)
        return passed, failed, skipped

    @property
    def ok(self) -> bool:
        return self.counts[1] == 0

    def to_text(self) -> str:
        width = max(len(r.check_id) for r in self.results)
        lines = [f"verification: group {self.group}, region {self.region}, seed {self.seed}"]
        for r in self.results:
            if r.skipped:
                lines.append(f"  {r.check_id:<{width}}  skip   ({r.reason})")
            else:
                status = "pass" if r.passed else "FAIL"
                lines.append(
                    f"  {r.check_id:<{width}}  {status}   residual {r.residual:.3e}"
                    f"  < {r.threshold:.0e}  [{r.wall_time:.2f}s]"
                )
        p, f, s = self.counts
        lines.append(f"summary: {p} passed, {f} failed, {s} skipped")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "region": self.region,
            "seed": self.seed,
            "config": self.config,
            "results": [r.as_dict() for r in self.results],
            "summary": dict(zip(("passed", "failed", "skipped"), self.counts)),
        }


# ---------------------------------------------------------------------------
# check context


class _Ctx:
    """Shared per-run state: the model, imaged forms, cached states."""

    def __init__(self, model: QuantumDouble):
        self.model = model
        self.group = model.group
        self.region = model.region
        self.q = model.group.size
        self.images: dict[tuple, dict] = {}  # sorted forms -> their values on form_image

    # ---- probes ----

    def probe(self, op_a: TermOp, op_b: TermOp) -> float:
        """Max relative residual of A - B over every basis column, exactly:
        max_x |(A - B) e_x| / max(|A e_x|, |B e_x|, 1).

        Grouped by shift, A = sum_s shift_s D_s with D_s diagonal, and
        distinct shifts send e_x to distinct basis vectors, so
        |(A - B) e_x|^2 = sum_s |D^A_s(x) - D^B_s(x)|^2.  Every D_s reads x
        only through the holonomy forms of the two operators' terms, so the
        residual is taken over the image of those forms (`form_image`),
        never over configurations.  The model is fixed, so each distinct
        tuple of forms is imaged once a run.
        """
        group = self.group
        terms = op_a.terms + op_b.terms
        forms = tuple(sorted({f for t in terms for f, _ in t.phases + t.indicators}))
        if forms not in self.images:
            self.images[forms] = dict(zip(forms, form_image(group, forms, op_a.space.cap).T))
        values = self.images[forms]
        diag_a = shift_diagonals(group, op_a.terms, values.__getitem__)  # shift -> diagonal
        diag_b = shift_diagonals(group, op_b.terms, values.__getitem__)
        shifts = sorted(diag_a.keys() | diag_b.keys())
        a, b = [diag_a.get(s, 0) for s in shifts], [diag_b.get(s, 0) for s in shifts]
        num = sum(np.abs(x - y) ** 2 for x, y in zip(a, b))
        norm = np.maximum(sum(np.abs(x) ** 2 for x in a), sum(np.abs(y) ** 2 for y in b))
        return float(np.max(np.sqrt(num) / np.maximum(np.sqrt(norm), 1.0)))

    def commutator(self, op_a: TermOp, op_b: TermOp) -> float:
        return self.probe(op_a.compose(op_b), op_b.compose(op_a))

    @cached_property
    def omega(self) -> SparseState:
        return frustration_free_state(self.model).vector

    @cached_property
    def mixture(self) -> StateFunctional:
        """The uniform ground mixture."""
        return frustration_free_state(self.model, "uniform-mixture")

    @cached_property
    def kernel_family(self) -> tuple[SparseState, np.ndarray]:
        """`_kernel_family` of the uniform mixture, refused before anything is
        built above MIXTURE_SUPPORT_LIMIT rows: each strip maps a row to one
        row, so it has the mixture's rows times (1 + charge strips) times
        (1 + flux strips)."""
        strips = len(_boundary_ribbons(self)) * (self.q - 1)
        refuse_above(mixture_rows(self.model) * (1 + strips) ** 2, MIXTURE_SUPPORT_LIMIT,
                     "kernel family rows")
        return _kernel_family(self, self.mixture.stack)

    # ---- gates ----

    def need_boundary(self):
        if self.region.is_torus:
            raise _Skip("no boundary on a torus")

    def need_boundary_ribbon(self):
        try:
            boundary_ribbon(self.region)
        except RibbonError as err:
            raise _Skip(str(err))

    def need_interior_vertex(self):
        if not self.region.interior_vertices():
            raise _Skip("no vertex carries a full star in this region")

    # ---- shared geometry ----

    def an_interior_site(self) -> Site:
        self.need_interior_vertex()
        v = self.region.interior_vertices()[0]
        return self.region.site(v, v)

    def label_pairs(self) -> list[tuple[int, int]]:
        """Every (chi, c) label pair, |G|^2 of them."""
        return list(itertools.product(range(self.q), repeat=2))

    def interior_pair_ribbon(self) -> Ribbon:
        """An open ribbon whose two end sites both carry a star and a
        plaquette term, so both ends are charged at full cost."""
        region = self.region
        if region.is_torus:
            return ribbon_between(region, region.site((0, 0), (0, 0)), region.site((1, 1), (1, 1)))
        if region.n >= 4 and region.m >= 3:
            s0, s1 = region.site((1, 1), (1, 1)), region.site((1, 2), (1, 2))
        elif region.m >= 4 and region.n >= 3:
            s0, s1 = region.site((1, 1), (1, 1)), region.site((2, 1), (2, 1))
        else:
            raise _Skip("no ribbon with both end sites fully inside this region")
        return ribbon_between(region, s0, s1)

    def excitation_ribbon(self) -> Ribbon:
        """An interior pair ribbon on a torus, else one from an interior site out."""
        if self.region.is_torus:
            return self.interior_pair_ribbon()
        return ribbon_to_boundary(self.region, self.an_interior_site())

    def boundary_collar_ribbon(self) -> Ribbon:
        """An open ribbon hugging the west boundary: both end vertices sit on
        the boundary and both end faces fall outside, so no Hamiltonian term
        sees either end."""
        self.need_boundary()
        region = self.region
        if region.n < 3:
            raise _Skip("boundary collar needs n >= 3")
        eid = region.edge_id
        t1 = Triangle("dual", eid(("h", 0, 0)), -1, Site((0, 0), (0, -1)), Site((0, 0), (0, 0)))
        t2 = Triangle("direct", eid(("v", 0, 0)), +1, Site((0, 0), (0, 0)), Site((0, 1), (0, 0)))
        t3 = Triangle("dual", eid(("h", 0, 1)), -1, Site((0, 1), (0, 0)), Site((0, 1), (0, 1)))
        t4 = Triangle("dual", eid(("v", 0, 1)), -1, Site((0, 1), (0, 1)), Site((0, 1), (-1, 1)))
        return Ribbon(region, (t1, t2, t3, t4))

    def excitation_energy_residual(self, ribbon: Ribbon) -> float:
        """Residual of H F Omega = E F Omega with E counting one unit per
        nontrivial label at each end site that carries the matching term."""
        region = self.region
        n_star = sum(1 for s in (ribbon.start, ribbon.end) if s.vertex in region.interior_vertices())
        n_plaq = sum(1 for s in (ribbon.start, ribbon.end) if region.face_in_region(s.face))
        h = self.model.hamiltonian()
        worst = 0.0
        for chi, c in self.label_pairs():
            exc = self.omega.apply(self.model.ribbon_char(ribbon, chi, c))
            e_pred = (chi != 0) * n_star + (c != 0) * n_plaq
            worst = max(worst, exc.apply(h - e_pred * self.model.identity()).norm())
        return worst


# ---------------------------------------------------------------------------
# registry

_REGISTRY: dict[str, tuple[str, float, object]] = {}


def _check(check_id: str, statement: str, tol: float):
    def wrap(fn):
        if check_id in _REGISTRY:
            raise ValueError(f"duplicate check id {check_id}")
        _REGISTRY[check_id] = (statement, tol, fn)
        return fn

    return wrap


def check_ids() -> list[str]:
    return sorted(_REGISTRY)


# ---- local term relations ------------------------------------------------


@_check(
    "star.compose",
    "Star shifts at a vertex compose as the group, and the star average is idempotent.",
    TOL_ALGEBRAIC,
)
def _star_compose(ctx: _Ctx) -> float:
    ctx.need_interior_vertex()
    v = ctx.region.interior_vertices()[0]
    model, g_mul = ctx.model, ctx.group.mul_table()
    worst = 0.0
    for g, h in ctx.label_pairs():
        lhs = model.star_shift(v, g).compose(model.star_shift(v, h))
        worst = max(worst, ctx.probe(lhs, model.star_shift(v, int(g_mul[g, h]))))
    star = model.star(v)
    worst = max(worst, ctx.probe(star.compose(star), star))
    return worst


@_check(
    "star.adjoint",
    "Each star shift is unitary with adjoint the inverse shift; the average is self-adjoint.",
    TOL_ALGEBRAIC,
)
def _star_adjoint(ctx: _Ctx) -> float:
    ctx.need_interior_vertex()
    v = ctx.region.interior_vertices()[0]
    model, inv = ctx.model, ctx.group.inv_table()
    worst = 0.0
    for g in range(ctx.q):
        worst = max(
            worst,
            ctx.probe(model.star_shift(v, g).adjoint(), model.star_shift(v, int(inv[g]))),
        )
    worst = max(worst, ctx.probe(model.star(v).adjoint(), model.star(v)))
    return worst


@_check(
    "plaquette.orthogonal",
    "Flux indicators at a face are orthogonal projections resolving the identity.",
    TOL_ALGEBRAIC,
)
def _plaquette_orthogonal(ctx: _Ctx) -> float:
    model = ctx.model
    f = ctx.region.faces()[0]
    worst = 0.0
    for g, h in ctx.label_pairs():
        lhs = model.plaquette_indicator(f, g).compose(model.plaquette_indicator(f, h))
        rhs = model.plaquette_indicator(f, g) if g == h else TermOp(model.space, [])
        worst = max(worst, ctx.probe(lhs, rhs))
    terms = [t for g in range(ctx.q) for t in model.plaquette_indicator(f, g).terms]
    return max(worst, ctx.probe(TermOp(model.space, terms).simplify(), model.identity()))


@_check(
    "plaquette.adjoint",
    "Every flux indicator is self-adjoint.",
    TOL_ALGEBRAIC,
)
def _plaquette_adjoint(ctx: _Ctx) -> float:
    model = ctx.model
    f = ctx.region.faces()[0]
    worst = 0.0
    for g in range(ctx.q):
        op = model.plaquette_indicator(f, g)
        worst = max(worst, ctx.probe(op.adjoint(), op))
    return worst


@_check(
    "star-plaquette.exchange",
    "Every star shift commutes with every flux indicator, adjacent or not.",
    TOL_ALGEBRAIC,
)
def _star_plaquette_exchange(ctx: _Ctx) -> float:
    ctx.need_interior_vertex()
    model = ctx.model
    v = ctx.region.interior_vertices()[0]
    adjacent = ctx.region.quadrant_faces(v)["SW"]
    far = ctx.region.faces()[0]
    worst = 0.0
    for g in range(1, ctx.q):
        for f in (adjacent, far):
            worst = max(
                worst,
                ctx.commutator(model.star_shift(v, g), model.plaquette_indicator(f, 1 % ctx.q)),
            )
    return worst


@_check(
    "terms.projectors-commute",
    "All Hamiltonian terms (star averages and flux projectors) commute pairwise.",
    TOL_ALGEBRAIC,
)
def _terms_commute(ctx: _Ctx) -> float:
    model = ctx.model
    ops = [model.star(v) for v in ctx.region.interior_vertices()[:2]]
    ops += [model.plaquette(f) for f in ctx.region.faces()[:3]]
    worst = 0.0
    for a, b in itertools.combinations(ops, 2):
        worst = max(worst, ctx.commutator(a, b))
    return worst


# ---- ribbon properties -----------------------------------------------------


def _path_independent_pair(ctx: _Ctx) -> tuple[Ribbon, Ribbon]:
    region = ctx.region
    if region.is_torus:
        # both sites share the corner face so the two routes never cross
        s0, s1 = region.site((0, 0), (0, 0)), region.site((1, 1), (0, 0))
    else:
        s0 = region.site((0, 0), (0, 0))
        s1 = region.site((region.m - 1, region.n - 1), (region.m - 2, region.n - 2))
    return (
        ribbon_between(region, s0, s1, order="xy"),
        ribbon_between(region, s0, s1, order="yx"),
    )


@_check(
    "ribbon.fuse-same-path",
    "Ribbon operators on one strip fuse by label multiplication: "
    "F^{chi,c} F^{xi,d} = F^{chi xi, cd}.",
    TOL_ALGEBRAIC,
)
def _ribbon_fuse(ctx: _Ctx) -> float:
    model = ctx.model
    rib, _ = _path_independent_pair(ctx)
    mul = ctx.group.mul_table()
    worst = 0.0
    for (chi, c), (xi, d) in zip(ctx.label_pairs(), reversed(ctx.label_pairs())):
        lhs = model.ribbon_char(rib, chi, c).compose(model.ribbon_char(rib, xi, d))
        chi_prod = ctx.group.character_from_index(chi) * ctx.group.character_from_index(xi)
        rhs = model.ribbon_char(rib, chi_prod.index, int(mul[c, d]))
        worst = max(worst, ctx.probe(lhs, rhs))
    return worst


@_check(
    "ribbon.endpoint-exchange",
    "A ribbon operator commutes with every star and plaquette away from its two "
    "end sites; the start star twists by chi(g) and the end star by conj(chi)(g).",
    TOL_ALGEBRAIC,
)
def _ribbon_endpoint_exchange(ctx: _Ctx) -> float:
    model, region = ctx.model, ctx.region
    ctx.need_interior_vertex()
    try:
        rib = ctx.interior_pair_ribbon()
    except _Skip:
        rib = ribbon_to_boundary(region, ctx.an_interior_site())
    chi, c = (1, 1) if ctx.q > 1 else (0, 0)
    f_op = model.ribbon_char(rib, chi, c)
    rib_edges = set(rib.edge_ids())
    worst = 0.0
    # far commutation: any star/plaquette whose support misses the strip
    far_vs = [
        v
        for v in region.interior_vertices()
        if not rib_edges & {eid for eid, _ in region.star_edges(v)}
    ]
    far_fs = [
        f
        for f in region.faces()
        if not rib_edges & {region.edge_id(e) for e, _ in region.face_boundary(f)}
    ]
    for v in far_vs[:2]:
        worst = max(worst, ctx.commutator(f_op, model.star(v)))
    for f in far_fs[:2]:
        worst = max(worst, ctx.commutator(f_op, model.plaquette(f)))
    # end-site exchange, labels fixed by the pair-creation convention:
    # the start star twists by chi(g), the far star by conj(chi)(g)
    char = ctx.group.character_from_index(chi)
    for g in range(ctx.q):
        phase = char(ctx.group.element_from_index(g)).to_complex()
        a0 = model.star_shift(rib.start.vertex, g)
        worst = max(worst, ctx.probe(a0.compose(f_op), f_op.compose(a0).scaled(phase)))
        if region.has_full_star(rib.end.vertex):
            a1 = model.star_shift(rib.end.vertex, g)
            worst = max(
                worst,
                ctx.probe(a1.compose(f_op), f_op.compose(a1).scaled(phase.conjugate())),
            )
    return worst


@_check(
    "ribbon.excitation-energy",
    "An open strip applied to the ground vector is an energy eigenvector, with one "
    "unit per nontrivial label at each end site carrying the matching term.",
    TOL_ALGEBRAIC,
)
def _ribbon_excitation_energy(ctx: _Ctx) -> float:
    return ctx.excitation_energy_residual(ctx.excitation_ribbon())


@_check(
    "ribbon.closed-trivial",
    "Closed ribbons act as the identity on ground vectors: the direct loop reads "
    "trivial flux, the dual loop a trivial total star.",
    TOL_ALGEBRAIC,
)
def _ribbon_closed_trivial(ctx: _Ctx) -> float:
    model, region = ctx.model, ctx.region
    loops = [model.ribbon_char(face_direct_loop(region, region.faces()[0]), chi, 0)
             for chi in range(ctx.q)]
    if region.interior_vertices():
        dloop = vertex_dual_loop(region, region.interior_vertices()[0])
        loops += [model.ribbon_char(dloop, 0, c) for c in range(ctx.q)]
    return max(ctx.omega.apply(f - model.identity()).norm() for f in loops)


@_check(
    "ribbon.concatenate",
    "Joining two strips end to start multiplies their operators: "
    "F_{rho sigma} = F_rho F_sigma.",
    TOL_ALGEBRAIC,
)
def _ribbon_concatenate(ctx: _Ctx) -> float:
    region = ctx.region
    mid = region.site((1, 1), (1, 1))
    if region.is_torus:
        ends = region.site((0, 0), (0, 0)), region.site((2, 2), (2, 2))
    else:
        ends = region.site((0, 0), (0, 0)), region.site((region.m - 1, region.n - 1), (region.m - 2, region.n - 2))
    try:
        r1 = ribbon_between(region, ends[0], mid)
        r2 = ribbon_between(region, mid, ends[1])
        whole = concat_ribbons(r1, r2)
    except RibbonError as err:
        raise _Skip(f"no edge-disjoint concatenation on this region ({err})")
    model = ctx.model
    worst = 0.0
    for chi, c in [(1 % ctx.q, 1 % ctx.q), (ctx.q - 1, 1 % ctx.q)]:
        lhs = model.ribbon_char(whole, chi, c)
        rhs = model.ribbon_char(r1, chi, c).compose(model.ribbon_char(r2, chi, c))
        worst = max(worst, ctx.probe(lhs, rhs))
    return worst


@_check(
    "ribbon.span-full-space",
    "Products of ribbon operators applied to the ground vector span the whole "
    "space: the family matrix has full numerical rank.",
    TOL_EIG,
)
def _ribbon_span(ctx: _Ctx) -> float:
    ctx.need_boundary()
    dim = ctx.model.space.dim
    return float(dim - stack_rank(spanning_family(ctx.model), 1e-8))


@_check(
    "ribbon.crossing-phase",
    "Two strips crossing once transversally commute up to the exact scalar "
    "chi(d) xi(c) determined by their labels.",
    TOL_ALGEBRAIC,
)
def _ribbon_crossing(ctx: _Ctx) -> float:
    ctx.need_interior_vertex()
    model = ctx.model
    rho, sigma = crossing_pair(ctx.region)
    labels = list(itertools.product(ctx.group.characters(), ctx.group.elements()))
    f1s = [model.ribbon_char(rho, chi, c) for chi, c in labels]
    f2s = [model.ribbon_char(sigma, xi, d) for xi, d in labels]
    worst = 0.0
    for (chi, c), f1 in zip(labels, f1s):
        for (xi, d), f2 in zip(labels, f2s):
            # exact scalar table
            scalar = model.crossing_phase(rho, chi, c, sigma, xi, d)
            if scalar.exponent != (chi(d) * xi(c)).exponent:
                return 1.0
            # and by composition, on every label pair
            lhs, rhs = f1.compose(f2), f2.compose(f1).scaled(scalar.to_complex())
            worst = max(worst, ctx.probe(lhs, rhs))
    return worst


@_check(
    "ribbon.path-independence",
    "Two strips with the same end sites act identically on ground vectors.",
    TOL_ALGEBRAIC,
)
def _ribbon_path_independence(ctx: _Ctx) -> float:
    f, (rib_a, rib_b) = ctx.model.ribbon_char, _path_independent_pair(ctx)
    return max(ctx.omega.apply(f(rib_a, *lab) - f(rib_b, *lab)).norm()
               for lab in [(1 % ctx.q, 0), (0, 1 % ctx.q), (1 % ctx.q, ctx.q - 1)])


# ---- site charge projectors ------------------------------------------------


@_check(
    "charge.vanish-on-ground",
    "Site charge projectors see only the trivial label on ground vectors: "
    "D_s^{chi,c} Omega = [chi trivial][c trivial] Omega.",
    TOL_ALGEBRAIC,
)
def _charge_vanish_ground(ctx: _Ctx) -> float:
    return _site_label_residual(ctx, ctx.omega, ctx.an_interior_site(), (0, 0))


def _excitation_for_charge(ctx: _Ctx) -> tuple:
    """An excited vector with a designated start site, plus its labels."""
    chi, c = 1 % ctx.q, ctx.q - 1
    rib = ctx.excitation_ribbon()
    exc = ctx.omega.apply(ctx.model.ribbon_char(rib, chi, c))
    return exc, rib, chi, c


@_check(
    "charge.ribbon-start",
    "The start site of an excited strip carries exactly the strip's label: "
    "D^{chi,c} fixes the vector and every other label annihilates it.",
    TOL_ALGEBRAIC,
)
def _charge_ribbon_start(ctx: _Ctx) -> float:
    exc, rib, chi, c = _excitation_for_charge(ctx)
    return _site_label_residual(ctx, exc, rib.start, (chi, c))


def _site_label_residual(ctx: _Ctx, vec: SparseState, site: Site, label: tuple) -> float:
    """max over every label l of |D_site^l vec - [l = label] vec|."""
    model, one = ctx.model, ctx.model.identity()
    return max(vec.apply(model.site_charge_projector(site, *lab) - (lab == label) * one).norm()
               for lab in ctx.label_pairs())


@_check(
    "charge.ribbon-end",
    "The far end of an excited strip carries the opposite label "
    "(conj(chi), inverse c), measured on whatever star or plaquette sits there.",
    TOL_ALGEBRAIC,
)
def _charge_ribbon_end(ctx: _Ctx) -> float:
    rib = ctx.interior_pair_ribbon()
    chi, c = 1 % ctx.q, ctx.q - 1
    exc = ctx.omega.apply(ctx.model.ribbon_char(rib, chi, c))
    chi_inv = ctx.group.character_from_index(chi).inverse().index
    return _site_label_residual(ctx, exc, rib.end, (chi_inv, int(ctx.group.inv_table()[c])))


@_check(
    "charge.orthogonality",
    "Site charge projectors with different labels are orthogonal: "
    "D^a D^b = [a = b] D^a.",
    TOL_ALGEBRAIC,
)
def _charge_orthogonality(ctx: _Ctx) -> float:
    site = ctx.an_interior_site()
    model = ctx.model
    projectors = {a: model.site_charge_projector(site, *a) for a in ctx.label_pairs()}
    worst = 0.0
    for (a, pa), (b, pb) in itertools.product(projectors.items(), repeat=2):
        rhs = pa if a == b else TermOp(model.space, [])
        worst = max(worst, ctx.probe(pa.compose(pb), rhs))
    return worst


@_check(
    "charge.completeness",
    "The site charge projectors resolve the identity: sum over all labels is I.",
    TOL_ALGEBRAIC,
)
def _charge_completeness(ctx: _Ctx) -> float:
    site = ctx.an_interior_site()
    model = ctx.model
    terms = [t for a in ctx.label_pairs() for t in model.site_charge_projector(site, *a).terms]
    return ctx.probe(TermOp(model.space, terms).simplify(), model.identity())


@_check(
    "charge.local-invariance",
    "A site charge projector commutes with every star, plaquette, and ribbon "
    "operator supported away from the site.",
    TOL_ALGEBRAIC,
)
def _charge_local_invariance(ctx: _Ctx) -> float:
    model, region = ctx.model, ctx.region
    site = ctx.an_interior_site()
    d_op = model.site_charge_projector(site, 1 % ctx.q, ctx.q - 1)
    support = {eid for eid, _ in region.star_edges(site.vertex)}
    support |= {region.edge_id(e) for e, _ in region.face_boundary(site.face)}
    far_edges = [e for e in region.edges() if region.edge_id(e) not in support]
    worst = 0.0
    for e in far_edges[:2]:
        worst = max(worst, ctx.commutator(d_op, model.ribbon_char(direct_ribbon(region, e), 1 % ctx.q, 0)))
        worst = max(worst, ctx.commutator(d_op, model.ribbon_char(dual_ribbon(region, e), 0, 1 % ctx.q)))
    for f in region.faces():
        if not support & {region.edge_id(e) for e, _ in region.face_boundary(f)}:
            worst = max(worst, ctx.commutator(d_op, model.plaquette(f)))
            break
    return worst


# ---- boundary operators ------------------------------------------------


@_check(
    "boundary-loop.projection-eps",
    "The dual boundary charge V^eps is an orthogonal projection.",
    TOL_ALGEBRAIC,
)
def _boundary_loop_eps(ctx: _Ctx) -> float:
    ctx.need_boundary_ribbon()
    v = ctx.model.boundary_charge_eps()
    return max(ctx.probe(v.compose(v), v), ctx.probe(v.adjoint(), v))


@_check(
    "boundary-loop.projection-mu",
    "The direct boundary charge V^mu is an orthogonal projection.",
    TOL_ALGEBRAIC,
)
def _boundary_loop_mu(ctx: _Ctx) -> float:
    ctx.need_boundary_ribbon()
    v = ctx.model.boundary_charge_mu()
    return max(ctx.probe(v.compose(v), v), ctx.probe(v.adjoint(), v))


@_check(
    "boundary.charge-equality-eps",
    "The global flux detector equals the boundary loop operator: D^eps = V^eps.",
    TOL_KERNEL,
)
def _boundary_equality_eps(ctx: _Ctx) -> float:
    ctx.need_boundary_ribbon()
    return ctx.probe(ctx.model.detector_eps(), ctx.model.boundary_charge_eps())


@_check(
    "boundary.charge-equality-mu",
    "The global charge detector equals the boundary loop operator: D^mu = V^mu.",
    TOL_KERNEL,
)
def _boundary_equality_mu(ctx: _Ctx) -> float:
    ctx.need_boundary_ribbon()
    return ctx.probe(ctx.model.detector_mu(), ctx.model.boundary_charge_mu())


# ---- boundary Hamiltonian ----------------------------------------------


@_check(
    "boundary-hamiltonian.positive",
    "The fully charged boundary Hamiltonian H - V^eps - V^mu has no negative "
    "spectrum, and its kernel has the counted dimension.",
    TOL_EIG,
)
def _boundary_hamiltonian_positive(ctx: _Ctx) -> float:
    ctx.need_boundary_ribbon()
    levels = form_spectrum(ctx.model.hamiltonian(boundary="eps_mu"))
    kernel = sum(n for v, n in levels.items() if abs(v) < TOL_KERNEL)
    miscount = abs(kernel - spectrum_counts(ctx.model, "eps_mu")[0])
    return max(0.0, -min(levels), float(miscount))


@_check(
    "boundary-hamiltonian.ground-zero",
    "Every ground vector lies in the kernel of the boundary Hamiltonian.",
    TOL_KERNEL,
)
def _boundary_hamiltonian_ground_zero(ctx: _Ctx) -> float:
    ctx.need_boundary_ribbon()
    h = ctx.model.hamiltonian(boundary="eps_mu")
    mixture = ctx.mixture  # its first part is the vector seed
    return float(np.sqrt(squared_norms(sparse_apply(h, mixture.stack)).max()))


def _boundary_ribbons(ctx: _Ctx) -> list[Ribbon]:
    """A ribbon to the boundary from every site at an interior vertex."""
    region = ctx.region
    return [ribbon_to_boundary(region, region.site(v, f))
            for v in region.interior_vertices() for f in region.quadrant_faces(v).values()]


def _kernel_family(ctx: _Ctx, ground: SparseState) -> tuple[SparseState, np.ndarray]:
    """Each part of the `ground` stack, then each
    boundary-routed charge strip or none, then each flux strip or none: one
    stack, the strips applied once each.  Also returns the (chi, c) sector of
    every part, read from its strips (0 where a part has none): ground
    vectors carry no total charge or flux."""
    model, ribbons = ctx.model, _boundary_ribbons(ctx)
    charge_ops = [model.ribbon_char(r, chi, 0) for r in ribbons for chi in range(1, ctx.q)]
    flux_ops = [model.ribbon_char(r, 0, c) for r in ribbons for c in range(1, ctx.q)]
    family = grow(grow(ground, charge_ops), flux_ops)
    # with S strips of each kind, grow numbers part (ground j, charge strip s,
    # flux strip t) as (j * (S + 1) + s) * (S + 1) + t, and strip k >= 1
    # carries the label (k - 1) % (q - 1) + 1
    strip = np.concatenate([[0], np.tile(np.arange(1, ctx.q), len(ribbons))])
    chi, c = np.meshgrid(strip, strip, indexing="ij")
    sectors = np.tile(np.stack([chi.ravel(), c.ravel()], axis=1), (ground.n_parts, 1))
    return family, sectors


@_check(
    "boundary-hamiltonian.kernel-span",
    "Ground vectors dressed by boundary-routed charge and flux strips lie in the "
    "kernel of the boundary Hamiltonian and span it exactly: their rank is the "
    "counted kernel dimension.",
    TOL_KERNEL,
)
def _boundary_hamiltonian_kernel_span(ctx: _Ctx) -> float:
    ctx.need_boundary_ribbon()
    ctx.need_interior_vertex()
    model, (family, _) = ctx.model, ctx.kernel_family
    h = model.hamiltonian(boundary="eps_mu")
    worst = float(np.sqrt(squared_norms(sparse_apply(h, family)).max()))
    rank = stack_rank(family, TOL_KERNEL)
    return max(worst, float(abs(spectrum_counts(model, "eps_mu")[0] - rank)))


@_check(
    "sectors.direct-sum",
    "The boundary kernel splits into (charge, flux) sectors: each dressed "
    "ground vector lies in the sector its strips carry, and each sector's "
    "vectors span the counted dimension of that sector.",
    TOL_KERNEL,
)
def _sectors_direct_sum(ctx: _Ctx) -> float:
    ctx.need_boundary_ribbon()
    model, (family, sectors) = ctx.model, ctx.kernel_family
    worst = 0.0
    # P f - [f carries the label] f for every total charge and total flux
    # projector P and every part f at once; a sector projector is the
    # product of one of each
    for axis, projector in enumerate((model.total_charge_projector, model.total_flux_projector)):
        for label in range(ctx.q):
            neg = -(sectors[:, axis] == label).astype(float)
            moved = sparse_apply(projector(label), family).add(scale_parts(family, neg))
            worst = max(worst, float(np.sqrt(squared_norms(moved).max())))
    counts = sector_counts(ctx.group, ctx.region, "eps_mu")
    for chi, c in ctx.label_pairs():
        labels = np.flatnonzero((sectors == (chi, c)).all(axis=1))
        rank = stack_rank(take_parts(family, labels), TOL_KERNEL)
        worst = max(worst, float(abs(rank - counts.get((0, chi, c), 0))))
    return worst


# ---- excitation energies -------------------------------------------------


@_check(
    "energy.interior-pair",
    "A strip with both end sites fully inside is an energy eigenvector with "
    "eigenvalue 2(2 - [chi trivial] - [c trivial]).",
    TOL_ALGEBRAIC,
)
def _energy_interior_pair(ctx: _Ctx) -> float:
    return ctx.excitation_energy_residual(ctx.interior_pair_ribbon())


@_check(
    "energy.interior-boundary",
    "A strip from an interior site out of the region costs exactly "
    "2 - [chi trivial] - [c trivial].",
    TOL_ALGEBRAIC,
)
def _energy_interior_boundary(ctx: _Ctx) -> float:
    ctx.need_boundary()
    return ctx.excitation_energy_residual(ribbon_to_boundary(ctx.region, ctx.an_interior_site()))


@_check(
    "energy.boundary-pair",
    "A strip hugging the boundary with both end sites outside every term "
    "costs nothing for any label.",
    TOL_ALGEBRAIC,
)
def _energy_boundary_pair(ctx: _Ctx) -> float:
    return ctx.excitation_energy_residual(ctx.boundary_collar_ribbon())


@_check(
    "ground-energy.boundary-charges",
    "On boundary-kernel states the plain energy equals the boundary charge "
    "expectations: omega(H) = omega(D^eps) + omega(D^mu).",
    TOL_KERNEL,
)
def _ground_energy_boundary_charges(ctx: _Ctx) -> float:
    ctx.need_boundary()
    ctx.need_interior_vertex()
    model = ctx.model
    states = [frustration_free_state(model)]
    site = ctx.an_interior_site()
    for chi, c in [(1 % ctx.q, 0), (0, 1 % ctx.q), (1 % ctx.q, ctx.q - 1)]:
        if (chi, c) != (0, 0):
            states.append(single_excitation_state(model, site, chi, c))
    states.append(mix([(states[0], 0.5), (states[-1], 0.5)]))
    return max(detector_energy_residual(s) for s in states)


# ---- single excitations ----------------------------------------------------


@_check(
    "excitation.boundary-ground",
    "A single excitation routed out of the region is a zero-energy state of the "
    "fully charged boundary Hamiltonian.",
    TOL_KERNEL,
)
def _excitation_boundary_ground(ctx: _Ctx) -> float:
    ctx.need_boundary_ribbon()
    ctx.need_interior_vertex()
    h = ctx.model.hamiltonian(boundary="eps_mu")
    site = ctx.an_interior_site()
    worst = 0.0
    for chi, c in [(1 % ctx.q, 0), (0, 1 % ctx.q), (1 % ctx.q, ctx.q - 1)]:
        state = single_excitation_state(ctx.model, site, chi, c)
        worst = max(worst, state.vector.apply(h).norm())
    return worst


@_check(
    "excitation.bulk-energy",
    "A single excitation costs 2 - [chi trivial] - [c trivial] units of plain "
    "energy.",
    TOL_ALGEBRAIC,
)
def _excitation_bulk_energy(ctx: _Ctx) -> float:
    ctx.need_boundary()
    ctx.need_interior_vertex()
    h = ctx.model.hamiltonian()
    site = ctx.an_interior_site()
    worst = 0.0
    for chi, c in ctx.label_pairs():
        state = single_excitation_state(ctx.model, site, chi, c)
        want = float((chi != 0) + (c != 0))
        worst = max(worst, abs(state.expect_real(h) - want))
    return worst


@_check(
    "excitation.path-independence",
    "The excited functional near the site does not depend on the boundary "
    "route: energies and sector weights agree across routes.",
    TOL_KERNEL,
)
def _excitation_path_independence(ctx: _Ctx) -> float:
    ctx.need_boundary()
    ctx.need_interior_vertex()
    model = ctx.model
    site = ctx.an_interior_site()
    chi, c = 1 % ctx.q, ctx.q - 1
    a = single_excitation_state(model, site, chi, c, direction=(1, 0))
    b = single_excitation_state(model, site, chi, c, direction=(0, 1))
    worst = abs(a.expect_real(model.hamiltonian()) - b.expect_real(model.hamiltonian()))
    wa, wb = sector_weights(a), sector_weights(b)
    for key, val in wa.as_dict().items():
        worst = max(worst, abs(val - wb[key]))
    probes = [model.star(site.vertex), model.plaquette(site.face)]
    probes.append(model.ribbon_char(face_direct_loop(ctx.region, site.face), 1 % ctx.q, 0))
    for op in probes:
        worst = max(worst, abs(a.expect(op) - b.expect(op)))
    return worst


# ---- sector weights --------------------------------------------------------


@_check(
    "weights.ground-state",
    "The ground state puts all sector weight on the trivial label: "
    "lambda_{triv, e} = 1.",
    TOL_KERNEL,
)
def _weights_ground(ctx: _Ctx) -> float:
    w = sector_weights(frustration_free_state(ctx.model))
    worst = abs(w[(0, 0)] - 1.0)
    for (chi, c), val in w.as_dict().items():
        if (chi, c) != (0, 0):
            worst = max(worst, abs(val))
    return worst


@_check(
    "weights.single-excitation",
    "A single excitation with labels (chi, c) has sector weight exactly "
    "delta at (chi, c).",
    TOL_KERNEL,
)
def _weights_single_excitation(ctx: _Ctx) -> float:
    ctx.need_boundary()
    ctx.need_interior_vertex()
    site = ctx.an_interior_site()
    worst = 0.0
    for chi, c in [(1 % ctx.q, 0), (0, ctx.q - 1), (1 % ctx.q, 1 % ctx.q)]:
        if (chi, c) == (0, 0):
            continue
        w = sector_weights(single_excitation_state(ctx.model, site, chi, c))
        for key, val in w.as_dict().items():
            want = 1.0 if key == (chi, c) else 0.0
            worst = max(worst, abs(val - want))
    return worst


@_check(
    "weights.mixture-linear",
    "Sector weights are affine in the state: a convex mixture has the mixed "
    "weights.",
    TOL_KERNEL,
)
def _weights_mixture_linear(ctx: _Ctx) -> float:
    ctx.need_boundary()
    ctx.need_interior_vertex()
    site = ctx.an_interior_site()
    ground = frustration_free_state(ctx.model)
    exc = single_excitation_state(ctx.model, site, 1 % ctx.q, ctx.q - 1)
    blend = mix([(ground, 0.25), (exc, 0.75)])
    w0, w1, wm = sector_weights(ground), sector_weights(exc), sector_weights(blend)
    worst = 0.0
    for key, val in wm.as_dict().items():
        worst = max(worst, abs(val - (0.25 * w0[key] + 0.75 * w1[key])))
    return worst


# ---------------------------------------------------------------------------
# runners


def _run_one(check_id: str, ctx: _Ctx) -> CheckResult:
    statement, tol, fn = _REGISTRY[check_id]
    start, residual, reason = time.perf_counter(), None, ""
    try:
        residual = float(fn(ctx))
    except (_Skip, DimensionCapError) as skip:  # a size refusal comes before any allocation
        reason = str(skip)
    except Exception as err:
        raise CheckError(f"check {check_id} errored: {err}") from err
    return CheckResult(
        check_id, statement, ctx.group.spec, ctx.region.spec, residual, tol,
        None if residual is None else residual < tol, skipped=residual is None, reason=reason,
        wall_time=time.perf_counter() - start,
    )


def run_check(
    check_id: str, group: Group, region: Region, seed: int = 7, cap: int = DEFAULT_DIM_CAP
) -> CheckResult:
    """Run a single named check on a fresh model.  Every check is exact and
    draws nothing at random, so the result does not depend on `seed`; it is
    kept for callers that record it."""
    if check_id not in _REGISTRY:
        raise KeyError(f"unknown check id {check_id!r}; known ids: {', '.join(check_ids())}")
    ctx = _Ctx(QuantumDouble(group, region, cap=cap))
    return _run_one(check_id, ctx)


def run_suite(
    group: Group, region: Region, seed: int = 7, cap: int = DEFAULT_DIM_CAP
) -> VerificationReport:
    """Run every registered check, ordered by check id.  The results do not
    depend on `seed`, which the report only records."""
    ctx = _Ctx(QuantumDouble(group, region, cap=cap))
    results = tuple(_run_one(cid, ctx) for cid in check_ids())
    config = {"group": group.spec, "region": region.spec, "seed": seed}
    return VerificationReport(results, group.spec, region.spec, seed, config)

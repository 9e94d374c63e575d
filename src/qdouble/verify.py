"""Named verification battery for the model's operator and state identities.

Every identity the package relies on is a registered check with a stable
id, a self-contained statement, a residual, and a threshold.  `run_suite`
executes the whole battery on one (group, region) instance; `run_check`
runs a single id.  Checks that need a boundary skip themselves on tori
with an explicit reason, and checks that need a dense spectral solve skip
above the dense cutoff instead of guessing.

Operator identities are compared on the joint support of the two sides:
every operator acts as A_S (x) I, so A = B exactly when the two agree on
the |G|^|S| configurations of S.  Up to DENSE_MATRIX_LIMIT configurations
the comparison is exact, column by column of the restricted matrices;
above it, seeded random probes are drawn on the restricted space.
"""

from __future__ import annotations

import itertools
import json
import time
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import Group
from .lattice import (
    Region,
    Ribbon,
    RibbonError,
    Site,
    Triangle,
    boundary_ribbon,
    concat_ribbons,
    crossing_pair,
    direct_ribbon,
    dual_ribbon,
    face_direct_loop,
    ribbon_between,
    ribbon_to_boundary,
    vertex_dual_loop,
)
from .operators import (
    DEFAULT_DIM_CAP,
    DENSE_MATRIX_LIMIT,
    EIGSH_LIMIT,
    PROBE_BATCH_LIMIT,
    Operator,
    QuantumDouble,
    TermOp,
    restrict,
    sparse_matrix,
    support,
)
from .spectral import sector_counts, spectrum_counts
from .sparse import (SparseState, grow, scale_parts, sparse_apply, squared_norms, take_parts,
                     to_columns)
from .states import (
    StateFunctional,
    frustration_free_state,
    detector_energy_residual,
    mix,
    sector_weights,
    single_excitation_state,
    spanning_matrix,
)

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
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


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
        return {
            "check_id": self.check_id,
            "statement": self.statement,
            "group": self.group,
            "region": self.region,
            "residual": self.residual,
            "threshold": self.threshold,
            "passed": self.passed,
            "skipped": self.skipped,
            "reason": self.reason,
            "wall_time": self.wall_time,
        }


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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# check context


def _column_norms(x: np.ndarray) -> np.ndarray:
    """2-norms of the columns of a (dim, k) array, without a conjugated copy."""
    return np.sqrt(np.array([np.vdot(col, col).real for col in np.asarray(x).T]))


def _sparse_column_norms(m) -> np.ndarray:
    """2-norms of the columns of a scipy CSC matrix without duplicate entries."""
    n = m.shape[1]
    cols = np.repeat(np.arange(n), np.diff(m.indptr))
    return np.sqrt(np.bincount(cols, weights=np.abs(m.data) ** 2, minlength=n))


class _Ctx:
    """Shared per-run state: the model, a per-check RNG, cached states."""

    def __init__(self, model: QuantumDouble, seed: int):
        self.model = model
        self.group = model.group
        self.region = model.region
        self.seed = seed
        self.q = model.group.size
        self.rng = None  # reseeded per check

    def reseed(self, check_id: str):
        self.rng = np.random.default_rng([self.seed, zlib.crc32(check_id.encode())])

    # ---- probes ----

    def probe(self, op_a: Operator, op_b: Operator, k: int = 3) -> float:
        """Max relative residual of A - B, compared on their joint support.

        Both sides are restricted to the edges either one shifts or reads,
        unless those are already every edge of their space.  Up to
        DENSE_MATRIX_LIMIT configurations there the comparison is exact and
        independent of the seed: the residual is
        max_j |(A - B) e_j| / max(|A e_j|, |B e_j|, 1) over every basis
        column, read from the exact sparse matrices, and `k` is unused.
        Above it, the residual is taken over `k` seeded random columns of
        the restricted space (one when it is larger than PROBE_BATCH_LIMIT).
        """
        edges = sorted(support(op_a) | support(op_b))
        if len(edges) == op_a.space.num_edges:
            a, b = op_a, op_b  # global support: nothing to restrict
        else:
            a, b = restrict([op_a, op_b], edges)
        space = a.space
        if space.dim <= DENSE_MATRIX_LIMIT:
            ma, mb = sparse_matrix(a), sparse_matrix(b)
            num = _sparse_column_norms(ma - mb)
            den = np.maximum(np.maximum(_sparse_column_norms(ma), _sparse_column_norms(mb)), 1.0)
            return float(np.max(num / den))
        if space.dim > PROBE_BATCH_LIMIT:
            k = 1  # memory guard: one 2^24-dim probe is already 268 MB
        psi = space.random_vectors(self.rng, k)
        a, b = a.apply(psi), b.apply(psi)
        num = _column_norms(a - b)
        den = np.maximum(np.maximum(_column_norms(a), _column_norms(b)), 1.0)
        return float(np.max(num / den))

    def commutator(self, op_a: Operator, op_b: Operator, k: int = 2) -> float:
        return self.probe(op_a @ op_b, op_b @ op_a, k)

    @cached_property
    def omega(self) -> SparseState:
        return frustration_free_state(self.model).vector

    @cached_property
    def mixture(self) -> StateFunctional:
        """The uniform ground mixture."""
        return frustration_free_state(self.model, "uniform-mixture")

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

    def need_dense(self, what: str):
        if self.model.space.dim > DENSE_MATRIX_LIMIT:
            raise _Skip(f"{what} needs dimension <= {DENSE_MATRIX_LIMIT}, have {self.model.space.dim}")

    # ---- shared geometry ----

    def an_interior_site(self) -> Site:
        self.need_interior_vertex()
        v = self.region.interior_vertices()[0]
        return self.region.site(v, v)

    def label_pairs(self, limit: int = 8) -> list[tuple[int, int]]:
        """(chi, c) label pairs; all of them when |G| <= 4, else a sample."""
        pairs = list(itertools.product(range(self.q), repeat=2))
        if len(pairs) <= limit * 2:
            return pairs
        picks = self.rng.choice(len(pairs), size=limit, replace=False)
        chosen = {pairs[i] for i in picks}
        chosen.update({(0, 0), (1, 0), (0, 1), (1, 1)})
        return sorted(chosen)

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
            worst = max(worst, exc.apply(h).add(exc.scaled(-float(e_pred))).norm())
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
        worst = max(worst, ctx.probe(lhs, model.star_shift(v, int(g_mul[g, h])), k=1))
    star = model.star(v)
    worst = max(worst, ctx.probe(star.compose(star), star, k=2))
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
            ctx.probe(model.star_shift(v, g).adjoint(), model.star_shift(v, int(inv[g])), k=1),
        )
    worst = max(worst, ctx.probe(model.star(v).adjoint(), model.star(v), k=1))
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
        worst = max(worst, ctx.probe(lhs, rhs, k=1))
    total = TermOp(
        model.space,
        [t for g in range(ctx.q) for t in model.plaquette_indicator(f, g).terms],
    ).simplify()
    worst = max(worst, ctx.probe(total, model.identity(), k=1))
    return worst


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
        worst = max(worst, ctx.probe(op.adjoint(), op, k=1))
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
        worst = max(worst, ctx.commutator(a, b, k=1))
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
        worst = max(worst, ctx.probe(lhs, rhs, k=1))
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
        worst = max(worst, ctx.commutator(f_op, model.star(v), k=1))
    for f in far_fs[:2]:
        worst = max(worst, ctx.commutator(f_op, model.plaquette(f), k=1))
    # end-site exchange, labels fixed by the pair-creation convention:
    # the start star twists by chi(g), the far star by conj(chi)(g)
    char = ctx.group.character_from_index(chi)
    for g in range(ctx.q):
        phase = char(ctx.group.element_from_index(g)).to_complex()
        a0 = model.star_shift(rib.start.vertex, g)
        worst = max(worst, ctx.probe(a0.compose(f_op), f_op.compose(a0).scaled(phase), k=1))
        if region.has_full_star(rib.end.vertex):
            a1 = model.star_shift(rib.end.vertex, g)
            worst = max(
                worst,
                ctx.probe(a1.compose(f_op), f_op.compose(a1).scaled(phase.conjugate()), k=1),
            )
    return worst


@_check(
    "ribbon.excitation-energy",
    "An open strip applied to the ground vector is an energy eigenvector, with one "
    "unit per nontrivial label at each end site carrying the matching term.",
    TOL_ALGEBRAIC,
)
def _ribbon_excitation_energy(ctx: _Ctx) -> float:
    if ctx.region.is_torus:
        rib = ctx.interior_pair_ribbon()
    else:
        site = ctx.an_interior_site()
        rib = ribbon_to_boundary(ctx.region, site)
    return ctx.excitation_energy_residual(rib)


@_check(
    "ribbon.closed-trivial",
    "Closed ribbons act as the identity on ground vectors: the direct loop reads "
    "trivial flux, the dual loop a trivial total star.",
    TOL_ALGEBRAIC,
)
def _ribbon_closed_trivial(ctx: _Ctx) -> float:
    model = ctx.model
    omega = ctx.omega
    worst = 0.0
    loop = face_direct_loop(ctx.region, ctx.region.faces()[0])
    for chi in range(ctx.q):
        out = omega.apply(model.ribbon_char(loop, chi, 0))
        worst = max(worst, out.add(omega.scaled(-1.0)).norm())
    if ctx.region.interior_vertices():
        v = ctx.region.interior_vertices()[0]
        dloop = vertex_dual_loop(ctx.region, v)
        for c in range(ctx.q):
            out = omega.apply(model.ribbon_char(dloop, 0, c))
            worst = max(worst, out.add(omega.scaled(-1.0)).norm())
    return worst


@_check(
    "ribbon.concatenate",
    "Joining two strips end to start multiplies their operators: "
    "F_{rho sigma} = F_rho F_sigma.",
    TOL_ALGEBRAIC,
)
def _ribbon_concatenate(ctx: _Ctx) -> float:
    region = ctx.region
    if region.is_torus:
        mid = region.site((1, 1), (1, 1))
        ends = region.site((0, 0), (0, 0)), region.site((2, 2), (2, 2))
    else:
        mid = region.site((1, 1), (1, 1))
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
        worst = max(worst, ctx.probe(lhs, rhs, k=2))
    return worst


@_check(
    "ribbon.span-full-space",
    "Products of ribbon operators applied to the ground vector span the whole "
    "space: the family matrix has full numerical rank.",
    TOL_EIG,
)
def _ribbon_span(ctx: _Ctx) -> float:
    ctx.need_boundary()
    ctx.need_dense("the spanning family rank")
    return float(ctx.model.space.dim - _rank(spanning_matrix(ctx.model), 1e-8))


def _rank(mat: np.ndarray, tol: float) -> int:
    """Numerical rank: the singular values above tol times the largest."""
    svals = _blockwise_singular_values(mat)
    return int(np.sum(svals > tol * svals.max())) if svals.size else 0


def _blockwise_singular_values(mat: np.ndarray) -> np.ndarray:
    """The nonzero-block singular values of a matrix, one small SVD per block.

    Blocks are the connected components of the bipartite graph that joins
    row i to column j when mat[i, j] != 0.  Permuting rows and columns keeps
    the singular values, and a block-diagonal matrix has exactly the union
    of its blocks' singular values, so the rank read off these equals the
    rank of one SVD of the whole matrix (all-zero rows and columns only add
    zero singular values).  The spanning family splits into one block per
    gauge-orbit coset.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    m, n = mat.shape
    rows, cols = np.nonzero(mat)
    graph = coo_matrix((np.ones(rows.size), (rows, m + cols)), shape=(m + n, m + n))
    _, label = connected_components(graph, directed=False)
    row_label, col_label = label[:m], label[m:]
    parts = [
        np.linalg.svd(mat[np.ix_(row_label == b, col_label == b)], compute_uv=False)
        for b in np.unique(label[rows])
    ]
    return np.concatenate(parts) if parts else np.zeros(0)


def _blockwise_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Every eigenvalue of a symmetric matrix, one eigvalsh per block.

    Blocks are the connected components of the graph that joins i to j when
    mat[i, j] != 0; permuting rows and columns alike makes the matrix block
    diagonal with these blocks, so their eigenvalues are its eigenvalues.
    """
    from scipy.sparse.csgraph import connected_components

    _, label = connected_components(mat != 0, directed=False)
    blocks = [label == b for b in np.unique(label)]
    return np.concatenate([np.linalg.eigvalsh(mat[np.ix_(b, b)]) for b in blocks])


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
    # every strip on one space over the pair's joint support, so that its
    # tables are built once for all q^4 label pairs
    edges = set().union(*(support(f) for f in f1s + f2s))
    strips = restrict(f1s + f2s, edges)
    f1s, f2s = strips[: len(labels)], strips[len(labels):]
    worst = 0.0
    for (chi, c), f1 in zip(labels, f1s):
        for (xi, d), f2 in zip(labels, f2s):
            # exact scalar table
            scalar = model.crossing_phase(rho, chi, c, sigma, xi, d)
            if scalar.exponent != (chi(d) * xi(c)).exponent:
                return 1.0
            # and by composition, on every label pair
            lhs, rhs = f1.compose(f2), f2.compose(f1).scaled(scalar.to_complex())
            worst = max(worst, ctx.probe(lhs, rhs, k=2))
    return worst


@_check(
    "ribbon.path-independence",
    "Two strips with the same end sites act identically on ground vectors.",
    TOL_ALGEBRAIC,
)
def _ribbon_path_independence(ctx: _Ctx) -> float:
    model = ctx.model
    rib_a, rib_b = _path_independent_pair(ctx)
    worst = 0.0
    for chi, c in [(1 % ctx.q, 0), (0, 1 % ctx.q), (1 % ctx.q, ctx.q - 1)]:
        a = ctx.omega.apply(model.ribbon_char(rib_a, chi, c))
        b = ctx.omega.apply(model.ribbon_char(rib_b, chi, c))
        worst = max(worst, a.add(b.scaled(-1.0)).norm())
    return worst


# ---- site charge projectors ------------------------------------------------


@_check(
    "charge.vanish-on-ground",
    "Site charge projectors see only the trivial label on ground vectors: "
    "D_s^{chi,c} Omega = [chi trivial][c trivial] Omega.",
    TOL_ALGEBRAIC,
)
def _charge_vanish_ground(ctx: _Ctx) -> float:
    site = ctx.an_interior_site()
    worst = 0.0
    for chi, c in ctx.label_pairs():
        out = ctx.omega.apply(ctx.model.site_charge_projector(site, chi, c))
        want = ctx.omega if (chi, c) == (0, 0) else None
        resid = out.add(want.scaled(-1.0)).norm() if want is not None else out.norm()
        worst = max(worst, resid)
    return worst


def _excitation_for_charge(ctx: _Ctx) -> tuple:
    """An excited vector with a designated start site, plus its labels."""
    chi, c = 1 % ctx.q, ctx.q - 1
    if ctx.region.is_torus:
        rib = ctx.interior_pair_ribbon()
    else:
        rib = ribbon_to_boundary(ctx.region, ctx.an_interior_site())
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
    site = rib.start
    worst = 0.0
    for sig, d in itertools.product(range(ctx.q), repeat=2):
        out = exc.apply(ctx.model.site_charge_projector(site, sig, d))
        if (sig, d) == (chi, c):
            out = out.add(exc.scaled(-1.0))
        worst = max(worst, out.norm())
    return worst


@_check(
    "charge.ribbon-end",
    "The far end of an excited strip carries the opposite label "
    "(conj(chi), inverse c), measured on whatever star or plaquette sits there.",
    TOL_ALGEBRAIC,
)
def _charge_ribbon_end(ctx: _Ctx) -> float:
    model, region = ctx.model, ctx.region
    rib = ctx.interior_pair_ribbon()
    chi, c = 1 % ctx.q, ctx.q - 1
    exc = ctx.omega.apply(model.ribbon_char(rib, chi, c))
    site = rib.end
    chi_inv = ctx.group.character_from_index(chi).inverse().index
    c_inv = int(ctx.group.inv_table()[c])
    worst = 0.0
    for sig, d in itertools.product(range(ctx.q), repeat=2):
        out = exc.apply(model.site_charge_projector(site, sig, d))
        if (sig, d) == (chi_inv, c_inv):
            out = out.add(exc.scaled(-1.0))
        worst = max(worst, out.norm())
    return worst


@_check(
    "charge.orthogonality",
    "Site charge projectors with different labels are orthogonal: "
    "D^a D^b = [a = b] D^a.",
    TOL_ALGEBRAIC,
)
def _charge_orthogonality(ctx: _Ctx) -> float:
    site = ctx.an_interior_site()
    model = ctx.model
    labels = ctx.label_pairs(limit=4)
    worst = 0.0
    for a, b in itertools.product(labels[:4], repeat=2):
        lhs = model.site_charge_projector(site, *a).compose(model.site_charge_projector(site, *b))
        rhs = model.site_charge_projector(site, *a) if a == b else TermOp(model.space, [])
        worst = max(worst, ctx.probe(lhs, rhs, k=1))
    return worst


@_check(
    "charge.completeness",
    "The site charge projectors resolve the identity: sum over all labels is I.",
    TOL_ALGEBRAIC,
)
def _charge_completeness(ctx: _Ctx) -> float:
    site = ctx.an_interior_site()
    model = ctx.model
    terms = []
    for chi, c in itertools.product(range(ctx.q), repeat=2):
        terms.extend(model.site_charge_projector(site, chi, c).terms)
    total = TermOp(model.space, terms).simplify()
    return ctx.probe(total, model.identity(), k=2)


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
    return max(ctx.probe(v.compose(v), v, k=2), ctx.probe(v.adjoint(), v, k=2))


@_check(
    "boundary-loop.projection-mu",
    "The direct boundary charge V^mu is an orthogonal projection.",
    TOL_ALGEBRAIC,
)
def _boundary_loop_mu(ctx: _Ctx) -> float:
    ctx.need_boundary_ribbon()
    v = ctx.model.boundary_charge_mu()
    return max(ctx.probe(v.compose(v), v, k=2), ctx.probe(v.adjoint(), v, k=2))


@_check(
    "boundary.charge-equality-eps",
    "The global flux detector equals the boundary loop operator: D^eps = V^eps.",
    TOL_KERNEL,
)
def _boundary_equality_eps(ctx: _Ctx) -> float:
    ctx.need_boundary_ribbon()
    return ctx.probe(ctx.model.detector_eps(), ctx.model.boundary_charge_eps(), k=8)


@_check(
    "boundary.charge-equality-mu",
    "The global charge detector equals the boundary loop operator: D^mu = V^mu.",
    TOL_KERNEL,
)
def _boundary_equality_mu(ctx: _Ctx) -> float:
    ctx.need_boundary_ribbon()
    return ctx.probe(ctx.model.detector_mu(), ctx.model.boundary_charge_mu(), k=8)


# ---- boundary Hamiltonian ----------------------------------------------


@_check(
    "boundary-hamiltonian.positive",
    "The fully charged boundary Hamiltonian H - V^eps - V^mu has no negative "
    "spectrum; where it is diagonalized, its kernel has the counted dimension.",
    TOL_EIG,
)
def _boundary_hamiltonian_positive(ctx: _Ctx) -> float:
    ctx.need_boundary_ribbon()
    dim = ctx.model.space.dim
    if dim > EIGSH_LIMIT:
        raise _Skip(f"bottom-of-spectrum solve too large (dim {dim} > {EIGSH_LIMIT})")
    h = ctx.model.hamiltonian(boundary="eps_mu")
    if dim <= DENSE_MATRIX_LIMIT:  # every eigenvalue, so the kernel is counted too
        vals = _blockwise_eigenvalues(h.to_dense())
        miscount = abs(int(np.sum(vals < TOL_KERNEL)) - spectrum_counts(ctx.model, "eps_mu")[0])
        return max(0.0, -float(vals.min()), float(miscount))
    from scipy.sparse.linalg import LinearOperator, eigsh

    lin = LinearOperator(
        (dim, dim),
        matvec=lambda x: h.apply(np.asarray(x, dtype=np.complex128)),
        dtype=np.complex128,
    )
    v0 = ctx.rng.standard_normal(dim)
    vals = eigsh(lin, k=1, which="SA", tol=1e-9, v0=v0, return_eigenvectors=False)
    return max(0.0, -float(vals[0]))


@_check(
    "boundary-hamiltonian.ground-zero",
    "Every ground vector lies in the kernel of the boundary Hamiltonian.",
    TOL_KERNEL,
)
def _boundary_hamiltonian_ground_zero(ctx: _Ctx) -> float:
    ctx.need_boundary_ribbon()
    h = ctx.model.hamiltonian(boundary="eps_mu")
    mixture = ctx.mixture  # its first part is the vector seed
    n2 = squared_norms(sparse_apply(h, mixture.stack), ctx.region.num_edges, len(mixture.weights))
    return float(np.sqrt(n2.max()))


def _kernel_family(ctx: _Ctx, ground: SparseState, n_ground: int) -> tuple[SparseState, np.ndarray]:
    """Each of the n_ground parts of the `ground` stack, then each
    boundary-routed charge strip or none, then each flux strip or none: one
    stack, the strips applied once each.  Also returns the (chi, c) sector of
    every part, read from its strips (0 where a part has none): ground
    vectors carry no total charge or flux."""
    model, region = ctx.model, ctx.region
    sites = [
        region.site(v, f)
        for v in region.interior_vertices()
        for f in region.quadrant_faces(v).values()
    ]
    ribbons = [ribbon_to_boundary(region, s) for s in sites]
    charge_ops = [model.ribbon_char(r, chi, 0) for r in ribbons for chi in range(1, ctx.q)]
    flux_ops = [model.ribbon_char(r, 0, c) for r in ribbons for c in range(1, ctx.q)]
    family = grow(grow(ground, charge_ops, region.num_edges), flux_ops, region.num_edges)
    # with S strips of each kind, grow numbers part (ground j, charge strip s,
    # flux strip t) as (j * (S + 1) + s) * (S + 1) + t, and strip k >= 1
    # carries the label (k - 1) % (q - 1) + 1
    strip = np.concatenate([[0], np.tile(np.arange(1, ctx.q), len(ribbons))])
    chi, c = np.meshgrid(strip, strip, indexing="ij")
    sectors = np.tile(np.stack([chi.ravel(), c.ravel()], axis=1), (n_ground, 1))
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
    model, mixture, num_edges = ctx.model, ctx.mixture, ctx.region.num_edges
    ground, n_ground = mixture.stack, len(mixture.weights)
    dense = model.space.dim <= DENSE_MATRIX_LIMIT
    if not dense:  # kernel membership only, grown from a deterministic sample
        picks = ctx.rng.choice(n_ground, size=min(8, n_ground), replace=False)
        ground, n_ground = take_parts(ground, num_edges, picks), len(picks)
    family, sectors = _kernel_family(ctx, ground, n_ground)
    n = len(sectors)
    h = model.hamiltonian(boundary="eps_mu")
    worst = float(np.sqrt(squared_norms(sparse_apply(h, family), num_edges, n).max()))
    if not dense:
        return worst
    rank = _rank(to_columns(family, model.space, n, np.complex128), TOL_KERNEL)
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
    ctx.need_dense("the sector ranks")
    model, mixture, num_edges = ctx.model, ctx.mixture, ctx.region.num_edges
    family, sectors = _kernel_family(ctx, mixture.stack, len(mixture.weights))
    counts = sector_counts(ctx.group, ctx.region, "eps_mu")
    worst = 0.0
    for chi, c in itertools.product(range(ctx.q), repeat=2):
        inside = (sectors == (chi, c)).all(axis=1)
        # P f - [f in the sector] f, for every part f at once
        moved = sparse_apply(model.sector_projector(chi, c), family)
        moved = moved.add(scale_parts(family, num_edges, -inside.astype(float)))
        labels = np.flatnonzero(inside)
        rank = _rank(to_columns(take_parts(family, num_edges, labels), model.space, len(labels),
                                np.complex128), TOL_KERNEL)
        worst = max(worst, float(np.sqrt(squared_norms(moved, num_edges, len(sectors)).max())),
                    float(abs(rank - counts.get((0, chi, c), 0))))
    return worst


# ---- excitation energies -------------------------------------------------


@_check(
    "energy.interior-pair",
    "A strip with both end sites fully inside is an energy eigenvector with "
    "eigenvalue 2(2 - [chi trivial] - [c trivial]).",
    TOL_ALGEBRAIC,
)
def _energy_interior_pair(ctx: _Ctx) -> float:
    rib = ctx.interior_pair_ribbon()
    return ctx.excitation_energy_residual(rib)


@_check(
    "energy.interior-boundary",
    "A strip from an interior site out of the region costs exactly "
    "2 - [chi trivial] - [c trivial].",
    TOL_ALGEBRAIC,
)
def _energy_interior_boundary(ctx: _Ctx) -> float:
    ctx.need_boundary()
    site = ctx.an_interior_site()
    rib = ribbon_to_boundary(ctx.region, site)
    return ctx.excitation_energy_residual(rib)


@_check(
    "energy.boundary-pair",
    "A strip hugging the boundary with both end sites outside every term "
    "costs nothing for any label.",
    TOL_ALGEBRAIC,
)
def _energy_boundary_pair(ctx: _Ctx) -> float:
    rib = ctx.boundary_collar_ribbon()
    return ctx.excitation_energy_residual(rib)


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


def _run_one(check_id: str, ctx: _Ctx, overrides: dict | None) -> CheckResult:
    statement, tol, fn = _REGISTRY[check_id]
    if overrides and check_id in overrides:
        tol = float(overrides[check_id])
    ctx.reseed(check_id)
    start = time.perf_counter()
    try:
        residual = float(fn(ctx))
    except _Skip as skip:
        return CheckResult(
            check_id, statement, ctx.group.spec, ctx.region.spec,
            None, tol, None, skipped=True, reason=skip.reason,
            wall_time=time.perf_counter() - start,
        )
    except Exception as err:
        raise CheckError(f"check {check_id} errored: {err}") from err
    return CheckResult(
        check_id, statement, ctx.group.spec, ctx.region.spec,
        residual, tol, residual < tol,
        wall_time=time.perf_counter() - start,
    )


def run_check(
    check_id: str, group: Group, region: Region, seed: int = 7, cap: int = DEFAULT_DIM_CAP
) -> CheckResult:
    """Run a single named check on a fresh model."""
    if check_id not in _REGISTRY:
        raise KeyError(f"unknown check id {check_id!r}; known ids: {', '.join(check_ids())}")
    ctx = _Ctx(QuantumDouble(group, region, cap=cap), seed)
    return _run_one(check_id, ctx, None)


def run_suite(
    group: Group,
    region: Region,
    seed: int = 7,
    threshold_overrides: dict | None = None,
    cap: int = DEFAULT_DIM_CAP,
) -> VerificationReport:
    """Run every registered check, ordered by check id."""
    ctx = _Ctx(QuantumDouble(group, region, cap=cap), seed)
    results = tuple(_run_one(cid, ctx, threshold_overrides) for cid in check_ids())
    config = {
        "group": group.spec,
        "region": region.spec,
        "seed": seed,
        "threshold_overrides": dict(threshold_overrides or {}),
    }
    return VerificationReport(results, group.spec, region.spec, seed, config)

"""Brute-force reference implementations used as oracles in the tests.

Everything here works configuration by configuration with plain Python
integers and cmath, with no shared code with the package's operator engine
beyond the lattice geometry (which is the definition of the model, not a
computation).  Ribbon operators are evaluated by walking the triangles in
sequence and mutating a working copy of the configuration, which is an
independent route to the same operator.

Operators are represented as column functions: colfn(j) returns a dict
{row index: amplitude} for basis column j.

The exceptions use the package's own operators through a route independent
of the one they check:

* `sector_dimensions` traces the total charge and flux projectors over a
  dense basis, where `sector_counts` counts charge and flux labels;
  `detector_energy_check` applies H and the detectors to dense columns,
  where `detector_energy_residual` reads them on a sparse state;
* `_projector_ground_basis`, the ground-space oracle, applies the commuting
  projector factors to seed vectors, where `ground_space` builds gauge
  orbits;
* `exact_probe`, the operator-comparison oracle, reads the exact matrices of
  both operators restricted to their joint `support` (`restrict`), column
  by column, where `_Ctx.probe` works on the image of their holonomy forms;
* `coo_sparse_matrix`, the exact-matrix oracle, writes one COO entry per
  term and column (`term_diag`) and lets scipy sum the duplicates, where
  `sparse_matrix` sums each shift's diagonal first and `apply_terms` rolls
  the vector's tensor view;
* `_rank`, the rank oracle, finds the blocks of a dense matrix from its
  nonzero entries, where `sparse.stack_rank` reads them off the stack;
* `image_expect`, the expectation oracle, applies the operator to the
  state's stack and matches the merged image against it, where
  `StateFunctional.expect` reads the operator's diagonals on the stack's
  own rows;
* `one_sided_sector_expectation`, the conditional-state oracle, reads
  omega(A D)/omega(D) as two expectations of the unconditioned state, where
  `conditional_sector_state` applies D to the stack and renormalizes each
  part;
* `per_term_apply`, the sparse-application oracle, takes each term's
  diagonal and shift on a sparse state's rows one term at a time, where
  `SparseState.apply_terms` sums each shift's diagonal first;
* `per_face_flux_projector` builds the total flux projector from one phase
  per face, where `total_flux_projector` uses the summed holonomy form, and
  `per_projector_sector_weights` takes one `image_expect` per sector
  projector, where `sector_weights` takes every weight from one pass.
"""

import cmath
from math import prod

import numpy as np

from qdouble.operators import (DENSE_MATRIX_LIMIT, HilbertSpace, Operator, ProductOp,
                               QuantumDouble, ScaledOp, SumOp, Term, TermOp, _canon_form,
                               _merge_phases, holonomy_values, refuse_above, sparse_matrix,
                               term_factor)
from qdouble.sparse import SparseState, _shift_rows, row_keys, sparse_apply
from qdouble.spectral import EigenBasis, ground_dimension_count
from qdouble.states import _flat_orbit_representatives

PROJECTOR_BASIS_BYTES = 4_000_000_000  # seed block of the projector ground basis


def group_elements(orders):
    """All digit tuples in packed-index order (first factor fastest)."""
    els = []
    for idx in range(prod(orders)):
        dig, r = [], idx
        for n in orders:
            dig.append(r % n)
            r //= n
        els.append(tuple(dig))
    return els


def elem_index(orders, dig):
    idx, w = 0, 1
    for d, n in zip(dig, orders):
        idx += d * w
        w *= n
    return idx


def add(orders, a, b):
    return tuple((x + y) % n for x, y, n in zip(a, b, orders))


def neg(orders, a):
    return tuple((-x) % n for x, n in zip(a, orders))


def scal(orders, k, a):
    return tuple((k * x) % n for x, n in zip(a, orders))


def char_val(orders, chi, g):
    return cmath.exp(2j * cmath.pi * sum(k * d / n for k, d, n in zip(chi, g, orders)))


def config_of(orders, region, index):
    q = prod(orders)
    els = group_elements(orders)
    out = []
    for _ in range(region.num_edges):
        out.append(els[index % q])
        index //= q
    return out


def packed_config(space, index):
    """The packed element index on every edge of basis configuration `index`
    of a HilbertSpace, read through `config_of` (which takes only
    `num_edges` of its region, and a space has that too)."""
    orders = space.group.orders
    return tuple(elem_index(orders, dig) for dig in config_of(orders, space, index))


def config_index(orders, config):
    q = prod(orders)
    idx = 0
    for dig in reversed(config):
        idx = idx * q + elem_index(orders, dig)
    return idx


def space_dim(orders, region):
    return prod(orders) ** region.num_edges


def holonomy(orders, region, face, config):
    out = (0,) * len(orders)
    for eid, s in region.face_boundary_ids(face):
        out = add(orders, out, scal(orders, s, config[eid]))
    return out


def star_column(orders, region, vertex, g):
    def colfn(j):
        config = config_of(orders, region, j)
        for eid, s in region.star_edges(vertex):
            config[eid] = add(orders, config[eid], g if s > 0 else neg(orders, g))
        return {config_index(orders, config): 1.0}

    return colfn


def star_average_column(orders, region, vertex):
    q = prod(orders)
    parts = [star_column(orders, region, vertex, g) for g in group_elements(orders)]

    def colfn(j):
        out = {}
        for p in parts:
            for i, v in p(j).items():
                out[i] = out.get(i, 0) + v / q
        return out

    return colfn


def plaquette_column(orders, region, face, h):
    def colfn(j):
        config = config_of(orders, region, j)
        return {j: 1.0} if holonomy(orders, region, face, config) == tuple(h) else {}

    return colfn


def ribbon_char_column(orders, region, ribbon, chi, c):
    """F^{chi,c} by sequential triangle processing: a direct triangle
    multiplies by conj(chi) of the signed edge value it reads off the
    working configuration, a dual triangle shifts the crossed edge by
    c to the exit side."""

    def colfn(j):
        config = config_of(orders, region, j)
        phase = 1.0
        for tri in ribbon.triangles:
            if tri.kind == "direct":
                phase *= char_val(
                    orders, chi, scal(orders, tri.sign, config[tri.edge])
                ).conjugate()
            else:
                config[tri.edge] = add(orders, config[tri.edge], scal(orders, tri.sign, c))
        return {config_index(orders, config): phase}

    return colfn


def hamiltonian_column(orders, region):
    stars = [star_average_column(orders, region, v) for v in region.interior_vertices()]
    plaqs = [plaquette_column(orders, region, f, (0,) * len(orders)) for f in region.faces()]

    def colfn(j):
        out = {j: float(len(stars) + len(plaqs))}
        for p in stars + plaqs:
            for i, v in p(j).items():
                out[i] = out.get(i, 0) - v
        return out

    return colfn


def apply_column_op(colfn, dim, psi):
    """Apply a column-function operator to a dense vector."""
    import numpy as np

    out = np.zeros(dim, dtype=complex)
    for j in range(dim):
        amp = psi[j]
        if amp == 0:
            continue
        for i, v in colfn(j).items():
            out[i] += v * amp
    return out


def to_matrix(colfn, dim):
    import numpy as np

    m = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        for i, v in colfn(j).items():
            m[i, j] = v
    return m


def ground_projector_factors(model: QuantumDouble) -> list[TermOp]:
    """The commuting projectors whose product maps onto the ground space."""
    ops = [model.star(v) for v in model.region.interior_vertices()]
    ops.extend(model.plaquette(f) for f in model.region.faces())
    return ops


def _projector_ground_basis(
    model: QuantumDouble, rng: np.random.Generator, tol: float
) -> EigenBasis:
    space = model.space
    expected = ground_dimension_count(model.group, model.region)
    n_seeds = expected + max(4, expected // 8)
    refuse_above(space.dim * n_seeds * 16, PROJECTOR_BASIS_BYTES,
                 "projector ground basis bytes")
    cols = [space.random_vectors(rng, n_seeds)]
    if model.region.is_torus:
        # one flat winding configuration per flux sector
        winding = np.zeros((space.dim, model.group.size ** 2), dtype=complex)
        for k, digs in enumerate(_flat_orbit_representatives(model)):
            winding[space.basis_index(digs), k] = 1.0
        cols.append(winding)
    y = np.concatenate(cols, axis=1)
    for p in ground_projector_factors(model):
        y = p.apply(y)
    u, s, _ = np.linalg.svd(y, full_matrices=False)
    rank = int(np.sum(s > tol * max(s[0], 1.0)))
    vectors = u[:, :rank]
    h = model.hamiltonian()
    hv = h.apply(vectors)
    residuals = np.linalg.norm(hv, axis=0)
    return EigenBasis(
        vectors=vectors,
        values=np.zeros(rank),
        residuals=residuals,
        method="projector",
        meta={"expected_dimension": expected, "singular_values": s[: rank + 3]},
    )


# ---------------------------------------------------------------------------
# dense cross-checks of the counted sectors and the detector identity


def sector_dimensions(model: QuantumDouble, basis: np.ndarray) -> dict[tuple[int, int], int]:
    """Dimension of each (charge, flux) sector inside span(basis).

    Computes tr(K* P_{chi,c} K) for the orthonormal columns K, checks that
    each compressed projector has eigenvalues 0/1 and that the sector
    dimensions resolve the whole span.
    """
    q = model.group.size
    out: dict[tuple[int, int], int] = {}
    total = 0
    for chi in range(q):
        charge = model.total_charge_projector(chi)
        kc = charge.apply(basis)
        for c in range(q):
            flux = model.total_flux_projector(c)
            m = basis.conj().T @ flux.apply(kc)
            tr = float(np.trace(m).real)
            d = int(round(tr))
            if abs(tr - d) > 1e-6:
                raise RuntimeError(f"sector trace {tr} for {(chi, c)} is not integral")
            if d:
                evs = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
                if not np.all((np.abs(evs) < 1e-7) | (np.abs(evs - 1) < 1e-7)):
                    raise RuntimeError(
                        f"sector projector for {(chi, c)} is not 0/1 on the span"
                    )
            out[(chi, c)] = d
            total += d
    if total != basis.shape[1]:
        raise RuntimeError(
            f"sector dimensions add to {total}, expected {basis.shape[1]}"
        )
    return out


def detector_energy_check(model: QuantumDouble, basis: np.ndarray) -> float:
    """max_k |<psi_k, (H - D^eps - D^mu) psi_k>| over dense basis columns."""
    h = model.hamiltonian()
    de = model.detector_eps()
    dm = model.detector_mu()
    gap = h.apply(basis) - de.apply(basis) - dm.apply(basis)
    vals = np.einsum("ik,ik->k", basis.conj(), gap)
    return float(np.max(np.abs(vals)))


# ---------------------------------------------------------------------------
# operator comparison on the joint support


def support(op: Operator) -> set[int]:
    """The edge ids an operator shifts or reads through a holonomy form.

    The operator acts as the identity on every other edge, so two operators
    are equal exactly when they agree on the configurations of their joint
    support.
    """
    if isinstance(op, TermOp):
        edges: set[int] = set()
        for t in op.terms:
            edges.update(e for e, _ in t.shift)
            for form, _ in t.phases + t.indicators:
                edges.update(e for e, _ in form)
        return edges
    if isinstance(op, SumOp):
        return set().union(*(support(p) for p in op.parts))
    if isinstance(op, ProductOp):
        return set().union(*(support(f) for f in op.factors))
    if isinstance(op, ScaledOp):
        return support(op.op)
    raise TypeError(f"no support for {type(op).__name__}")


def _relabel_term(t: Term, index: dict[int, int]) -> Term:
    def form(f):
        return tuple((index[e], c) for e, c in f)

    return Term(
        t.coeff,
        tuple((index[e], g) for e, g in t.shift),
        tuple((form(f), chi) for f, chi in t.phases),
        tuple((form(f), u) for f, u in t.indicators),
    )


def restrict(ops, edges) -> list[Operator]:
    """The operators `ops` on one space over just `edges`, which must contain
    their supports; edge `edges[i]` (in sorted order) becomes edge i.

    The operators share the small space.
    """
    edges = sorted(edges)
    missing = set().union(*(support(op) for op in ops)) - set(edges)
    if missing:
        raise ValueError(f"edges {sorted(missing)} of the support are not kept")
    full = ops[0].space
    space = HilbertSpace(full.group, len(edges), cap=full.cap)
    index = {e: i for i, e in enumerate(edges)}

    def on_space(o: Operator) -> Operator:
        if isinstance(o, TermOp):
            return TermOp(space, [_relabel_term(t, index) for t in o.terms])
        if isinstance(o, SumOp):
            return SumOp(space, [on_space(p) for p in o.parts])
        if isinstance(o, ProductOp):
            return ProductOp(space, [on_space(f) for f in o.factors])
        if isinstance(o, ScaledOp):
            return ScaledOp(space, o.scalar, on_space(o.op))
        raise TypeError(f"cannot restrict {type(o).__name__}")

    return [on_space(op) for op in ops]


def restricted_dim(op_a: Operator, op_b: Operator) -> int:
    """Dimension of the space over the joint support of two operators."""
    return op_a.space.q ** len(support(op_a) | support(op_b))


def _sparse_column_norms(m) -> np.ndarray:
    """2-norms of the columns of a scipy CSC matrix without duplicate entries."""
    n = m.shape[1]
    cols = np.repeat(np.arange(n), np.diff(m.indptr))
    return np.sqrt(np.bincount(cols, weights=np.abs(m.data) ** 2, minlength=n))


def exact_probe(op_a: Operator, op_b: Operator) -> float:
    """max_j |(A - B) e_j| / max(|A e_j|, |B e_j|, 1) over every basis column,
    read from the exact sparse matrices of both operators on their joint
    support; refused above the dense matrix limit."""
    edges = sorted(support(op_a) | support(op_b))
    if len(edges) == op_a.space.num_edges:
        a, b = op_a, op_b  # global support: nothing to restrict
    else:
        a, b = restrict([op_a, op_b], edges)
    ma, mb = sparse_matrix(a), sparse_matrix(b)
    num = _sparse_column_norms(ma - mb)
    den = np.maximum(np.maximum(_sparse_column_norms(ma), _sparse_column_norms(mb)), 1.0)
    return float(np.max(num / den))


# ---------------------------------------------------------------------------
# the exact matrix, one entry per term


def term_diag(space: HilbertSpace, term: Term) -> np.ndarray | None:
    """The diagonal factor of a term on every basis index, as one table of
    length dim, or None."""
    return term_factor(space.group, term, space.form_values)


def coo_sparse_matrix(op: Operator, max_dim: int = DENSE_MATRIX_LIMIT):
    """The exact matrix of an operator as a scipy CSC matrix, term by term.

    A term sends basis column j to row shift_perm(shift)[j] with value
    coeff * term_diag[j]; the COO to CSC conversion sums the entries that
    terms with the same shift put at the same (row, column).  Sums add and
    products multiply these matrices.  Refused above `max_dim`.
    """
    from scipy.sparse import coo_matrix

    space = op.space
    dim = space.dim
    refuse_above(dim, max_dim, "matrix dimension")
    if isinstance(op, TermOp):
        rows, vals = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.complex128)]
        for t in op.terms:
            if t.coeff == 0:
                continue
            diag = term_diag(space, t)
            vals.append(t.coeff * (np.ones(dim) if diag is None else diag))
            rows.append(space.shift_perm(t.shift))
        cols = np.tile(np.arange(dim), len(rows) - 1)
        entries = (np.concatenate(vals), (np.concatenate(rows), cols))
        return coo_matrix(entries, shape=(dim, dim)).tocsc()
    if isinstance(op, SumOp):
        out = coo_sparse_matrix(op.parts[0], max_dim)
        for p in op.parts[1:]:
            out = out + coo_sparse_matrix(p, max_dim)
        return out
    if isinstance(op, ProductOp):
        out = coo_sparse_matrix(op.factors[0], max_dim)
        for f in op.factors[1:]:
            out = out @ coo_sparse_matrix(f, max_dim)
        return out
    if isinstance(op, ScaledOp):
        return op.scalar * coo_sparse_matrix(op.op, max_dim)
    raise TypeError(f"no sparse matrix for {type(op).__name__}")


# ---------------------------------------------------------------------------
# the sparse image, one term at a time


def per_term_apply(state: SparseState, terms) -> SparseState:
    """The terms applied to a sparse state one at a time: each term's
    diagonal on the state's rows, the rows where it is 0 dropped (an
    indicator fails; a phase never vanishes) and the rest moved by the
    term's shift, every term's image merged at once."""
    group, n = state.group, state.n_configs
    rows = [np.zeros((0, state.digits.shape[1]), dtype=np.uint8)]
    amps = [np.zeros(0, dtype=np.complex128)]
    for term in terms:
        if term.coeff == 0:
            continue
        diag = term_factor(group, term, lambda form: holonomy_values(
            group, lambda edge: state.digits[:, edge], n, form))
        if diag is None:
            digits, amp = state.digits.copy(), term.coeff * state.amps
        else:
            keep = diag != 0
            digits, amp = state.digits[keep], term.coeff * state.amps[keep] * diag[keep]
        rows.append(_shift_rows(group, digits, term.shift))
        amps.append(amp)
    return SparseState(group, state.num_edges, np.concatenate(rows, axis=0), np.concatenate(amps),
                       n_parts=state.n_parts)


# ---------------------------------------------------------------------------
# the dense rank


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
    zero singular values).
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    m, n = mat.shape
    rows, cols = np.nonzero(mat)
    graph = csr_matrix((np.ones(rows.size), (rows, m + cols)), shape=(m + n, m + n))
    _, label = connected_components(graph, directed=False)
    row_label, col_label = label[:m], label[m:]
    parts = [
        np.linalg.svd(mat[np.ix_(row_label == b, col_label == b)], compute_uv=False)
        for b in np.unique(label[rows])
    ]
    return np.concatenate(parts) if parts else np.zeros(0)


# ---------------------------------------------------------------------------
# expectations through the operator's image


def image_expect(state, op: Operator) -> complex:
    """sum_p w_p <s_p|A s_p> by the image route: A applied to the whole stack
    with `sparse_apply`, which merges the image, and the image matched
    against the stack row by row, where `StateFunctional.expect` reads A's
    diagonals on the stack's own rows."""
    st, n = state.stack, len(state.weights)
    out = sparse_apply(op, st)
    _, i, j = np.intersect1d(row_keys(st.digits), row_keys(out.digits), assume_unique=True,
                             return_indices=True)
    terms, labels = st.amps[i].conj() * out.amps[j], st.labels[i]
    per_part = np.bincount(labels, terms.real, n) + 1j * np.bincount(labels, terms.imag, n)
    return complex(np.dot(state.weights, per_part))


def one_sided_sector_expectation(state, chi, c, op: Operator) -> complex:
    """omega(A D)/omega(D); agrees with the conditional state on interior
    observables since those cannot change the global charge."""
    d = state.model.sector_projector(chi, c)
    lam = state.expect_real(d)
    if lam <= 1e-10:
        raise ValueError(f"sector {(chi, c)} has vanishing weight {lam}")
    return state.expect(op @ d) / lam


def per_face_flux_projector(model: QuantumDouble, c) -> TermOp:
    """Projector onto total flux c with one phase per face: term chi carries
    conj(chi) of every face's holonomy, where `total_flux_projector` carries
    one phase of the summed holonomy form."""
    group, q = model.group, model.group.size
    inv = group.inv_table()
    terms = []
    for chi in range(q):
        coeff = complex(group.char_values(chi)[c]) / q
        phases = [(_canon_form(group, model.region.face_boundary_ids(f)), int(inv[chi]))
                  for f in model.region.faces()]
        terms.append(Term(coeff, (), _merge_phases(group, phases), ()))
    return TermOp(model.space, terms).simplify()


def per_projector_sector_weights(state) -> dict:
    """{(chi, c): omega(P_chi P_c)}, one `image_expect` of each of the q^2
    sector projectors, the flux projector built face by face."""
    model, q = state.model, state.model.group.size
    return {(chi, c): image_expect(state, model.total_charge_projector(chi)
                                   .compose(per_face_flux_projector(model, c))).real
            for chi in range(q) for c in range(q)}

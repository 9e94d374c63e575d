"""Ground spaces, low-lying spectra, and charge-sector decompositions.

The spectrum is counted exactly: every term of H and of H^{eps,mu} is a
commuting projector, so each joint eigenspace is labeled by a charge on every
full-star vertex and a flux on every face, and its energy and dimension follow
from those labels (`sector_counts`, `spectrum_counts`).  Any Hermitian term
operator's eigenvalues and their exact multiplicities come from its blocks on
the image of its holonomy forms, with no vector of the space (`form_spectrum`).
Sector dimensions are these counts too; their dense cross-check, traces of
the sector projectors over a basis, lives in the tests' reference module.

Vectors come from two routes:

* the ground space is built, not searched for: one gauge-orbit state per
  orbit of flat configurations (`ground_space`), which the test battery
  cross-checks against dense diagonalization and the projector product;
* the lowest k eigenpairs come from one dense `eigh` per block of the
  Hamiltonian's sparsity graph on small spaces and from scipy's LOBPCG on
  mid-size ones, Jacobi-preconditioned and in float64 when the operator is
  real; the residuals ||H v - lambda v|| are recomputed and checked
  against tol * sigma, so unconverged data is never returned.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .lattice import boundary_ribbon
from .operators import (BOUNDARY_FLAVORS, DENSE_EIG_LIMIT, PHYSICAL_MEMORY_BYTES, Operator,
                        QuantumDouble, TermOp, form_image, generated_subgroup, holonomy_values,
                        is_real, refuse_above, shift_diagonals, sparse_matrix)
from .sparse import sparse_apply, squared_norms, to_columns
from .states import frustration_free_state

__all__ = [
    "EigenBasis",
    "form_spectrum",
    "ground_dimension_count",
    "ground_space",
    "sector_counts",
    "spectrum_counts",
    "spectrum_lowest",
    "subspace_iteration",
]

@dataclass
class EigenBasis:
    """Orthonormal columns spanning an (approximate) invariant subspace."""

    vectors: np.ndarray  # (dim, k)
    values: np.ndarray  # (k,)
    residuals: np.ndarray  # (k,) column-wise ||H v - lambda v||
    method: str
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _label_patterns(q: int, n: int, k: int, trivial_total: bool) -> int:
    """Patterns of labels on n sites, in an abelian group of order q, with
    exactly k nontrivial labels and a trivial (or one given nontrivial) total.

    The k nontrivial labels can sit in C(n, k) ways; the number of k-tuples
    of nontrivial elements with a given product depends only on whether the
    product is trivial, and solves f_k = (q-1)^(k-1) - f_(k-1) from f_0.
    """
    sign = (-1) ** k
    tuples = (q - 1) ** k + (q - 1) * sign if trivial_total else (q - 1) ** k - sign
    return comb(n, k) * (tuples // q)


def sector_counts(group, region, boundary: str = "none") -> dict[tuple[int, int, int], int]:
    """Exact multiplicity of every (energy, total charge, total flux) class.

    The joint eigenspaces of the stars and plaquettes are labeled by a charge
    on each of the I full-star vertices and a flux on each of the F faces.
    Energy is the number of nontrivial labels, less [total charge != 1] for
    'eps' and [total flux != e] for 'mu' (the boundary loops measure the
    product of the interior charges and of the face fluxes).  On a free patch
    every pattern occurs, each q^(E - F - I) times; on a torus only patterns
    with trivial totals occur, each q^2 times.  Keys are (energy, character
    index, element index); values are Python integers at any size, and
    nothing of dimension |G|^E is allocated.
    """
    if boundary not in BOUNDARY_FLAVORS:
        raise ValueError(f"unknown boundary flavor {boundary!r}")
    if boundary != "none":
        boundary_ribbon(region)  # raises where the boundary loops do not exist
    q = group.size
    n_v, n_f = len(region.interior_vertices()), len(region.faces())
    if region.is_torus:
        per_pattern, totals = q**2, (True,)
    else:
        per_pattern, totals = q ** (region.num_edges - n_f - n_v), (True, False)
    eps, mu = boundary in ("eps", "eps_mu"), boundary in ("mu", "eps_mu")
    # every nontrivial total has the same count, so classes are summed by
    # (energy, charge total trivial, flux total trivial) and expanded once
    charges = {(k, t): _label_patterns(q, n_v, k, t) for k in range(n_v + 1) for t in totals}
    fluxes = {(k, t): _label_patterns(q, n_f, k, t) for k in range(n_f + 1) for t in totals}
    classes: dict[tuple[int, bool, bool], int] = {}
    for (kv, charge_trivial), nv in charges.items():
        for (kf, flux_trivial), nf in fluxes.items():
            n = nv * nf
            if n:
                energy = kv + kf - (eps and not charge_trivial) - (mu and not flux_trivial)
                key = (energy, charge_trivial, flux_trivial)
                classes[key] = classes.get(key, 0) + n
    return {
        (energy, chi, c): n * per_pattern
        for (energy, charge_trivial, flux_trivial), n in classes.items()
        for chi in ((0,) if charge_trivial else range(1, q))
        for c in ((0,) if flux_trivial else range(1, q))
    }


def spectrum_counts(model: QuantumDouble, boundary: str = "none") -> dict[int, int]:
    """Exact {energy: multiplicity} of H (or H^{boundary}), from `sector_counts`."""
    levels: dict[int, int] = {}
    for (energy, _, _), n in sector_counts(model.group, model.region, boundary).items():
        levels[energy] = levels.get(energy, 0) + n
    return dict(sorted(levels.items()))


def ground_dimension_count(group, region) -> int:
    """Ground-space dimension of H: the energy-0 multiplicity of `sector_counts`
    (q^(V - 1 - I) on a free patch, q^2 on a torus)."""
    return sum(n for (energy, _, _), n in sector_counts(group, region).items() if energy == 0)


def ground_space(model: QuantumDouble) -> EigenBasis:
    """Orthonormal basis of the kernel of the Hamiltonian, as float64 columns.

    Column j is the orbit state of flat sector j, the part j of the uniform
    ground mixture: the orbits are disjoint, so the columns are orthonormal,
    one per counted ground dimension.  The residuals ||H v|| come from one
    sparse application of H to all of them.  Refuses before enumerating
    anything when the columns would not fit in physical memory.
    """
    space, region = model.space, model.region
    space.require_dense("ground space")
    refuse_above(space.dim * ground_dimension_count(model.group, region) * 8,
                 PHYSICAL_MEMORY_BYTES, "ground basis bytes")
    mixture = frustration_free_state(model, "uniform-mixture")
    n = len(mixture.weights)
    hv = sparse_apply(model.hamiltonian(), mixture.stack)
    return EigenBasis(to_columns(mixture.stack, space, n, np.float64), np.zeros(n),
                      np.sqrt(squared_norms(hv, region.num_edges, n)), "orbit")


def subspace_iteration(
    op: TermOp,
    k: int,
    rng: np.random.Generator,
    tol: float = 1e-9,
    max_iter: int = 2000,
) -> EigenBasis:
    """Lowest k eigenpairs of a nonnegative operator by scipy's LOBPCG.

    LOBPCG starts from k seeded random columns and multiplies by the exact
    sparse matrix A, built once; both are float64 when `is_real(op)`, as
    for H and H^{eps,mu}, and complex otherwise.  It is preconditioned by
    Jacobi, M = diag(1 / (diag(A) + 1)): diag(A) >= 0 for a nonnegative
    operator, so M is positive with no tuning.  The residuals
    ||H v - lambda v|| are recomputed with `op.apply` and must all be below
    tol * sigma, sigma = 1 + sum |coeff| bounding the spectrum (every term
    is scalar x unit-modulus diagonals x permutation).  A column LOBPCG
    locked can end just above that, so it restarts from its own block until
    they pass, and raises once `max_iter` iterations are used in all:
    unconverged output is never returned.
    """
    # imported here: it adds about 10 MB of RSS to every other route
    from scipy.sparse import diags_array
    from scipy.sparse.linalg import lobpcg

    space = op.space
    # below 5k rows LOBPCG densifies the operator as A(eye(dim)), dim x dim
    refuse_above(5 * k, space.dim, "LOBPCG rows needed (5 per eigenpair)")
    sigma = 1.0 + float(sum(abs(t.coeff) for t in op.terms))
    real = is_real(op)
    vecs = space.random_vectors(rng, k, real=real)  # refuses a space too large for one vector
    a = sparse_matrix(op, space.cap)
    jacobi = diags_array(1.0 / (a.diagonal().real + 1.0))
    iterations = 0
    while True:
        with warnings.catch_warnings():
            # LOBPCG warns when it stops short; the residual check below decides
            warnings.simplefilter("ignore", UserWarning)
            vals, vecs, history = lobpcg(a, vecs, M=jacobi, tol=tol * sigma, largest=False,
                                         maxiter=max_iter - iterations,
                                         retResidualNormsHistory=True)
        iterations += len(history)
        resid = np.linalg.norm(op.apply(vecs) - vecs * vals[None, :], axis=0)
        if np.all(resid < tol * sigma):
            return EigenBasis(vecs, vals, resid, "iterative",
                              meta={"iterations": iterations, "sigma": sigma})
        if iterations >= max_iter:
            raise RuntimeError(f"LOBPCG did not converge in {max_iter} iterations; "
                               f"last values {vals}, residuals {resid}")


def _blocks(op: Operator, max_dim: int):
    """The diagonal blocks of a Hermitian operator's exact matrix, by size:
    for each block size s, the (n, s) basis indices of its n blocks and
    their (n, s, s) dense entries (float64 when `is_real(op)`).

    Blocks are the connected components of the graph that joins i to j when
    the matrix entry (i, j) is nonzero.  Permuting rows and columns alike
    makes the matrix block diagonal with these blocks, so their eigenpairs
    are its eigenpairs.  For H they are gauge orbits.  Refused above
    `max_dim`.
    """
    from scipy.sparse.csgraph import connected_components

    m = sparse_matrix(op, max_dim)
    m.eliminate_zeros()  # entries that cancelled exactly join no blocks
    _, label = connected_components(m, directed=False)
    size_of = np.bincount(label)[label]
    order = np.lexsort((label, size_of))  # one diagonal band per block size
    band = m[order][:, order].tocoo()
    start = 0
    for size, count in zip(*np.unique(size_of, return_counts=True)):
        inside = (band.row >= start) & (band.row < start + count)
        row, col = band.row[inside] - start, band.col[inside] - start
        blocks = np.zeros((count // size, size, size), dtype=m.dtype)
        blocks[row // size, row % size, col % size] = band.data[inside]
        yield order[start:start + count].reshape(-1, size), blocks
        start += count


def form_spectrum(op: TermOp) -> dict[float, int]:
    """Every eigenvalue of a Hermitian TermOp, rounded to 9 decimals, with its
    exact multiplicity (a Python int), ascending; no space array is built.

    Grouped by shift, A = sum_s shift_s D_s(F(x)) with F the holonomy forms.
    On each coset x + S of the group S the shifts generate, A acts as the
    block M_y[sigma + s, sigma] = D_s(y + F(sigma)), y = F(x), up to order;
    each y in the image Y of F stands for q^E / (|Y| |S|) cosets.  Blocks
    with equal diagonals are diagonalized once, float64 when `is_real(op)`.
    Refused before the closure of S when its bound q^min(shifts, edges)
    exceeds the cap, and before any (|Y|, |S|) array by bytes.
    """
    space, group, mul = op.space, op.space.group, op.space.group.mul_table()
    terms = [t for t in op.terms if t.coeff != 0]
    if not terms:
        return {0.0: space.dim}
    slot = {s: i for i, s in enumerate(dict.fromkeys(t.shift for t in terms))}
    edges = sorted({e for s in slot for e, _ in s})
    rows = np.array([[dict(s).get(e, 0) for e in edges] for s in slot],
                    dtype=np.uint8).reshape(len(slot), len(edges))
    refuse_above(group.size ** min(len(slot), len(edges)), space.cap, "shift subgroup")
    sub = generated_subgroup(group, rows, len(edges))
    forms = tuple(sorted({f for t in terms for f, _ in t.phases + t.indicators}))
    image = form_image(group, forms, space.cap)
    n_y, n_s = len(image), len(sub)
    real = is_real(op)
    dtype = np.float64 if real else np.complex128
    # the blocks, and under 32 bytes a point for each shift's diagonal twice
    # (grouped, then stacked; later stacked and sorted) and for one term's
    # complex factor
    refuse_above(n_y * n_s * (n_s * np.dtype(dtype).itemsize + 32 * (len(slot) + 1)),
                 PHYSICAL_MEMORY_BYTES, "form spectrum bytes")
    zero = np.zeros(n_s, dtype=np.uint8)
    values = {f: mul[image[:, i, None], holonomy_values(  # y + F(sigma), y-major
        group, lambda e: sub[:, edges.index(e)] if e in edges else zero, n_s, f)].ravel()
        for i, f in enumerate(forms)}
    diags = np.empty((n_y * n_s, len(slot)), dtype=dtype)
    for i, diag in enumerate(shift_diagonals(group, terms, values.__getitem__, real).values()):
        diags[:, i] = diag
    diags = diags.reshape(n_y, n_s, len(slot))
    # sub is sorted and sub + s permutes it, so unique indexes sub + s in sub
    moved = mul[sub[None], rows[:, None]].reshape(len(slot) * n_s, len(edges))
    target = np.unique(moved, axis=0, return_inverse=True)[1].reshape(len(slot), n_s)
    keys = diags.reshape(n_y, -1).view(np.dtype((np.void, diags[0].nbytes)))[:, 0]
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)  # by bytes
    blocks = np.zeros((len(first), n_s, n_s), dtype=dtype)
    for i in range(len(slot)):
        blocks[:, target[i], np.arange(n_s)] = diags[first, :, i]
    vals = np.round(np.linalg.eigvalsh(blocks), 9) + 0.0  # + 0.0 turns -0.0 into 0.0
    levels, where = np.unique(vals, return_inverse=True)
    totals = np.bincount(where.ravel(), np.repeat(counts, n_s)).astype(np.int64).tolist()
    spectrum = {v: n * space.dim // (n_y * n_s) for v, n in zip(levels.tolist(), totals)}
    if sum(spectrum.values()) != space.dim:  # a count was no multiple of |Y| |S|
        raise RuntimeError(f"block counts {totals} do not scale to {space.dim} dimensions")
    return spectrum


def spectrum_lowest(
    model: QuantumDouble,
    k: int,
    boundary: str = "none",
    rng: np.random.Generator | None = None,
) -> EigenBasis:
    """The k lowest eigenvalues of the Hamiltonian, with residuals: up to
    DENSE_EIG_LIMIT dimensions one `eigh` per block size (`_blocks`), of which
    only the k lowest eigenvectors are scattered into columns; LOBPCG above."""
    rng = rng if rng is not None else np.random.default_rng(7)
    h = model.hamiltonian(boundary=boundary)
    dim = model.space.dim
    if dim > DENSE_EIG_LIMIT:
        return subspace_iteration(h, k, rng)
    k = min(k, dim)
    parts = [(idx, *np.linalg.eigh(blocks)) for idx, blocks in _blocks(h, DENSE_EIG_LIMIT)]
    vals = np.concatenate([w.ravel() for _, w, _ in parts])
    lowest = np.argsort(vals, kind="stable")[:k]
    basis = np.zeros((dim, k), dtype=parts[0][2].dtype)
    offset = 0
    for idx, w, v in parts:  # eigenvalue offset + b * size + j is column j of block b
        cols = np.flatnonzero((lowest >= offset) & (lowest < offset + w.size))
        b, j = np.divmod(lowest[cols] - offset, w.shape[1])
        basis[idx[b], cols[:, None]] = v[b, :, j]
        offset += w.size
    resid = np.linalg.norm(h.apply(basis) - basis * vals[lowest][None, :], axis=0)
    return EigenBasis(basis, vals[lowest], resid, "dense")

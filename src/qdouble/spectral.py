"""Ground spaces, low-lying spectra, and charge-sector decompositions.

The spectrum is counted exactly: every term of H and of H^{eps,mu} is a
commuting projector, so each joint eigenspace is labeled by a charge on every
full-star vertex and a flux on every face, and its energy and dimension follow
from those labels (`sector_counts`, `spectrum_counts`).

Vectors come from two routes:

* the ground space is built, not searched for: one gauge-orbit state per
  orbit of flat configurations (`ground_space`), which the test battery
  cross-checks against dense diagonalization and the projector product;
* the lowest k eigenpairs come from a dense `eigh` on small spaces and from
  scipy's LOBPCG on mid-size ones; the residuals ||H v - lambda v|| are
  recomputed and checked against tol * sigma, so unconverged data is never
  returned.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .lattice import boundary_ribbon
from .operators import (
    BOUNDARY_FLAVORS,
    DENSE_EIG_LIMIT,
    PHYSICAL_MEMORY_BYTES,
    Operator,
    QuantumDouble,
    TermOp,
    refuse_above,
)
from .sparse import sparse_apply, squared_norms, to_columns
from .states import frustration_free_state

__all__ = [
    "EigenBasis",
    "ground_dimension_count",
    "ground_space",
    "sector_counts",
    "spectrum_counts",
    "spectrum_lowest",
    "subspace_iteration",
    "sector_dimensions",
    "rayleigh",
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


def rayleigh(op: Operator, psi: np.ndarray) -> tuple[float, float]:
    """(<psi|H|psi>, ||(H - <H>) psi||) for a normalized vector."""
    hpsi = op.apply(psi)
    val = np.vdot(psi, hpsi)
    res = np.linalg.norm(hpsi - val * psi)
    return float(val.real), float(res)


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

    The block starts from k seeded random columns.  The residuals
    ||H v - lambda v|| are recomputed with `op.apply` and must all be below
    tol * sigma, sigma = 1 + sum |coeff| bounding the spectrum (every term is
    scalar x unit-modulus diagonals x permutation).  Raises otherwise;
    unconverged output is never returned.
    """
    # imported here: it adds about 10 MB of RSS to every other route
    from scipy.sparse.linalg import LinearOperator, lobpcg

    space = op.space
    # below 5k rows LOBPCG densifies the operator as A(eye(dim)), dim x dim
    refuse_above(5 * k, space.dim, "LOBPCG rows needed (5 per eigenpair)")
    sigma = 1.0 + float(sum(abs(t.coeff) for t in op.terms))
    a = LinearOperator((space.dim, space.dim), matvec=op.apply, matmat=op.apply,
                       dtype=np.complex128)
    with warnings.catch_warnings():
        # LOBPCG warns when it stops short; the residual check below decides
        warnings.simplefilter("ignore", UserWarning)
        vals, vecs, history = lobpcg(a, space.random_vectors(rng, k), tol=tol * sigma,
                                     largest=False, maxiter=max_iter,
                                     retResidualNormsHistory=True)
    resid = np.linalg.norm(op.apply(vecs) - vecs * vals[None, :], axis=0)
    if not np.all(resid < tol * sigma):
        raise RuntimeError(f"LOBPCG did not converge in {max_iter} iterations; "
                           f"last values {vals}, residuals {resid}")
    return EigenBasis(vecs, vals, resid, "iterative",
                       meta={"iterations": len(history), "sigma": sigma})


def spectrum_lowest(
    model: QuantumDouble,
    k: int,
    boundary: str = "none",
    rng: np.random.Generator | None = None,
    tol: float = 1e-9,
) -> EigenBasis:
    """The k lowest eigenvalues of the Hamiltonian, with residuals."""
    rng = rng if rng is not None else np.random.default_rng(7)
    h = model.hamiltonian(boundary=boundary)
    if model.space.dim <= DENSE_EIG_LIMIT:
        vals, vecs = np.linalg.eigh(h.to_dense(DENSE_EIG_LIMIT))
        k = min(k, len(vals))
        basis = vecs[:, :k]
        hv = h.apply(basis)
        resid = np.linalg.norm(hv - basis * vals[None, :k], axis=0)
        return EigenBasis(basis, vals[:k], resid, "dense")
    return subspace_iteration(h, k, rng, tol=tol)


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

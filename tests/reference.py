"""Brute-force reference implementations used as oracles in the tests.

Everything here works configuration by configuration with plain Python
integers and cmath, with no shared code with the package's operator engine
beyond the lattice geometry (which is the definition of the model, not a
computation).  Ribbon operators are evaluated by walking the triangles in
sequence and mutating a working copy of the configuration, which is an
independent route to the same operator.

Operators are represented as column functions: colfn(j) returns a dict
{row index: amplitude} for basis column j.

The exception is `_projector_ground_basis`, the ground-space oracle: it
applies the package's own commuting projector factors to seed vectors, a
route independent of the gauge-orbit construction that `ground_space` uses.
"""

import cmath
from math import prod

import numpy as np

from qdouble.operators import QuantumDouble, refuse_above
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
    for p in model.ground_projector_factors():
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

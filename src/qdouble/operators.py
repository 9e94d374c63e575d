"""Exact operator engine for quantum double models on group-valued edges.

The Hilbert space is spanned by assignments of a group element to every
edge.  Every operator of the model is a finite sum of *terms*, where a term
acts on a basis configuration z as

    coeff * prod_i chi_i(F_i(z)) * prod_j [G_j(z) == u_j] * |z + t>

with F_i, G_j integer-weighted sums of edge variables (holonomies), chi_i
characters, and t a fixed pattern of group shifts.  Terms are closed under
products and adjoints, so compositions of stars, plaquettes, and ribbon
operators never leave the class and all scalar factors produced along the
way come from exact character evaluations.  Characters are packed indices
throughout: they multiply and invert through the group's element tables
and are evaluated only through its character table (`Group.char_values`),
so the term algebra, the dense and the sparse engine build no character
objects.

Dense application rolls the tensor view of a vector and multiplies it by
diagonals that broadcast over the edges they do not read; the space
dimension |G|^edges is capped (override deliberately for big instances).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import lcm

import numpy as np

from .groups import Character, Group, GroupElement, GroupError, Phase
from .lattice import Region, Ribbon, boundary_ribbon

__all__ = [
    "DimensionCapError",
    "HilbertSpace",
    "Term",
    "Operator",
    "TermOp",
    "SumOp",
    "ProductOp",
    "ScaledOp",
    "QuantumDouble",
    "form_image",
    "sparse_matrix",
    "shift_diagonals",
    "is_real",
]

BOUNDARY_FLAVORS = ("none", "eps", "mu", "eps_mu")  # boundary charges H may subtract

# ---------------------------------------------------------------------------
# size policy: every limit on what a computation may allocate or enumerate.
# Each refusal raises DimensionCapError before the allocation it prevents.

DEFAULT_DIM_CAP = 1 << 26  # dense vectors over |G|^E configurations
UNSAFE_DIM_CAP = 1 << 60  # the cap under --unsafe-cap
DENSE_MATRIX_LIMIT = 1 << 12  # to_dense and sparse_matrix default
DENSE_EIG_LIMIT = 8192  # dense diagonalization in spectrum_lowest
MIXTURE_SUPPORT_LIMIT = 1 << 22  # rows of the ground seed, uniform mixture and rank families
COMPOSE_TERM_LIMIT = 4096  # largest term product `@` expands exactly
# measured, not set: no dense vector may outgrow the machine's physical memory
PHYSICAL_MEMORY_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class DimensionCapError(RuntimeError):
    """Raised when a computation would exceed a limit of the size policy."""


def refuse_above(size: int, limit: int, what: str) -> None:
    """Raise DimensionCapError when the `size` of `what` exceeds `limit`."""
    if size > limit:
        raise DimensionCapError(f"{what}: {size} exceeds the limit {limit}")


# ---------------------------------------------------------------------------
# canonical term data


def _canon_shift(group: Group, items) -> tuple:
    """Combine (edge, element_index) contributions into a sorted shift tuple."""
    acc: dict[int, int] = {}
    mul = group.mul_table()
    for edge, g in items:
        acc[edge] = int(mul[acc.get(edge, 0), g])
    return tuple((e, g) for e, g in sorted(acc.items()) if g != 0)


def _canon_form(group: Group, items) -> tuple:
    """Combine (edge, weight) contributions into a sorted holonomy form."""
    L = lcm(*group.orders)
    acc: dict[int, int] = {}
    for edge, c in items:
        acc[edge] = (acc.get(edge, 0) + c) % L
    return tuple((e, c) for e, c in sorted(acc.items()) if c != 0)


def holonomy_values(group: Group, column, n: int, form: tuple) -> np.ndarray:
    """Packed group value of a holonomy form on n configurations, where
    `column(edge)` gives the (n,) uint8 digits of one edge; with n = 1 the
    digits may be tensors that broadcast against each other instead."""
    mul, power = group.mul_table(), group.pow_table()
    acc = np.zeros(n, dtype=np.uint8)
    for edge, c in form:
        d = column(edge)
        if c != 1:
            d = power[c % len(power)][d]
        acc = mul[acc, d]
    return acc


def _form_on_shift(group: Group, form: tuple, shift: tuple) -> int:
    """Evaluate a holonomy form on a constant shift pattern; a group index."""
    tmap = dict(shift)
    acc = 0
    mul, power = group.mul_table(), group.pow_table()
    for edge, c in form:
        if edge in tmap:
            acc = int(mul[acc, power[c % len(power), tmap[edge]]])
    return acc


def generated_subgroup(group: Group, generators, width: int) -> np.ndarray:
    """The subgroup of G^width that the (width,) uint8 rows `generators`
    generate, as its distinct rows in ascending order: the closure of {e}
    under every power of one generator at a time."""
    mul, power = group.mul_table(), group.pow_table()
    image = np.zeros((1, width), dtype=np.uint8)
    for h in generators:
        if not (image == h).all(axis=1).any():
            # the image times every power of h
            image = np.unique(mul[image[:, None, :], power[:, h][None]].reshape(-1, width), axis=0)
    return image


def form_image(group: Group, forms, cap: int) -> np.ndarray:
    """Every distinct tuple of values the holonomy `forms` take on
    configurations: one row per tuple of an (n, len(forms)) uint8 array of
    packed group indices, in ascending order.

    Together the k forms are a homomorphism from G^E to G^k, so the tuples
    are its image, a subgroup: the one generated by the images of one
    generator of G placed on one edge at a time.  Refused when the bound
    q^min(k, edges) on its size exceeds `cap`.
    """
    edges = sorted({e for form in forms for e, _ in form})
    refuse_above(group.size ** min(len(forms), len(edges)), cap, "holonomy form image")
    generators = (np.array([_form_on_shift(group, form, ((edge, int(g)),)) for form in forms],
                           dtype=np.uint8)
                  for edge in edges
                  for g in np.cumprod((1,) + group.orders[:-1]))  # one per cyclic factor
    return generated_subgroup(group, generators, len(forms))


def _neg_shift(group: Group, shift: tuple) -> tuple:
    inv = group.inv_table()
    return tuple((e, int(inv[g])) for e, g in shift)


def _merge_phases(group: Group, phases) -> tuple:
    """Canonical phases: the characters of each form multiplied together."""
    mul = group.mul_table()  # characters multiply as packed elements do
    acc: dict[tuple, int] = {}
    for form, chi in phases:
        acc[form] = int(mul[acc.get(form, 0), chi])
    return tuple((f, c) for f, c in sorted(acc.items()) if c != 0)


@dataclass(frozen=True)
class Term:
    """One summand: scalar x characters of holonomies x indicators x shift."""

    coeff: complex
    shift: tuple = ()
    phases: tuple = ()  # ((form, character_index), ...)
    indicators: tuple = ()  # ((form, target_element_index), ...)

    @property
    def key(self) -> tuple:
        return (self.shift, self.phases, self.indicators)


def _compose_terms(group: Group, s: Term, t: Term) -> Term | None:
    """The term acting as 'first t, then s'; None when indicators clash."""
    coeff = s.coeff * t.coeff
    for form, chi in s.phases:
        k = _form_on_shift(group, form, t.shift)
        if k:
            coeff *= complex(group.char_values(chi)[k])  # keeps a Python complex coeff
    indicators: dict[tuple, int] = dict(t.indicators)
    mul = group.mul_table()
    inv = group.inv_table()
    for form, target in s.indicators:
        k = _form_on_shift(group, form, t.shift)
        shifted_target = int(mul[target, inv[k]])
        if form in indicators and indicators[form] != shifted_target:
            return None
        indicators[form] = shifted_target
    shift = _canon_shift(group, list(t.shift) + list(s.shift))
    return Term(
        coeff,
        shift,
        _merge_phases(group, t.phases + s.phases),
        tuple(sorted(indicators.items())),
    )


def _adjoint_term(group: Group, t: Term) -> Term:
    coeff = np.conj(t.coeff)
    inv = group.inv_table()
    phases = []
    for form, chi in t.phases:
        k = _form_on_shift(group, form, t.shift)
        if k:
            coeff *= group.char_values(chi)[k]
        phases.append((form, int(inv[chi])))
    mul = group.mul_table()
    indicators = []
    for form, target in t.indicators:
        k = _form_on_shift(group, form, t.shift)
        indicators.append((form, int(mul[target, k])))
    return Term(
        coeff,
        _neg_shift(group, t.shift),
        _merge_phases(group, phases),
        tuple(sorted(indicators)),
    )


def term_factor(group: Group, term: Term, values) -> np.ndarray | None:
    """The diagonal factor of a term, without its coefficient, on n points
    where `values(form)` gives the (n,) packed group values of each holonomy
    form; None when the term has no phases or indicators."""
    diag = None
    for form, chi in term.phases:
        factor = group.char_values(chi)[values(form)]
        diag = factor if diag is None else diag * factor
    for form, target in term.indicators:
        mask = values(form) == target
        diag = mask.astype(np.complex128) if diag is None else diag * mask
    return diag


def shift_diagonals(group: Group, terms, values, real: bool = False) -> dict:
    """Grouped by shift, a sum of terms is sum_s shift_s D_s with D_s
    diagonal: {s: D_s} in order of first appearance, where `values(form)`
    gives the (n,) packed group values of each holonomy form on n points.
    D_s sums coeff * term_factor over its terms in term order, a scalar
    where none of them has a diagonal factor; float64, with each term's
    real part, when `real`."""
    diags: dict[tuple, object] = {}
    for t in terms:
        if t.coeff != 0:
            d = term_factor(group, t, values)  # a fresh array, scaled in place
            d = t.coeff if d is None else np.multiply(t.coeff, d, out=d)
            diags[t.shift] = diags.get(t.shift, 0) + (d.real if real else d)
    return diags


# ---------------------------------------------------------------------------
# the Hilbert space and dense application


class HilbertSpace:
    """Group-valued configurations of `num_edges` edges and dense application.

    A dense vector is read through its C-order tensor view `shape`, one axis
    per (edge, cyclic factor): edge e factor i is axis (E-1-e)*r + (r-1-i),
    where the packed index puts that digit; a batch adds a trailing axis.
    Shifts roll the sub-axes of their edges, and diagonals are small tensors
    that broadcast over the axes their forms do not read.
    """

    def __init__(self, group: Group, num_edges: int, cap: int = DEFAULT_DIM_CAP):
        self.group = group
        self.cap = cap
        self.q = group.size
        self.num_edges = num_edges
        self.dim = self.q ** self.num_edges
        # every axis has size >= 2, so a vector the byte refusal admits has at
        # most log2(PHYSICAL_MEMORY_BYTES / 16) axes, plus one for a batch: 29
        # on an 8 GB machine, under numpy's limit of 64 (32 before numpy 2);
        # no edges make one configuration on one axis, which np.roll needs
        self.shape = group.orders[::-1] * num_edges or (1,)

    def require_dense(self, what: str = "dense computation"):
        refuse_above(self.dim, self.cap, f"{what} dimension")
        refuse_above(16 * self.dim, PHYSICAL_MEMORY_BYTES, f"{what} bytes per complex vector")

    def require_acts_on(self, group: Group, num_edges: int):
        """Refuse a state of another group or edge count than this space's."""
        group.require_same(self.group)
        if num_edges != self.num_edges:
            raise ValueError(f"operator on {self.num_edges} edges, state on {num_edges}")

    # ---- configuration indexing ----

    @property
    def radix(self) -> np.ndarray:
        """q**e for every edge e: a configuration's dense index is its digits
        dotted with these."""
        self.require_dense("configuration index")
        return self.q ** np.arange(self.num_edges, dtype=np.int64)

    def basis_index(self, digits) -> int:
        return int(np.asarray(digits, dtype=np.int64) @ self.radix)

    def digit_array(self, edge: int) -> np.ndarray:
        """Packed digit of one edge on the tensor view: a uint8 tensor of
        size 1 on every axis of `shape` but the edge's own sub-axes."""
        self.require_dense("digit array")
        r = self.group.rank
        axes = [1] * len(self.shape)
        axes[(self.num_edges - 1 - edge) * r:(self.num_edges - edge) * r] = self.group.orders[::-1]
        return np.arange(self.q, dtype=np.uint8).reshape(axes)

    def _roll(self, shift: tuple) -> tuple[tuple, tuple]:
        """The (steps, axes) of `np.roll` that move the tensor view by a shift."""
        r = self.group.rank
        steps, axes = [], []
        for edge, g in shift:
            for i, n in enumerate(self.group.orders):
                g, d = divmod(g, n)
                if d:
                    steps.append(d)
                    axes.append((self.num_edges - 1 - edge) * r + r - 1 - i)
        return tuple(steps), tuple(axes)

    def form_values(self, form: tuple) -> np.ndarray:
        """Packed group value of a holonomy form on every basis index."""
        self.require_dense("holonomy table")
        values = holonomy_values(self.group, self.digit_array, 1, form)
        return np.broadcast_to(values, self.shape).ravel()

    def shift_perm(self, shift: tuple) -> np.ndarray:
        """Index permutation P with P[i] = index(config(i) + shift), in intp,
        the index type scipy and np.take work in."""
        self.require_dense("shift permutation")
        steps, axes = self._roll(_neg_shift(self.group, shift))
        return np.roll(np.arange(self.dim, dtype=np.intp).reshape(self.shape), steps, axes).ravel()

    def apply_terms(self, terms, psi: np.ndarray) -> np.ndarray:
        """Apply a sum of terms to a vector or a (dim, k) batch of columns.

        A term sends psi to out[z + t] = a(z) psi(z): psi rolled by t, times
        the diagonal a read on the digits of z - t.  Each term rolls psi into
        one fresh array and scales it in place, so a sum of terms holds the
        output and one term besides its input.
        """
        self.require_dense("operator application")
        psi = np.asarray(psi, dtype=np.complex128)
        if psi.shape[0] != self.dim:
            raise ValueError(f"vector length {psi.shape[0]} != dim {self.dim}")
        view = psi.reshape(self.shape + psi.shape[1:])
        mul, out = self.group.mul_table(), None
        for term in terms:
            if term.coeff == 0:
                continue
            back = dict(_neg_shift(self.group, term.shift))
            diag = term_factor(self.group, term, lambda form: holonomy_values(
                self.group, lambda e: mul[self.digit_array(e), back.get(e, 0)], 1, form))
            buf = np.roll(view, *self._roll(term.shift))
            if diag is not None:
                diag *= term.coeff  # term_factor returns a fresh array
                buf *= diag[..., None] if psi.ndim > 1 else diag
            elif term.coeff != 1:
                buf *= term.coeff
            if out is None:
                out = buf
            else:
                out += buf
            del buf  # freed before the next term rolls psi
        if out is None:
            return np.zeros(psi.shape, dtype=np.complex128)
        return out.reshape(psi.shape)

    def random_vectors(self, rng: np.random.Generator, k: int = 1,
                       real: bool = False) -> np.ndarray:
        self.require_dense("random probe")
        v = rng.standard_normal((self.dim, k))
        if not real:
            v = v + 1j * rng.standard_normal((self.dim, k))
        v /= np.linalg.norm(v, axis=0, keepdims=True)
        return v

    def basis_vector(self, digits) -> np.ndarray:
        self.require_dense("basis vector")
        v = np.zeros(self.dim, dtype=np.complex128)
        v[self.basis_index(digits)] = 1.0
        return v


# ---------------------------------------------------------------------------
# operator wrappers


class Operator:
    """Anything that can be applied to vectors on a fixed space."""

    space: HilbertSpace

    def apply(self, psi: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self) -> "Operator":
        raise NotImplementedError

    def __matmul__(self, other: "Operator") -> "Operator":
        if isinstance(self, TermOp) and isinstance(other, TermOp):
            if len(self.terms) * len(other.terms) <= COMPOSE_TERM_LIMIT:
                return self.compose(other)
        return ProductOp(self.space, [self, other])

    def __add__(self, other: "Operator") -> "Operator":
        if isinstance(self, TermOp) and isinstance(other, TermOp):
            return TermOp(self.space, self.terms + other.terms).simplify()
        return SumOp(self.space, [self, other])

    def __sub__(self, other: "Operator") -> "Operator":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "Operator":
        return self.scaled(complex(scalar))

    def scaled(self, scalar: complex) -> "Operator":
        return ScaledOp(self.space, scalar, self)

    def to_dense(self, max_dim: int = DENSE_MATRIX_LIMIT) -> np.ndarray:
        """The dense matrix: float64 when `is_real(self)`, else complex."""
        return sparse_matrix(self, max_dim).toarray()


class TermOp(Operator):
    """A finite sum of exact terms; the workhorse representation."""

    def __init__(self, space: HilbertSpace, terms):
        self.space = space
        self.terms = tuple(terms)

    def apply(self, psi):
        return self.space.apply_terms(self.terms, psi)

    def adjoint(self) -> "TermOp":
        g = self.space.group
        return TermOp(self.space, [_adjoint_term(g, t) for t in self.terms])

    def compose(self, other: "TermOp") -> "TermOp":
        g = self.space.group
        out = []
        for s in self.terms:
            for t in other.terms:
                c = _compose_terms(g, s, t)
                if c is not None:
                    out.append(c)
        return TermOp(self.space, out).simplify()

    def scaled(self, scalar: complex) -> "TermOp":
        return TermOp(
            self.space, [Term(scalar * t.coeff, t.shift, t.phases, t.indicators) for t in self.terms]
        )

    def simplify(self) -> "TermOp":
        acc: dict[tuple, complex] = {}
        for t in self.terms:
            acc[t.key] = acc.get(t.key, 0) + t.coeff
        kept = [
            Term(c, *key)
            for key, c in acc.items()
            if c != 0
        ]
        return TermOp(self.space, kept)

    def __len__(self):
        return len(self.terms)


class SumOp(Operator):
    def __init__(self, space: HilbertSpace, parts):
        self.space = space
        self.parts = list(parts)

    def apply(self, psi):
        out = self.parts[0].apply(psi)
        for p in self.parts[1:]:
            out = out + p.apply(psi)
        return out

    def adjoint(self):
        return SumOp(self.space, [p.adjoint() for p in self.parts])


class ProductOp(Operator):
    """Factors applied right to left, never expanded."""

    def __init__(self, space: HilbertSpace, factors):
        self.space = space
        self.factors = list(factors)

    def apply(self, psi):
        out = psi
        for f in reversed(self.factors):
            out = f.apply(out)
        return out

    def adjoint(self):
        return ProductOp(self.space, [f.adjoint() for f in reversed(self.factors)])


class ScaledOp(Operator):
    def __init__(self, space: HilbertSpace, scalar: complex, op: Operator):
        self.space = space
        self.scalar = scalar
        self.op = op

    def apply(self, psi):
        return self.scalar * self.op.apply(psi)

    def adjoint(self):
        return ScaledOp(self.space, np.conj(self.scalar), self.op.adjoint())


def sparse_matrix(op: Operator, max_dim: int = DENSE_MATRIX_LIMIT):
    """The exact matrix of an operator as a scipy CSC matrix, float64 when
    `is_real(op)` and complex otherwise.

    Grouped by shift, a TermOp is A = sum_s shift_s D_s (`shift_diagonals`):
    column j holds D_s[j] at row shift_perm(s)[j], and distinct shifts send
    j to distinct rows, so nothing needs summing.  That costs O(terms x dim)
    and no dense (dim, dim) product; sums add and products multiply these
    matrices.  Refused above `max_dim` and when the entries outgrow physical
    memory.
    """
    from scipy.sparse import csc_matrix

    space = op.space
    dim = space.dim
    refuse_above(dim, max_dim, "matrix dimension")
    if isinstance(op, TermOp):
        n, real = len({t.shift for t in op.terms if t.coeff != 0}), is_real(op)
        dtype = np.dtype(np.float64 if real else np.complex128)
        # each entry's value twice (its shift's diagonal, then the matrix) and
        # 12 bytes for its row, 28 bytes real and 44 complex, and under 64 a
        # column for one term's diagonal or permutation; rows and indptr are
        # int32 where they fit and scipy keeps them, so 12 over-counts by 8
        refuse_above(dim * ((2 * dtype.itemsize + 12) * n + 64), PHYSICAL_MEMORY_BYTES,
                     "sparse matrix bytes")
        index = np.int32 if dim * n < 2**31 else np.intp
        vals, rows = np.empty((dim, n), dtype=dtype), np.empty((dim, n), dtype=index)
        diags = shift_diagonals(space.group, op.terms, space.form_values, real)
        for i, (s, diag) in enumerate(diags.items()):
            vals[:, i] = diag
            rows[:, i] = space.shift_perm(s)
        indptr = n * np.arange(dim + 1, dtype=index)
        return csc_matrix((vals.ravel(), rows.ravel(), indptr), shape=(dim, dim))
    if isinstance(op, SumOp):
        out = sparse_matrix(op.parts[0], max_dim)
        for p in op.parts[1:]:
            out = out + sparse_matrix(p, max_dim)
        return out
    if isinstance(op, ProductOp):
        out = sparse_matrix(op.factors[0], max_dim)
        for f in op.factors[1:]:
            out = out @ sparse_matrix(f, max_dim)
        return out
    if isinstance(op, ScaledOp):
        scalar = complex(op.scalar)
        return (scalar.real if scalar.imag == 0 else scalar) * sparse_matrix(op.op, max_dim)
    raise TypeError(f"no sparse matrix for {type(op).__name__}")


def _conjugate_key(group: Group, key: tuple) -> tuple:
    """Key of the term whose matrix is the entrywise conjugate of the keyed one's."""
    shift, phases, indicators = key
    inv = group.inv_table()
    return (shift, tuple(sorted((f, int(inv[chi])) for f, chi in phases)), indicators)


def is_real(op: Operator) -> bool:
    """Whether the operator's matrix is real, decided in the term algebra.

    Conjugating a term conjugates its coefficient and inverts its characters
    (conj chi = chi^-1) and keeps its shift and indicators, so a TermOp is
    real when its simplified terms are closed under that map.  Coefficients
    are compared exactly: an operator whose conjugate pairs differ by
    rounding counts as complex, which is never wrong.
    """
    if isinstance(op, TermOp):
        group = op.space.group
        coeffs = {t.key: t.coeff for t in op.simplify().terms}
        return all(
            coeffs.get(_conjugate_key(group, key)) == np.conj(c)
            for key, c in coeffs.items()
        )
    if isinstance(op, SumOp):
        return all(is_real(p) for p in op.parts)
    if isinstance(op, ProductOp):
        return all(is_real(f) for f in op.factors)
    if isinstance(op, ScaledOp):
        return complex(op.scalar).imag == 0 and is_real(op.op)
    raise TypeError(f"no realness test for {type(op).__name__}")


# ---------------------------------------------------------------------------
# the model


class QuantumDouble:
    """Stars, plaquettes, ribbon operators, and Hamiltonians for one region."""

    def __init__(self, group: Group, region: Region, cap: int = DEFAULT_DIM_CAP):
        self.group = group
        self.region = region
        self.space = HilbertSpace(group, region.num_edges, cap=cap)

    # ---- little helpers ----

    def _g_idx(self, g) -> int:
        return self._label(g, GroupElement, "element")

    def _chi_idx(self, chi) -> int:
        return self._label(chi, Character, "character")

    def _label(self, x, kind: type, what: str) -> int:
        """The packed index of an element or character of this group, or of an
        integer index in [0, |G|); GroupError for anything else."""
        if isinstance(x, kind):
            self.group.require_same(x.group)
            return x.index
        i = int(x)
        if not 0 <= i < self.group.size:
            raise GroupError(f"{what} index {i} out of range for {self.group}")
        return i

    def _chibar_idx(self, chi) -> int:
        """Packed index of the conjugate (inverse) character."""
        return int(self.group.inv_table()[self._chi_idx(chi)])

    def _signed_shift(self, signed_edges, g) -> tuple:
        """The shift by g on the +1 edges and g^-1 on the -1 edges of
        (edge_id, sign) pairs."""
        gi, inv = self._g_idx(g), self.group.inv_table()
        return _canon_shift(self.group, [(eid, gi if sign > 0 else int(inv[gi]))
                                         for eid, sign in signed_edges])

    def _shift_average(self, shifts, chi) -> TermOp:
        """(1/|G|) sum_g conj(chi)(g) shift_g, shifts[g] the shift of g;
        exactly [chi = 1] I where every shift is empty."""
        if not any(shifts):
            return self.identity() if self._chi_idx(chi) == 0 else TermOp(self.space, [])
        q, conj = self.group.size, self.group.char_values(self._chibar_idx(chi))
        return TermOp(self.space, [Term(complex(conj[g]) / q, s)
                                   for g, s in enumerate(shifts)]).simplify()

    def identity(self) -> TermOp:
        return TermOp(self.space, [Term(1.0)])

    # ---- stars ----

    def star_shift(self, vertex, g) -> TermOp:
        """A_v^g: multiply outgoing star edges by g and incoming ones by g^-1."""
        shift = self._signed_shift(self.region.star_edges(vertex), g)
        return TermOp(self.space, [Term(1.0, shift)])

    def star(self, vertex) -> TermOp:
        """The gauge average A_v = (1/|G|) sum_g A_v^g, a projector."""
        return self.vertex_charge(vertex, 0)

    def vertex_charge(self, vertex, chi) -> TermOp:
        """Projector onto the sector where A_v^g acts as chi(g)."""
        star = self.region.star_edges(vertex)
        shifts = [self._signed_shift(star, g) for g in range(self.group.size)]
        return self._shift_average(shifts, chi)

    # ---- plaquettes ----

    def _face_form(self, face) -> tuple:
        return _canon_form(self.group, self.region.face_boundary_ids(face))

    def plaquette_indicator(self, face, h) -> TermOp:
        """B_f^h: keep configurations whose CCW holonomy around f equals h."""
        hi = self._g_idx(h)
        return TermOp(self.space, [Term(1.0, (), (), ((self._face_form(face), hi),))])

    def plaquette(self, face) -> TermOp:
        return self.plaquette_indicator(face, 0)

    # ---- ribbon operators ----

    def _ribbon_data(self, ribbon: Ribbon, c) -> tuple[tuple, tuple]:
        shift = self._signed_shift(ribbon.dual_part(), c)
        return _canon_form(self.group, ribbon.direct_part()), shift

    def ribbon_char(self, ribbon: Ribbon, chi, c) -> TermOp:
        """F^{chi,c}: conj(chi) of the direct-path holonomy, then shift the
        crossed edges by c to the exit side."""
        chibar = self._chibar_idx(chi)
        form, shift = self._ribbon_data(ribbon, c)
        phases = ((form, chibar),) if (form and chibar) else ()
        return TermOp(self.space, [Term(1.0, shift, phases, ())])

    def ribbon_element(self, ribbon: Ribbon, g, c) -> TermOp:
        """The indicator flavor: project the direct holonomy onto g, then shift."""
        gi = self._g_idx(g)
        form, shift = self._ribbon_data(ribbon, c)
        indicators = ((form, gi),) if form else ()
        if not indicators and gi != 0:
            return TermOp(self.space, [])
        return TermOp(self.space, [Term(1.0, shift, (), indicators)])

    def crossing_phase(self, rib1: Ribbon, chi, c, rib2: Ribbon, xi, d) -> Phase:
        """Exact scalar s with F_rib1 F_rib2 = s F_rib2 F_rib1, from the
        holonomy each direct path picks up on the other's shift."""
        g = self.group
        form1, shift1 = self._ribbon_data(rib1, c)
        form2, shift2 = self._ribbon_data(rib2, d)
        k1 = _form_on_shift(g, form1, shift2)
        k2 = _form_on_shift(g, form2, shift1)
        exponents = g._exponents()
        k = exponents[self._chibar_idx(chi), k1] + exponents[self._chi_idx(xi), k2]
        return Phase.of(int(k), lcm(*g.orders))

    # ---- global charge detectors ----

    def gauge_shift(self, g) -> tuple:
        """The shift of T_g, the star shift A_v^g at every full-star vertex at
        once."""
        return self._signed_shift([e for v in self.region.interior_vertices()
                                   for e in self.region.star_edges(v)], g)

    def total_charge_projector(self, chi) -> TermOp:
        """Projector onto total gauge charge chi over the full-star vertices:
        (1/|G|) sum_g conj(chi)(g) T_g; exactly [chi = 1] I where every T_g
        is the empty shift."""
        return self._shift_average([self.gauge_shift(g) for g in range(self.group.size)], chi)

    def total_flux_form(self) -> tuple:
        """The holonomy form of the total flux, the product of every face's
        holonomy: on a free patch the boundary holonomy, on a torus empty."""
        return _canon_form(self.group, [item for f in self.region.faces()
                                        for item in self.region.face_boundary_ids(f)])

    def total_flux_projector(self, c) -> TermOp:
        """Projector onto total flux c through the region's plaquettes,
        (1/|G|) sum_chi chi(c) conj(chi)(total flux); exactly [c = e] I where
        the total flux form is empty."""
        q = self.group.size
        ci = self._g_idx(c)
        form = self.total_flux_form()
        if not form:
            return self.identity() if ci == 0 else TermOp(self.space, [])
        inv = self.group.inv_table()
        terms = [Term(complex(self.group.char_values(chi)[ci]) / q, (),
                      ((form, int(inv[chi])),) if chi else ())
                 for chi in range(q)]
        return TermOp(self.space, terms).simplify()

    def sector_projector(self, chi, c) -> TermOp:
        return self.total_charge_projector(chi).compose(self.total_flux_projector(c))

    def detector_eps(self) -> TermOp:
        """I minus the trivial-total-charge projector."""
        return (self.identity() - self.total_charge_projector(0)).simplify()

    def detector_mu(self) -> TermOp:
        """I minus the trivial-total-flux projector."""
        return (self.identity() - self.total_flux_projector(0)).simplify()

    # ---- boundary ribbon charges ----

    def boundary_charge_eps(self) -> TermOp:
        """(1/|G|) sum_c (I - F^{iota,c}) along the closed boundary ribbon."""
        return self._boundary_charge(lambda c: (0, c))

    def boundary_charge_mu(self) -> TermOp:
        """(1/|G|) sum_chi (I - F^{chi,e}) along the closed boundary ribbon."""
        return self._boundary_charge(lambda chi: (chi, 0))

    def _boundary_charge(self, labels) -> TermOp:
        """(1/|G|) sum_k (I - F^{labels(k)}) along the closed boundary ribbon."""
        rib = boundary_ribbon(self.region)
        q = self.group.size
        terms = []
        for k in range(q):
            terms.append(Term(1.0 / q))
            terms.extend(self.ribbon_char(rib, *labels(k)).scaled(-1.0 / q).terms)
        return TermOp(self.space, terms).simplify()

    # ---- site charge measurements ----

    def site_charge_projector(self, site, chi, c) -> TermOp:
        """Projector onto charge chi at the site's vertex and flux c on its face."""
        return self.vertex_charge(site.vertex, chi).compose(
            self.plaquette_indicator(site.face, c)
        )

    # ---- Hamiltonians ----

    def hamiltonian(self, boundary: str = "none") -> TermOp:
        """H = sum_v (I - A_v) + sum_f (I - B_f), minus optional boundary charges.

        Stars run over the vertices whose full star lies in the region;
        plaquettes over the region's faces.  `boundary` subtracts the epsilon
        and/or mu boundary charge ('eps', 'mu', 'eps_mu') on free regions, so
        that globally charged states rejoin the kernel and only genuinely
        local excitations cost energy.
        """
        if boundary not in BOUNDARY_FLAVORS:
            raise ValueError(f"unknown boundary flavor {boundary!r}")
        terms = []
        for v in self.region.interior_vertices():
            terms.append(Term(1.0))
            terms.extend(self.star(v).scaled(-1.0).terms)
        for f in self.region.faces():
            terms.append(Term(1.0))
            terms.extend(self.plaquette(f).scaled(-1.0).terms)
        if boundary in ("eps", "eps_mu"):
            terms.extend(self.boundary_charge_eps().scaled(-1.0).terms)
        if boundary in ("mu", "eps_mu"):
            terms.extend(self.boundary_charge_mu().scaled(-1.0).terms)
        return TermOp(self.space, terms).simplify()

"""Exact operator engine for quantum double models on group-valued edges.

The Hilbert space is spanned by assignments of a group element to every
edge.  Every operator of the model is a finite sum of *terms*, where a term
acts on a basis configuration z as

    coeff * prod_i chi_i(F_i(z)) * prod_j [G_j(z) == u_j] * |z + t>

with F_i, G_j integer-weighted sums of edge variables (holonomies), chi_i
characters, and t a fixed pattern of group shifts.  Terms are closed under
products and adjoints, so compositions of stars, plaquettes, and ribbon
operators never leave the class and all scalar factors produced along the
way come from exact character evaluations.

Dense application scatters through cached index permutations; the space
dimension |G|^edges is capped (override deliberately for big instances).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from math import lcm

import numpy as np

from .groups import Character, Group, GroupElement, Phase
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
    "support",
    "restrict",
    "sparse_matrix",
    "is_real",
]

BOUNDARY_FLAVORS = ("none", "eps", "mu", "eps_mu")  # boundary charges H may subtract

# ---------------------------------------------------------------------------
# size policy: every limit on what a computation may allocate or enumerate.
# Each refusal raises DimensionCapError before the allocation it prevents.

DEFAULT_DIM_CAP = 1 << 26  # dense vectors over |G|^E configurations
UNSAFE_DIM_CAP = 1 << 60  # the cap under --unsafe-cap
DENSE_MATRIX_LIMIT = 1 << 12  # to_dense default; dense checks and the H^{eps,mu} spectrum
DENSE_EIG_LIMIT = 8192  # dense diagonalization in spectrum_lowest
PROBE_BATCH_LIMIT = 1 << 22  # above this restricted dimension a probe batch is one column
EIGSH_LIMIT = 1 << 20  # iterative bottom-of-spectrum solves
MIXTURE_SUPPORT_LIMIT = 1 << 22  # configurations of the ground seed or uniform mixture
PERM_CACHE_BYTES = 1_500_000_000  # cached shift permutations per space
FORM_CACHE_ENTRIES = 24  # cached holonomy tables per space
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
    `column(edge)` gives the (n,) uint8 digits of one edge."""
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


def _neg_shift(group: Group, shift: tuple) -> tuple:
    inv = group.inv_table()
    return tuple((e, int(inv[g])) for e, g in shift)


def _merge_phases(group: Group, *phase_lists) -> tuple:
    acc: dict[tuple, int] = {}
    for phases in phase_lists:
        for form, chi_idx in phases:
            if form in acc:
                chi = group.character_from_index(acc[form]) * group.character_from_index(chi_idx)
                acc[form] = chi.index
            else:
                acc[form] = chi_idx
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
    phases = list(t.phases)
    for form, chi_idx in s.phases:
        k = _form_on_shift(group, form, t.shift)
        if k:
            coeff *= group.character_from_index(chi_idx)(group.element_from_index(k)).to_complex()
        phases.append((form, chi_idx))
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
        _merge_phases(group, phases),
        tuple(sorted(indicators.items())),
    )


def _adjoint_term(group: Group, t: Term) -> Term:
    coeff = np.conj(t.coeff)
    phases = []
    for form, chi_idx in t.phases:
        k = _form_on_shift(group, form, t.shift)
        chi = group.character_from_index(chi_idx)
        if k:
            coeff *= chi(group.element_from_index(k)).to_complex()
        phases.append((form, chi.inverse().index))
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


# ---------------------------------------------------------------------------
# the Hilbert space and dense application


class HilbertSpace:
    """Group-valued configurations of `num_edges` edges, with dense-apply caches."""

    def __init__(self, group: Group, num_edges: int, cap: int = DEFAULT_DIM_CAP):
        self.group = group
        self.cap = cap
        self.q = group.size
        self.num_edges = num_edges
        self.dim = self.q ** self.num_edges
        self._form_cache: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._perm_cache: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._perm_bytes = 0

    def require_dense(self, what: str = "dense computation"):
        refuse_above(self.dim, self.cap, f"{what} dimension")
        refuse_above(16 * self.dim, PHYSICAL_MEMORY_BYTES, f"{what} bytes per complex vector")

    # ---- configuration indexing ----

    @property
    def radix(self) -> np.ndarray:
        """q**e for every edge e: a configuration's dense index is its digits
        dotted with these."""
        self.require_dense("configuration index")
        return self.q ** np.arange(self.num_edges, dtype=np.int64)

    def basis_index(self, digits) -> int:
        return int(np.asarray(digits, dtype=np.int64) @ self.radix)

    def config_of(self, index: int) -> tuple[int, ...]:
        return tuple(((index // self.radix) % self.q).tolist())

    def digit_array(self, edge: int) -> np.ndarray:
        """Digit of every basis index at one edge (uint8, built on demand)."""
        self.require_dense("digit array")
        stride = self.q ** edge
        reps = self.dim // (stride * self.q)
        return np.tile(np.repeat(np.arange(self.q, dtype=np.uint8), stride), reps)

    def form_values(self, form: tuple) -> np.ndarray:
        """Packed group value of a holonomy form on every basis index."""
        cached = self._form_cache.get(form)
        if cached is not None:
            self._form_cache.move_to_end(form)
            return cached
        self.require_dense("holonomy table")
        acc = holonomy_values(self.group, self.digit_array, self.dim, form)
        self._form_cache[form] = acc
        while len(self._form_cache) > FORM_CACHE_ENTRIES:
            self._form_cache.popitem(last=False)
        return acc

    def shift_perm(self, shift: tuple) -> np.ndarray:
        """Index permutation P with P[i] = index(config(i) + shift)."""
        cached = self._perm_cache.get(shift)
        if cached is not None:
            self._perm_cache.move_to_end(shift)
            return cached
        self.require_dense("shift permutation")
        mul = self.group.mul_table()
        # intp, the index type np.take works in: an int32 table would be
        # converted to a fresh intp copy on every gather
        perm = np.arange(self.dim, dtype=np.intp)
        for edge, g in shift:
            d = self.digit_array(edge)
            nd = mul[d, g]
            perm += (nd.astype(np.intp) - d) * (self.q ** edge)
        self._perm_cache[shift] = perm
        self._perm_bytes += perm.nbytes
        while self._perm_bytes > PERM_CACHE_BYTES and len(self._perm_cache) > 1:
            _, old = self._perm_cache.popitem(last=False)
            self._perm_bytes -= old.nbytes
        return perm

    def term_diag(self, term: Term) -> np.ndarray | None:
        """The diagonal factor of a term on every basis index, or None."""
        if not term.phases and not term.indicators:
            return None
        diag = None
        for form, chi_idx in term.phases:
            vals = self.group.char_values(self.group.character_from_index(chi_idx))
            factor = vals[self.form_values(form)]
            diag = factor if diag is None else diag * factor
        for form, target in term.indicators:
            mask = self.form_values(form) == target
            diag = mask.astype(np.complex128) if diag is None else diag * mask
        return diag

    def apply_terms(self, terms, psi: np.ndarray) -> np.ndarray:
        """Apply a sum of terms to a vector or a (dim, k) batch of columns."""
        self.require_dense("operator application")
        psi = np.asarray(psi, dtype=np.complex128)
        single = psi.ndim == 1
        if single:
            psi = psi[:, None]
        if psi.shape[0] != self.dim:
            raise ValueError(f"vector length {psi.shape[0]} != dim {self.dim}")
        out = np.zeros(psi.shape, dtype=np.complex128)
        # two work buffers reused across terms: at 2^24 dimensions a fresh
        # temporary per term costs more in page faults than the arithmetic
        work = gathered = None
        for term in terms:
            if term.coeff == 0:
                continue
            diag = self.term_diag(term)
            if diag is None and term.coeff == 1:
                buf = psi
            else:
                if work is None:
                    work = np.empty(psi.shape, dtype=np.complex128)
                if diag is None:
                    buf = np.multiply(psi, term.coeff, out=work)
                else:
                    diag *= term.coeff  # term_diag returns a fresh array
                    buf = np.multiply(diag[:, None], psi, out=work)
            if term.shift:
                # out[z + t] += a(z) psi(z), i.e. gather through the
                # permutation of the negated shift
                perm = self.shift_perm(_neg_shift(self.group, term.shift))
                if gathered is None:
                    gathered = np.empty(psi.shape, dtype=np.complex128)
                # the permutation holds valid indices, so "clip" never
                # clips; it only skips the buffered bounds check of "raise"
                out += np.take(buf, perm, axis=0, out=gathered, mode="clip")
            else:
                out += buf
        return out[:, 0] if single else out

    def random_vectors(self, rng: np.random.Generator, k: int = 1) -> np.ndarray:
        self.require_dense("random probe")
        v = rng.standard_normal((self.dim, k)) + 1j * rng.standard_normal((self.dim, k))
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
        m = sparse_matrix(self, max_dim)
        return (m.real if is_real(self) else m).toarray()


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


# ---------------------------------------------------------------------------
# locality: every operator acts as A_S (x) I, with S its support


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

    The operators share the small space, so its holonomy tables and shift
    permutations are built once for all of them.
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


def sparse_matrix(op: Operator, max_dim: int = DENSE_MATRIX_LIMIT):
    """The exact matrix of an operator as a scipy CSC matrix.

    A term sends basis column j to row shift_perm(shift)[j] with value
    coeff * term_diag[j], so a TermOp costs O(terms x dim) and no dense
    (dim, dim) product; sums add and products multiply these matrices.
    Refused above `max_dim`.
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
            diag = space.term_diag(t)
            vals.append(t.coeff * (np.ones(dim) if diag is None else diag))
            rows.append(space.shift_perm(t.shift))
        cols = np.tile(np.arange(dim), len(rows) - 1)
        entries = (np.concatenate(vals), (np.concatenate(rows), cols))
        # the conversion sums duplicate (row, column) entries
        return coo_matrix(entries, shape=(dim, dim)).tocsc()
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
        return op.scalar * sparse_matrix(op.op, max_dim)
    raise TypeError(f"no sparse matrix for {type(op).__name__}")


def _conjugate_key(group: Group, key: tuple) -> tuple:
    """Key of the term whose matrix is the entrywise conjugate of the keyed one's."""
    shift, phases, indicators = key
    conj = sorted((f, group.character_from_index(chi).inverse().index) for f, chi in phases)
    return (shift, tuple(conj), indicators)


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
        return g.index if isinstance(g, GroupElement) else int(g)

    def _chi(self, chi) -> Character:
        if isinstance(chi, Character):
            return chi
        return self.group.character_from_index(int(chi))

    def identity(self) -> TermOp:
        return TermOp(self.space, [Term(1.0)])

    # ---- stars ----

    def star_shift(self, vertex, g) -> TermOp:
        """A_v^g: multiply outgoing star edges by g and incoming ones by g^-1."""
        gi = self._g_idx(g)
        inv = self.group.inv_table()
        items = [
            (eid, gi if sign > 0 else int(inv[gi]))
            for eid, sign in self.region.star_edges(vertex)
        ]
        return TermOp(self.space, [Term(1.0, _canon_shift(self.group, items))])

    def star(self, vertex) -> TermOp:
        """The gauge average A_v = (1/|G|) sum_g A_v^g, a projector."""
        q = self.group.size
        terms = []
        for g in range(q):
            terms.extend(self.star_shift(vertex, g).scaled(1.0 / q).terms)
        return TermOp(self.space, terms).simplify()

    def vertex_charge(self, vertex, chi) -> TermOp:
        """Projector onto the sector where A_v^g acts as chi(g)."""
        q = self.group.size
        chi = self._chi(chi)
        terms = []
        for g in self.group.elements():
            w = chi(g).conjugate().to_complex() / q
            terms.extend(self.star_shift(vertex, g).scaled(w).terms)
        return TermOp(self.space, terms).simplify()

    # ---- plaquettes ----

    def _face_form(self, face) -> tuple:
        return _canon_form(self.group, self.region.face_boundary_ids(face))

    def plaquette_indicator(self, face, h) -> TermOp:
        """B_f^h: keep configurations whose CCW holonomy around f equals h."""
        hi = self._g_idx(h)
        return TermOp(self.space, [Term(1.0, (), (), ((self._face_form(face), hi),))])

    def plaquette(self, face) -> TermOp:
        return self.plaquette_indicator(face, 0)

    def face_flux_phase(self, face, chi) -> TermOp:
        """The diagonal operator conj(chi)(holonomy of f)."""
        chibar = self._chi(chi).inverse()
        if chibar.is_trivial:
            return self.identity()
        return TermOp(self.space, [Term(1.0, (), ((self._face_form(face), chibar.index),), ())])

    # ---- ribbon operators ----

    def _ribbon_data(self, ribbon: Ribbon, c) -> tuple[tuple, tuple]:
        ci = self._g_idx(c)
        inv = self.group.inv_table()
        shift = _canon_shift(
            self.group,
            [
                (eid, ci if s > 0 else int(inv[ci]))
                for eid, s in ribbon.dual_part()
            ],
        )
        form = _canon_form(self.group, ribbon.direct_part())
        return form, shift

    def ribbon_char(self, ribbon: Ribbon, chi, c) -> TermOp:
        """F^{chi,c}: conj(chi) of the direct-path holonomy, then shift the
        crossed edges by c to the exit side."""
        chibar = self._chi(chi).inverse()
        form, shift = self._ribbon_data(ribbon, c)
        phases = ((form, chibar.index),) if (form and not chibar.is_trivial) else ()
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
        chibar = self._chi(chi).inverse()
        xi = self._chi(xi)
        return chibar(g.element_from_index(k1)) * xi(g.element_from_index(k2))

    # ---- global charge detectors ----

    def total_charge_projector(self, chi) -> TermOp:
        """Projector onto total gauge charge chi over the full-star vertices."""
        q = self.group.size
        chi = self._chi(chi)
        verts = self.region.interior_vertices()
        terms = []
        for g in self.group.elements():
            items = []
            for v in verts:
                inv = self.group.inv_table()
                for eid, sign in self.region.star_edges(v):
                    items.append((eid, g.index if sign > 0 else int(inv[g.index])))
            w = chi(g).conjugate().to_complex() / q
            terms.append(Term(w, _canon_shift(self.group, items)))
        return TermOp(self.space, terms).simplify()

    def total_flux_projector(self, c) -> TermOp:
        """Projector onto total flux c through the region's plaquettes."""
        q = self.group.size
        ci = self._g_idx(c)
        faces = self.region.faces()
        terms = []
        for chi in self.group.characters():
            coeff = chi(self.group.element_from_index(ci)).to_complex() / q
            phases = _merge_phases(
                self.group,
                [(self._face_form(f), chi.inverse().index) for f in faces],
            ) if not chi.is_trivial else ()
            terms.append(Term(coeff, (), phases, ()))
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

    def ground_projector_factors(self) -> list[TermOp]:
        """The commuting projectors whose product maps onto the ground space."""
        ops = [self.star(v) for v in self.region.interior_vertices()]
        ops.extend(self.plaquette(f) for f in self.region.faces())
        return ops

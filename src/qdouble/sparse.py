"""Sparse configuration-basis vectors for huge edge Hilbert spaces.

A vector is stored as a matrix of edge digits (one row per basis
configuration with nonzero amplitude) plus the amplitudes.  Stars,
plaquettes, and ribbon operators map single configurations to a handful of
configurations, so states like the frustration-free seed vector or a
ribbon-excited vector keep a support of a few thousand rows even when the
ambient dimension is astronomically large.  Every operator of the term
engine can be applied exactly in this representation; amplitudes only pick
up unit-modulus character values and the term coefficients.

A stack holds a family of states in one: each row carries its part's label
as trailing big-endian bytes after the last edge, a layout only this module
reads or writes.  Terms never address those columns, so one application to
a stack acts on every part at once, and the merge, keyed on whole rows, only
combines rows of the same part.  `grow` applies each of a list of operators
once to a whole stack; `split`, `take_parts`, `join`, `squared_norms`,
`scale_parts` and `to_columns` read, select, join or rescale it part by
part, and `matrix_elements` reads <bra_l|A|ket_l> for every part without
building A's image.  `stack_rank` takes the rank of the matrix whose
columns are the parts from the blocks the stack already encodes, with no
dense column.
"""

from __future__ import annotations

import numpy as np

from .groups import Group
from .operators import (
    Operator,
    ProductOp,
    ScaledOp,
    SumOp,
    PHYSICAL_MEMORY_BYTES,
    Term,
    TermOp,
    holonomy_values,
    refuse_above,
    shift_diagonals,
    term_factor,
)

__all__ = ["SparseState", "sparse_apply", "stack", "stack_rows", "stack_labels", "grow", "split",
           "take_parts", "join", "shift_matches", "matrix_elements", "squared_norms",
           "scale_parts", "to_columns", "stack_rank"]

PRUNE_TOL = 1e-14


class SparseState:
    """A sparse vector over group-valued edge configurations."""

    def __init__(self, group: Group, num_edges: int, digits, amps, merged=False):
        self.group = group
        self.num_edges = num_edges
        self.digits = np.asarray(digits, dtype=np.uint8).reshape(-1, num_edges)
        self.amps = np.asarray(amps, dtype=np.complex128).reshape(-1)
        if self.digits.shape[0] != self.amps.shape[0]:
            raise ValueError("row/amplitude count mismatch")
        if not merged:
            self._merge()

    @classmethod
    def basis_state(cls, group: Group, num_edges: int, digits=None) -> "SparseState":
        if digits is None:
            digits = np.zeros((1, num_edges), dtype=np.uint8)
        return cls(group, num_edges, [digits], [1.0], merged=True)

    def _merge(self):
        if self.digits.shape[0] == 0:
            return
        _, first, inverse = np.unique(row_keys(self.digits), return_index=True, return_inverse=True)
        amps = np.zeros(first.shape[0], dtype=np.complex128)
        np.add.at(amps, inverse, self.amps)
        keep = np.abs(amps) > PRUNE_TOL * max(1.0, np.abs(amps).max(initial=0.0))
        self.digits = self.digits[first[keep]]
        self.amps = amps[keep]

    # ---- linear structure ----

    @property
    def n_configs(self) -> int:
        return self.digits.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "SparseState":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero state")
        return SparseState(self.group, self.num_edges, self.digits, self.amps / n, merged=True)

    def scaled(self, a: complex) -> "SparseState":
        return SparseState(self.group, self.num_edges, self.digits, a * self.amps, merged=True)

    def add(self, other: "SparseState") -> "SparseState":
        if other.num_edges != self.num_edges or other.group is not self.group:
            raise ValueError("states live on different spaces")
        return SparseState(
            self.group,
            self.num_edges,
            np.concatenate([self.digits, other.digits], axis=0),
            np.concatenate([self.amps, other.amps]),
        )

    def dot(self, other: "SparseState") -> complex:
        """<self|other> by matching configurations."""
        _, i, j = np.intersect1d(
            row_keys(self.digits), row_keys(other.digits), assume_unique=True, return_indices=True
        )
        return complex(np.vdot(self.amps[i], other.amps[j]))

    # ---- operator application ----

    def _apply_term(self, term: Term) -> tuple[np.ndarray, np.ndarray]:
        """The rows and amplitudes of one term's image: the term's diagonal,
        as the dense engine takes it, and then its shift; the rows where the
        diagonal is 0 (an indicator fails; a phase never vanishes) are dropped."""
        group = self.group
        diag = term_factor(group, term, lambda form: holonomy_values(
            group, lambda edge: self.digits[:, edge], self.n_configs, form))
        if diag is None:
            digits, amps = self.digits.copy(), term.coeff * self.amps
        else:
            keep = diag != 0
            digits, amps = self.digits[keep], term.coeff * self.amps[keep] * diag[keep]
        return _shift_rows(group, digits, term.shift), amps

    def apply_terms(self, terms) -> "SparseState":
        terms = [t for t in terms if t.coeff != 0]
        # every term's image is held at once and then merged; with the merge's
        # keys, sort and inverse, the peak is 3.4 to 4.2 times the
        # concatenated bytes (tracemalloc, kernel families of Z3 free:3x3 and
        # Z2 free:3x4)
        refuse_above(4 * self.n_configs * len(terms) * (self.num_edges + 16),
                     PHYSICAL_MEMORY_BYTES, "sparse apply bytes")
        rows = [np.zeros((0, self.num_edges), dtype=np.uint8)]
        amps = [np.zeros(0, dtype=np.complex128)]
        for term in terms:
            d, a = self._apply_term(term)
            rows.append(d)
            amps.append(a)
        return SparseState(
            self.group, self.num_edges, np.concatenate(rows, axis=0), np.concatenate(amps)
        )

    def apply(self, op: Operator) -> "SparseState":
        return sparse_apply(op, self)

    # ---- interop ----

    def to_dense(self, space) -> np.ndarray:
        space.require_dense("sparse state densification")
        v = np.zeros(space.dim, dtype=np.complex128)
        v[self.digits @ space.radix] = self.amps  # rows are distinct
        return v

    @classmethod
    def from_dense(cls, space, psi: np.ndarray) -> "SparseState":
        idx = np.nonzero(np.abs(psi) > PRUNE_TOL)[0]
        digits = (idx[:, None] // space.radix) % space.q
        return cls(space.group, space.num_edges, digits, psi[idx])


def _shift_rows(group: Group, digits: np.ndarray, shift: tuple) -> np.ndarray:
    """The rows `digits` moved by `shift`, in place."""
    mul = group.mul_table()
    for edge, g in shift:
        digits[:, edge] = mul[digits[:, edge], g]
    return digits


def row_keys(digits: np.ndarray) -> np.ndarray:
    """One fixed-width void scalar per uint8 digit row.  The keys compare as
    the rows' bytes do, edge 0 first, so they sort as np.unique(axis=0)
    orders the rows at every width."""
    digits = np.ascontiguousarray(digits, dtype=np.uint8)
    return digits.view(np.dtype((np.void, digits.shape[1]))).reshape(-1)


def stack(states) -> SparseState:
    """The stack whose part j holds the rows of states[j], in their order.

    sparse_apply on a stack gives the stack of the per-part results, rows in
    the same order within each part.  The stack's merge prunes below
    PRUNE_TOL times the largest amplitude of all parts, a per-part merge
    below PRUNE_TOL times that part's largest, both at least PRUNE_TOL: the
    two agree exactly whenever every amplitude is at most 1 in modulus, as
    in any normalized state and its image under a contraction.
    """
    states = list(states)
    labels = np.repeat(np.arange(len(states)), [s.n_configs for s in states])
    return _labelled(states[0].group, np.concatenate([s.digits for s in states]),
                     np.concatenate([s.amps for s in states]), labels)


def stack_rows(group: Group, rows: np.ndarray, amps: np.ndarray) -> SparseState:
    """The stack whose part j holds the distinct rows[j] of an
    (n_parts, n, num_edges) digit array, each part with the amplitudes amps."""
    n_parts, n, n_edges = rows.shape
    return _labelled(group, rows.reshape(-1, n_edges), np.tile(amps, n_parts),
                     np.repeat(np.arange(n_parts), n))


def _labelled(group: Group, digits: np.ndarray, amps: np.ndarray, labels: np.ndarray) -> SparseState:
    """Rows of distinct (row, label) pairs, each label appended as w
    big-endian bytes after the last edge, w the fewest that hold them all."""
    width = max(1, -(-int(labels.max(initial=0)).bit_length() // 8))
    tail = np.asarray(labels, dtype=">u8").view(np.uint8).reshape(-1, 8)[:, 8 - width:]
    return SparseState(group, digits.shape[1] + width, np.hstack([digits, tail]), amps, merged=True)


def stack_labels(state: SparseState, num_edges: int) -> np.ndarray:
    """The part label of every row of a stack over num_edges edges, read from
    its big-endian label bytes."""
    tail = state.digits[:, num_edges:].astype(np.int64)
    return tail @ (256 ** np.arange(tail.shape[1] - 1, -1, -1, dtype=np.int64))


def grow(st: SparseState, ops, num_edges: int) -> SparseState:
    """Part j of the stack becomes parts j*(len(ops)+1) + s: s = 0 keeps it
    and s >= 1 is ops[s-1] applied to it, each op applied once to the whole
    stack."""
    pieces = [st] + [sparse_apply(op, st) for op in ops]
    labels = [stack_labels(p, num_edges) * len(pieces) + s for s, p in enumerate(pieces)]
    return _labelled(st.group, np.concatenate([p.digits[:, :num_edges] for p in pieces]),
                     np.concatenate([p.amps for p in pieces]), np.concatenate(labels))


def split(st: SparseState, num_edges: int, n_parts: int) -> list[SparseState]:
    """The parts 0 .. n_parts-1 of a stack as states, rows in stack order."""
    labels = stack_labels(st, num_edges)
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(1, n_parts))
    digits = np.split(st.digits[order, :num_edges], bounds)
    amps = np.split(st.amps[order], bounds)
    return [SparseState(st.group, num_edges, d, a, merged=True) for d, a in zip(digits, amps)]


def take_parts(st: SparseState, num_edges: int, labels) -> SparseState:
    """The stack whose part k holds the rows of part labels[k] of `st`, for
    distinct labels, rows in stack order."""
    old, labels = stack_labels(st, num_edges), np.asarray(labels, dtype=np.int64)
    position = np.full(max(old.max(initial=-1), labels.max(initial=-1)) + 1, -1)
    position[labels] = np.arange(len(labels))
    new = position[old]
    keep = new >= 0
    return _labelled(st.group, st.digits[keep, :num_edges], st.amps[keep], new[keep])


def join(stacks, num_edges: int, n_parts) -> SparseState:
    """The stack of the n_parts[0] parts of stacks[0], then the n_parts[1] of
    stacks[1], and so on, rows in stack order within each part."""
    offsets = np.cumsum([0, *n_parts[:-1]])
    labels = np.concatenate([stack_labels(st, num_edges) + o for st, o in zip(stacks, offsets)])
    order = np.argsort(labels, kind="stable")
    digits = np.concatenate([st.digits[:, :num_edges] for st in stacks])[order]
    amps = np.concatenate([st.amps for st in stacks])[order]
    return _labelled(stacks[0].group, digits, amps, labels[order])


def shift_matches(bra: SparseState, ket: SparseState, shift: tuple):
    """Indices (i, j) of every pair of ket row i and bra row j = ket row i +
    shift, matched on whole rows, label bytes included; all rows of both,
    as slices, when the bra is the ket and the shift is empty."""
    if not shift and bra is ket:
        return slice(None), slice(None)
    moved = _shift_rows(ket.group, ket.digits.copy(), shift)
    _, i, j = np.intersect1d(row_keys(moved), row_keys(bra.digits), assume_unique=True,
                             return_indices=True)
    return i, j


def matrix_elements(op: Operator, bra: SparseState, ket: SparseState, num_edges: int,
                    n_parts: int) -> np.ndarray:
    """<bra_l|A|ket_l> for every label l < n_parts of two stacks of one width.

    A TermOp is A = sum_s shift_s D_s (`shift_diagonals`), so <bra|A|ket> =
    sum_s sum_x conj(bra(x + s)) D_s(x) ket(x) over the ket's rows x: each
    D_s is summed on those rows and each shift matches them against the
    bra's once (`shift_matches`); nothing is merged.  A sum adds its parts,
    a scalar scales, and a product applies its inner factors to the ket
    with `sparse_apply` and evaluates its outermost factor.
    """
    if isinstance(op, TermOp):
        group, n = ket.group, ket.n_configs
        n_shifts = len({t.shift for t in op.terms if t.coeff != 0})
        # 16 bytes a row for each diagonal, the accumulator and a term's two
        # factors, and 5 row widths and 16 bytes a row to match one shift
        refuse_above(n * (16 * (n_shifts + 4) + 5 * ket.num_edges), PHYSICAL_MEMORY_BYTES,
                     "matrix element bytes")
        acc = np.zeros(n, dtype=np.complex128)
        for shift, diag in shift_diagonals(group, op.terms, lambda form: holonomy_values(
                group, lambda edge: ket.digits[:, edge], n, form)).items():
            i, j = shift_matches(bra, ket, shift)
            acc[i] += bra.amps[j].conj() * np.broadcast_to(diag, n)[i] * ket.amps[i]
        labels = stack_labels(ket, num_edges)
        return np.bincount(labels, acc.real, n_parts) + 1j * np.bincount(labels, acc.imag, n_parts)
    if isinstance(op, SumOp):
        return sum(matrix_elements(p, bra, ket, num_edges, n_parts) for p in op.parts)
    if isinstance(op, ProductOp):
        for f in reversed(op.factors[1:]):
            ket = sparse_apply(f, ket)
        return matrix_elements(op.factors[0], bra, ket, num_edges, n_parts)
    if isinstance(op, ScaledOp):
        return op.scalar * matrix_elements(op.op, bra, ket, num_edges, n_parts)
    raise TypeError(f"no matrix elements for {type(op).__name__}")


def squared_norms(st: SparseState, num_edges: int, n_parts: int) -> np.ndarray:
    """<s_l|s_l> for every label l < n_parts of a stack."""
    return np.bincount(stack_labels(st, num_edges), np.abs(st.amps) ** 2, n_parts)


def scale_parts(st: SparseState, num_edges: int, factors: np.ndarray) -> SparseState:
    """The stack with part l scaled by factors[l]."""
    amps = st.amps * factors[stack_labels(st, num_edges)]
    return SparseState(st.group, st.num_edges, st.digits, amps, merged=True)


def to_columns(st: SparseState, space, n_parts: int, dtype) -> np.ndarray:
    """The (dim, n_parts) matrix of `dtype` whose column l is part l; a real
    dtype needs every amplitude real."""
    space.require_dense("stack densification")
    cols = np.zeros((space.dim, n_parts), dtype=dtype)
    if cols.dtype.kind != "c" and np.any(st.amps.imag):
        raise ValueError("a real matrix cannot hold complex amplitudes")
    amps = st.amps if cols.dtype.kind == "c" else st.amps.real
    cols[st.digits[:, :space.num_edges] @ space.radix, stack_labels(st, space.num_edges)] = amps
    return cols


def stack_rank(st: SparseState, num_edges: int, n_parts: int, tol: float) -> int:
    """Numerical rank of the matrix whose column l is part l of a stack: its
    singular values above tol times the largest.

    Configurations and part labels are the two sides of a bipartite graph
    with one edge per stack row.  Each connected component is a block of the
    matrix up to a permutation of rows and columns, so the singular values
    are the union of the blocks'.  Blocks of one shape take one batched SVD,
    and no column is densified.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    if st.n_configs == 0:
        return 0
    _, row = np.unique(row_keys(st.digits[:, :num_edges]), return_inverse=True)
    m = int(row.max()) + 1
    col = m + stack_labels(st, num_edges)  # rows are nodes 0 .. m-1, parts m onwards
    graph = csr_matrix((np.ones(row.size), (row, col)), shape=(m + n_parts, m + n_parts))
    n_blocks, block = connected_components(graph, directed=False)
    n_rows, n_cols = (np.bincount(nodes, minlength=n_blocks) for nodes in (block[:m], block[m:]))
    # a node's index in its block, rows first: a stable sort keeps node order
    order, size = np.argsort(block, kind="stable"), n_rows + n_cols
    at = np.empty(block.size, dtype=np.int64)
    at[order] = np.arange(block.size) - np.repeat(np.cumsum(size) - size, size)
    refuse_above(16 * int(n_rows @ n_cols), PHYSICAL_MEMORY_BYTES, "stack rank block bytes")
    shape = n_rows * (int(n_cols.max()) + 1) + n_cols  # one key per block shape
    entry, slot = shape[block[row]], np.zeros(n_blocks, dtype=np.int64)
    svals = []
    for key in np.unique(entry):
        blocks, sel = np.flatnonzero(shape == key), entry == key
        slot[blocks] = np.arange(blocks.size)  # a block's index among those of its shape
        mats = np.zeros((blocks.size, n_rows[blocks[0]], n_cols[blocks[0]]), dtype=np.complex128)
        r, c = row[sel], col[sel]
        mats[slot[block[r]], at[r], at[c] - n_rows[block[c]]] = st.amps[sel]
        svals.append(np.linalg.svd(mats, compute_uv=False).ravel())
    svals = np.concatenate(svals)
    return int(np.sum(svals > tol * svals.max()))


def sparse_apply(op: Operator, state: SparseState) -> SparseState:
    """Apply any operator tree to a sparse state, staying sparse throughout."""
    if isinstance(op, TermOp):
        return state.apply_terms(op.terms)
    if isinstance(op, SumOp):
        out = sparse_apply(op.parts[0], state)
        for p in op.parts[1:]:
            out = out.add(sparse_apply(p, state))
        return out
    if isinstance(op, ProductOp):
        out = state
        for f in reversed(op.factors):
            out = sparse_apply(f, out)
        return out
    if isinstance(op, ScaledOp):
        return sparse_apply(op.op, state).scaled(op.scalar)
    raise TypeError(f"cannot apply {type(op).__name__} sparsely")

"""Sparse configuration-basis vectors for huge edge Hilbert spaces.

A vector is stored as a matrix of edge digits (one row per basis
configuration with nonzero amplitude) plus the amplitudes.  Stars,
plaquettes, and ribbon operators map single configurations to a handful of
configurations, so states like the frustration-free seed vector or a
ribbon-excited vector keep a support of a few thousand rows even when the
ambient dimension is astronomically large.  Every operator of the term
engine is read as the engine groups it, A = sum_s shift_s D_s
(`operators.shift_diagonals`), with each D_s summed on the state's own rows:
`apply_terms` moves those rows once per shift and merges once, and
`matrix_elements` and `dot` match them once per shift.

A SparseState is a stack of `n_parts` states, a state the stack of one:
each row carries its part's label as big-endian bytes after the last edge,
none for one part, a layout only this module reads or writes.  Terms never
address those bytes, so one application to a stack acts on every part at
once, and the merge, keyed on whole rows, only combines rows of one part.
`grow` applies each of a list of operators once to a whole stack, `stack`
joins stacks, and `labels`, `take_parts`, `split_parts`, `squared_norms`,
`scale_parts` and `to_columns` work on a stack part by part.
`matrix_elements` reads <bra_l|A|ket_l> for every part without building A's
image, and `stack_rank` takes the rank of the matrix whose columns are the
parts from the blocks the stack already encodes, with no dense column.
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
    TermOp,
    holonomy_values,
    refuse_above,
    shift_diagonals,
)

__all__ = ["SparseState", "sparse_apply", "stack", "stack_rows", "grow", "take_parts",
           "split_parts", "shift_matches", "matrix_elements", "squared_norms", "scale_parts",
           "to_columns", "stack_rank"]

PRUNE_TOL = 1e-14


def _label_width(n_parts: int) -> int:
    return -(-(n_parts - 1).bit_length() // 8)  # bytes of a part label, none for one part


class SparseState:
    """A sparse vector over group-valued edge configurations, or a stack of
    n_parts of them (see the module docstring)."""

    def __init__(self, group: Group, num_edges: int, digits, amps, merged=False, n_parts=1):
        self.group, self.num_edges, self.n_parts = group, num_edges, n_parts
        width = num_edges + _label_width(n_parts)
        self.digits = np.asarray(digits, dtype=np.uint8).reshape(-1, width)
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

    @property
    def labels(self) -> np.ndarray:
        """The part label of every row, read from its label bytes."""
        tail = self.digits[:, self.num_edges:].astype(np.int64)
        return tail @ (256 ** np.arange(tail.shape[1] - 1, -1, -1, dtype=np.int64))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "SparseState":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero state")
        return SparseState(self.group, self.num_edges, self.digits, self.amps / n, True,
                           self.n_parts)

    def scaled(self, a: complex) -> "SparseState":
        return SparseState(self.group, self.num_edges, self.digits, a * self.amps, True, self.n_parts)

    def _require_same_space(self, other: "SparseState"):
        self.group.require_same(other.group)
        if (other.num_edges, other.n_parts) != (self.num_edges, self.n_parts):
            raise ValueError("states live on different spaces")

    def add(self, other: "SparseState") -> "SparseState":
        self._require_same_space(other)
        return SparseState(self.group, self.num_edges, np.concatenate([self.digits, other.digits]),
                           np.concatenate([self.amps, other.amps]), n_parts=self.n_parts)

    def dot(self, other: "SparseState") -> complex:
        """<self|other> by matching configurations."""
        self._require_same_space(other)
        i, j = shift_matches(self, other, ())
        return complex(np.vdot(self.amps[j], other.amps[i]))

    # ---- operator application ----

    def _diagonals(self, terms) -> dict:
        """`shift_diagonals` of the terms, read on the state's own rows."""
        group, n = self.group, self.n_configs
        return shift_diagonals(group, terms, lambda form: holonomy_values(
            group, lambda edge: self.digits[:, edge], n, form))

    def apply_terms(self, terms) -> "SparseState":
        """A = sum_s shift_s D_s (`_diagonals`): each shift moves the rows
        where its D_s is nonzero once, and one merge joins the images."""
        terms = [t for t in terms if t.coeff != 0]
        # every shift's image is held at once, then concatenated and freed with
        # the last diagonal before the merge; with the merge's keys, sort and
        # inverse, the peak is 0.1 to 0.9 times this bound, highest for one
        # term (tracemalloc, kernel families of Z3 free:3x3 and Z2 free:3x4)
        refuse_above(4 * self.n_configs * len(terms) * (self.digits.shape[1] + 16),
                     PHYSICAL_MEMORY_BYTES, "sparse apply bytes")
        rows = [np.zeros((0, self.digits.shape[1]), dtype=np.uint8)]
        amps = [np.zeros(0, dtype=np.complex128)]
        for shift, diag in self._diagonals(terms).items():
            if np.ndim(diag):
                keep = diag != 0  # where D_s vanishes, no image
                rows.append(self.digits[keep])
                amps.append(diag[keep] * self.amps[keep])
            else:
                rows.append(self.digits.copy())
                amps.append(diag * self.amps)
            _shift_rows(self.group, rows[-1], shift)
        rows, amps = np.concatenate(rows, axis=0), np.concatenate(amps)
        diag = keep = None
        return SparseState(self.group, self.num_edges, rows, amps, n_parts=self.n_parts)

    def apply(self, op: Operator) -> "SparseState":
        return sparse_apply(op, self)

    # ---- interop ----

    def to_dense(self, space) -> np.ndarray:
        if self.n_parts != 1:
            raise ValueError(f"a stack of {self.n_parts} parts is not one vector")
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


def stack(stacks) -> SparseState:
    """The stack of the parts of stacks[0], then those of stacks[1], and so
    on, rows in stack order within each part; a state is a one-part stack.

    sparse_apply on a stack gives the stack of the per-part results, rows in
    the same order within each part.  The stack's merge prunes below
    PRUNE_TOL times the largest amplitude of all parts, a per-part merge
    below PRUNE_TOL times that part's largest, both at least PRUNE_TOL: the
    two agree exactly whenever every amplitude is at most 1 in modulus, as
    in any normalized state and its image under a contraction.
    """
    stacks = list(stacks)
    offsets = np.cumsum([0] + [st.n_parts for st in stacks])
    labels = np.concatenate([st.labels + o for st, o in zip(stacks, offsets)])
    order = np.argsort(labels, kind="stable")
    digits = np.concatenate([st.digits[:, :st.num_edges] for st in stacks])[order]
    amps = np.concatenate([st.amps for st in stacks])[order]
    return _labelled(stacks[0].group, digits, amps, labels[order], int(offsets[-1]))


def stack_rows(group: Group, rows: np.ndarray, amps: np.ndarray) -> SparseState:
    """The stack whose part j holds the distinct rows[j] of an
    (n_parts, n, num_edges) digit array, each part with the amplitudes amps."""
    n_parts, n, n_edges = rows.shape
    return _labelled(group, rows.reshape(-1, n_edges), np.tile(amps, n_parts),
                     np.repeat(np.arange(n_parts), n), n_parts)


def _labelled(group: Group, digits, amps, labels, n_parts: int) -> SparseState:
    """The stack of n_parts parts whose rows are the distinct (row, label)
    pairs, each label appended as big-endian bytes after the last edge."""
    width = _label_width(n_parts)
    tail = np.asarray(labels, dtype=">u8").view(np.uint8).reshape(-1, 8)[:, 8 - width:]
    return SparseState(group, digits.shape[1], np.hstack([digits, tail]), amps, True, n_parts)


def grow(st: SparseState, ops) -> SparseState:
    """Part j of the stack becomes parts j*(len(ops)+1) + s: s = 0 keeps it
    and s >= 1 is ops[s-1] applied to it, each op applied once to the whole
    stack."""
    pieces = [st] + [sparse_apply(op, st) for op in ops]
    labels = np.concatenate([p.labels * len(pieces) + s for s, p in enumerate(pieces)])
    return _labelled(st.group, np.concatenate([p.digits[:, :st.num_edges] for p in pieces]),
                     np.concatenate([p.amps for p in pieces]), labels, st.n_parts * len(pieces))


def take_parts(st: SparseState, labels) -> SparseState:
    """The stack whose part k holds the rows of part labels[k] of `st`, for
    distinct labels, rows in stack order."""
    position = np.full(st.n_parts, -1)
    position[np.asarray(labels, dtype=np.int64)] = np.arange(len(labels))
    new = position[st.labels]
    keep = new >= 0
    return _labelled(st.group, st.digits[keep, :st.num_edges], st.amps[keep], new[keep],
                     len(labels))


def split_parts(st: SparseState) -> tuple:
    """The parts of a stack as states, in label order, rows in stack order."""
    order = np.argsort(st.labels, kind="stable")
    cuts = np.cumsum(np.bincount(st.labels, minlength=st.n_parts))[:-1]
    pieces = zip(np.split(st.digits[order, :st.num_edges], cuts), np.split(st.amps[order], cuts))
    return tuple(SparseState(st.group, st.num_edges, d, a, True) for d, a in pieces)


def shift_matches(bra: SparseState, ket: SparseState, shift: tuple):
    """Indices (i, j) of every pair of ket row i and bra row j = ket row i +
    shift, matched on whole rows, label bytes included; all rows of both,
    as slices, when the bra is the ket and the shift is empty."""
    if not shift and bra is ket:
        return slice(None), slice(None)
    moved = _shift_rows(ket.group, ket.digits.copy(), shift) if shift else ket.digits
    _, i, j = np.intersect1d(row_keys(moved), row_keys(bra.digits), assume_unique=True,
                             return_indices=True)
    return i, j


def matrix_elements(op: Operator, bra: SparseState, ket: SparseState) -> np.ndarray:
    """<bra_l|A|ket_l> for every part l of two stacks of one layout.

    A TermOp is A = sum_s shift_s D_s (`shift_diagonals`), so <bra|A|ket> =
    sum_s sum_x conj(bra(x + s)) D_s(x) ket(x) over the ket's rows x: each
    D_s is summed on those rows and each shift matches them against the
    bra's once (`shift_matches`); nothing is merged.  A sum adds its parts,
    a scalar scales, and a product applies its inner factors to the ket
    with `sparse_apply` and evaluates its outermost factor.
    """
    bra._require_same_space(ket)
    if isinstance(op, TermOp):
        op.space.require_acts_on(ket.group, ket.num_edges)
        n = ket.n_configs
        n_shifts = len({t.shift for t in op.terms if t.coeff != 0})
        # 16 bytes a row for each diagonal, the accumulator and a term's two
        # factors, and 5 row widths and 16 bytes a row to match one shift
        refuse_above(n * (16 * (n_shifts + 4) + 5 * ket.digits.shape[1]), PHYSICAL_MEMORY_BYTES,
                     "matrix element bytes")
        acc = np.zeros(n, dtype=np.complex128)
        for shift, diag in ket._diagonals(op.terms).items():
            i, j = shift_matches(bra, ket, shift)
            acc[i] += bra.amps[j].conj() * np.broadcast_to(diag, n)[i] * ket.amps[i]
        labels, n_parts = ket.labels, ket.n_parts
        return np.bincount(labels, acc.real, n_parts) + 1j * np.bincount(labels, acc.imag, n_parts)
    if isinstance(op, SumOp):
        return sum(matrix_elements(p, bra, ket) for p in op.parts)
    if isinstance(op, ProductOp):
        for f in reversed(op.factors[1:]):
            ket = sparse_apply(f, ket)
        return matrix_elements(op.factors[0], bra, ket)
    if isinstance(op, ScaledOp):
        return op.scalar * matrix_elements(op.op, bra, ket)
    raise TypeError(f"no matrix elements for {type(op).__name__}")


def squared_norms(st: SparseState) -> np.ndarray:
    """<s_l|s_l> for every part l of a stack."""
    return np.bincount(st.labels, np.abs(st.amps) ** 2, st.n_parts)


def scale_parts(st: SparseState, factors: np.ndarray) -> SparseState:
    """The stack with part l scaled by factors[l]."""
    return SparseState(st.group, st.num_edges, st.digits, st.amps * factors[st.labels], True,
                       st.n_parts)


def to_columns(st: SparseState, space, dtype) -> np.ndarray:
    """The (dim, n_parts) matrix of `dtype` whose column l is part l; a real
    dtype needs every amplitude real."""
    space.require_dense("stack densification")
    cols = np.zeros((space.dim, st.n_parts), dtype=dtype)
    if cols.dtype.kind != "c" and np.any(st.amps.imag):
        raise ValueError("a real matrix cannot hold complex amplitudes")
    amps = st.amps if cols.dtype.kind == "c" else st.amps.real
    cols[st.digits[:, :st.num_edges] @ space.radix, st.labels] = amps
    return cols


def stack_rank(st: SparseState, tol: float) -> int:
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
    _, row = np.unique(row_keys(st.digits[:, :st.num_edges]), return_inverse=True)
    m, n_parts = int(row.max()) + 1, st.n_parts
    col = m + st.labels  # rows are nodes 0 .. m-1, parts m onwards
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
        op.space.require_acts_on(state.group, state.num_edges)
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

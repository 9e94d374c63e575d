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
once to a whole stack; `split`, `take_parts`, `overlaps`, `squared_norms`,
`scale_parts` and `to_columns` read, select or rescale it part by part.
"""

from __future__ import annotations

import numpy as np

from .groups import Group
from .operators import (
    Operator,
    ProductOp,
    ScaledOp,
    SumOp,
    Term,
    TermOp,
    holonomy_values,
)

__all__ = ["SparseState", "sparse_apply", "stack", "stack_rows", "stack_labels", "grow", "split",
           "take_parts", "overlaps", "squared_norms", "scale_parts", "to_columns"]

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
        group = self.group
        amps = np.full(self.n_configs, term.coeff, dtype=np.complex128)
        amps *= self.amps
        keep = np.ones(self.n_configs, dtype=bool)

        def column(edge):
            return self.digits[:, edge]

        for form, chi_idx in term.phases:
            vals = group.char_values(group.character_from_index(chi_idx))
            amps = amps * vals[holonomy_values(group, column, self.n_configs, form)]
        for form, target in term.indicators:
            keep &= holonomy_values(group, column, self.n_configs, form) == target
        digits = self.digits[keep].copy()
        amps = amps[keep]
        mul = group.mul_table()
        for edge, g in term.shift:
            digits[:, edge] = mul[digits[:, edge], g]
        return digits, amps

    def apply_terms(self, terms) -> "SparseState":
        rows = [np.zeros((0, self.num_edges), dtype=np.uint8)]
        amps = [np.zeros(0, dtype=np.complex128)]
        for term in terms:
            if term.coeff == 0:
                continue
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
    """The part label of every row of a stack over num_edges edges."""
    return _decode(state.digits[:, num_edges:])


def _decode(tail: np.ndarray) -> np.ndarray:
    """The labels held by rows of big-endian label bytes."""
    tail = tail.astype(np.int64)
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


def overlaps(a: SparseState, b: SparseState, num_edges: int, n_parts: int) -> np.ndarray:
    """<a_l|b_l> for every label l < n_parts of two stacks of one width."""
    _, i, j = np.intersect1d(
        row_keys(a.digits), row_keys(b.digits), assume_unique=True, return_indices=True
    )
    terms, labels = a.amps[i].conj() * b.amps[j], _decode(a.digits[i, num_edges:])
    return np.bincount(labels, terms.real, n_parts) + 1j * np.bincount(labels, terms.imag, n_parts)


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

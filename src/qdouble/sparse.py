"""Sparse configuration-basis vectors for huge edge Hilbert spaces.

A vector is stored as a matrix of edge digits (one row per basis
configuration with nonzero amplitude) plus the amplitudes.  Stars,
plaquettes, and ribbon operators map single configurations to a handful of
configurations, so states like the frustration-free seed vector or a
ribbon-excited vector keep a support of a few thousand rows even when the
ambient dimension is astronomically large.  Every operator of the term
engine can be applied exactly in this representation; amplitudes only pick
up unit-modulus character values and the term coefficients.

A stack holds many states in one: each row carries its part's index as
trailing label bytes after the last edge.  Terms never address those
columns, so one application to a stack acts on every part at once, and the
merge, keyed on whole rows, only combines rows of the same part.
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

__all__ = ["SparseState", "sparse_apply", "stack", "stack_labels"]

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

    def expect(self, op: Operator) -> complex:
        return self.dot(self.apply(op))

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


def stack(states, n_parts: int | None = None) -> SparseState:
    """One state over num_edges + w columns holding the rows of every part:
    row by row, the part's index follows the edges as w big-endian label
    bytes, w the fewest that hold every label below n_parts (by default the
    number of states).

    sparse_apply on a stack gives the stack of the per-part results, rows in
    the same order within each part.  The stack's merge prunes below
    PRUNE_TOL times the largest amplitude of all parts, a per-part merge
    below PRUNE_TOL times that part's largest, both at least PRUNE_TOL: the
    two agree exactly whenever every amplitude is at most 1 in modulus, as
    in any normalized state and its image under a contraction.
    """
    states = list(states)
    w = max(1, -(-((n_parts or len(states)) - 1).bit_length() // 8))
    labels = np.repeat(np.arange(len(states)), [s.n_configs for s in states])
    digits = np.hstack([np.concatenate([s.digits for s in states]), label_bytes(labels, w)])
    amps = np.concatenate([s.amps for s in states])
    return SparseState(states[0].group, states[0].num_edges + w, digits, amps, merged=True)


def label_bytes(labels: np.ndarray, width: int) -> np.ndarray:
    """(n, width) uint8 big-endian bytes of non-negative integer labels."""
    return np.asarray(labels, dtype=">u8").view(np.uint8).reshape(-1, 8)[:, 8 - width:]


def stack_labels(state: SparseState, num_edges: int) -> np.ndarray:
    """The part label of every row of a stack over num_edges edges."""
    tail = state.digits[:, num_edges:].astype(np.int64)
    return tail @ (256 ** np.arange(tail.shape[1] - 1, -1, -1, dtype=np.int64))


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

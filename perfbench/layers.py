"""Which qdouble calls the traced run wraps, and the per-layer metrics.

Layers are named after the package's modules.  `operators` is split in two:
the dense engine (`HilbertSpace`, dense `apply`, `Operator.to_dense`) and
the term algebra (`TermOp` and every public `QuantumDouble` builder).  Linear
algebra is the `numpy.linalg` and scipy `eigsh` calls, whoever makes them.

For `lattice`, `groups`, `spectral` and `states`, every public function and
every public method or classmethod of the classes the module defines is
wrapped, except the names in `FOLDED`: those are cheap accessors called
per configuration row or per term, whose wrapping would cost more than
their work, so their time stays in their caller's self time.
"""

from __future__ import annotations

import inspect
import sys

import numpy as np
import numpy.linalg
import scipy.sparse.linalg

from qdouble import cli, groups, lattice, operators, sparse, spectral, states, verify

DENSE = "operators.dense"
TERMS = "operators.terms"

FOLDED = {
    "groups": {
        "Group.mul_table", "Group.inv_table", "Group.char_values",
        "Group.character_from_index", "Group.element_from_index",
        "Group.identity", "Group.elements", "Group.characters", "Group.element",
        "Group.character", "Group.trivial_character", "Group.require_same",
        "GroupElement.inverse", "Character.inverse", "Character.conjugate",
        "Phase.conjugate", "Phase.to_complex", "Phase.of", "Phase.one",
    },
    "lattice": {
        "Region.wrap_vertex", "Region.vertex_exists", "Region.wrap_edge",
        "Region.edge_exists", "Region.edge_id", "Region.edge_tuple",
        "Region.wrap_face", "Region.face_in_region", "Region.face_exists",
        "Region.edge_endpoints", "Region.sign_in_face",
    },
}

# the per-layer metrics, in the order they are reported, with their units;
# SVD and eigsh calls count in linalg.self_s and linalg.calls but have no time
# of their own here, since no workload makes them (it would read 0 every run)
METRICS = {
    f"{DENSE}.self_s": "s", f"{DENSE}.apply_s": "s", f"{DENSE}.perm_s": "s",
    f"{DENSE}.form_s": "s", f"{DENSE}.random_s": "s", f"{DENSE}.to_dense_s": "s",
    f"{DENSE}.apply_calls": "count", f"{DENSE}.term_columns": "count",
    f"{DENSE}.gather_bytes_computed": "bytes", f"{DENSE}.table_builds": "count",
    f"{TERMS}.self_s": "s", f"{TERMS}.compose_calls": "count", f"{TERMS}.terms_out": "count",
    "sparse.self_s": "s", "sparse.merge_s": "s", "sparse.apply_s": "s", "sparse.dot_s": "s",
    "sparse.densify_s": "s", "sparse.states_built": "count", "sparse.rows_in": "count",
    "sparse.rows_out": "count", "sparse.rows_kept_ratio": "ratio",
    "linalg.self_s": "s", "linalg.eigh_s": "s", "linalg.qr_s": "s", "linalg.calls": "count",
    "linalg.input_bytes": "bytes",
    "spectral.self_s": "s", "spectral.iterations": "count",
    "states.self_s": "s",
    "verify.self_s": "s", "verify.checks": "count",
    "cli.self_s": "s",
    "lattice.self_s": "s", "groups.self_s": "s",
    "trace.wall_s": "s", "trace.remainder_s": "s", "trace.overhead_s": "s",
    "trace.spans": "count",
}

LAYERS = (DENSE, TERMS, "sparse", "linalg", "spectral", "states", "verify", "cli",
          "lattice", "groups")


# ---- counts taken at the wrapped boundaries ----


def _count_dense_apply(counts, args, kwargs, result):
    space, terms, psi = args[0], args[1], np.asarray(args[2])
    cols = 1 if psi.ndim == 1 else psi.shape[1]
    live = [t for t in terms if t.coeff != 0]
    shifted = sum(1 for t in live if t.shift)
    counts[f"{DENSE}.apply_calls"] += 1
    counts[f"{DENSE}.term_columns"] += len(live) * cols
    counts[f"{DENSE}.gather_bytes_computed"] += shifted * space.dim * cols * 16


def _count_table_build(counts, args, kwargs, result):
    counts[f"{DENSE}.table_builds"] += 1


def _count_compose(counts, args, kwargs, result):
    counts[f"{TERMS}.compose_calls"] += 1
    counts[f"{TERMS}.terms_out"] += len(result.terms)


def _count_sparse_init(counts, args, kwargs, result):
    state = args[0]
    counts["sparse.states_built"] += 1
    merged = kwargs.get("merged", args[5] if len(args) > 5 else False)
    if not merged:
        amps = args[4] if len(args) > 4 else kwargs["amps"]
        counts["sparse.rows_in"] += np.size(amps)
        counts["sparse.rows_out"] += state.n_configs


def _count_linalg(counts, args, kwargs, result):
    counts["linalg.calls"] += 1
    counts["linalg.input_bytes"] += getattr(args[0], "nbytes", 0)


def _count_iterations(counts, args, kwargs, result):
    counts["spectral.iterations"] += result.meta.get("iterations", 0)


def _count_check(counts, args, kwargs, result):
    counts["verify.checks"] += 1


# (owner, attribute, layer, sub-metric or None, count)
EXPLICIT = (
    (operators.HilbertSpace, "apply_terms", DENSE, "apply", _count_dense_apply),
    (operators.SumOp, "apply", DENSE, "apply", None),
    (operators.ProductOp, "apply", DENSE, "apply", None),
    (operators.ScaledOp, "apply", DENSE, "apply", None),
    (operators.HilbertSpace, "shift_perm", DENSE, "perm", None),
    (operators.HilbertSpace, "form_values", DENSE, "form", None),
    (operators.HilbertSpace, "random_vectors", DENSE, "random", None),
    (operators.Operator, "to_dense", DENSE, "to_dense", None),
    (operators.TermOp, "compose", TERMS, "compose", _count_compose),
    (operators.TermOp, "simplify", TERMS, "simplify", None),
    (operators.TermOp, "adjoint", TERMS, "adjoint", None),
    (operators.TermOp, "scaled", TERMS, "scaled", None),
    (sparse.SparseState, "_merge", "sparse", "merge", None),
    (sparse.SparseState, "apply_terms", "sparse", "apply", None),
    (sparse, "sparse_apply", "sparse", "apply", None),
    (sparse.SparseState, "dot", "sparse", "dot", None),
    (sparse.SparseState, "to_dense", "sparse", "densify", None),
    (sparse.SparseState, "from_dense", "sparse", "densify", None),
    (sparse.SparseState, "add", "sparse", "linear", None),
    (sparse.SparseState, "scaled", "sparse", "linear", None),
    (sparse.SparseState, "normalized", "sparse", "linear", None),
    (sparse.SparseState, "norm", "sparse", "linear", None),
    (sparse.SparseState, "basis_state", "sparse", "linear", None),
    (numpy.linalg, "eigh", "linalg", "eigh", _count_linalg),
    (numpy.linalg, "eigvalsh", "linalg", "eigh", _count_linalg),
    (numpy.linalg, "svd", "linalg", "svd", _count_linalg),
    (numpy.linalg, "qr", "linalg", "qr", _count_linalg),
    (scipy.sparse.linalg, "eigsh", "linalg", "eigsh", _count_linalg),
    (verify, "run_check", "verify", "run_check", _count_check),
    (cli, "main", "cli", "main", None),
)

# wrapped without a span: only counted
COUNTED = (
    (operators.HilbertSpace, "digit_array", _count_table_build),
    (sparse.SparseState, "__init__", _count_sparse_init),
)

SPECIAL = {
    "spectral.subspace_iteration": _count_iterations,
}

MODULE_LAYERS = (("groups", groups), ("lattice", lattice), ("spectral", spectral),
                 ("states", states))


def _public_methods(cls):
    """(class, attribute, qualified name) of the public methods, classmethods
    and staticmethods a class defines itself (not properties)."""
    for attr, raw in vars(cls).items():
        if not attr.startswith("_") and (
                inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod))):
            yield cls, attr, f"{cls.__name__}.{attr}"


def _public_callables(module):
    """(owner, attribute, qualified name) of every public function of the
    module and every public method of the classes it defines."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, name
        elif inspect.isclass(obj):
            yield from _public_methods(obj)


def _qdouble_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "qdouble" or name.startswith("qdouble."))]


class LayerTracer:
    """Installs the wrappers on a `Tracer` and reads its per-layer metrics."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.layer_of: dict[str, str] = {}
        self.sub_of: dict[str, str] = {}

    def _span_name(self, layer, sub):
        name = f"{layer}.{sub}"
        self.layer_of[name] = layer
        self.sub_of[name] = sub
        return name

    def _wrap_everywhere(self, owner, attr, name, count):
        """Wrap one attribute; for a module function, also replace the same
        function object wherever another qdouble module imported it."""
        raw = vars(owner)[attr]
        new = self.tracer.wrap(owner, attr, name, count)
        if inspect.ismodule(owner):
            for module in _qdouble_modules():
                for other, value in list(vars(module).items()):
                    if value is raw and not (module is owner and other == attr):
                        self.tracer.patch(module, other, new)

    def install(self):
        for owner, attr, layer, sub, count in EXPLICIT:
            self._wrap_everywhere(owner, attr, self._span_name(layer, sub), count)
        for owner, attr, count in COUNTED:
            self.tracer.wrap(owner, attr, None, count)
        for owner, attr, qualname in list(_public_methods(operators.QuantumDouble)):
            self.tracer.wrap(owner, attr, self._span_name(TERMS, qualname))
        for layer, module in MODULE_LAYERS:
            for owner, attr, qualname in list(_public_callables(module)):
                if qualname in FOLDED.get(layer, ()):
                    continue
                name = self._span_name(layer, qualname)
                self._wrap_everywhere(owner, attr, name, SPECIAL.get(name))

    def uninstall(self):
        self.tracer.unwrap()

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per round: self times by layer and sub-metric,
        the counts, and the traced wall time with its unattributed remainder."""
        out = {name: 0.0 for name in METRICS}
        for name, t in self.tracer.self_times().items():
            layer = self.layer_of.get(name)
            if layer is None:  # a root span: an operation of the workload
                out["trace.remainder_s"] += t
                continue
            out[f"{layer}.self_s"] += t
            key = f"{layer}.{self.sub_of[name]}_s"
            if key in out:
                out[key] += t
        for key, value in self.tracer.counts.items():
            out[key] += value
        out["trace.wall_s"] = self.tracer.root_time()
        out["trace.spans"] = float(len(self.tracer.start))
        per_round = {k: v / rounds for k, v in out.items()}
        rows_in = per_round["sparse.rows_in"]
        per_round["sparse.rows_kept_ratio"] = per_round["sparse.rows_out"] / rows_in if rows_in else 0.0
        return per_round

"""The benchmark's workloads: fixed lists of verified qdouble operations.

An operation is one computation made through the package's public API or
the `qdouble` command line, the way users make it: each builds its own
`QuantumDouble` (inside `run_check`, the CLI task or the benchmark call),
so cold table builds are paid inside the operation.  Each operation comes
with a check of its output against closed forms or properties computed
here from the lattice geometry, never against stored output.

The seed reaches the program only as `seed=` of `run_check` and `--seed`
of the command line; the sampled checks below draw from it too.

The checks' own arithmetic assumes cyclic groups Z_q, which is what every
workload uses.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse

import qdouble
import qdouble.cli


class WrongOutput(AssertionError):
    """An operation returned, but its output is not what it must be."""


class OperationFailed(RuntimeError):
    """An operation skipped or exited non-zero: it produced no output to check."""


@dataclass(frozen=True)
class Operation:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, dict], list[Operation]]
    specs: tuple[tuple[str, str], ...]  # (group, region) specs parsed at set-up
    run_checks: Callable[[int, dict], list[tuple[str, Callable[[], None]]]] = (
        lambda seed, parsed: []
    )


def _require(ok: bool, message: str):
    if not ok:
        raise WrongOutput(message)


def _free_counts(region_spec: str) -> tuple[int, int, int, int]:
    """(V, E, F, I) of a free m x n vertex grid: vertices, edges, faces and
    vertices with a full star."""
    m, n = (int(x) for x in region_spec.removeprefix("free:").split("x"))
    return m * n, 2 * m * n - m - n, (m - 1) * (n - 1), (m - 2) * (n - 2)


def _star(x: int, y: int) -> list[tuple[tuple[str, int, int], int]]:
    """The star of vertex (x, y): outgoing edges +1, incoming edges -1."""
    return [(("h", x, y), 1), (("v", x, y), 1), (("h", x - 1, y), -1), (("v", x, y - 1), -1)]


def _cli(argv: list[str]) -> dict:
    """`qdouble <argv>` in this process; its JSON output, or OperationFailed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qdouble.cli.main(argv)
    if code != 0:
        raise OperationFailed(f"qdouble {' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())


# ---------------------------------------------------------------------------
# identities-z4: run_check on Z4 free:3x3, 4^12 dimensions


IDENTITY_GROUP, IDENTITY_REGION = "Z4", "free:3x3"
# a single-operator comparison, a commutator, a ribbon composition, and a
# composition against an exact scalar; the other six local checks of
# criterion 01 are left out for run length (see README)
IDENTITY_CHECKS = (
    "plaquette.adjoint",
    "star-plaquette.exchange",
    "ribbon.concatenate",
    "ribbon.crossing-phase",
)


def _check_result(result):
    if result.skipped:
        raise OperationFailed(f"{result.check_id} skipped: {result.reason}")
    _require(result.passed is True,
             f"{result.check_id}: residual {result.residual} above {result.threshold}")


def _identity_ops(seed: int, parsed: dict) -> list[Operation]:
    group, region = parsed[IDENTITY_GROUP], parsed[IDENTITY_REGION]
    return [
        Operation(cid, lambda cid=cid: qdouble.run_check(cid, group, region, seed=seed),
                  _check_result)
        for cid in IDENTITY_CHECKS
    ]


def _basis_image_check(seed: int, parsed: dict):
    """Map one seeded basis configuration through a star shift and a ribbon
    operator with the dense engine; the image must be one basis vector, at
    the index computed here from edge digits, carrying the character phase.
    Probe residuals alone would read zero on an engine whose outputs vanish."""
    group, region = parsed[IDENTITY_GROUP], parsed[IDENTITY_REGION]
    model = qdouble.QuantumDouble(group, region)
    q, n_edges = group.size, region.num_edges
    rng = np.random.default_rng([seed, 1])
    digits = rng.integers(0, q, size=n_edges)
    g, chi, c = (int(x) for x in rng.integers(1, q, size=3))
    weights = q ** np.arange(n_edges, dtype=np.int64)
    psi = model.space.basis_vector(digits)

    def expect_image(out, new_digits, phase, what):
        nonzero = np.flatnonzero(out)
        index = int(np.dot(new_digits, weights))
        _require(nonzero.tolist() == [index], f"{what}: image at {nonzero[:4]}, not [{index}]")
        _require(abs(out[index] - phase) < 1e-12, f"{what}: amplitude {out[index]}, not {phase}")

    # A_v^g adds g on the outgoing star edges and subtracts it on the incoming
    shifted = digits.copy()
    for edge, sign in _star(1, 1):
        e = region.edge_id(edge)
        shifted[e] = (shifted[e] + sign * g) % q
    expect_image(model.star_shift((1, 1), g).apply(psi), shifted, 1.0, f"star shift {g}")

    # F^{chi,c}: conj(chi) of the direct-path holonomy, then the dual edges
    # shifted by c along their exit sign
    ribbon = qdouble.ribbon_between(region, region.site((0, 0), (0, 0)),
                                    region.site((2, 2), (1, 1)))
    holonomy = sum(sign * int(digits[e]) for e, sign in ribbon.direct_part()) % q
    moved = digits.copy()
    for e, sign in ribbon.dual_part():
        moved[e] = (moved[e] + sign * c) % q
    phase = np.exp(-2j * np.pi * chi * holonomy / q)
    expect_image(model.ribbon_char(ribbon, chi, c).apply(psi), moved, phase,
                 f"ribbon ({chi},{c})")


IDENTITIES = Workload(
    "identities-z4", _identity_ops, ((IDENTITY_GROUP, IDENTITY_REGION),),
    lambda seed, parsed: [("basis-images", lambda: _basis_image_check(seed, parsed))],
)


# ---------------------------------------------------------------------------
# spectra-z2: the sectors task and the iterative spectrum route


SECTOR_REGION = "free:3x3"
ITERATIVE_REGION, ITERATIVE_K = "free:2x6", 2
ITERATIVE_TOL = 1e-9  # spectrum_lowest's convergence tolerance, relative to sigma


def _check_sectors(payload: dict):
    q = 2
    _, e, f, i = _free_counts(SECTOR_REGION)
    base = q ** (e - f - i)
    # the kernel of H^{eps,mu} holds at most one nontrivial charge (on one of
    # the I full stars) and at most one nontrivial flux (on one of F faces)
    dims = {(chi, c): base * (i if chi else 1) * (f if c else 1)
            for chi in range(q) for c in range(q)}
    _require(payload["kernel_dim"] == sum(dims.values()),
             f"kernel_dim {payload['kernel_dim']}, not {sum(dims.values())}")
    _require(len(payload["rows"]) == q * q, f"{len(payload['rows'])} sector rows")
    for row in payload["rows"]:
        label = (int(row["chi_digits"]), int(row["c_digits"]))
        _require(row["dim"] == dims[label], f"sector {label}: dim {row['dim']}, not {dims[label]}")
        want = 1.0 if label == (0, 0) else 0.0
        _require(abs(row["weight"] - want) < 1e-10,
                 f"sector {label}: ground weight {row['weight']}, not {want}")


def _check_iterative(payload: dict):
    q = 2
    v, _, f, i = _free_counts(ITERATIVE_REGION)
    _require(q ** (v - 1 - i) >= ITERATIVE_K, "ground space smaller than k")
    # sigma = 1 + sum of |coefficients| of H's terms: I - A_v and I - B_f
    sigma = 2 * f + 2 * i * (q - 1) / q + 1
    _require(payload["method"] == "iterative", f"method {payload['method']}")
    _require(len(payload["rows"]) == ITERATIVE_K, f"{len(payload['rows'])} eigenvalues")
    for row in payload["rows"]:
        _require(abs(row["eigenvalue"]) < 1e-8, f"eigenvalue {row['eigenvalue']} is not 0")
        _require(row["residual"] < ITERATIVE_TOL * sigma,
                 f"residual {row['residual']} above {ITERATIVE_TOL * sigma}")


def _spectra_ops(seed: int, parsed: dict) -> list[Operation]:
    s = str(seed)
    sectors = ["sectors", "--group", "Z2", "--region", SECTOR_REGION, "--json", "--seed", s]
    spectrum = ["spectrum", "--group", "Z2", "--region", ITERATIVE_REGION,
                "-k", str(ITERATIVE_K), "--json", "--seed", s]
    return [
        Operation("sectors", lambda: _cli(sectors), _check_sectors),
        Operation("spectrum-iterative", lambda: _cli(spectrum), _check_iterative),
    ]


SPECTRA = Workload("spectra-z2", _spectra_ops, ())


# ---------------------------------------------------------------------------
# sparse-states: ground and excitation states in the sparse engine


MIX_GROUP, MIX_REGION = "Z4", "free:3x3"
SPAN_GROUP, SPAN_REGION = "Z2", "free:3x3"
CONST_GROUP, CONST_SMALL, CONST_LARGE = "Z3", "free:4x4", "free:5x5"
EXCITE_CHI, EXCITE_C = 1, 3
MIX_SAMPLE = 64


def _energy(region, q: int, digits: np.ndarray, amps: np.ndarray) -> float:
    """<H> of a normalized sparse state, from its rows alone:
    sum over full stars of 1 - <A_v> plus sum over faces of 1 - <B_f>."""
    digits = digits.astype(np.int64)
    energy = 0.0
    for face in region.faces():
        flux = sum(sign * digits[:, e] for e, sign in region.face_boundary_ids(face))
        energy += 1.0 - float(np.sum(np.abs(amps[flux % q == 0]) ** 2))
    index = {row.tobytes(): a for row, a in zip(digits, amps)}
    for vertex in region.interior_vertices():
        average = 0.0
        for g in range(q):
            moved = digits.copy()
            for edge, sign in _star(*vertex):
                e = region.edge_id(edge)
                moved[:, e] = (moved[:, e] + sign * g) % q
            average += sum(np.conj(index.get(row.tobytes(), 0.0)) * a
                           for row, a in zip(moved, amps)).real
        energy += 1.0 - average / q
    return energy


def _mixture_check(seed: int):
    def check(func):
        q = 4
        v, _, _, i = _free_counts(MIX_REGION)
        parts = func.parts
        _require(len(parts) == q ** (v - 1 - i), f"{len(parts)} parts, not {q ** (v - 1 - i)}")
        _require(abs(sum(w for w, _ in parts) - 1.0) < 1e-12, "weights do not sum to 1")
        for _, s in parts:
            _require(s.n_configs == q ** i, f"a part has support {s.n_configs}, not {q ** i}")
            _require(abs(s.norm() - 1.0) < 1e-12, f"a part has norm {s.norm()}")
        region = func.model.region
        picks = np.random.default_rng([seed, 2]).choice(len(parts), MIX_SAMPLE, replace=False)
        for k in picks:
            s = parts[int(k)][1]
            e = _energy(region, q, s.digits, s.amps)
            _require(abs(e) < 1e-10, f"part {k} has <H> = {e}")
    return check


def _check_spanning(cols: np.ndarray):
    dim = 2 ** _free_counts(SPAN_REGION)[1]
    _require(cols.shape == (dim, dim), f"family shape {cols.shape}")
    m = scipy.sparse.csc_matrix(cols)
    gram = (m.conj().T @ m - scipy.sparse.identity(dim, format="csc")).tocoo()
    worst = float(np.max(np.abs(gram.data), initial=0.0))
    _require(worst < 1e-12, f"Gram matrix differs from I by {worst}")


def _check_constancy(deviation: float):
    _require(deviation < 1e-10, f"constancy deviation {deviation}")


def _check_excite(payload: dict):
    energy = 2 - (EXCITE_CHI == 0) - (EXCITE_C == 0)
    _require(abs(payload["energy"] - energy) < 1e-10, f"energy {payload['energy']}, not {energy}")
    _require(abs(payload["boundary_energy"]) < 1e-10, f"boundary energy {payload['boundary_energy']}")
    residual = payload["path_independence_residual"]
    _require(residual is not None and residual < 1e-12, f"path residual {residual}")
    for row in payload["sector_weights"]:
        label = (int(row["chi_digits"]), int(row["c_digits"]))
        want = 1.0 if label == (EXCITE_CHI, EXCITE_C) else 0.0
        _require(abs(row["weight"] - want) < 1e-10, f"sector {label}: weight {row['weight']}")


def _sparse_ops(seed: int, parsed: dict) -> list[Operation]:
    excite = ["excite", "--group", "Z4", "--region", "free:4x4", "--unsafe-cap",
              "--chi", str(EXCITE_CHI), "--c", str(EXCITE_C), "--json", "--seed", str(seed)]

    def model(group, region):
        return qdouble.QuantumDouble(parsed[group], parsed[region])

    return [
        Operation("uniform-mixture",
                  lambda: qdouble.frustration_free_state(model(MIX_GROUP, MIX_REGION),
                                                         "uniform-mixture"),
                  _mixture_check(seed)),
        Operation("spanning-matrix",
                  lambda: qdouble.spanning_matrix(model(SPAN_GROUP, SPAN_REGION)),
                  _check_spanning),
        Operation("eventual-constancy",
                  lambda: qdouble.eventual_constancy_check(
                      parsed[CONST_GROUP], parsed[CONST_SMALL], parsed[CONST_LARGE], (1, 1), 1, 2),
                  _check_constancy),
        Operation("excite", lambda: _cli(excite), _check_excite),
    ]


SPARSE = Workload(
    "sparse-states", _sparse_ops,
    ((MIX_GROUP, MIX_REGION), (SPAN_GROUP, SPAN_REGION), (CONST_GROUP, CONST_SMALL),
     (CONST_GROUP, CONST_LARGE)),
)


WORKLOADS = {w.name: w for w in (IDENTITIES, SPECTRA, SPARSE)}


def prepare(name: str) -> dict:
    """Set-up before the first operation: parse the workload's specs."""
    parsed = {}
    for group, region in WORKLOADS[name].specs:
        parsed[group] = qdouble.parse_group_spec(group)
        parsed[region] = qdouble.parse_region_spec(region)
    return parsed

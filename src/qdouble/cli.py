"""Command line front end: config merging, task dispatch, table emission.

Tasks
-----
verify    run the named check battery and exit 0 iff every check passes
spectrum  lowest k Hamiltonian eigenvalues as CSV/JSON (index, eigenvalue, residual);
          JSON adds the exact counted levels (energy, multiplicity) and the
          solver's meta (LOBPCG's iterations, sigma, kernel_columns; {} when dense)
sectors   (charge, flux) sector dimensions of the charged-boundary kernel,
          counted from charge and flux labels, plus ground-state sector weights
braid     exact crossing-phase exponents read off two crossing strips in the
          region, entries rendered as "p/q"
excite    diagnostics for one single-excitation state

Common flags: --group, --region, --boundary, --seed, --out, --json,
--config (JSON file mirroring the flags, each value of its RunConfig field's
type; explicit flags win), --unsafe-cap.

Exit codes: 0 success, 1 failing check, 2 configuration error,
3 a size-policy limit exceeded (DimensionCapError).

Every command is deterministic given (config, seed), and CSV floats carry 17
significant digits.  JSON output is byte-identical across reruns except for
`verify`, whose per-check `wall_time` is measured; its results do not depend
on the seed either.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from dataclasses import dataclass
from functools import cache

import numpy as np

from .groups import Group, GroupError, parse_group_spec
from .lattice import Region, RibbonError, crossing_pair, parse_region_spec, ribbon_between
from .operators import (
    BOUNDARY_FLAVORS,
    DEFAULT_DIM_CAP,
    UNSAFE_DIM_CAP,
    DimensionCapError,
    QuantumDouble,
    refuse_above,
)
from .spectral import sector_counts, spectrum_counts, spectrum_lowest
from .states import frustration_free_state, sector_weights, single_excitation_state
from .verify import CheckError, run_suite

__all__ = ["RunConfig", "main", "EXIT_OK", "EXIT_CHECK_FAIL", "EXIT_CONFIG", "EXIT_CAP"]

EXIT_OK = 0
EXIT_CHECK_FAIL = 1
EXIT_CONFIG = 2
EXIT_CAP = 3

TASKS = ("verify", "spectrum", "sectors", "braid", "excite")


class ConfigError(ValueError):
    """Unusable command configuration (bad spec, bad option, bad file)."""


@dataclass(frozen=True)
class RunConfig:
    """Fully merged run configuration: flags override the config file."""

    task: str
    group: str = "Z2"
    region: str = "free:3x3"
    boundary: str = "none"
    seed: int = 7
    out: str | None = None
    json: bool = False  # JSON instead of CSV (verify: instead of its text report)
    k: int = 6
    vertex: str = "1,1"
    face: str = "1,1"
    chi: int = 1
    c: int = 1
    unsafe_cap: bool = False

    @property
    def cap(self) -> int:
        return UNSAFE_DIM_CAP if self.unsafe_cap else DEFAULT_DIM_CAP


# ---------------------------------------------------------------------------
# argument parsing and config-file merging


@cache  # built once a process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdouble",
        description="Quantum double models on finite 2D lattices: "
        "verification battery, spectra, sectors, braiding, excitations.",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task)
        p.add_argument("--group", help="group spec, e.g. Z2 or Z2xZ4")
        p.add_argument("--region", help="region spec: free:MxN, torus:MxN, lambda:L")
        p.add_argument("--boundary", choices=BOUNDARY_FLAVORS)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="write the emission to this path")
        p.add_argument("--json", action="store_const", const=True,
                       help="emit JSON instead of CSV/text")
        p.add_argument("--config", help="JSON file with the same keys; flags win")
        p.add_argument("--unsafe-cap", dest="unsafe_cap", action="store_const",
                       const=True, help="lift the |G|^E <= 2^26 dimension cap")
        if task == "spectrum":
            p.add_argument("-k", type=int, help="number of lowest eigenvalues")
        if task == "excite":
            p.add_argument("--vertex", help="start vertex 'x,y'")
            p.add_argument("--face", help="start face 'x,y'")
            p.add_argument("--chi", type=int, help="charge label index")
            p.add_argument("--c", type=int, help="flux label index")
    return parser


# the config file's keys and their types are RunConfig's fields, less the task
_FILE_TYPES = {name: typing.get_args(hint) or (hint,)
               for name, hint in typing.get_type_hints(RunConfig).items() if name != "task"}


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_cfg: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config file {args.config!r}: {err}") from err
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(_FILE_TYPES)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    for name, types in _FILE_TYPES.items():
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
        elif name in file_cfg:
            # exact types: JSON true is no int, 7.9 no int and "false" no bool
            if type(file_cfg[name]) not in types:
                raise ConfigError(f"config key {name!r} must be "
                                  f"{' or '.join(t.__name__ for t in types)}, "
                                  f"got {file_cfg[name]!r}")
            values[name] = file_cfg[name]
    cfg = RunConfig(task=args.task, **values)
    if cfg.boundary not in BOUNDARY_FLAVORS:
        raise ConfigError(f"unknown boundary kind {cfg.boundary!r}")
    return cfg


def _parse_specs(cfg: RunConfig) -> tuple[Group, Region]:
    try:
        group = parse_group_spec(cfg.group)
        region = parse_region_spec(cfg.region)
    except (GroupError, RibbonError, ValueError) as err:
        raise ConfigError(str(err)) from err
    n_edges = len(region.edges())
    if cfg.task != "braid":  # braid composes terms and allocates no |G|^E vector
        refuse_above(group.size**n_edges, cfg.cap,
                     f"dimension |G|^E = {group.size}^{n_edges} (--unsafe-cap lifts the cap)")
    return group, region


def _parse_coords(text: str, what: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{what} must look like 'x,y', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as err:
        raise ConfigError(f"{what} must hold integers, got {text!r}") from err


# ---------------------------------------------------------------------------
# emission helpers


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _digits_str(digits: tuple[int, ...]) -> str:
    return ":".join(str(d) for d in digits)


def _json_payload(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# tasks


def cmd_verify(cfg: RunConfig, group: Group, region: Region) -> int:
    report = run_suite(group, region, seed=cfg.seed, cap=cfg.cap)
    if cfg.json:
        _emit(_json_payload(report.to_json_dict()), cfg)
    else:
        _emit(report.to_text() + "\n", cfg)
    return EXIT_OK if report.ok else EXIT_CHECK_FAIL


def cmd_spectrum(cfg: RunConfig, group: Group, region: Region) -> int:
    if cfg.k < 1:
        raise ConfigError(f"k must be >= 1, got {cfg.k}")
    model = QuantumDouble(group, region, cap=cfg.cap)
    k = cfg.k
    if k > model.space.dim:
        print(f"warning: k={k} clipped to dimension {model.space.dim}", file=sys.stderr)
        k = model.space.dim
    try:
        basis = spectrum_lowest(model, k, boundary=cfg.boundary,
                                rng=np.random.default_rng(cfg.seed))
    except RibbonError as err:
        raise ConfigError(f"--boundary {cfg.boundary} needs the boundary loops: {err}") from err
    rows = [
        {"index": i, "eigenvalue": float(basis.values[i]), "residual": float(basis.residuals[i])}
        for i in range(len(basis.values))
    ]
    if cfg.json:
        levels = [{"energy": e, "multiplicity": n}
                  for e, n in spectrum_counts(model, cfg.boundary).items()]
        payload = {
            "task": "spectrum", "group": cfg.group, "region": cfg.region,
            "boundary": cfg.boundary, "seed": cfg.seed, "method": basis.method,
            "meta": basis.meta, "rows": rows, "levels": levels,
        }
        _emit(_json_payload(payload), cfg)
    else:
        lines = ["index,eigenvalue,residual"]
        lines += [f"{r['index']},{_fmt_float(r['eigenvalue'])},{_fmt_float(r['residual'])}"
                  for r in rows]
        _emit("\n".join(lines) + "\n", cfg)
    return EXIT_OK


def cmd_sectors(cfg: RunConfig, group: Group, region: Region) -> int:
    if region.is_torus:
        raise ConfigError("sectors needs a free region (tori have no boundary)")
    try:
        counts = sector_counts(group, region, "eps_mu")
    except RibbonError as err:
        raise ConfigError(f"sectors needs the boundary loops: {err}") from err
    model = QuantumDouble(group, region, cap=cfg.cap)
    weights = sector_weights(frustration_free_state(model)).as_dict()
    rows = []
    for chi in range(group.size):
        for c in range(group.size):
            rows.append({
                "chi_digits": _digits_str(group.character_from_index(chi).digits),
                "c_digits": _digits_str(group.element_from_index(c).digits),
                # the kernel of H^{eps,mu} is its energy-0 class
                "dim": counts.get((0, chi, c), 0),
                "weight": float(weights[(chi, c)]),
            })
    if cfg.json:
        payload = {
            "task": "sectors", "group": cfg.group, "region": cfg.region,
            "seed": cfg.seed, "method": "counting",
            "kernel_dim": sum(r["dim"] for r in rows), "rows": rows,
        }
        _emit(_json_payload(payload), cfg)
    else:
        lines = ["chi_digits,c_digits,dim"]
        lines += [f"{r['chi_digits']},{r['c_digits']},{r['dim']}" for r in rows]
        _emit("\n".join(lines) + "\n", cfg)
        for r in rows:
            print(f"weight[{r['chi_digits']};{r['c_digits']}] = {_fmt_float(r['weight'])}",
                  file=sys.stderr)
    return EXIT_OK


def cmd_braid(cfg: RunConfig, group: Group, region: Region) -> int:
    try:
        rho, sigma = crossing_pair(region)
    except RibbonError as err:
        raise ConfigError(f"braid needs a region with an interior vertex: {err}") from err
    model = QuantumDouble(group, region, cap=cfg.cap)
    q = group.size
    chars = [group.character_from_index(i) for i in range(q)]
    els = [group.element_from_index(i) for i in range(q)]
    char_table = [[chars[i](els[j]).exponent_str() for j in range(q)] for i in range(q)]
    labels = [(chi, c) for chi in range(q) for c in range(q)]
    # the exact scalar of F^a_rho F^b_sigma = s F^b_sigma F^a_rho, read off
    # the two strips of one transversal crossing
    table = [
        [model.crossing_phase(rho, a_chi, a_c, sigma, b_chi, b_c).exponent_str()
         for (b_chi, b_c) in labels]
        for (a_chi, a_c) in labels
    ]
    label_strs = [
        f"{_digits_str(chars[chi].digits)};{_digits_str(els[c].digits)}"
        for chi, c in labels
    ]
    if cfg.json:
        payload = {
            "task": "braid", "group": cfg.group,
            "labels": label_strs,
            "crossing_exponents": table,
            "character_exponents": char_table,
        }
        _emit(_json_payload(payload), cfg)
    else:
        lines = ["label_a,label_b,exponent"]
        for i, la in enumerate(label_strs):
            for j, lb in enumerate(label_strs):
                lines.append(f"{la},{lb},{table[i][j]}")
        _emit("\n".join(lines) + "\n", cfg)
    return EXIT_OK


def _route_residual(model: QuantumDouble, site, chi: int, c: int) -> float | None:
    """Norm difference of the two staircase routes to one far site, or None
    when the region has no room for a second route."""
    region = model.region
    far_v = (site.vertex[0] + 1, site.vertex[1] + 1)
    try:
        far = region.site(far_v, site.face)
        rib_a = ribbon_between(region, site, far, order="xy")
        rib_b = ribbon_between(region, site, far, order="yx")
    except (RibbonError, ValueError):
        return None
    diff = model.ribbon_char(rib_a, chi, c) - model.ribbon_char(rib_b, chi, c)
    return float(frustration_free_state(model).vector.apply(diff).norm())


def cmd_excite(cfg: RunConfig, group: Group, region: Region) -> int:
    if region.is_torus:
        raise ConfigError("excite needs a free region (the strip exits the boundary)")
    model = QuantumDouble(group, region, cap=cfg.cap)
    if not (0 <= cfg.chi < group.size and 0 <= cfg.c < group.size):
        raise ConfigError(f"labels must lie in [0, {group.size}), got chi={cfg.chi} c={cfg.c}")
    try:
        site = region.site(_parse_coords(cfg.vertex, "--vertex"),
                           _parse_coords(cfg.face, "--face"))
    except (RibbonError, ValueError) as err:
        raise ConfigError(str(err)) from err
    if site.vertex not in region.interior_vertices():
        raise ConfigError(f"vertex {site.vertex} has no full star in {cfg.region}")
    state = single_excitation_state(model, site, cfg.chi, cfg.c)
    energy = state.expect_real(model.hamiltonian())
    boundary_energy = state.expect_real(model.hamiltonian(boundary="eps_mu"))
    weights = sector_weights(state).as_dict()
    route = _route_residual(model, site, cfg.chi, cfg.c)
    weight_rows = [
        {"chi_digits": _digits_str(group.character_from_index(chi).digits),
         "c_digits": _digits_str(group.element_from_index(c).digits),
         "weight": float(weights[(chi, c)])}
        for chi in range(group.size) for c in range(group.size)
    ]
    if cfg.json:
        payload = {
            "task": "excite", "group": cfg.group, "region": cfg.region,
            "seed": cfg.seed, "vertex": list(site.vertex), "face": list(site.face),
            "chi": cfg.chi, "c": cfg.c,
            "energy": float(energy),
            "boundary_energy": float(boundary_energy),
            "path_independence_residual": route,
            "sector_weights": weight_rows,
        }
        _emit(_json_payload(payload), cfg)
    else:
        lines = [
            f"site: vertex {site.vertex}, face {site.face}",
            f"labels: chi={cfg.chi}, c={cfg.c}",
            f"energy: {_fmt_float(energy)}",
            f"boundary_energy: {_fmt_float(boundary_energy)}",
            "path_independence_residual: "
            + ("n/a" if route is None else _fmt_float(route)),
        ]
        lines += [
            f"weight[{r['chi_digits']};{r['c_digits']}] = {_fmt_float(r['weight'])}"
            for r in weight_rows
        ]
        _emit("\n".join(lines) + "\n", cfg)
    return EXIT_OK


_COMMANDS = {
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "sectors": cmd_sectors,
    "braid": cmd_braid,
    "excite": cmd_excite,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, 0 on --help
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        cfg = _merge_config(args)
        group, region = _parse_specs(cfg)
        return _COMMANDS[cfg.task](cfg, group, region)
    except DimensionCapError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CAP
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except CheckError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CHECK_FAIL


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one qdouble benchmark workload and print its metrics.

    python3 perfbench/run.py --workload identities-z4 --seed 7 --seconds 35 --trace 0

Run from the repository root; the package is imported from `src/`.  The
workload's operations are repeated in whole rounds for as long as another
round still fits in `--seconds` (at least one round).  Every operation's
output is checked (see workloads.py).  The last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones: `wall_s` and `cpu_s`
(median per round of the operations' summed wall and CPU time, output
checks excluded), `peak_rss_mb` of this process, and `setup_s` (median over
fresh processes of the time from process start to the first operation).

With `--trace 1` the same workload first runs untraced in a child process,
then traced in this one, and the metrics are the per-layer ones of
layers.py, per round, with `trace.overhead_s` the traced wall time minus
the child's untraced `wall_s`.

Each run also writes a record under perfbench/out/: every metric, the
per-operation times, the machine and library versions; a traced run adds
its spans.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("identities-z4", "spectra-z2", "sparse-states")
DEFAULT_SEED = 7
SETUP_SAMPLES = 5

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# what a workload process does before its first operation, timed from outside
_SETUP_CHILD = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.prepare(sys.argv[3]); print('ready', flush=True)"
)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _setup_time(workload: str) -> float:
    """Fresh process start to ready-for-the-first-operation, seen from here."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH), workload],
        stdout=subprocess.PIPE, text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
    if child.returncode != 0 or line != "ready\n":
        raise RuntimeError(f"set-up child exited {child.returncode} after {line!r}")
    return elapsed


def _run_operation(op, tracer) -> dict:
    import workloads

    row = {"name": op.name, "status": "ok"}
    t0, c0 = time.perf_counter(), _cpu()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.span(f"op.{op.name}"):
                out = op.run()
    except Exception:  # an operation that raises is counted as failed, the run goes on
        row["wall_s"], row["cpu_s"] = time.perf_counter() - t0, _cpu() - c0
        row["status"], row["error"] = "failed", traceback.format_exc()
        return row
    row["wall_s"], row["cpu_s"] = time.perf_counter() - t0, _cpu() - c0
    try:
        op.check(out)
    except workloads.OperationFailed as err:
        row["status"], row["error"] = "failed", str(err)
    except Exception:  # a failed check, or output too malformed to check
        row["status"], row["error"] = "wrong", traceback.format_exc()
    return row


def _run_rounds(ops, seconds: float, tracer=None) -> list[list[dict]]:
    """Whole rounds of the operations while another round fits in `seconds`."""
    rounds = []
    begin = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        rounds.append([_run_operation(op, tracer) for op in ops])
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - begin + longest > seconds:
            return rounds


def _run_checks(checks) -> list[dict]:
    rows = []
    for name, check in checks:
        try:
            check()
            rows.append({"name": name, "status": "ok"})
        except Exception:  # any exception means the program's output is wrong
            rows.append({"name": name, "status": "wrong", "error": traceback.format_exc()})
    return rows


def _summary(rounds, run_checks) -> dict:
    rows = [r for rnd in rounds for r in rnd]
    return {
        "correct": all(r["status"] != "wrong" for r in rows + run_checks),
        "attempted": len(rows),
        "failed": sum(r["status"] != "ok" for r in rows),
    }


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return None


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "qdouble").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "src_lines": src_lines,
    }


def _write_record(path: Path, record: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def _emit(summary: dict, metrics: dict, units: dict):
    for name, value in metrics.items():
        print(f"{name:40s} {value:16.6f} {units[name]}")
    print(f"attempted {summary['attempted']}, failed {summary['failed']}, correct {summary['correct']}")
    payload = dict(summary)
    payload["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    print(json.dumps(payload), flush=True)


def _untraced(args, workload, parsed, record: dict):
    setup = [_setup_time(args.workload) for _ in range(SETUP_SAMPLES)]
    rounds = _run_rounds(workload.build(args.seed, parsed), args.seconds)
    checks = _run_checks(workload.run_checks(args.seed, parsed))
    metrics = {
        "wall_s": statistics.median(sum(r["wall_s"] for r in rnd) for rnd in rounds),
        "cpu_s": statistics.median(sum(r["cpu_s"] for r in rnd) for rnd in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    record.update(setup_samples_s=setup, rounds=rounds, run_checks=checks)
    return metrics, _summary(rounds, checks), END_TO_END_UNITS


def _traced(args, workload, parsed, record: dict):
    from layers import LAYERS, METRICS, LayerTracer
    from tracer import Tracer

    child = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    untraced = json.loads(child.stdout.strip().splitlines()[-1])

    tracer = Tracer()
    layer_tracer = LayerTracer(tracer)
    layer_tracer.install()
    try:
        rounds = _run_rounds(workload.build(args.seed, parsed), args.seconds, tracer)
    finally:
        layer_tracer.uninstall()
    checks = _run_checks(workload.run_checks(args.seed, parsed))
    metrics = layer_tracer.metrics(len(rounds))
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced["metrics"]["wall_s"]["value"]
    attributed = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    summary = _summary(rounds, checks)
    summary["correct"] = summary["correct"] and untraced["correct"]
    spans = OUT / f"{args.workload}-seed{args.seed}.spans.json.gz"
    spans.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans)
    record.update(
        rounds=rounds, run_checks=checks, untraced=untraced, spans_file=spans.name,
        layer_sum_check={"attributed_s": attributed, "remainder_s": metrics["trace.remainder_s"],
                         "wall_s": metrics["trace.wall_s"]},
    )
    return metrics, summary, METRICS


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "qdouble" / "__init__.py").is_file():
        print(f"error: no qdouble package under {SRC}; run from a qdouble checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    t0 = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    parsed = workloads.prepare(args.workload)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "import_and_prepare_s": time.perf_counter() - t0}
    run = _traced if args.trace else _untraced
    metrics, summary, units = run(args, workload, parsed, record)
    record.update(summary, metrics=metrics, environment=_environment())
    _write_record(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    _emit(summary, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())

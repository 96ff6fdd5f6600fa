"""One benchmark process: set the program up, run passes, check outputs.

``run.py`` starts this file as a child process, so that set-up time is
measured from process start and peak memory is that of one process.  It
prints one JSON object with the raw measurements as its last stdout line;
``run.py`` turns them into metrics.

Untraced passes carry only the op timer.  In a traced run, passes
alternate untraced and traced, starting untraced, so that the tracing
overhead is measured inside one run; the set-up is traced too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import grclab  # noqa: E402
from grclab import cli, estimators, model, oracle, regularizers, risk, sampler, theory  # noqa: E402

from spans import Instruments  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, compare, config_hash, reference_path  # noqa: E402

GL = types.SimpleNamespace(
    cli=cli, estimators=estimators, model=model, oracle=oracle,
    regularizers=regularizers, risk=risk, sampler=sampler, theory=theory,
)


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--workdir", required=True)
    p.add_argument("--reference-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    return p.parse_args(argv)


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(workload: str, config: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "grclab_version": grclab.__version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "GRCL_THREADS": os.environ.get("GRCL_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": config["seed"],
        "config_sha256": config_hash(config),
    }


def load_reference(path: str, config: dict, seed: int):
    """The recorded table for this config, or None where none applies.

    References are recorded at the default seed only; there, a reference
    recorded from another config is itself an error.
    """
    if seed != DEFAULT_SEED or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        reference = json.load(handle)
    if reference["config_sha256"] != config_hash(config):
        raise SystemExit(f"{path} was recorded from another config; record it again")
    return reference


def run_pass(workload, config, state, instruments, traced, reference, comparison):
    """Run and check one pass; return its record, its table and its problems."""
    spans = instruments.spans
    first_op, first_span = len(instruments.ops), len(spans.start)
    spans.draw_bytes, spans.draw_seeds = 0, set()
    instruments.install(traced)
    cpu0, t0 = time.process_time(), time.perf_counter()
    table, bytes_written, error = None, 0, None
    try:
        table, bytes_written = workload.run_pass(state, GL, instruments.ops)
    except Exception as exc:  # an op or the pass raised: count it, keep measuring
        error = f"{type(exc).__name__}: {exc}"
    t1, cpu1 = time.perf_counter(), time.process_time()
    instruments.uninstall()

    ops = instruments.ops[first_op:]
    problems = [(i, op["error"]) for i, op in enumerate(ops) if "error" in op]
    if error is not None:
        problems.append((None, error))
    else:
        problems += workload.check(config, table, ops)
        if reference is not None:
            found, summary = compare(table, reference["rows"])
            problems += found
            comparison["cells_changed"] = max(comparison["cells_changed"], summary["cells_changed"])
            comparison["max_rel_diff"] = max(comparison["max_rel_diff"], summary["max_rel_diff"])
            comparison["changed"] = summary["changed"] or comparison["changed"]
    failed = {i for i, _ in problems if i is not None}
    unattributed = sum(1 for i, _ in problems if i is None)
    record = {
        "wall_s": t1 - t0, "cpu_s": cpu1 - cpu0, "traced": traced,
        "ops": [first_op, len(instruments.ops)], "spans": [first_span, len(spans.start)],
        "draw_bytes": spans.draw_bytes, "distinct_seeds": len(spans.draw_seeds),
        "bytes_written": bytes_written,
        "failed_ops": min(len(failed) + unattributed, max(len(ops), 1)),
    }
    return record, table, problems


def main(argv=None) -> int:
    args = _parse(argv)
    workload = WORKLOADS[args.workload]
    config = workload.config(args.seed, args.size)
    os.makedirs(args.workdir, exist_ok=True)
    instruments = Instruments(grclab, vars(GL), np.linalg)
    spans = instruments.spans

    if args.trace:
        instruments.install(traced=True)
    state = workload.setup(config, args.workdir, GL)
    instruments.uninstall()
    t_ready = time.monotonic()
    setup_spans = len(spans.start)
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    ref_file = reference_path(args.reference_dir, workload.name, args.size)
    reference = None if args.write_reference else load_reference(ref_file, config, args.seed)
    comparison = {"compared": reference is not None, "cells_changed": 0,
                  "max_rel_diff": 0.0, "changed": []}
    passes, problems = [], []
    t_first = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        record, table, found = run_pass(workload, config, state, instruments, traced,
                                        reference, comparison)
        problems += [[len(passes), i, msg] for i, msg in found]
        passes.append(record)
        if args.write_reference:
            if found:
                print(f"reference not written, the pass had problems: {found[:3]}", file=sys.stderr)
                return 1
            os.makedirs(args.reference_dir, exist_ok=True)
            with open(ref_file, "w", encoding="utf-8") as handle:
                json.dump({"workload": workload.name, "size": args.size,
                           "config_sha256": config_hash(config), "config": config,
                           "rows": [cells for _, cells in table]}, handle, indent=0)
                handle.write("\n")
            break
        # Start another pass only if one as long as the last still fits;
        # a traced run needs one untraced and one traced pass at least.
        elapsed = time.perf_counter() - t_first
        if elapsed + record["wall_s"] > args.seconds and len(passes) >= 1 + args.trace:
            break

    spans_file = None
    if args.trace:
        spans_file = os.path.join(args.workdir, f"spans-seed{args.seed}.npz")
        np.savez(spans_file, names=np.array(spans.names), setup_spans=setup_spans,
                 **spans.arrays())
    print(json.dumps({
        "t_ready": t_ready,
        "provenance": provenance(workload.name, config),
        "passes": passes,
        "ops": [{"s": op["end"] - op["start"], "reps": op["reps"]} for op in instruments.ops],
        "problems": problems[:50],
        "comparison": comparison,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans_file": spans_file,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""grclab benchmark: run one workload at one seed and print its metrics.

    python3 bench/run.py --workload figure-b --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` beside this
directory.  Workloads: figure-b, verify, gram-wide (see workloads.py and
README.md).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Provenance and a readable summary are printed before it, and the full
record is written under ``bench/out/``.

``--write-reference`` runs one pass and records its table as the
reference that later runs with the same config are compared against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from spans import DRAW_NAMES, EIGH_NAME, OP_NAME, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up is measured in this many processes per run; the median is reported.
SETUP_SAMPLES = 7
# Every child is killed if the run is still going this long after it started.
DEADLINE_S = 170

END_TO_END_UNITS = {
    "setup_s": "s", "reps_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "sampler.calls": "count", "sampler.draw_s": "s", "sampler.bytes_out": "B",
    "sampler.distinct_ratio": "ratio", "sampler.seed_s": "s",
    "risk.mc_self_s": "s", "risk.replications": "count",
    "risk.cond_calls": "count", "risk.cond_self_s": "s",
    "linalg.eigh_calls": "count", "linalg.eigh_s": "s",
    "regularizers.calls": "count", "regularizers.self_s": "s",
    "theory.calls": "count", "theory.self_s": "s",
    "oracle.calls": "count", "oracle.self_s": "s",
    "estimators.calls": "count", "estimators.self_s": "s",
    "model.self_s": "s",
    "cli.self_s": "s", "cli.bytes_written": "B", "cli.max_rel_diff": "ratio",
    "cli.cells_changed": "count",
    "process.cpu_s": "s", "process.cpu_util": "ratio",
    "trace.overhead_ratio": "ratio", "trace.unattributed_s": "s",
}
COND_NAMES = ("risk.conditional_risk", "risk.conditional_risk_joint")


def _parse(argv):
    p = argparse.ArgumentParser(description="grclab benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny sizes are for the smoke test")
    p.add_argument("--reference-dir", default=os.path.join(BENCH, "reference"))
    p.add_argument("--write-reference", action="store_true")
    return p.parse_args(argv)


def _worker(args, workdir, deadline, extra=()):
    """Run worker.py to its end, return (its set-up time, its JSON result)."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
           "--workdir", workdir, "--reference-dir", args.reference_dir, *extra]
    env = dict(os.environ)
    env.pop("GRCL_THREADS", None)
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - t_spawn, 1.0), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["t_ready"] - t_spawn, result


def _source_identity() -> dict:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "grclab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=False)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except OSError:
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def end_to_end(result, setups) -> dict:
    passes, ops = result["passes"], result["ops"]
    times = [op["s"] for op in ops]
    return {
        "setup_s": statistics.median(setups),
        "reps_per_s": statistics.median(
            sum(op["reps"] for op in ops[p["ops"][0]:p["ops"][1]]) / p["wall_s"] for p in passes),
        "op_p50_s": statistics.median(times),
        "op_tail_s": statistics.quantiles(times, n=10, method="inclusive")[-1],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result) -> dict:
    """One set-up plus one traced pass, the median over traced passes."""
    with np.load(result["spans_file"]) as data:
        names = [str(n) for n in data["names"]]
        start, end, name, parent = data["start"], data["end"], data["name"], data["parent"]
        setup_spans = int(data["setup_spans"])
    own = self_times(start, end, parent)
    dur = end - start

    def by_name(lo, hi):
        counts = np.bincount(name[lo:hi], minlength=len(names))
        selfs = np.bincount(name[lo:hi], weights=own[lo:hi], minlength=len(names))
        return ({n: int(counts[i]) for i, n in enumerate(names)},
                {n: float(selfs[i]) for i, n in enumerate(names)})

    def total(table, wanted):
        return sum(v for n, v in table.items() if wanted(n))

    setup_counts, setup_selfs = by_name(0, setup_spans)
    untraced = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    samples = []
    for p in traced:
        lo, hi = p["spans"]
        counts, selfs = by_name(lo, hi)
        for n in names:
            counts[n] += setup_counts[n]
            selfs[n] += setup_selfs[n]
        draws = total(counts, lambda n: n in DRAW_NAMES)
        roots = parent[lo:hi] < 0
        m = {
            "sampler.calls": draws,
            "sampler.draw_s": total(selfs, lambda n: n in DRAW_NAMES),
            "sampler.bytes_out": p["draw_bytes"],
            "sampler.distinct_ratio": p["distinct_seeds"] / draws if draws else 0.0,
            "sampler.seed_s": selfs.get("sampler.stream_seed", 0.0),
            "risk.mc_self_s": selfs.get(OP_NAME, 0.0),
            "risk.replications": sum(op["reps"] for op in result["ops"][p["ops"][0]:p["ops"][1]]),
            "risk.cond_calls": total(counts, lambda n: n in COND_NAMES),
            "risk.cond_self_s": total(selfs, lambda n: n in COND_NAMES),
            "linalg.eigh_calls": counts.get(EIGH_NAME, 0),
            "linalg.eigh_s": selfs.get(EIGH_NAME, 0.0),
            "cli.bytes_written": p["bytes_written"],
            "trace.unattributed_s": p["wall_s"] - float(dur[lo:hi][roots].sum()),
        }
        for layer in ("regularizers", "theory", "oracle", "estimators"):
            m[f"{layer}.calls"] = total(counts, lambda n, pre=layer + ".": n.startswith(pre))
        for layer in ("regularizers", "theory", "oracle", "estimators", "model", "cli"):
            m[f"{layer}.self_s"] = total(selfs, lambda n, pre=layer + ".": n.startswith(pre))
        samples.append(m)
    metrics = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    wall_untraced = statistics.median(p["wall_s"] for p in untraced)
    cpu_untraced = statistics.median(p["cpu_s"] for p in untraced)
    metrics.update({
        "cli.max_rel_diff": result["comparison"]["max_rel_diff"],
        "cli.cells_changed": result["comparison"]["cells_changed"],
        "process.cpu_s": cpu_untraced,
        "process.cpu_util": cpu_untraced / wall_untraced,
        "trace.overhead_ratio": statistics.median(p["wall_s"] for p in traced) / wall_untraced - 1.0,
    })
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "grclab", "__init__.py")):
        print(f"no grclab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(BENCH, "out", f"{args.workload}.{args.size}")
    try:
        setups = []
        if not args.trace and not args.write_reference:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_worker(args, workdir, deadline, ("--setup-only",))[0])
        extra = ("--write-reference",) if args.write_reference else ()
        setup, result = _worker(args, workdir, deadline, extra)
        setups.append(setup)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    attempted = len(result["ops"])
    failed = sum(p["failed_ops"] for p in result["passes"])
    if args.trace:
        values, units = per_layer(result), PER_LAYER_UNITS
    else:
        values, units = end_to_end(result, setups), END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    provenance = dict(result["provenance"], **_source_identity())
    record = {"provenance": provenance, "setups_s": setups, "metrics": metrics,
              "passes": result["passes"], "ops": result["ops"],
              "problems": result["problems"], "comparison": result["comparison"]}
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, f"result-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(f"{args.workload}: {len(result['passes'])} passes, {attempted} ops "
          f"(op_tail_s is their 90th percentile), "
          f"{failed} failed, reference compared: {result['comparison']['compared']}")
    for problem in result["problems"][:10]:
        print(f"  problem in pass {problem[0]}, op {problem[1]}: {problem[2]}")
    for key, metric in metrics.items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

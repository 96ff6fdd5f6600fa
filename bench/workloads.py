"""The benchmark workloads: inputs made from a seed, one pass, output checks.

Each workload turns (seed, size) into a config, sets the program up from
it, and then runs *passes*.  A pass is what a researcher runs to get one
result: one CSV from a sweep, or one round of all six verify suites.
Every pass produces a table (a list of rows of text cells) that is
checked for invariants at any seed and, where a reference was recorded
for the same config, compared cell by cell.

Why these workloads (the prediction table is in README.md):

- figure-b is the dense d x d risk path; all 18 rows redraw the same
  (n, rep) designs, so sampling, products, eigh and top-k memory do
  real work and could be shared across rows.
- verify is many tiny one-hot replications, where per-call Python
  overhead (seed derivation, one-hot scans, the one-hot risk path,
  enumeration, surrogates, binomial moments) is the cost.
- gram-wide has d above the dense-path limit, so the n x n Gram risk
  path runs; products and memory dominate and no regularizer is built.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

DEFAULT_SEED = 1
# A cell whose value moved by more than this share of its magnitude fails.
REL_TOL = 1e-6

CSV_HEADER = (
    "algorithm,n,k,reps,excess_mean,excess_stderr,"
    "bias_mean,variance_mean,theory_bias,theory_variance"
).split(",")
VALUE_COLUMNS = range(4, 8)
THEORY_COLUMNS = range(8, 10)


def config_hash(config: dict) -> str:
    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _fmt(value: float) -> str:
    return f"{float(value):.12g}"


def _nonnegative_finite(text: str) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    return math.isfinite(value) and value >= 0.0


class Sweep:
    """A sweep written by the program as a fixed-schema CSV."""

    sweep = ""  # name of the cli function that runs the sweep

    def config_fields(self, config: dict, workdir: str, gl) -> dict:
        """The ``key = value`` lines of the config file, minus ``output``."""
        raise NotImplementedError

    def expected_labels(self, config: dict) -> list:
        raise NotImplementedError

    def setup(self, config: dict, workdir: str, gl):
        fields = self.config_fields(config, workdir, gl)
        fields["output"] = os.path.join(workdir, f"{self.name}.csv")
        path = os.path.join(workdir, f"{self.name}.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(f"{key} = {value}\n" for key, value in fields.items())
        return gl.cli.load_config(path)

    def run_pass(self, state, gl, ops) -> tuple[list, int]:
        path = getattr(gl.cli, self.sweep)(state)
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        lines = text.splitlines()
        table = [(None, lines[0].split(","))]
        table += [(i, line.split(",")) for i, line in enumerate(lines[1:])]
        return table, len(text.encode())

    def check(self, config: dict, table: list, ops: list) -> list:
        """Invariants that hold at any seed, as (op index or None, message)."""
        problems = []
        if table[0][1] != CSV_HEADER:
            problems.append((None, f"header is {table[0][1]}"))
        rows = table[1:]
        labels = self.expected_labels(config)
        if len(rows) != len(labels):
            problems.append((None, f"{len(rows)} rows, expected {len(labels)}"))
        for (op, cells), label in zip(rows, labels):
            if len(cells) != len(CSV_HEADER):
                problems.append((op, f"row {op} has {len(cells)} cells"))
                continue
            if tuple(cells[:4]) != label:
                problems.append((op, f"row {op} is labelled {cells[:4]}, expected {list(label)}"))
            for col in VALUE_COLUMNS:
                if not _nonnegative_finite(cells[col]):
                    problems.append((op, f"row {op} {CSV_HEADER[col]}={cells[col]!r}"))
            for col in THEORY_COLUMNS:
                if cells[col] != "":
                    problems.append((op, f"row {op} {CSV_HEADER[col]} set on a gaussian design"))
        return problems


class FigureB(Sweep):
    """``sweep-k`` on P(15), Gaussian, d=200, n=5000: k=0..15, ocl, joint."""

    name = "figure-b"
    sweep = "run_sweep_k"
    sizes = {
        "full": {"pk_k": 15, "pk_d": 200, "n": 5000, "k_values": list(range(16)), "reps": 2},
        "tiny": {"pk_k": 3, "pk_d": 12, "n": 60, "k_values": list(range(4)), "reps": 2},
    }

    def config(self, seed: int, size: str) -> dict:
        return dict(self.sizes[size], algorithms="grcl:topk:5", design="gaussian", seed=seed)

    def config_fields(self, config, workdir, gl):
        fields = {key: config[key] for key in ("pk_k", "pk_d", "design", "algorithms", "n")}
        fields["k_values"] = ", ".join(str(k) for k in config["k_values"])
        fields.update(reps=config["reps"], seed=config["seed"])
        return fields

    def expected_labels(self, config):
        n, reps = str(config["n"]), str(config["reps"])
        labels = [("grcl", n, str(k), reps) for k in config["k_values"]]
        return labels + [("ocl", n, "", reps), ("joint", n, "", reps)]

    def check(self, config, table, ops):
        problems = super().check(config, table, ops)
        rows = {(cells[0], cells[2]): (op, cells) for op, cells in table[1:]}
        k0, ocl = rows.get(("grcl", "0")), rows.get(("ocl", ""))
        # The k=0 memory is empty and shares the ocl row's seed streams.
        if k0 and ocl and k0[1][3:] != ocl[1][3:]:
            problems.append((k0[0], "k=0 row differs from the ocl row"))
        return problems


class GramWide(Sweep):
    """``sweep-n`` of ocl on crit-11's power-law pair, d above the dense limit."""

    name = "gram-wide"
    sweep = "run_sweep_n"
    sizes = {
        "full": {"d": 24000, "n_values": [250, 500, 1000], "reps": 2},
        "tiny": {"d": 4200, "n_values": [20, 40], "reps": 2},
    }

    def config(self, seed: int, size: str) -> dict:
        pair = {"g_log_power": 2.0, "h_log_power": 2.5, "sigma2": 1.0}
        return dict(self.sizes[size], pair=pair, algorithms="ocl", seed=seed)

    def config_fields(self, config, workdir, gl):
        d, pair = config["d"], config["pair"]
        i = np.arange(1, d + 1)
        inst = gl.model.ProblemInstance(
            w_star=np.concatenate([[1.0], np.zeros(d - 1)]),
            sigma2=pair["sigma2"],
            g=gl.model.make_spectrum(1.0 / (i * np.log(i + 1) ** pair["g_log_power"])),
            h=gl.model.make_spectrum(1.0 / (i * np.log(i + 1) ** pair["h_log_power"])),
            design=gl.model.Design.GAUSSIAN,
        )
        instance_path = os.path.join(workdir, "gram-wide.instance")
        with open(instance_path, "w", encoding="utf-8") as handle:
            handle.write(gl.model.instance_to_text(inst))
        return {
            "instance": instance_path,
            "algorithms": config["algorithms"],
            "n_values": ", ".join(str(n) for n in config["n_values"]),
            "reps": config["reps"],
            "seed": config["seed"],
        }

    def expected_labels(self, config):
        reps = str(config["reps"])
        return [("ocl", str(n), "", reps) for n in config["n_values"]]


class Verify:
    """All six verify suites through ``cli.suite_*`` at their default families.

    The default seed runs every suite at its own default seed; seed s
    shifts each suite seed by s - 1.  Only the oracle and theorem1
    replication counts are reduced from the defaults.
    """

    name = "verify"
    suite_seeds = {"oracle": 7, "theorem1": 2024, "reductions": 11, "example1": 5, "example2": 13}
    sizes = {
        "full": {
            "lemmas": {},
            "oracle": {"instances": 10, "reps": 500},
            "theorem1": {"instances": 50, "reps": 250},
            "reductions": {"problems": 100},
            "example1": {"reps": 400},
            "example2": {"regularizers": 20, "reps": 600},
        },
        "tiny": {
            "lemmas": {},
            "oracle": {"instances": 2, "reps": 200},
            "theorem1": {"instances": 3, "reps": 100},
            "reductions": {"problems": 10},
            "example1": {"reps": 100},
            "example2": {"regularizers": 3, "reps": 100},
        },
    }

    def config(self, seed: int, size: str) -> dict:
        suites = {}
        for suite, kwargs in self.sizes[size].items():
            suites[suite] = dict(kwargs)
            if suite in self.suite_seeds:
                suites[suite]["seed"] = self.suite_seeds[suite] + seed - DEFAULT_SEED
        return {"suites": suites, "seed": seed}

    def setup(self, config, workdir, gl):
        return config["suites"]

    @staticmethod
    def expected_ops(suite: str, kwargs: dict) -> int:
        return {
            "oracle": 4 * kwargs.get("instances", 0),
            "theorem1": kwargs.get("instances", 0),
            "example1": 6,
            "example2": kwargs.get("regularizers", 0),
        }.get(suite, 0)

    def run_pass(self, state, gl, ops):
        first = len(ops)
        table = []
        for suite, kwargs in state.items():
            before = len(ops)
            checks = getattr(gl.cli, f"suite_{suite}")(**kwargs)
            for i, record in enumerate(ops[before:], start=before - first):
                table.append((i, ["op", suite, str(i)] + [_fmt(v) for v in record["values"]]))
            table += [(None, ["check", suite, c.name, "PASS" if c.passed else "FAIL"]) for c in checks]
        return table, 0

    def check(self, config, table, ops):
        problems = []
        for suite, kwargs in config["suites"].items():
            got = sum(1 for _, cells in table if cells[:2] == ["op", suite])
            want = self.expected_ops(suite, kwargs)
            if got != want:
                problems.append((None, f"{suite} made {got} ops, expected {want}"))
            if not any(cells[:2] == ["check", suite] for _, cells in table):
                problems.append((None, f"{suite} returned no checks"))
        for op, cells in table:
            if cells[0] == "op":
                problems += [(op, f"op {op} value {v!r}") for v in cells[3:] if not _nonnegative_finite(v)]
            elif cells[3] != "PASS":
                problems.append((None, f"check failed: {cells[1]} {cells[2]}"))
        return problems


WORKLOADS = {w.name: w for w in (FigureB(), Verify(), GramWide())}


def reference_path(reference_dir: str, workload: str, size: str) -> str:
    return os.path.join(reference_dir, f"{workload}.{size}.json")


def compare(table: list, reference_rows: list) -> tuple[list, dict]:
    """Cell-by-cell comparison against a recorded table.

    Returns the violations and a summary: how many cells changed at all,
    the largest relative change of a numeric cell, and the changed cells.
    """
    problems = []
    summary = {"cells_changed": 0, "max_rel_diff": 0.0, "changed": []}
    if len(table) != len(reference_rows):
        problems.append((None, f"{len(table)} rows, reference has {len(reference_rows)}"))
        return problems, summary
    for r, ((op, cells), ref) in enumerate(zip(table, reference_rows)):
        if len(cells) != len(ref):
            problems.append((op, f"row {r} has {len(cells)} cells, reference {len(ref)}"))
            continue
        for c, (got, want) in enumerate(zip(cells, ref)):
            if got == want:
                continue
            summary["cells_changed"] += 1
            try:
                a, b = float(got), float(want)
                rel = abs(a - b) / max(abs(a), abs(b))
            except (ValueError, ZeroDivisionError):
                rel = math.inf
            if math.isfinite(rel):
                summary["max_rel_diff"] = max(summary["max_rel_diff"], rel)
            summary["changed"].append({"row": r, "col": c, "got": got, "reference": want,
                                       "rel": rel if math.isfinite(rel) else None})
            if not rel <= REL_TOL:
                problems.append((op, f"row {r} col {c}: {got} vs reference {want}"))
    return problems, summary

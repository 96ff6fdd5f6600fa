"""Experiment harness: excess-risk sweeps over n and k, plus verify suites.

Configuration is a flat text file of ``key = value`` lines (lists are
comma-separated).  Sweeps write a fixed-schema CSV; given the same config
and seed the output bytes are identical across runs.
Exit codes: 0 success, 1 check failure, 2 config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import theory
from .errors import ConfigParse, GrclabError
from .estimators import Weights, fit_grcl, fit_ocl
from .model import (
    Design,
    ProblemInstance,
    instance_from_text,
    make_problem_pk,
    make_spectrum,
    read_key_values,
)
from .oracle import binomial_mixed_moment, binomial_pmf, exact_one_hot_expected_excess
from .regularizers import Regularizer, zero_regularizer
from .risk import (
    GRCL,
    Frequency,
    Joint,
    L2RCL,
    OCL,
    Replications,
    Sketch,
    TopK,
    check_algorithm,
    monte_carlo_expected_excess,
)

CSV_HEADER = (
    "algorithm,n,k,reps,excess_mean,excess_stderr,"
    "bias_mean,variance_mean,theory_bias,theory_variance"
)

VERIFY_SUITES = ("lemmas", "oracle", "theorem1", "reductions", "example1", "example2")


# -- configuration -------------------------------------------------------------

# Config token prefix -> constructor of its algorithm from the token's parameters.
_ALGORITHM_TOKENS = {
    "ocl": OCL,
    "joint": Joint,
    "l2rcl": lambda gamma: L2RCL(float(gamma)),
    "grcl:topk": lambda k: TopK(int(k)),
    "grcl:sketch": lambda k: Sketch(int(k)),
    "grcl:freq": Frequency,
}


def parse_algorithm_spec(token: str):
    """The algorithm a config token names; ``parse_algorithm_spec(a.label) == a``.

    Labels are canonical: ``ocl``, ``joint``, ``l2rcl:<repr(gamma)>``,
    ``grcl:topk:<k>``, ``grcl:sketch:<k>`` and ``grcl:freq``.
    """
    parts = [p.strip() for p in token.strip().split(":")]
    # The longest known prefix names the algorithm; the rest are its parameters.
    cut = 2 if ":".join(parts[:2]) in _ALGORITHM_TOKENS else 1
    make = _ALGORITHM_TOKENS.get(":".join(parts[:cut]))
    if make is None:
        raise ConfigParse(f"unknown algorithm {token!r}")
    try:
        return make(*parts[cut:])
    except (TypeError, ValueError, GrclabError) as exc:
        raise ConfigParse(f"bad parameters in {token!r}: {exc}") from exc


def default_n_grid() -> list[int]:
    # 8 log-spaced sample sizes in [100, 5000].
    return [int(round(v)) for v in np.geomspace(100, 5000, 8)]


@dataclass(frozen=True)
class ExperimentConfig:
    instance: ProblemInstance
    algorithms: tuple
    n_values: tuple[int, ...]
    k_values: tuple[int, ...]
    n: int
    reps: int
    seed: int
    output_path: str

    def __post_init__(self):
        if self.reps < 2:
            raise ConfigParse(f"reps must be >= 2, got {self.reps}")
        if self.seed < 0:
            raise ConfigParse(f"seed must be >= 0, got {self.seed}")


_KNOWN_KEYS = {
    "pk_k", "pk_d", "instance", "design", "n_values", "k_values", "n",
    "algorithms", "reps", "seed", "output",
}


def _int_list(fields: dict, key: str, default) -> tuple[int, ...]:
    """The comma-separated integers under ``key``, or ``default`` when it is absent."""
    if key not in fields:
        return tuple(default)
    return tuple(int(v) for v in fields[key].split(",") if v.strip())


def load_config(path: str) -> ExperimentConfig:
    """Parse a ``key = value`` config file into an :class:`ExperimentConfig`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc
    return config_from_fields(read_key_values(text, path, _KNOWN_KEYS))


def config_from_fields(fields: dict) -> ExperimentConfig:
    if "instance" in fields:
        conflicting = sorted(fields.keys() & {"pk_k", "pk_d", "design"})
        if conflicting:
            raise ConfigParse(f"instance excludes {', '.join(conflicting)}: the instance file sets them")
    try:
        design = Design(fields.get("design", "gaussian"))
    except ValueError as exc:
        raise ConfigParse(f"unknown design {fields.get('design')!r}") from exc
    try:
        if "instance" in fields:
            with open(fields["instance"], "r", encoding="utf-8") as handle:
                inst = instance_from_text(handle.read())
        else:
            pk_k = int(fields.get("pk_k", 15))
            pk_d = int(fields.get("pk_d", 200))
            inst = make_problem_pk(pk_k, pk_d, design)
        algorithms = tuple(
            parse_algorithm_spec(tok)
            for tok in fields.get("algorithms", "ocl,joint,grcl:topk:5").split(",")
            if tok.strip()
        )
        return ExperimentConfig(
            instance=inst,
            algorithms=algorithms,
            n_values=_int_list(fields, "n_values", default_n_grid()),
            k_values=_int_list(fields, "k_values", range(16)),
            n=int(fields.get("n", 5000)),
            reps=int(fields.get("reps", 20)),
            seed=int(fields.get("seed", 1)),
            output_path=fields.get("output", "sweep.csv"),
        )
    except (ValueError, OSError, GrclabError) as exc:
        if isinstance(exc, ConfigParse):
            raise
        raise ConfigParse(str(exc)) from exc


# -- sweeps --------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{float(value):.12g}"


def _theory_columns(algorithm, inst: ProblemInstance, n: int) -> tuple[str, str]:
    """Matching closed-form surrogates, empty when no formula applies."""
    report = algorithm.theory_one_hot(inst, n) if inst.design is Design.ONE_HOT else None
    if report is None:
        return "", ""
    return _fmt(report.bias_surrogate), _fmt(report.variance_surrogate)


def _run_cells(config: ExperimentConfig, cells: list) -> str:
    """Write one CSV row per (algorithm, n, column) cell, in the order given.

    Every cell is checked before the first draw, with the output path,
    so a bad config costs no compute and leaves no partial CSV.  All
    cells share one ``Replications`` over the distinct n, run one n at a
    time, so one size's kept replications are alive at a time; a wide
    Gaussian replication is drawn once, at the largest n, and its first
    row computes the memory-free risks of every n.  Each row is still one
    ``monte_carlo_expected_excess`` call.  The CSV is written once, at
    the end.
    """
    directory = os.path.dirname(config.output_path) or "."
    if not os.path.isdir(directory):
        raise ConfigParse(f"output directory {directory!r} does not exist")
    if os.path.isdir(config.output_path):
        raise ConfigParse(f"output {config.output_path!r} is a directory")
    inst, reps, seed = config.instance, config.reps, config.seed
    for algorithm, n, _ in cells:
        try:
            check_algorithm(algorithm, inst, n)
        except GrclabError as exc:
            raise ConfigParse(f"{algorithm.label} at n={n}: {exc}") from exc
    rows = [CSV_HEADER] + [""] * len(cells)
    sizes = dict.fromkeys(n for _, n, _ in cells)
    shared = Replications(inst, list(sizes), reps, seed)
    for n in sizes:
        for row, (algorithm, cell_n, column) in enumerate(cells, 1):
            if cell_n != n:
                continue
            estimate, decomp = monte_carlo_expected_excess(
                inst, algorithm, n, reps, seed, replications=shared
            )
            k = "".join(algorithm.label.split(":")[2:])  # the k of grcl:<memory>:<k>
            values = map(_fmt, (estimate.mean, estimate.std_error, decomp.bias, decomp.variance))
            theory = _theory_columns(algorithm, inst, n)
            rows[row] = ",".join([column, str(n), k, str(reps), *values, *theory])
    with open(config.output_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(rows) + "\n")
    return config.output_path


def run_sweep_n(config: ExperimentConfig) -> str:
    """Excess risk of each configured algorithm across the sample-size grid.

    Rows are written algorithm by algorithm; every algorithm at one n
    shares the replications drawn for it.
    """
    if not config.n_values:
        raise ConfigParse("sweep-n needs a nonempty n_values list")
    return _run_cells(config, [(a, n, a.label) for a in config.algorithms for n in config.n_values])


def run_sweep_k(config: ExperimentConfig) -> str:
    """Memory sweep at fixed n: one GRCL row per k, plus ocl/joint baselines.

    The k rows vary the k of the first configured grcl algorithm (top-k
    when there is none).  All rows share one set of replications.
    """
    if not config.k_values:
        raise ConfigParse("sweep-k needs a nonempty k_values list")
    base = next((a for a in config.algorithms if a.name == "grcl"), TopK(0))
    if not isinstance(base, (TopK, Sketch)):
        raise ConfigParse("sweep-k needs a grcl regularizer with a k (topk or sketch)")
    try:
        algorithms = [dataclasses.replace(base, k=k) for k in config.k_values]
    except GrclabError as exc:
        raise ConfigParse(f"sweep-k: {exc}") from exc
    algorithms += [OCL(), Joint()]
    return _run_cells(config, [(a, config.n, a.name) for a in algorithms])


# -- verification suites --------------------------------------------------------

@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    measured: str
    required: str


def _check(name: str, passed: bool, measured, required) -> Check:
    return Check(name=name, passed=bool(passed), measured=str(measured), required=str(required))


FLOAT_SLACK = 1e-12


def suite_lemmas() -> list[Check]:
    """Exact binomial moments against the proof-level sandwich constants."""
    checks = []
    for n in (2, 4, 8, 16, 32, 64):
        head = np.linspace(1.0 / n, 1.0, 20)
        tail = np.linspace(1.0 / (20 * n), 1.0 / n, 20)
        worst_head = worst_tail = worst_zero = worst_shift = 0.0
        ok_head = ok_tail = ok_zero = ok_shift = True
        for lam in head:
            m = binomial_mixed_moment(n, lam, 0.0, 1, 0)
            lo, hi = 1.0 / (4 * n * lam), 12.0 / (n * lam)
            ok_head &= lo - FLOAT_SLACK <= m <= hi + FLOAT_SLACK
            worst_head = max(worst_head, m / hi, lo / max(m, 1e-300))
        for lam in tail:
            m = binomial_mixed_moment(n, lam, 0.0, 1, 0)
            lo, hi = n * lam / math.e, n * lam
            ok_tail &= lo - FLOAT_SLACK <= m <= hi + FLOAT_SLACK
            worst_tail = max(worst_tail, m / hi, lo / max(m, 1e-300))
        for lam in np.concatenate([tail, head]):
            gap = abs(binomial_pmf(n, lam)[0] - (1 - lam) ** n)
            ok_zero &= gap <= FLOAT_SLACK
            worst_zero = max(worst_zero, gap)
        for lam in head:
            for gamma in (0.5 / n, 2.0 / n, 0.25, 1.0):
                m = binomial_mixed_moment(n, lam, n * gamma, 2, 0)
                base = 1.0 / (n**2 * (lam + gamma) ** 2) + (1 - lam) ** n / (
                    n**2 * gamma**2
                )
                ok_shift &= 0.5 * base - FLOAT_SLACK <= m <= 144.0 * base + FLOAT_SLACK
                worst_shift = max(worst_shift, m / (144 * base), 0.5 * base / max(m, 1e-300))
        checks.append(_check(f"lemma1/head-inverse n={n}", ok_head, f"ratio<={worst_head:.3g}", "in [1/(4nl), 12/(nl)]"))
        checks.append(_check(f"lemma2/tail-inverse n={n}", ok_tail, f"ratio<={worst_tail:.3g}", "in [nl/e, nl]"))
        checks.append(_check(f"lemma3/zero-mass n={n}", ok_zero, f"gap<={worst_zero:.3g}", "== (1-l)^n"))
        checks.append(_check(f"lemma4/shifted-square n={n}", ok_shift, f"ratio<={worst_shift:.3g}", "in [base/2, 144 base]"))
    return checks


def _one_hot_instance(mu, lam, w) -> ProblemInstance:
    """One-hot instance with task spectra ``mu``, ``lam``, target ``w`` and unit noise."""
    return ProblemInstance(
        w_star=w, sigma2=1.0,
        g=make_spectrum(mu, one_hot=True), h=make_spectrum(lam, one_hot=True),
        design=Design.ONE_HOT,
    )


def random_one_hot_instance(rng: np.random.Generator, d: int, n: int) -> ProblemInstance:
    """Random one-hot instance whose last two coordinates are below 1/n.

    Forcing a sub-threshold pair in both spectra keeps the bias events
    frequent enough for Monte Carlo to resolve at moderate replication
    counts.
    """
    tail = 0.25 / n
    mu = np.concatenate([rng.dirichlet(np.ones(d - 2)) * (1 - 2 * tail), [tail, tail]])
    lam = np.concatenate([rng.dirichlet(np.ones(d - 2)) * (1 - 2 * tail), [tail, tail]])
    w = rng.uniform(0.3, 1.0, d) * rng.choice([-1.0, 1.0], d)
    w /= np.linalg.norm(w)
    return _one_hot_instance(mu, lam, w)


def random_diagonal_regularizer(rng: np.random.Generator, d: int) -> Regularizer:
    gamma = rng.uniform(0.0, 1.0, d) * (rng.random(d) < 0.6)
    return Regularizer(form="diagonal", values=gamma)


_SANDWICH_FLOOR = 1e-9


def _sandwich_ok(measured: float, surrogate: float, factor: float) -> bool:
    if measured <= _SANDWICH_FLOOR and surrogate <= _SANDWICH_FLOOR:
        return True
    if surrogate <= 0 or measured <= 0:
        return False
    ratio = measured / surrogate
    return 1.0 / factor <= ratio <= factor


def suite_theorem1(instances: int = 50, reps: int = 2000, seed: int = 2024,
                   factor: float = 300.0) -> list[Check]:
    """Monte-Carlo risk against the one-hot surrogate, factor-C sandwich."""
    rng = np.random.default_rng(seed)
    checks = []
    worst = 0.0
    all_ok = True
    for idx in range(instances):
        n = (20, 50, 100)[idx % 3]
        d = int(rng.integers(4, 21))
        inst = random_one_hot_instance(rng, d, n)
        sigma = random_diagonal_regularizer(rng, d)
        _, decomp = monte_carlo_expected_excess(
            inst, GRCL(regularizer=sigma), n, reps, seed=int(rng.integers(2**31))
        )
        report = theory.grcl_theory_one_hot(inst, sigma, n)
        pairs = [
            ("bias", decomp.bias, report.bias_surrogate),
            ("variance", decomp.variance, report.variance_surrogate),
            ("total", decomp.total, report.bias_surrogate + report.variance_surrogate),
        ]
        for name, measured, surrogate in pairs:
            ok = _sandwich_ok(measured, surrogate, factor)
            all_ok &= ok
            if surrogate > _SANDWICH_FLOOR and measured > 0:
                worst = max(worst, measured / surrogate, surrogate / measured)
            if not ok:
                checks.append(_check(
                    f"theorem1/instance{idx}/{name}", False,
                    f"measured={measured:.6g} surrogate={surrogate:.6g}",
                    f"ratio in [1/{factor:g}, {factor:g}]",
                ))
    checks.append(_check(
        f"theorem1/sandwich x{instances}", all_ok,
        f"worst ratio {worst:.4g}", f"<= {factor:g}",
    ))
    return checks


def suite_oracle(instances: int = 10, reps: int = 10**4, seed: int = 7,
                 d: int = 2, n: int = 4) -> list[Check]:
    """Monte Carlo against exhaustive enumeration, all four algorithms."""
    rng = np.random.default_rng(seed)
    checks = []
    for idx in range(instances):
        mu = rng.dirichlet(np.ones(d) * 2.0)
        lam = rng.dirichlet(np.ones(d) * 2.0)
        w = rng.standard_normal(d)
        w /= np.linalg.norm(w)
        inst = _one_hot_instance(mu, lam, w)
        for algorithm in map(parse_algorithm_spec, ("ocl", "l2rcl:0.3", "grcl:freq", "joint")):
            exact = exact_one_hot_expected_excess(inst, n, algorithm)
            estimate, _ = monte_carlo_expected_excess(
                inst, algorithm, n, reps, seed=int(rng.integers(2**31))
            )
            gap = abs(estimate.mean - exact.total)
            window = 4.0 * estimate.std_error + FLOAT_SLACK
            checks.append(_check(
                f"oracle/instance{idx}/{algorithm.name}", gap <= window,
                f"|mc-exact|={gap:.3g}", f"<= 4 stderr = {window:.3g}",
            ))
    return checks


def suite_reductions(problems: int = 100, seed: int = 11) -> list[Check]:
    """Exact reduction identities of the regularized second-phase fit."""
    rng = np.random.default_rng(seed)
    ok_closed = ok_zero = ok_stationary = True
    worst_closed = worst_zero = worst_stat = 0.0
    for _ in range(problems):
        n = int(rng.integers(3, 13))
        d = int(rng.integers(2, 11))
        x2 = rng.standard_normal((n, d))
        y2 = rng.standard_normal(n)
        w1 = Weights(rng.standard_normal(d))
        gamma = float(np.exp(rng.uniform(np.log(1e-4), np.log(10.0))))

        iso = Regularizer(form="diagonal", values=np.full(d, gamma))
        got = fit_grcl(x2, y2, w1, iso).w
        closed = np.linalg.solve(
            x2.T @ x2 + n * gamma * np.eye(d), x2.T @ y2 + n * gamma * w1.w
        )
        err = float(np.linalg.norm(got - closed) / (1 + np.linalg.norm(closed)))
        ok_closed &= err <= 1e-10
        worst_closed = max(worst_closed, err)

        zero_err = float(np.linalg.norm(
            fit_grcl(x2, y2, w1, zero_regularizer(d)).w - fit_ocl(x2, y2, w1).w
        ))
        ok_zero &= zero_err <= 1e-12
        worst_zero = max(worst_zero, zero_err)

        sigma = random_diagonal_regularizer(rng, d)
        w2 = fit_grcl(x2, y2, w1, sigma).w
        resid = x2.T @ (x2 @ w2 - y2) / n + sigma.values * (w2 - w1.w)
        scale = max(1.0, float(np.linalg.norm(x2.T @ y2) / n))
        stat = float(np.linalg.norm(resid) / scale)
        ok_stationary &= stat <= 1e-8
        worst_stat = max(worst_stat, stat)
    return [
        _check("reductions/l2rcl-closed-form", ok_closed, f"max err {worst_closed:.3g}", "<= 1e-10"),
        _check("reductions/zero-sigma-is-ocl", ok_zero, f"max err {worst_zero:.3g}", "<= 1e-12"),
        _check("reductions/stationarity", ok_stationary, f"max resid {worst_stat:.3g}", "<= 1e-8"),
    ]


def dominant_feature_instance(n: int) -> ProblemInstance:
    """Single dominant task-1 atom whose task-2 weight sits at the 1/n edge."""
    mu = np.array([1.0, 0.0])
    lam = np.array([1.0 / n, 1.0 - 1.0 / n])
    w = np.array([1.0, 0.0])
    return _one_hot_instance(mu, lam, w)


def suite_example1(reps: int = 400, seed: int = 5) -> list[Check]:
    """Constant-level failure of the unregularized algorithm at the 1/n edge."""
    checks = []
    for n in (50, 200, 1000):
        inst = dominant_feature_instance(n)
        ocl_est, _ = monte_carlo_expected_excess(inst, OCL(), n, reps, seed)
        checks.append(_check(
            f"example1/ocl n={n}", ocl_est.mean >= 0.2,
            f"excess={ocl_est.mean:.4g}", ">= 0.2",
        ))
        joint_est, _ = monte_carlo_expected_excess(inst, Joint(), n, reps, seed)
        joint_bias = theory.joint_theory_one_hot(inst, n).bias_surrogate
        cap = 5.0 / n + joint_bias
        checks.append(_check(
            f"example1/joint n={n}", joint_est.mean <= cap,
            f"excess={joint_est.mean:.4g}", f"<= 5/n + bias = {cap:.4g}",
        ))
    return checks


def blocked_memory_instance(k: int, n: int) -> ProblemInstance:
    """k+1 equally dominant task-1 features, all at the task-2 1/n edge."""
    d = k + 3
    mu = np.zeros(d)
    mu[: k + 1] = 1.0 / (k + 1)
    lam = np.zeros(d)
    lam[: k + 1] = 1.0 / n
    lam[k + 1] = 1.0 - (k + 1) / n
    w = np.zeros(d)
    w[: k + 1] = 1.0 / math.sqrt(k + 1)
    return _one_hot_instance(mu, lam, w)


def suite_example2(regularizers: int = 20, reps: int = 600, seed: int = 13,
                   k: int = 3, n: int = 500) -> list[Check]:
    """No size-k memory can cover k+1 mismatched dominant features."""
    rng = np.random.default_rng(seed)
    inst = blocked_memory_instance(k, n)
    checks = []
    for idx in range(regularizers):
        support = rng.choice(inst.d, size=k, replace=False)
        gamma = np.zeros(inst.d)
        gamma[support] = rng.uniform(0.1, 2.0, k)
        sigma = Regularizer(form="diagonal", values=gamma)
        estimate, _ = monte_carlo_expected_excess(
            inst, GRCL(regularizer=sigma), n, reps, seed + idx
        )
        checks.append(_check(
            f"example2/regularizer{idx}", estimate.mean >= 0.1,
            f"excess={estimate.mean:.4g}", ">= 0.1",
        ))
    return checks


_SUITE_RUNNERS = {
    "lemmas": suite_lemmas,
    "oracle": suite_oracle,
    "theorem1": suite_theorem1,
    "reductions": suite_reductions,
    "example1": suite_example1,
    "example2": suite_example2,
}


def run_verify(suite: str | None = None) -> tuple[str, int]:
    """Run every verification suite, or the one named, and render a text report."""
    names = (suite,) if suite else VERIFY_SUITES
    for name in names:
        if name not in _SUITE_RUNNERS:
            raise ConfigParse(f"unknown verify suite {name!r}")
    lines = []
    failures = 0
    for name in names:
        for check in _SUITE_RUNNERS[name]():
            status = "PASS" if check.passed else "FAIL"
            failures += 0 if check.passed else 1
            lines.append(f"{status} {check.name}: {check.measured} (required {check.required})")
    lines.append(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failing check(s)")
    return "\n".join(lines) + "\n", 0 if failures == 0 else 1


# -- entry point ----------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="grclab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("sweep-n", "sweep-k", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        if name == "verify":
            p.add_argument("--suite", default=None, choices=VERIFY_SUITES)
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command != "verify":
            print((run_sweep_n if args.command == "sweep-n" else run_sweep_k)(config))
            return 0
        report, code = run_verify(args.suite)
        print(report, end="")
        return code
    except ConfigParse as exc:
        return _fail(f"config error: {exc}")
    except GrclabError as exc:
        return _fail(f"error: {type(exc).__name__}: {exc}")
    except OSError as exc:
        return _fail(f"io error: {exc}")


def _fail(message: str) -> int:
    """Report a run that could not be done: one stderr line, exit code 2."""
    print(" ".join(message.split()), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())

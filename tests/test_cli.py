import subprocess
import sys

import numpy as np
import pytest

from grclab.cli import (
    CSV_HEADER,
    config_from_fields,
    default_n_grid,
    load_config,
    main,
    parse_algorithm_spec,
    run_sweep_k,
    run_sweep_n,
    run_verify,
)
from grclab.errors import ConfigParse
from grclab.model import Design, ProblemInstance, instance_to_text, make_problem_pk
from grclab.regularizers import Regularizer, corollary3_regularizer, topk_spectrum_regularizer, zero_regularizer
from grclab.risk import Frequency, TopK, monte_carlo_expected_excess
from grclab.theory import grcl_theory_one_hot, joint_theory_one_hot


def write_config(path, text):
    path.write_text(text)
    return str(path)


SMALL_SWEEP = """
# small deterministic sweep
pk_k = 3
pk_d = 8
design = gaussian
n_values = 40, 80
algorithms = ocl, joint, grcl:topk:2
reps = 3
seed = 7
output = {out}
"""

ONE_HOT_SWEEP_N = """
pk_k = 3
pk_d = 8
design = one_hot
n_values = 4, 40
algorithms = ocl, joint, l2rcl:0.1, grcl:topk:2, grcl:sketch:2, grcl:freq
reps = 6
seed = 7
output = {out}
"""


class TestConfig:
    def test_defaults(self):
        cfg = config_from_fields({})
        assert cfg.instance.d == 200
        assert cfg.n_values == tuple(default_n_grid())
        assert cfg.reps == 20
        assert [a.label for a in cfg.algorithms] == ["ocl", "joint", "grcl:topk:5"]

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", "bogus = 1\n")
        with pytest.raises(ConfigParse):
            load_config(path)

    def test_problems_name_file_and_line(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", "# header\nreps = 2   # two\n\nreps = 3\n")
        with pytest.raises(ConfigParse, match=f"^{path}:4: key 'reps' given twice$"):
            load_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigParse):
            load_config("/nonexistent/config.cfg")

    def test_reps_floor(self):
        with pytest.raises(ConfigParse):
            config_from_fields({"reps": "1"})

    @pytest.mark.parametrize(
        "token", ["l2rcl", "l2rcl:x", "l2rcl:-1", "grcl", "grcl:topk", "grcl:bogus:1", "what"]
    )
    def test_bad_algorithm_tokens(self, token):
        with pytest.raises(ConfigParse):
            parse_algorithm_spec(token)

    def test_good_algorithm_tokens(self):
        assert parse_algorithm_spec("l2rcl:0.5").gamma == 0.5
        assert parse_algorithm_spec("grcl:topk:4") == TopK(4)
        assert parse_algorithm_spec("grcl:freq") == Frequency()

    @pytest.mark.parametrize("token, label", [
        ("ocl", "ocl"),
        ("joint", "joint"),
        ("l2rcl:0.1", "l2rcl:0.1"),
        ("l2rcl:0.10", "l2rcl:0.1"),
        ("l2rcl: 1e-3", "l2rcl:0.001"),
        ("l2rcl:2", "l2rcl:2.0"),
        ("grcl:topk:0", "grcl:topk:0"),
        ("grcl:topk: 05", "grcl:topk:5"),
        ("grcl:sketch:3", "grcl:sketch:3"),
        ("grcl:freq", "grcl:freq"),
    ])
    def test_labels_are_canonical_and_parse_back(self, token, label):
        algorithm = parse_algorithm_spec(token)
        assert algorithm.label == label
        assert parse_algorithm_spec(algorithm.label) == algorithm

    def test_instance_file_round_trip(self, tmp_path):
        from grclab.model import Design, instance_to_text, make_problem_pk

        inst_path = tmp_path / "inst.txt"
        inst_path.write_text(instance_to_text(make_problem_pk(2, 5, Design.ONE_HOT)))
        cfg = config_from_fields({"instance": str(inst_path), "reps": "2"})
        assert cfg.instance.d == 5
        assert cfg.instance.design is Design.ONE_HOT


class TestSweeps:
    def test_sweep_n_schema_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cfg1 = load_config(write_config(tmp_path / "c1.cfg", SMALL_SWEEP.format(out=out1)))
        cfg2 = load_config(write_config(tmp_path / "c2.cfg", SMALL_SWEEP.format(out=out2)))
        run_sweep_n(cfg1)
        run_sweep_n(cfg2)
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 2
        row = dict(zip(CSV_HEADER.split(","), lines[1].split(",")))
        assert row["algorithm"] == "ocl"
        assert float(row["excess_mean"]) > 0
        assert row["theory_bias"] == ""  # gaussian rows carry no one-hot theory

    def test_one_hot_sweep_fills_theory_columns(self, tmp_path):
        out = tmp_path / "oh.csv"
        text = """
pk_k = 2
pk_d = 6
design = one_hot
n_values = 30
algorithms = ocl, joint, l2rcl:0.1, grcl:topk:2
reps = 3
seed = 1
output = {out}
""".format(out=out)
        cfg = load_config(write_config(tmp_path / "c.cfg", text))
        run_sweep_n(cfg)
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        header = CSV_HEADER.split(",")
        for row in rows:
            rec = dict(zip(header, row))
            assert rec["theory_bias"] != ""
            assert float(rec["theory_variance"]) > 0

    def test_one_hot_theory_columns_are_the_surrogates(self, tmp_path):
        out = tmp_path / "oh.csv"
        cfg = config_from_fields({
            "pk_k": "3", "pk_d": "10", "design": "one_hot", "n_values": "5, 40",
            "algorithms": "ocl, joint, l2rcl:0.25, grcl:topk:3, grcl:freq, grcl:sketch:3",
            "reps": "2", "seed": "3", "output": str(out),
        })
        run_sweep_n(cfg)
        inst = cfg.instance
        sigmas = {
            "ocl": lambda n: zero_regularizer(inst.d),
            "l2rcl:0.25": lambda n: Regularizer(form="diagonal", values=np.full(inst.d, 0.25)),
            "grcl:topk:3": lambda n: topk_spectrum_regularizer(inst.g, 3),
            "grcl:freq": lambda n: corollary3_regularizer(inst.g, n),
        }
        header = CSV_HEADER.split(",")
        for line in out.read_text().strip().splitlines()[1:]:
            row = dict(zip(header, line.split(",")))
            n = int(row["n"])
            cells = (row["theory_bias"], row["theory_variance"])
            if row["algorithm"] == "grcl:sketch:3":
                assert cells == ("", "")
                continue
            if row["algorithm"] == "joint":
                report = joint_theory_one_hot(inst, n)
            else:
                report = grcl_theory_one_hot(inst, sigmas[row["algorithm"]](n), n)
            assert cells == (f"{report.bias_surrogate:.12g}", f"{report.variance_surrogate:.12g}")

    def test_sweep_k_baselines_and_zero_memory(self, tmp_path):
        out = tmp_path / "k.csv"
        text = """
pk_k = 3
pk_d = 8
design = gaussian
n = 60
k_values = 0, 2
algorithms = grcl:topk:2
reps = 3
seed = 3
output = {out}
""".format(out=out)
        cfg = load_config(write_config(tmp_path / "c.cfg", text))
        run_sweep_k(cfg)
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert [r["algorithm"] for r in rows] == ["grcl", "grcl", "ocl", "joint"]
        by_label = {}
        for r in rows:
            by_label[(r["algorithm"], r["k"])] = r
        # zero memory runs the unregularized update on the same designs
        assert by_label[("grcl", "0")]["excess_mean"] == by_label[("ocl", "")]["excess_mean"]

    def test_empty_n_values_rejected(self, tmp_path):
        cfg = config_from_fields({"n_values": "", "reps": "2"})
        with pytest.raises(ConfigParse):
            run_sweep_n(cfg)

    def test_no_signal_no_noise_sweep_is_zero(self, tmp_path):
        from grclab.model import Design, ProblemInstance, instance_to_text, make_spectrum

        d = 4
        inst = ProblemInstance(
            w_star=np.zeros(d), sigma2=0.0,
            g=make_spectrum(np.full(d, 0.25), one_hot=True),
            h=make_spectrum(np.full(d, 0.25), one_hot=True),
            design=Design.ONE_HOT,
        )
        inst_path = tmp_path / "inst.txt"
        inst_path.write_text(instance_to_text(inst))
        out = tmp_path / "zero.csv"
        cfg = config_from_fields({
            "instance": str(inst_path), "n_values": "20",
            "algorithms": "ocl, joint, grcl:topk:2, l2rcl:0.5",
            "reps": "3", "output": str(out),
        })
        run_sweep_n(cfg)
        for ln in out.read_text().strip().splitlines()[1:]:
            rec = dict(zip(CSV_HEADER.split(","), ln.split(",")))
            assert float(rec["excess_mean"]) == 0.0

    def test_full_memory_not_worse_than_unregularized(self, tmp_path):
        out = tmp_path / "kfull.csv"
        text = """
pk_k = 4
pk_d = 8
design = gaussian
n = 60
k_values = 8
algorithms = grcl:topk:8
reps = 6
seed = 2
output = {out}
""".format(out=out)
        run_sweep_k(load_config(write_config(tmp_path / "c.cfg", text)))
        rows = [
            dict(zip(CSV_HEADER.split(","), ln.split(",")))
            for ln in out.read_text().strip().splitlines()[1:]
        ]
        rec = {r["algorithm"]: r for r in rows}
        grcl_mean = float(rec["grcl"]["excess_mean"])
        ocl_mean = float(rec["ocl"]["excess_mean"])
        window = 2 * (float(rec["grcl"]["excess_stderr"]) + float(rec["ocl"]["excess_stderr"]))
        assert grcl_mean <= ocl_mean + window


SHARED_SWEEP_K = """
pk_k = 3
pk_d = 8
design = gaussian
n = 12
k_values = 0, 1, 3, 8
algorithms = grcl:topk:2
reps = 3
seed = 4
output = {out}
"""

SHARED_SWEEP_N = """
pk_k = 3
pk_d = 8
design = gaussian
n_values = 6, 20
algorithms = ocl, joint, l2rcl:0.2, grcl:topk:3, grcl:sketch:2
reps = 3
seed = 9
output = {out}
"""


def assert_rows_equal_standalone(path, cfg):
    """Every CSV row equals a standalone Monte Carlo estimate of its cell."""
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        token = row["algorithm"]
        if token == "grcl":
            token = f"{cfg.algorithms[0].label.rsplit(':', 1)[0]}:{row['k']}"
        est, dec = monte_carlo_expected_excess(
            cfg.instance, parse_algorithm_spec(token), int(row["n"]),
            cfg.reps, cfg.seed,
        )
        got = [float(row[c]) for c in ("excess_mean", "excess_stderr", "bias_mean", "variance_mean")]
        want = [est.mean, est.std_error, dec.bias, dec.variance]
        assert got == pytest.approx(want, rel=1e-10, abs=1e-300), line


class TestSharedDraws:
    def test_sweep_k_rows_equal_standalone(self, tmp_path):
        out = tmp_path / "k.csv"
        cfg = load_config(write_config(tmp_path / "c.cfg", SHARED_SWEEP_K.format(out=out)))
        run_sweep_k(cfg)
        assert_rows_equal_standalone(out, cfg)

    def test_sweep_k_sketch_rows_equal_standalone(self, tmp_path):
        out = tmp_path / "k.csv"
        text = SHARED_SWEEP_K.replace("grcl:topk:2", "grcl:sketch:2").replace("0, 1, 3, 8", "1, 4")
        cfg = load_config(write_config(tmp_path / "c.cfg", text.format(out=out)))
        run_sweep_k(cfg)
        assert_rows_equal_standalone(out, cfg)

    def test_sweep_n_rows_equal_standalone(self, tmp_path):
        out = tmp_path / "n.csv"
        cfg = load_config(write_config(tmp_path / "c.cfg", SHARED_SWEEP_N.format(out=out)))
        run_sweep_n(cfg)
        lines = out.read_text().strip().splitlines()
        labels = [(ln.split(",")[0], ln.split(",")[1]) for ln in lines[1:]]
        # rows stay algorithm-major although the sweep runs n-major
        assert labels == [(a.label, str(n)) for a in cfg.algorithms for n in (6, 20)]
        assert_rows_equal_standalone(out, cfg)

    def test_zero_memory_rows_share_one_solve(self, tmp_path, monkeypatch):
        # per replication: eigh(A1), the S = A2 + n Sigma of k = 1 and k = 3, one
        # S = A2 that the k = 0 and ocl rows share, and the joint A1 + A2
        calls = []
        eigh = np.linalg.eigh

        def counted(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        out = tmp_path / "k.csv"
        text = SHARED_SWEEP_K.replace("0, 1, 3, 8", "0, 1, 3")
        run_sweep_k(load_config(write_config(tmp_path / "c.cfg", text.format(out=out))))
        assert calls == [(8, 8)] * 5 * 3
        rows = {(cells[0], cells[2]): cells[3:] for cells in (line.split(",") for line in out.read_text().split())}
        assert rows["grcl", "0"] == rows["ocl", ""]


WIDE_SWEEP_N = """
pk_k = 3
pk_d = 4100
design = gaussian
n_values = 5, 9
algorithms = ocl, joint
reps = 3
seed = 4
output = {out}
"""


@pytest.mark.parametrize("text, sweep", [
    (SMALL_SWEEP, run_sweep_n), (ONE_HOT_SWEEP_N, run_sweep_n), (WIDE_SWEEP_N, run_sweep_n),
    (SHARED_SWEEP_K, run_sweep_k),
], ids=["gaussian-sweep-n", "one-hot-sweep-n", "wide-sweep-n", "shared-sweep-k"])
def test_sweeps_write_the_same_bytes_twice(text, sweep, tmp_path):
    csvs = []
    for run in (1, 2):
        out = tmp_path / f"run{run}.csv"
        sweep(load_config(write_config(tmp_path / f"c{run}.cfg", text.format(out=out))))
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


class TestWidePath:
    """sweep-n above the dense limit, where X2 is drawn on a helper thread."""

    def test_sweep_n_rows_equal_standalone(self, tmp_path):
        out = tmp_path / "n.csv"
        cfg = load_config(write_config(tmp_path / "c.cfg", WIDE_SWEEP_N.format(out=out)))
        run_sweep_n(cfg)
        assert_rows_equal_standalone(out, cfg)

    def test_each_replication_is_drawn_once_at_the_largest_n(self, tmp_path, monkeypatch):
        from grclab import sampler

        draws = []
        draw = sampler.sample_gaussian_design

        def counted(s, n, seed):
            draws.append((n, seed))
            return draw(s, n, seed)

        monkeypatch.setattr(sampler, "sample_gaussian_design", counted)
        out = tmp_path / "n.csv"
        text = WIDE_SWEEP_N.replace("n_values = 5, 9", "n_values = 7, 5, 9")
        cfg = load_config(write_config(tmp_path / "c.cfg", text.format(out=out)))
        run_sweep_n(cfg)
        # one X1 and one X2 per replication and kind (ocl, joint), none per n
        assert len(draws) == 2 * 2 * cfg.reps
        assert {n for n, _ in draws} == {9} and len(set(draws)) == 2 * cfg.reps
        assert len(out.read_text().splitlines()) == 1 + 2 * 3

    @pytest.mark.parametrize("design, algorithm", [
        ("gaussian", "l2rcl:0.1"),
        ("gaussian", "grcl:topk:1"),
        ("gaussian", "grcl:sketch:2"),
        ("one_hot", "grcl:topk:1"),
        ("one_hot", "grcl:sketch:2"),
    ])
    def test_d_by_d_memories_exit_2(self, design, algorithm, tmp_path, capsys, monkeypatch):
        from grclab import sampler

        def no_draw(*args):
            raise AssertionError("a design was drawn")

        for name in ("sample_gaussian_design", "gaussian_gram", "sample_one_hot_design", "sample_one_hot_counts",
                     "sample_one_hot_count_block"):
            monkeypatch.setattr(sampler, name, no_draw)
        out = tmp_path / "n.csv"
        path = write_config(tmp_path / "c.cfg", f"pk_k = 3\npk_d = 4100\ndesign = {design}\n"
                                                f"n_values = 5\nalgorithms = ocl, {algorithm}\n"
                                                f"reps = 2\noutput = {out}\n")
        assert main(["sweep-n", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"config error: {algorithm} at n=5: d=4100 is above 4096, ")
        assert not out.exists()

    @pytest.mark.parametrize("design, algorithms", [
        ("gaussian", "ocl, joint, grcl:topk:0"),
        ("one_hot", "ocl, joint, grcl:topk:0, l2rcl:0.1, grcl:freq"),
    ])
    def test_memories_without_d_by_d_matrices_run(self, design, algorithms, tmp_path):
        out = tmp_path / "n.csv"
        path = write_config(tmp_path / "c.cfg", f"pk_k = 3\npk_d = 4100\ndesign = {design}\n"
                                                f"n_values = 5\nalgorithms = {algorithms}\nreps = 2\n"
                                                f"output = {out}\n")
        assert main(["sweep-n", "--config", path]) == 0
        assert len(out.read_text().splitlines()) == 1 + len(algorithms.split(","))


def instance_line(tmp_path, sigma2, repeat=""):
    """An ``instance =`` config line for P(3) at d=8 with noise level ``sigma2``.

    ``repeat`` is a line appended to the instance file, such as a key given twice.
    """
    inst = make_problem_pk(3, 8, Design.GAUSSIAN)
    text = instance_to_text(inst).replace("sigma2=1.0", f"sigma2={sigma2}")
    path = tmp_path / f"inst-{sigma2}{'-repeat' if repeat else ''}.txt"
    path.write_text(text + repeat)
    return f"instance = {path}"


BAD_CONFIGS = {
    "topk-above-n": ("sweep-k", "pk_k = 3\npk_d = 8\nn = 5\nk_values = 0, 6\nalgorithms = grcl:topk:1"),
    "topk-above-d": ("sweep-k", "pk_k = 3\npk_d = 8\nn = 50\nk_values = 9\nalgorithms = grcl:topk:1"),
    "topk-above-n-grid": ("sweep-n", "pk_k = 3\npk_d = 8\nn_values = 40, 4\nalgorithms = grcl:topk:5"),
    "freq-on-gaussian": ("sweep-n", "pk_k = 3\npk_d = 8\nn_values = 40\nalgorithms = ocl, grcl:freq"),
    "sketch-zero": ("sweep-n", "pk_k = 3\npk_d = 8\nn_values = 40\nalgorithms = grcl:sketch:0"),
    "sketch-zero-k": ("sweep-k", "pk_k = 3\npk_d = 8\nn = 40\nk_values = 2, 0\nalgorithms = grcl:sketch:1"),
    "cor3": ("sweep-n", "pk_k = 3\npk_d = 8\nn_values = 40\nalgorithms = grcl:cor3"),
    "zero-n": ("sweep-n", "pk_k = 3\npk_d = 8\nn_values = 40, 0\nalgorithms = ocl"),
    "nan-gamma": ("sweep-n", "pk_k = 3\npk_d = 8\nn_values = 40\nalgorithms = l2rcl:nan"),
    "nan-noise": ("sweep-n", "n_values = 40\nalgorithms = ocl\n{nan}"),
    "inf-noise": ("sweep-k", "n = 40\nk_values = 1\nalgorithms = grcl:topk:1\n{inf}"),
    "negative-seed": ("sweep-n", "pk_k = 3\npk_d = 8\nn_values = 40\nalgorithms = ocl\nseed = -1"),
    "instance-and-design": ("sweep-n", "{ok}\ndesign = one_hot\nn_values = 40\nalgorithms = ocl"),
    "instance-and-pk": ("sweep-k", "{ok}\npk_d = 500\nn = 40\nk_values = 1\nalgorithms = grcl:topk:1"),
    "duplicate-reps": ("sweep-n", "pk_k = 3\npk_d = 8\nn_values = 40\nreps = 50"),
    "duplicate-algorithms": ("sweep-n", "pk_k = 3\npk_d = 8\nalgorithms = ocl\nalgorithms = joint"),
    "instance-duplicate-key": ("sweep-n", "n_values = 40\nalgorithms = ocl\n{dup}"),
}


class TestFailFast:
    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_bad_config_exits_2_with_one_line(self, case, tmp_path, capsys):
        command, body = BAD_CONFIGS[case]
        out = tmp_path / "out.csv"
        body = body.format(
            nan=instance_line(tmp_path, "nan"),
            inf=instance_line(tmp_path, "inf"),
            ok=instance_line(tmp_path, "1.0"),
            dup=instance_line(tmp_path, "1.0", repeat="sigma2=2.0"),
        )
        path = write_config(tmp_path / "c.cfg", f"{body}\nreps = 2\noutput = {out}\n")
        assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("config error: ")
        assert not out.exists()

    def test_check_runs_before_any_row(self, tmp_path, monkeypatch):
        import grclab.cli as cli

        def no_rows(*args, **kwargs):
            raise AssertionError("a row ran")

        monkeypatch.setattr(cli, "monte_carlo_expected_excess", no_rows)
        cfg = config_from_fields({
            "pk_k": "3", "pk_d": "8", "n_values": "40, 4", "algorithms": "ocl, grcl:topk:5",
            "reps": "2", "output": str(tmp_path / "o.csv"),
        })
        with pytest.raises(ConfigParse, match="grcl:topk:5 at n=4"):
            run_sweep_n(cfg)

    @pytest.mark.parametrize("command", ["sweep-n", "sweep-k"])
    def test_missing_output_directory_exits_2_before_any_row(self, command, tmp_path, capsys, monkeypatch):
        import grclab.cli as cli

        def no_rows(*args, **kwargs):
            raise AssertionError("a row ran")

        monkeypatch.setattr(cli, "monte_carlo_expected_excess", no_rows)
        out = tmp_path / "absent" / "out.csv"
        path = write_config(tmp_path / "c.cfg", f"pk_k = 3\npk_d = 8\nn_values = 4\nn = 4\n"
                                                f"k_values = 0, 1\nreps = 2\noutput = {out}\n")
        assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("config error: output directory ")
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["sweep-n", "sweep-k"])
    def test_output_that_is_a_directory_exits_2_before_any_row(self, command, tmp_path, capsys, monkeypatch):
        import grclab.cli as cli

        def no_rows(*args, **kwargs):
            raise AssertionError("a row ran")

        monkeypatch.setattr(cli, "monte_carlo_expected_excess", no_rows)
        out = tmp_path / "out.csv"
        out.mkdir()
        path = write_config(tmp_path / "c.cfg", f"pk_k = 3\npk_d = 8\nn_values = 4\nn = 4\n"
                                                f"k_values = 0, 1\nreps = 2\noutput = {out}\n")
        assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"config error: output {str(out)!r} is a directory")
        assert not any(out.iterdir())

    def test_library_errors_exit_2(self, tmp_path, capsys, monkeypatch):
        import grclab.cli as cli
        from grclab.errors import NotPSD

        def broken(config):
            raise NotPSD("bad\nmatrix")

        monkeypatch.setattr(cli, "run_sweep_n", broken)
        path = write_config(tmp_path / "c.cfg", "reps = 2\n")
        assert main(["sweep-n", "--config", path]) == 2
        assert capsys.readouterr().err == "error: NotPSD: bad matrix\n"

    def test_surrogate_errors_exit_2(self, tmp_path, capsys, monkeypatch):
        from grclab.errors import NotDiagonal
        from grclab.risk import Joint

        def broken(self, inst, n):
            raise NotDiagonal("broken surrogate")

        monkeypatch.setattr(Joint, "theory_one_hot", broken)
        out = tmp_path / "out.csv"
        path = write_config(tmp_path / "c.cfg", f"pk_k = 3\npk_d = 8\ndesign = one_hot\nn_values = 4\n"
                                                f"algorithms = ocl, joint\nreps = 2\noutput = {out}\n")
        assert main(["sweep-n", "--config", path]) == 2
        assert capsys.readouterr().err == "error: NotDiagonal: broken surrogate\n"
        assert not out.exists()


class TestVerify:
    def test_reductions_suite_passes(self):
        report, code = run_verify(suite="reductions")
        assert code == 0
        assert "PASS reductions/l2rcl-closed-form" in report
        assert report.strip().endswith("0 failing check(s)")

    def test_unknown_suite(self):
        with pytest.raises(ConfigParse):
            run_verify(suite="nope")


class TestMain:
    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path / "bad.cfg", "bogus = 1\n")
        assert main(["sweep-n", "--config", path]) == 2

    def test_sweep_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "e2e.csv"
        path = write_config(tmp_path / "c.cfg", SMALL_SWEEP.format(out=out))
        assert main(["sweep-n", "--config", path]) == 0
        assert out.exists()
        assert str(out) in capsys.readouterr().out

    def test_verify_rejects_a_suites_key(self, tmp_path, capsys):
        # --suite is the one way to choose suites; the config is still checked
        path = write_config(tmp_path / "c.cfg", "suites = reductions\n")
        assert main(["verify", "--config", path, "--suite", "reductions"]) == 2
        assert "unknown key 'suites'" in capsys.readouterr().err

    def test_verify_end_to_end(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.cfg", "reps = 2\n")
        assert main(["verify", "--config", path, "--suite", "reductions"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_console_script_runs(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", "bogus = 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "grclab.cli", "sweep-n", "--config", path],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_import_loads_no_thread_pool_logging_or_random(self):
        # the wide path's helper thread pool (which loads logging) and
        # numpy.random are imported on first use, not by ``import grclab``
        code = "import sys, grclab; print(sorted({'concurrent.futures', 'logging', 'numpy.random'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout == "[]\n"

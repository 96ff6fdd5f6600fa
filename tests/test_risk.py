import dataclasses
import math
import os

import numpy as np
import pytest

from grclab import sampler
from grclab.errors import ConfigParse, DimensionMismatch, KTooLarge, NotOneHotDesign, NotPSD
from grclab.estimators import Weights, fit_grcl, fit_joint, fit_min_norm, fit_ocl
from grclab.model import Design, ProblemInstance, make_problem_pk, make_spectrum
from grclab.estimators import eigen_cutoff_ratio
from grclab.regularizers import Regularizer, sketch_regularizer, topk_empirical, zero_regularizer
from grclab.risk import (
    GRCL,
    Designs,
    Frequency,
    Joint,
    L2RCL,
    OCL,
    NormalMatrices,
    Replications,
    RiskWeighting,
    Sketch,
    TopK,
    check_algorithm,
    conditional_risk,
    conditional_risk_joint,
    monte_carlo_expected_excess,
    population_excess,
    worker_count,
)
from grclab.sampler import sample_gaussian_design, sample_one_hot_design


def gaussian_instance(rng, d, sigma2=1.0):
    return ProblemInstance(
        w_star=rng.standard_normal(d),
        sigma2=sigma2,
        g=make_spectrum(rng.uniform(0.1, 2.0, d)),
        h=make_spectrum(rng.uniform(0.1, 2.0, d)),
        design=Design.GAUSSIAN,
    )


def one_hot_instance(rng, d, sigma2=1.0):
    return ProblemInstance(
        w_star=rng.standard_normal(d),
        sigma2=sigma2,
        g=make_spectrum(rng.dirichlet(np.ones(d)), one_hot=True),
        h=make_spectrum(rng.dirichlet(np.ones(d)), one_hot=True),
        design=Design.ONE_HOT,
    )


class TestPopulationExcess:
    def test_zero_at_optimum(self):
        inst = gaussian_instance(np.random.default_rng(0), 4)
        assert population_excess(Weights(inst.w_star), inst) == 0.0

    def test_single_coordinate_perturbation(self):
        inst = gaussian_instance(np.random.default_rng(1), 3)
        w = inst.w_star.copy()
        w[0] += 1.0
        expected = inst.g.values[0] + inst.h.values[0]
        assert population_excess(Weights(w), inst) == pytest.approx(expected)

    def test_dense_quadratic_form_oracle(self):
        rng = np.random.default_rng(2)
        inst = gaussian_instance(rng, 6)
        w = Weights(rng.standard_normal(6))
        diff = w.w - inst.w_star
        dense = diff @ np.diag(inst.g.values + inst.h.values) @ diff
        assert population_excess(w, inst) == pytest.approx(dense, rel=1e-12)

    def test_weightings_add_exactly(self):
        rng = np.random.default_rng(3)
        inst = gaussian_instance(rng, 5)
        w = Weights(rng.standard_normal(5))
        t1 = population_excess(w, inst, RiskWeighting.TASK1)
        t2 = population_excess(w, inst, RiskWeighting.TASK2)
        joint = population_excess(w, inst, RiskWeighting.JOINT)
        assert joint == pytest.approx(t1 + t2, rel=1e-12)


def affine_pipeline(x1, x2, inst, sigma):
    """Noise -> trained-weights map of the actual estimator pipeline.

    Least-squares outputs are affine in the labels for fixed designs, so
    probing with unit noise vectors recovers the map exactly.
    """
    n1, n2 = x1.shape[0], x2.shape[0]

    def run(e1, e2):
        y1 = x1 @ inst.w_star + e1
        y2 = x2 @ inst.w_star + e2
        if sigma == "joint":
            return fit_joint(x1, y1, x2, y2).w
        w1 = fit_min_norm(x1, y1)
        if sigma is None:
            return fit_ocl(x2, y2, w1).w
        return fit_grcl(x2, y2, w1, sigma).w

    base = run(np.zeros(n1), np.zeros(n2))
    l1 = np.stack([run(np.eye(n1)[i], np.zeros(n2)) - base for i in range(n1)], axis=1)
    l2 = np.stack([run(np.zeros(n1), np.eye(n2)[i]) - base for i in range(n2)], axis=1)
    # affinity sanity probe
    rng = np.random.default_rng(99)
    e1, e2 = rng.standard_normal(n1), rng.standard_normal(n2)
    recon = base + l1 @ e1 + l2 @ e2
    np.testing.assert_allclose(run(e1, e2), recon, atol=1e-8)
    return base, l1, l2


def resampled_noise_mean(x1, x2, inst, sigma, draws=10**5, seed=0):
    """Empirical mean/stderr of the excess over fresh label-noise draws."""
    base, l1, l2 = affine_pipeline(x1, x2, inst, sigma)
    rng = np.random.default_rng(seed)
    scale = math.sqrt(inst.sigma2)
    e1 = scale * rng.standard_normal((x1.shape[0], draws))
    e2 = scale * rng.standard_normal((x2.shape[0], draws))
    w2 = base[:, None] + l1 @ e1 + l2 @ e2
    m = inst.g.values + inst.h.values
    excess = m @ (w2 - inst.w_star[:, None]) ** 2
    return base, excess.mean(), excess.std(ddof=1) / math.sqrt(draws)


class TestConditionalRisk:
    def test_no_signal_no_noise(self):
        d = 3
        inst = ProblemInstance(
            w_star=np.zeros(d), sigma2=0.0,
            g=make_spectrum(np.full(d, 1 / d), one_hot=True),
            h=make_spectrum(np.full(d, 1 / d), one_hot=True),
            design=Design.ONE_HOT,
        )
        x1 = sample_one_hot_design(inst.g, 5, 0)
        x2 = sample_one_hot_design(inst.h, 5, 1)
        dec = conditional_risk(x1, x2, inst, None)
        assert (dec.bias, dec.variance, dec.total) == (0.0, 0.0, 0.0)

    def test_single_deterministic_dataset(self):
        one = make_spectrum([1.0], one_hot=True)
        inst = ProblemInstance(
            w_star=np.array([1.0]), sigma2=1.0, g=one, h=one, design=Design.ONE_HOT
        )
        x = np.array([[1.0]])
        dec = conditional_risk(x, x, inst, None, RiskWeighting.JOINT)
        assert dec.bias == 0.0
        assert dec.variance == pytest.approx(2.0)

    @pytest.mark.parametrize("case", ["grcl_iso", "ocl", "onehot_mixed", "joint"])
    def test_noise_resampling_oracle(self, case):
        rng = np.random.default_rng(hash(case) % 2**31)
        d = 4
        if case == "onehot_mixed":
            inst = one_hot_instance(rng, d)
            x1 = sample_one_hot_design(inst.g, 7, 1)
            x2 = sample_one_hot_design(inst.h, 7, 2)
            sigma = Regularizer(form="diagonal", values=np.array([0.5, 0.0, 0.2, 0.0]))
        else:
            inst = gaussian_instance(rng, d)
            x1 = sample_gaussian_design(inst.g, 6, 1)
            x2 = sample_gaussian_design(inst.h, 6, 2)
            sigma = {"grcl_iso": Regularizer(form="diagonal", values=np.full(d, 0.4)),
                     "ocl": None, "joint": "joint"}[case]
        base, emp_mean, emp_se = resampled_noise_mean(x1, x2, inst, sigma)
        if case == "joint":
            dec = conditional_risk_joint(x1, x2, inst)
        else:
            dec = conditional_risk(x1, x2, inst, sigma)
        assert abs(dec.total - emp_mean) <= 4 * emp_se
        # the zero-noise run realizes the bias part exactly
        assert dec.bias == pytest.approx(
            population_excess(Weights(base), inst), abs=1e-8
        )

    def test_fast_path_matches_dense_path(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = int(rng.integers(2, 7))
            inst = one_hot_instance(rng, d)
            x1 = sample_one_hot_design(inst.g, 9, int(rng.integers(2**31)))
            x2 = sample_one_hot_design(inst.h, 9, int(rng.integers(2**31)))
            gamma = rng.uniform(0.0, 1.0, d) * (rng.random(d) < 0.5)
            diag = Regularizer(form="diagonal", values=gamma)
            nz = np.flatnonzero(gamma)
            factor = np.zeros((nz.size, d))
            factor[np.arange(nz.size), nz] = np.sqrt(gamma[nz])
            low = Regularizer(form="lowrank", factor=factor)  # forces dense path
            fast = conditional_risk(x1, x2, inst, diag)
            dense = conditional_risk(x1, x2, inst, low)
            assert fast.bias == pytest.approx(dense.bias, abs=1e-10)
            assert fast.variance == pytest.approx(dense.variance, abs=1e-10)

    def test_gram_path_matches_dense_path(self):
        from grclab.estimators import DEFAULT_OPTIONS
        from grclab.risk import _conditional_sequential_gram

        rng = np.random.default_rng(21)
        for n1, n2, d in [(6, 8, 4), (5, 5, 12), (9, 4, 9)]:
            inst = gaussian_instance(rng, d)
            x1 = sample_gaussian_design(inst.g, n1, int(rng.integers(2**31)))
            x2 = sample_gaussian_design(inst.h, n2, int(rng.integers(2**31)))
            dense = conditional_risk(x1, x2, inst, None)
            gram = _conditional_sequential_gram(
                x1, x2, inst, RiskWeighting.JOINT, DEFAULT_OPTIONS
            )
            assert gram.bias == pytest.approx(dense.bias, rel=1e-8, abs=1e-10)
            assert gram.variance == pytest.approx(dense.variance, rel=1e-8, abs=1e-10)

    def test_bias_ignores_noise_level_and_variance_scales(self):
        rng = np.random.default_rng(6)
        d = 4
        base = gaussian_instance(rng, d, sigma2=1.0)
        doubled = ProblemInstance(
            w_star=base.w_star, sigma2=2.0, g=base.g, h=base.h, design=base.design
        )
        x1 = sample_gaussian_design(base.g, 6, 3)
        x2 = sample_gaussian_design(base.h, 6, 4)
        sigma = Regularizer(form="diagonal", values=rng.uniform(0, 1, d))
        a = conditional_risk(x1, x2, base, sigma)
        b = conditional_risk(x1, x2, doubled, sigma)
        assert b.bias == a.bias
        assert b.variance == pytest.approx(2.0 * a.variance, rel=1e-12)

    def test_zero_sigma_equals_ocl_dispatch(self):
        rng = np.random.default_rng(7)
        inst = one_hot_instance(rng, 3)
        x1 = sample_one_hot_design(inst.g, 8, 0)
        x2 = sample_one_hot_design(inst.h, 8, 1)
        a = conditional_risk(x1, x2, inst, None)
        b = conditional_risk(x1, x2, inst, zero_regularizer(3))
        assert (a.bias, a.variance) == (b.bias, b.variance)

    def test_weighting_additivity(self):
        rng = np.random.default_rng(8)
        inst = gaussian_instance(rng, 4)
        x1 = sample_gaussian_design(inst.g, 5, 0)
        x2 = sample_gaussian_design(inst.h, 5, 1)
        sigma = Regularizer(form="diagonal", values=np.full(4, 0.3))
        parts = [
            conditional_risk(x1, x2, inst, sigma, w)
            for w in (RiskWeighting.TASK1, RiskWeighting.TASK2, RiskWeighting.JOINT)
        ]
        assert parts[2].total == pytest.approx(parts[0].total + parts[1].total, rel=1e-12)

    def test_rejects_non_psd(self):
        inst = gaussian_instance(np.random.default_rng(9), 2)
        x = np.ones((3, 2))
        with pytest.raises(NotPSD):
            conditional_risk(x, x, inst, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_dimension_mismatch(self):
        inst = gaussian_instance(np.random.default_rng(10), 3)
        with pytest.raises(DimensionMismatch):
            conditional_risk(np.ones((2, 2)), np.ones((2, 3)), inst, None)


class TestMonteCarlo:
    def test_exact_zero_case(self):
        d = 2
        inst = ProblemInstance(
            w_star=np.zeros(d), sigma2=0.0,
            g=make_spectrum([0.5, 0.5], one_hot=True),
            h=make_spectrum([0.5, 0.5], one_hot=True),
            design=Design.ONE_HOT,
        )
        est, dec = monte_carlo_expected_excess(inst, OCL(), 6, 5, seed=0)
        assert est.mean == 0.0
        assert dec.total == 0.0

    def test_bit_reproducible(self):
        inst = make_problem_pk(3, 8, Design.ONE_HOT)
        a, da = monte_carlo_expected_excess(inst, L2RCL(0.2), 30, 6, seed=5)
        b, db = monte_carlo_expected_excess(inst, L2RCL(0.2), 30, 6, seed=5)
        assert (a.mean, a.std_error) == (b.mean, b.std_error)
        assert (da.bias, da.variance) == (db.bias, db.variance)

    def test_thread_count_does_not_change_result(self):
        inst = make_problem_pk(3, 8, Design.ONE_HOT)
        ref, _ = monte_carlo_expected_excess(inst, OCL(), 30, 8, seed=9)
        old = os.environ.get("GRCL_THREADS")
        os.environ["GRCL_THREADS"] = "4"
        try:
            par, _ = monte_carlo_expected_excess(inst, OCL(), 30, 8, seed=9)
        finally:
            if old is None:
                del os.environ["GRCL_THREADS"]
            else:
                os.environ["GRCL_THREADS"] = old
        assert (ref.mean, ref.std_error) == (par.mean, par.std_error)

    def test_ocl_worse_than_joint_on_reversed_head(self):
        inst = make_problem_pk(8, 8, Design.ONE_HOT)
        ocl_est, _ = monte_carlo_expected_excess(inst, OCL(), 50, 300, seed=1)
        joint_est, _ = monte_carlo_expected_excess(inst, Joint(), 50, 300, seed=1)
        gap = ocl_est.mean - joint_est.mean
        assert gap > 3 * math.hypot(ocl_est.std_error, joint_est.std_error)

    def test_grcl_builder_runs(self):
        inst = make_problem_pk(2, 6, Design.GAUSSIAN)
        est, dec = monte_carlo_expected_excess(
            inst, GRCL(builder=TopK(2)), 40, 4, seed=3
        )
        assert est.mean > 0
        assert dec.total == pytest.approx(dec.bias + dec.variance, rel=1e-9)

    def test_reps_validation(self):
        inst = make_problem_pk(2, 4, Design.GAUSSIAN)
        with pytest.raises(DimensionMismatch):
            monte_carlo_expected_excess(inst, OCL(), 10, 1, seed=0)


def reference_sequential_dense(x1, x2, inst, sigma_mat, m):
    """The dense sequential risk as first written: S^+ X2^T formed explicitly."""
    n, d = x2.shape
    cutoff = eigen_cutoff_ratio(1e-10 * max(x1.shape[0], n, d), max(x1.shape[0], n), d)

    def parts(sym):
        vals, vecs = np.linalg.eigh(sym)
        keep = vals > cutoff * max(vals[-1], 0.0)
        return vecs, np.where(keep, 1.0 / np.maximum(vals, 1e-300), 0.0), keep

    v1, inv1, keep1 = parts(x1.T @ x1)
    p1w = v1[:, ~keep1] @ (v1[:, ~keep1].T @ inst.w_star)
    vs, invs, _ = parts(x2.T @ x2 + n * sigma_mat)
    splus = (vs * invs) @ vs.T
    q = np.eye(d) - splus @ (x2.T @ x2)
    b = q @ p1w
    qa = q @ (v1 * np.sqrt(inv1))
    c = splus @ x2.T
    var = m @ np.einsum("ij,ij->i", qa, qa) + m @ np.einsum("ij,ij->i", c, c)
    return float(m @ (b * b)), inst.sigma2 * float(var)


def reference_joint_dense(x1, x2, inst, m):
    """The dense joint risk as first written: on the stacked design."""
    x = np.vstack([x1, x2])
    cutoff = eigen_cutoff_ratio(1e-10 * max(x.shape), *x.shape)
    vals, vecs = np.linalg.eigh(x.T @ x)
    keep = vals > cutoff * max(vals[-1], 0.0)
    inv = np.where(keep, 1.0 / np.maximum(vals, 1e-300), 0.0)
    pw = vecs[:, ~keep] @ (vecs[:, ~keep].T @ inst.w_star)
    return float(m @ (pw * pw)), inst.sigma2 * float(m @ np.einsum("ij,j,ij->i", vecs, inv, vecs))


class TestDenseFormulas:
    @pytest.mark.parametrize("n1, n2, d", [(12, 9, 5), (4, 3, 9), (7, 7, 7), (3, 10, 6), (20, 2, 8)])
    def test_sequential_matches_reference(self, n1, n2, d):
        rng = np.random.default_rng(100 + n1 * d + n2)
        inst = gaussian_instance(rng, d)
        x1 = sample_gaussian_design(inst.g, n1, int(rng.integers(2**31)))
        x2 = sample_gaussian_design(inst.h, n2, int(rng.integers(2**31)))
        m = inst.g.values + inst.h.values
        factor = rng.standard_normal((2, d))
        for sigma in (None, Regularizer(form="diagonal", values=rng.uniform(0.1, 1.0, d)),
                      Regularizer(form="lowrank", factor=factor)):
            sigma_mat = np.zeros((d, d)) if sigma is None else sigma.matrix()
            bias, variance = reference_sequential_dense(x1, x2, inst, sigma_mat, m)
            dec = conditional_risk(x1, x2, inst, sigma)
            assert dec.bias == pytest.approx(bias, rel=1e-9, abs=1e-12)
            assert dec.variance == pytest.approx(variance, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("n1, n2, d", [(12, 9, 5), (4, 3, 9), (2, 2, 9), (7, 7, 7), (20, 2, 8)])
    def test_joint_matches_reference(self, n1, n2, d):
        rng = np.random.default_rng(200 + n1 * d + n2)
        inst = gaussian_instance(rng, d)
        x1 = sample_gaussian_design(inst.g, n1, int(rng.integers(2**31)))
        x2 = sample_gaussian_design(inst.h, n2, int(rng.integers(2**31)))
        bias, variance = reference_joint_dense(x1, x2, inst, inst.g.values + inst.h.values)
        dec = conditional_risk_joint(x1, x2, inst)
        assert dec.bias == pytest.approx(bias, rel=1e-9, abs=1e-12)
        assert dec.variance == pytest.approx(variance, rel=1e-9, abs=1e-12)

    def test_shared_topk_is_topk_empirical(self):
        rng = np.random.default_rng(31)
        x1 = rng.standard_normal((15, 6))
        normal = NormalMatrices.of(x1, rng.standard_normal((15, 6)))
        for k in range(7):
            np.testing.assert_array_equal(normal.topk(k).matrix(), topk_empirical(x1, k).matrix())
        with pytest.raises(KTooLarge):
            normal.topk(7)


def shared_algorithms(d):
    fixed = Regularizer(form="lowrank", factor=np.linspace(0.1, 0.6, 2 * d).reshape(2, d))
    return [
        OCL(),
        Joint(),
        L2RCL(0.3),
        GRCL(regularizer=fixed),
        GRCL(builder=TopK(2)),
        GRCL(builder=TopK(0)),
        GRCL(builder=Sketch(3)),
        GRCL(builder=lambda x1, seed: topk_empirical(x1, 1)),
    ]


class TestSharedReplications:
    @pytest.mark.parametrize("design, d, n", [
        (Design.GAUSSIAN, 6, 10), (Design.GAUSSIAN, 9, 5), (Design.ONE_HOT, 5, 8),
    ])
    def test_rows_equal_standalone_estimates(self, design, d, n):
        inst = make_problem_pk(3, d, design)
        shared = Replications(inst, n, 4, seed=11)
        algorithms = shared_algorithms(d)
        if design is Design.ONE_HOT:
            algorithms.append(GRCL(builder=Frequency()))
        for weighting in RiskWeighting:
            for algorithm in algorithms:
                est, dec = monte_carlo_expected_excess(
                    inst, algorithm, n, 4, 11, weighting, replications=shared
                )
                ref_est, ref_dec = monte_carlo_expected_excess(inst, algorithm, n, 4, 11, weighting)
                got = (est.mean, est.std_error, dec.bias, dec.variance)
                want = (ref_est.mean, ref_est.std_error, ref_dec.bias, ref_dec.variance)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-300)

    def test_gram_path_rows_equal_standalone(self):
        d, n = 4100, 6
        i = np.arange(1, d + 1)
        inst = ProblemInstance(
            w_star=np.concatenate([[1.0], np.zeros(d - 1)]), sigma2=1.0,
            g=make_spectrum(1.0 / i), h=make_spectrum(1.0 / i**1.5), design=Design.GAUSSIAN,
        )
        shared = Replications(inst, n, 2, seed=3)
        for _ in range(2):
            est, _ = monte_carlo_expected_excess(inst, OCL(), n, 2, 3, replications=shared)
            ref, _ = monte_carlo_expected_excess(inst, OCL(), n, 2, 3)
            assert est.mean == pytest.approx(ref.mean, rel=1e-10)

    def test_dense_rows_draw_each_design_once(self, monkeypatch):
        calls = []
        draw = sampler.sample_gaussian_design

        def counted(s, n, seed):
            calls.append(seed)
            return draw(s, n, seed)

        monkeypatch.setattr(sampler, "sample_gaussian_design", counted)
        inst = make_problem_pk(3, 8, Design.GAUSSIAN)
        shared = Replications(inst, 12, 3, seed=5)
        for algorithm in (OCL(), Joint(), L2RCL(0.2), GRCL(builder=TopK(3))):
            monte_carlo_expected_excess(inst, algorithm, 12, 3, 5, replications=shared)
        assert len(calls) == 2 * 3 == len(set(calls))
        # a builder that needs X1 itself draws it again, per row
        monte_carlo_expected_excess(inst, GRCL(builder=Sketch(2)), 12, 3, 5, replications=shared)
        assert len(calls) == 3 * 3

    def test_memory_budget_keeps_results(self):
        inst = make_problem_pk(3, 8, Design.GAUSSIAN)
        algorithm = GRCL(builder=TopK(2))
        kept = Replications(inst, 12, 4, seed=5)
        partial = Replications(inst, 12, 4, seed=5, memory_bytes=2 * 4 * 8 * 8 * 8)
        a, _ = monte_carlo_expected_excess(inst, algorithm, 12, 4, 5, replications=kept)
        b, _ = monte_carlo_expected_excess(inst, algorithm, 12, 4, 5, replications=partial)
        assert (a.mean, a.std_error) == (b.mean, b.std_error)

    @pytest.mark.parametrize("n, reps, seed", [(13, 3, 5), (12, 4, 5), (12, 3, 6)])
    def test_mismatched_replications_rejected(self, n, reps, seed):
        inst = make_problem_pk(3, 8, Design.GAUSSIAN)
        shared = Replications(inst, 12, 3, seed=5)
        with pytest.raises(DimensionMismatch):
            monte_carlo_expected_excess(inst, OCL(), n, reps, seed, replications=shared)

    @pytest.mark.parametrize("design, d", [(Design.ONE_HOT, 5), (Design.GAUSSIAN, 4100)])
    def test_nothing_kept_off_the_dense_path(self, design, d):
        shared = Replications(make_problem_pk(3, d, design), 4, 10**6, seed=1)
        assert shared._kept == []

    def test_other_instance_rejected(self):
        shared = Replications(make_problem_pk(3, 8, Design.GAUSSIAN), 12, 3, seed=5)
        with pytest.raises(DimensionMismatch):
            monte_carlo_expected_excess(
                make_problem_pk(3, 8, Design.GAUSSIAN), OCL(), 12, 3, 5, replications=shared
            )


class TestAlgorithmProtocol:
    @pytest.mark.parametrize("cls, name", [(OCL, "ocl"), (L2RCL, "l2rcl"), (GRCL, "grcl"), (Joint, "joint")])
    def test_names_are_class_constants(self, cls, name):
        assert cls.name == name
        assert "name" not in {f.name for f in dataclasses.fields(cls)}

    def test_plain_callable_and_fixed_memory(self):
        inst = make_problem_pk(2, 5, Design.ONE_HOT)
        custom = GRCL(builder=lambda x1, seed: topk_empirical(x1, 1))
        assert custom.label == "grcl"
        assert custom.theory_one_hot(inst, 20) is None
        fixed = Regularizer(form="diagonal", values=np.full(5, 0.5))
        assert GRCL(regularizer=fixed).population_memory(inst, 20) is fixed

    @pytest.mark.parametrize("design", [Design.ONE_HOT, Design.GAUSSIAN])
    def test_designs_risk_is_conditional_risk(self, design):
        inst = make_problem_pk(3, 6, design)
        draw = sample_one_hot_design if design is Design.ONE_HOT else sample_gaussian_design
        x1, x2 = draw(inst.g, 9, 1), draw(inst.h, 9, 2)
        designs = Designs(inst, x1, x2, seed=4, rep=0)
        seed = sampler.stream_seed(4, 0, sampler.REGULARIZER_STREAM)
        cases = [
            (OCL(), None),
            (L2RCL(0.4), Regularizer(form="diagonal", values=np.full(6, 0.4))),
            (GRCL(builder=TopK(2)), topk_empirical(x1, 2)),
            (GRCL(builder=Sketch(2)), sketch_regularizer(x1, 2, seed)),
        ]
        for algorithm, sigma in cases:
            assert algorithm.risk(designs, RiskWeighting.JOINT) == conditional_risk(x1, x2, inst, sigma)
        assert Joint().risk(designs, RiskWeighting.JOINT) == conditional_risk_joint(x1, x2, inst)


class TestFailFast:
    @pytest.mark.parametrize("algorithm, design, n, error", [
        (GRCL(builder=TopK(9)), Design.GAUSSIAN, 50, KTooLarge),
        (GRCL(builder=TopK(6)), Design.GAUSSIAN, 5, KTooLarge),
        (GRCL(builder=TopK(-1)), Design.GAUSSIAN, 50, KTooLarge),
        (GRCL(builder=Frequency()), Design.GAUSSIAN, 50, NotOneHotDesign),
        (GRCL(regularizer=zero_regularizer(5)), Design.GAUSSIAN, 50, DimensionMismatch),
        (OCL(), Design.GAUSSIAN, 0, DimensionMismatch),
    ])
    def test_bad_cells_rejected_before_any_draw(self, monkeypatch, algorithm, design, n, error):
        def no_draw(*args):
            raise AssertionError("drew a design")

        monkeypatch.setattr(sampler, "sample_gaussian_design", no_draw)
        inst = make_problem_pk(3, 8, design)
        with pytest.raises(error):
            check_algorithm(algorithm, inst, n)
        with pytest.raises(error):
            monte_carlo_expected_excess(inst, algorithm, n, 3, 1)

    def test_negative_seed_rejected_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a design")

        monkeypatch.setattr(sampler, "sample_gaussian_design", no_draw)
        inst = make_problem_pk(3, 8, Design.GAUSSIAN)
        with pytest.raises(DimensionMismatch):
            Replications(inst, 10, 3, seed=-1)
        with pytest.raises(DimensionMismatch):
            monte_carlo_expected_excess(inst, OCL(), 10, 3, -1)

    @pytest.mark.parametrize("k", [-1, 0])
    def test_bad_sketch_size(self, k):
        with pytest.raises(KTooLarge):
            Sketch(k)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_gamma(self, gamma):
        with pytest.raises(NotPSD):
            L2RCL(gamma)

    @pytest.mark.parametrize("raw, workers", [("", 1), ("1", 1), ("3", 3)])
    def test_worker_count(self, monkeypatch, raw, workers):
        monkeypatch.setenv("GRCL_THREADS", raw)
        assert worker_count() == workers

    @pytest.mark.parametrize("raw", ["garbage", "0", "-2", "1.5"])
    def test_bad_worker_count(self, monkeypatch, raw):
        monkeypatch.setenv("GRCL_THREADS", raw)
        with pytest.raises(ConfigParse):
            worker_count()
        with pytest.raises(ConfigParse):
            monte_carlo_expected_excess(make_problem_pk(2, 4, Design.GAUSSIAN), OCL(), 5, 2, 0)

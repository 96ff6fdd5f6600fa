import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grclab import risk, sampler
from grclab.errors import DimensionMismatch, GrclabError, KTooLarge, NegativeEigenvalue, NotOneHotDesign, NotPSD
from grclab.estimators import Weights, fit_grcl, fit_joint, fit_min_norm, fit_ocl
from grclab.model import Design, ProblemInstance, make_problem_pk, make_spectrum
from grclab.regularizers import (
    Regularizer,
    sketch_regularizer,
    topk_empirical,
    zero_regularizer,
)
from grclab.risk import (
    GRCL,
    Frequency,
    Joint,
    L2RCL,
    OCL,
    Replication,
    Replications,
    RiskWeighting,
    Sketch,
    TopK,
    check_algorithm,
    conditional_risk,
    conditional_risk_joint,
    monte_carlo_expected_excess,
    population_excess,
    weight_vector,
)
from grclab.risk import _conditional_joint_gram, _conditional_sequential_gram, _eigen_cutoff_ratio, _joint_risk
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

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(1, 7), n1=st.integers(1, 13), n2=st.integers(1, 13),
        seed=st.integers(0, 2**32 - 1), data=st.data(),
    )
    def test_fast_path_matches_dense_path(self, d, n1, n2, seed, data):
        rng = np.random.default_rng(seed)
        inst = one_hot_instance(rng, d)
        x1 = sample_one_hot_design(inst.g, n1, int(rng.integers(2**31)))
        x2 = sample_one_hot_design(inst.h, n2, int(rng.integers(2**31)))
        entry = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
        gamma = np.array(data.draw(st.lists(entry, min_size=d, max_size=d)))
        diag = Regularizer(form="diagonal", values=gamma)
        nz = np.flatnonzero(gamma)
        factor = np.zeros((nz.size, d))
        factor[np.arange(nz.size), nz] = np.sqrt(gamma[nz])
        low = Regularizer(form="lowrank", factor=factor)  # forces dense path
        pair = Replication.of_designs(inst, x1, x2)
        for weighting in RiskWeighting:
            fast = conditional_risk(x1, x2, inst, diag, weighting)
            dense = conditional_risk(x1, x2, inst, low, weighting)
            assert fast.bias == pytest.approx(dense.bias, abs=1e-10)
            assert fast.variance == pytest.approx(dense.variance, abs=1e-10)
            fast = conditional_risk_joint(x1, x2, inst, weighting)
            dense = _joint_risk(pair, weighting)
            assert fast.bias == pytest.approx(dense.bias, abs=1e-10)
            assert fast.variance == pytest.approx(dense.variance, abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(
        n1=st.integers(1, 30), n2=st.integers(1, 30), extra=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gram_path_matches_dense_path_when_wide(self, n1, n2, extra, seed):
        rng = np.random.default_rng(seed)
        d = n1 + n2 + extra
        inst = ProblemInstance(
            w_star=rng.standard_normal(d),
            sigma2=1.0,
            g=make_spectrum(rng.uniform(0.01, 1.0, d)),
            h=make_spectrum(rng.uniform(0.01, 1.0, d)),
            design=Design.GAUSSIAN,
        )
        x1 = sample_gaussian_design(inst.g, n1, int(rng.integers(2**31)))
        x2 = sample_gaussian_design(inst.h, n2, int(rng.integers(2**31)))
        for weighting in RiskWeighting:
            pairs = [
                (conditional_risk(x1, x2, inst, None, weighting),
                 _conditional_sequential_gram([x1.copy(), x2.copy()], inst, weighting, (len(x1),))[0]),
                (conditional_risk_joint(x1, x2, inst, weighting),
                 _conditional_joint_gram([x1.copy(), x2.copy()], inst, weighting, (len(x1),))[0]),
            ]
            for dense, gram in pairs:
                assert gram.bias == pytest.approx(dense.bias, rel=1e-8, abs=1e-10)
                assert gram.variance == pytest.approx(dense.variance, rel=1e-8, abs=1e-10)

    def test_gaussian_designs_are_not_scanned(self, monkeypatch):
        def scan(x):
            raise AssertionError("a Gaussian design was scanned for one-hot rows")

        monkeypatch.setattr("grclab.risk._is_one_hot_rows", scan)
        rng = np.random.default_rng(22)
        inst = gaussian_instance(rng, 4)
        x1 = sample_gaussian_design(inst.g, 6, 0)
        x2 = sample_gaussian_design(inst.h, 6, 1)
        conditional_risk(x1, x2, inst, Regularizer(form="diagonal", values=np.full(4, 0.3)))
        conditional_risk_joint(x1, x2, inst)

    def test_one_hot_instance_rejects_dense_designs(self):
        rng = np.random.default_rng(23)
        inst = one_hot_instance(rng, 3)
        x1 = sample_one_hot_design(inst.g, 5, 0)
        dense = sample_gaussian_design(make_spectrum(np.ones(3)), 5, 1)
        with pytest.raises(NotOneHotDesign):
            conditional_risk(x1, dense, inst, None)
        with pytest.raises(NotOneHotDesign):
            conditional_risk_joint(dense, x1, inst)

    def test_gram_path_matches_dense_path(self):
        rng = np.random.default_rng(21)
        shapes = [(6, 8, 4), (5, 5, 12), (9, 4, 9), (40, 25, 300), (25, 40, 300), (200, 150, 120)]
        for n1, n2, d in shapes:
            inst = gaussian_instance(rng, d)
            x1 = sample_gaussian_design(inst.g, n1, int(rng.integers(2**31)))
            x2 = sample_gaussian_design(inst.h, n2, int(rng.integers(2**31)))
            before = x1.tobytes(), x2.tobytes()
            for weighting in RiskWeighting:
                pairs = [
                    (conditional_risk(x1, x2, inst, None, weighting),
                     _conditional_sequential_gram([x1.copy(), x2.copy()], inst, weighting, (len(x1),))[0]),
                    (conditional_risk_joint(x1, x2, inst, weighting),
                     _conditional_joint_gram([x1.copy(), x2.copy()], inst, weighting, (len(x1),))[0]),
                ]
                for dense, gram in pairs:
                    assert gram.bias == pytest.approx(dense.bias, rel=1e-8, abs=1e-10)
                    assert gram.variance == pytest.approx(dense.variance, rel=1e-8, abs=1e-10)
            assert (x1.tobytes(), x2.tobytes()) == before

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
        with pytest.raises(GrclabError, match="ndarray"):
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

    def test_ocl_worse_than_joint_on_reversed_head(self):
        inst = make_problem_pk(8, 8, Design.ONE_HOT)
        ocl_est, _ = monte_carlo_expected_excess(inst, OCL(), 50, 300, seed=1)
        joint_est, _ = monte_carlo_expected_excess(inst, Joint(), 50, 300, seed=1)
        gap = ocl_est.mean - joint_est.mean
        assert gap > 3 * math.hypot(ocl_est.std_error, joint_est.std_error)

    def test_grcl_builder_runs(self):
        inst = make_problem_pk(2, 6, Design.GAUSSIAN)
        est, dec = monte_carlo_expected_excess(
            inst, TopK(2), 40, 4, seed=3
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
    cutoff = _eigen_cutoff_ratio(max(x1.shape[0], n), d)

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
    cutoff = _eigen_cutoff_ratio(*x.shape)
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
        pair = Replication.of_designs(gaussian_instance(rng, 6), x1, rng.standard_normal((15, 6)))
        for k in range(7):
            np.testing.assert_array_equal(TopK(k).memory(pair).matrix(), topk_empirical(x1, k).matrix())
        with pytest.raises(KTooLarge):
            TopK(7).memory(pair)

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(1, 9), n1=st.integers(1, 14), n2=st.integers(1, 14),
        memory=st.sampled_from(["zero", "diagonal", "lowrank", "topk"]),
        one_hot=st.booleans(), seed=st.integers(0, 2**32 - 1),
    )
    def test_kept_eigenvector_engine_matches_reference(self, d, n1, n2, memory, one_hot, seed):
        # n1, n2 below and above d; one-hot pairs as diag(c1), diag(c2), zero counts included
        rng = np.random.default_rng(seed)
        inst = one_hot_instance(rng, d) if one_hot else gaussian_instance(rng, d)
        draw = sample_one_hot_design if one_hot else sample_gaussian_design
        x1 = draw(inst.g, n1, int(rng.integers(2**31)))
        x2 = draw(inst.h, n2, int(rng.integers(2**31)))
        if one_hot:
            pair = Replication.of_counts(inst, x1.sum(axis=0), x2.sum(axis=0))
            assert np.array_equal(pair.normal()[0], x1.T @ x1)
        else:
            pair = Replication.of_designs(inst, x1, x2)
        reg = {
            "zero": lambda: zero_regularizer(d),
            "diagonal": lambda: Regularizer(form="diagonal", values=rng.choice([0.0, 0.2, 1.5], d)),
            "lowrank": lambda: Regularizer(form="lowrank",
                                           factor=rng.standard_normal((int(rng.integers(1, d + 1)), d))),
            "topk": lambda: TopK(int(rng.integers(0, min(n1, d) + 1))).memory(pair),
        }[memory]()
        for weighting in RiskWeighting:
            bias, variance = reference_sequential_dense(x1, x2, inst, reg.matrix(), weight_vector(inst, weighting))
            dec = risk._sequential_risk(pair, reg, weighting)
            assert dec.bias == pytest.approx(bias, rel=1e-9, abs=1e-12)
            assert dec.variance == pytest.approx(variance, rel=1e-9, abs=1e-12)

    def test_matches_reference_where_most_directions_are_dropped(self):
        # P(15) at d = 200, n = 5000: about 40 of S's 200 directions pass the cutoff
        inst = make_problem_pk(15, 200, Design.GAUSSIAN)
        drawn = Replication(inst, 5000, 1, 0)
        x1, x2 = drawn.designs()
        pair = Replication.of_designs(inst, x1, x2)
        cutoff = _eigen_cutoff_ratio(5000, 200)
        for reg, most_dropped in ((zero_regularizer(200), True), (TopK(5).memory(pair), True),
                                  (TopK(15).memory(pair), True),
                                  (Regularizer(form="diagonal", values=np.full(200, 0.1)), False)):
            vals = np.linalg.eigh(x2.T @ x2 + 5000 * reg.matrix())[0]
            assert (np.count_nonzero(vals > cutoff * vals[-1]) < 200 / 2) == most_dropped
            for weighting in RiskWeighting:
                m = weight_vector(inst, weighting)
                bias, variance = reference_sequential_dense(x1, x2, inst, reg.matrix(), m)
                dec = risk._sequential_risk(pair, reg, weighting)
                assert dec.bias == pytest.approx(bias, rel=1e-9, abs=1e-12)
                assert dec.variance == pytest.approx(variance, rel=1e-9, abs=1e-12)


def shared_algorithms(d):
    fixed = Regularizer(form="lowrank", factor=np.linspace(0.1, 0.6, 2 * d).reshape(2, d))
    return [
        OCL(),
        Joint(),
        L2RCL(0.3),
        GRCL(regularizer=fixed),
        TopK(2),
        TopK(0),
        Sketch(3),
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
            algorithms.append(Frequency())
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
        inst = wide_instance()
        n = 6
        shared = Replications(inst, n, 2, seed=3)
        for algorithm in (OCL(), Joint(), OCL()):
            est, _ = monte_carlo_expected_excess(inst, algorithm, n, 2, 3, replications=shared)
            ref, _ = monte_carlo_expected_excess(inst, algorithm, n, 2, 3)
            assert est.mean == pytest.approx(ref.mean, rel=1e-10)

    def test_dense_rows_draw_each_design_once(self, monkeypatch):
        designs, grams = [], []

        def counted(calls, draw):
            def recorded(s, n, seed):
                calls.append(seed)
                return draw(s, n, seed)
            return recorded

        monkeypatch.setattr(sampler, "sample_gaussian_design", counted(designs, sampler.sample_gaussian_design))
        monkeypatch.setattr(sampler, "gaussian_gram", counted(grams, sampler.gaussian_gram))
        inst = make_problem_pk(3, 8, Design.GAUSSIAN)
        shared = Replications(inst, 12, 3, seed=5)
        for algorithm in (OCL(), Joint(), L2RCL(0.2), TopK(3)):
            monte_carlo_expected_excess(inst, algorithm, 12, 3, 5, replications=shared)
        # one Gram draw per replication and task, and no design held
        assert len(grams) == 2 * 3 == len(set(grams))
        assert designs == []
        # a memory that needs X1 itself draws it again, per row
        monte_carlo_expected_excess(inst, Sketch(2), 12, 3, 5, replications=shared)
        assert len(designs) == 3 == len(set(designs)) and set(designs) < set(grams)
        assert len(grams) == 2 * 3

    def test_dense_normal_matrices_hold_no_design(self):
        # X1 alone would be n d 8 bytes (32 MB); a block of rows is 1.6 MB
        d, n = 200, 20000
        replication = Replication(make_problem_pk(15, d, Design.GAUSSIAN), n, 1, 0)
        tracemalloc.start()
        try:
            replication.normal()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8 / 4

    def test_kept_replication_decomposes_a1_once(self, monkeypatch):
        # the first-phase fit and every top-k memory read one eigh(A1);
        # each sequential row adds only the eigh of its S = A2 + n Sigma
        args = []
        eigh = np.linalg.eigh

        def counted(a):
            args.append(a)
            return eigh(a)

        inst = make_problem_pk(3, 8, Design.GAUSSIAN)
        reps = 2
        shared = Replications(inst, 12, reps, seed=5)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        rows = [TopK(k) for k in (1, 2, 3)] + [OCL()]
        for algorithm in rows:
            monte_carlo_expected_excess(inst, algorithm, 12, reps, 5, replications=shared)
        assert len(args) == reps * (1 + len(rows))
        for rep in range(reps):
            a1 = shared[rep].normal()[0]
            assert sum(a is a1 for a in args) == 1

    def test_memory_budget_keeps_results(self):
        inst = make_problem_pk(3, 8, Design.GAUSSIAN)
        algorithm = TopK(2)
        kept = Replications(inst, 12, 4, seed=5)
        partial = Replications(inst, 12, 4, seed=5, memory_bytes=2 * 3 * 8 * 8 * 8)
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
        shared[0]
        assert shared._capacity == 0 and shared._kept == {}

    def test_construction_makes_no_replication(self):
        tracemalloc.start()
        try:
            shared = Replications(make_problem_pk(2, 2, Design.GAUSSIAN), 4, 10**6, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert shared._capacity == 10**6 and shared._kept == {}
        assert peak < 64 * 2**10

    def test_one_hot_construction_draws_no_block(self):
        tracemalloc.start()
        try:
            shared = Replications(make_problem_pk(2, 2, Design.ONE_HOT), 4, 10**6, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert shared._block == (0, None) and shared._kept == {}
        assert peak < 64 * 2**10

    def test_kept_replications_are_made_on_first_use(self):
        inst = make_problem_pk(3, 8, Design.GAUSSIAN)
        shared = Replications(inst, 12, 4, seed=5, memory_bytes=3 * 3 * 8 * 8 * 8)
        assert shared._kept == {}
        for algorithm in (OCL(), TopK(2), Joint()):
            est, dec = monte_carlo_expected_excess(inst, algorithm, 12, 4, 5, replications=shared)
            ref_est, ref_dec = monte_carlo_expected_excess(inst, algorithm, 12, 4, 5)
            got = (est.mean, est.std_error, dec.bias, dec.variance)
            want = (ref_est.mean, ref_est.std_error, ref_dec.bias, ref_dec.variance)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-300)
            assert sorted(shared._kept) == [0, 1, 2]
        assert shared[1] is shared._kept[1] and shared[3] is not shared[3]

    def test_other_instance_rejected(self):
        shared = Replications(make_problem_pk(3, 8, Design.GAUSSIAN), 12, 3, seed=5)
        with pytest.raises(DimensionMismatch):
            monte_carlo_expected_excess(
                make_problem_pk(3, 8, Design.GAUSSIAN), OCL(), 12, 3, 5, replications=shared
            )


def zero_mass_instance():
    """A one-hot instance whose spectra leave some atoms undrawn."""
    return ProblemInstance(
        w_star=np.array([1.0, -0.5, 0.25, 2.0, 0.75]), sigma2=0.7,
        g=make_spectrum([0.5, 0.3, 0.2, 0.0, 0.0], one_hot=True),
        h=make_spectrum([0.1, 0.0, 0.3, 0.6, 0.0], one_hot=True),
        design=Design.ONE_HOT,
    )


def count_path_algorithms(d):
    diagonal = Regularizer(form="diagonal", values=np.linspace(0.0, 0.8, d))
    lowrank = Regularizer(form="lowrank", factor=np.linspace(0.1, 0.6, 2 * d).reshape(2, d))
    return [
        OCL(), L2RCL(0.3), GRCL(regularizer=diagonal), Frequency(), Joint(),
        GRCL(regularizer=lowrank), TopK(2), TopK(0),
    ]


def atom_order_rows(x):
    """The rows of the one-hot design ``x`` sorted by atom."""
    return np.repeat(np.eye(x.shape[1]), x.sum(axis=0).astype(int), axis=0)


def design_reference(inst, algorithm, n, reps, seed, weighting):
    """Monte Carlo from ``conditional_risk*`` on the dense one-hot draws of each stream seed.

    A memory reads the rows of X1 in atom order, as every one-hot replication gives them.
    """
    decomps = []
    for rep in range(reps):
        x1 = sample_one_hot_design(inst.g, n, sampler.stream_seed(seed, rep, sampler.TASK1_DESIGN))
        x2 = sample_one_hot_design(inst.h, n, sampler.stream_seed(seed, rep, sampler.TASK2_DESIGN))
        rows1 = atom_order_rows(x1)
        memory_seed = sampler.stream_seed(seed, rep, sampler.REGULARIZER_STREAM)
        if isinstance(algorithm, Joint):
            decomps.append(conditional_risk_joint(x1, x2, inst, weighting))
            continue
        if isinstance(algorithm, OCL):
            sigma = None
        elif isinstance(algorithm, L2RCL):
            sigma = Regularizer(form="diagonal", values=np.full(inst.d, algorithm.gamma))
        elif isinstance(algorithm, TopK):
            sigma = topk_empirical(rows1, algorithm.k)
        elif isinstance(algorithm, Frequency):
            sigma = Regularizer(form="diagonal", values=rows1.sum(axis=0) / n)
        elif isinstance(algorithm, Sketch):
            sigma = sketch_regularizer(rows1, algorithm.k, memory_seed)
        elif algorithm.regularizer is not None:
            sigma = algorithm.regularizer
        else:
            sigma = algorithm.builder(rows1, memory_seed)
        decomps.append(conditional_risk(x1, x2, inst, sigma, weighting))
    totals = [dec.total for dec in decomps]
    mean = math.fsum(totals) / reps
    std_error = math.sqrt(math.fsum((t - mean) ** 2 for t in totals) / (reps - 1)) / math.sqrt(reps)
    return (mean, std_error,
            math.fsum(dec.bias for dec in decomps) / reps,
            math.fsum(dec.variance for dec in decomps) / reps)


class TestOneHotCounts:
    """One-hot Monte Carlo replications read as their count vectors."""

    @pytest.mark.parametrize("inst", [make_problem_pk(3, 6, Design.ONE_HOT), zero_mass_instance()])
    @pytest.mark.parametrize("n", [1, 4, 30])
    def test_estimates_equal_the_design_reference(self, inst, n):
        algorithms = count_path_algorithms(inst.d) + [
            Sketch(2),
            GRCL(builder=lambda x1, seed: sketch_regularizer(x1[::-1], 3, seed + 1)),
        ]
        reps, seed = 5, 13
        for weighting in RiskWeighting:
            for algorithm in algorithms:
                if isinstance(algorithm, TopK) and algorithm.k > n:
                    continue
                want = design_reference(inst, algorithm, n, reps, seed, weighting)
                shared = Replications(inst, n, reps, seed)
                for replications in (None, shared):
                    est, dec = monte_carlo_expected_excess(
                        inst, algorithm, n, reps, seed, weighting, replications=replications
                    )
                    assert (est.mean, est.std_error, dec.bias, dec.variance) == want

    @pytest.mark.parametrize("inst", [make_problem_pk(3, 6, Design.ONE_HOT), zero_mass_instance()])
    @pytest.mark.parametrize("block_rows", [1, 3, 4])
    def test_block_boundaries_change_nothing(self, inst, block_rows, monkeypatch):
        # 7 replications in blocks of one (seeds hashed in runs of 5 + 2),
        # in 3 + 3 + 1 and in 4 + 3 (one block per run)
        n, reps, seed = 4, 7, 2**32 + 13
        monkeypatch.setattr(risk, "_COUNT_BLOCK", block_rows * max(n, inst.d))
        monkeypatch.setattr(risk, "_SEED_RUN", 5)
        algorithms = count_path_algorithms(inst.d) + [Sketch(2)]
        for weighting in RiskWeighting:
            for algorithm in algorithms:
                want = design_reference(inst, algorithm, n, reps, seed, weighting)
                shared = Replications(inst, n, reps, seed)
                assert (shared._block_rows, shared._run_rows) == (block_rows, 5 if block_rows == 1 else block_rows)
                for replications in (None, shared):
                    est, dec = monte_carlo_expected_excess(
                        inst, algorithm, n, reps, seed, weighting, replications=replications
                    )
                    assert (est.mean, est.std_error, dec.bias, dec.variance) == want
        for rep in (6, 0, 5, 2, 3):  # out of order, across runs and blocks
            got, want = shared[rep].counts(), Replication(inst, n, seed, rep).counts()
            assert [c.tobytes() for c in got] == [c.tobytes() for c in want]

    def test_standalone_counts_hash_no_seed_block(self, monkeypatch):
        # a standalone replication seeds its draw through numpy's SeedSequence;
        # it equals the block draw of a shared cell on both sides of a run boundary
        inst, n, seed = zero_mass_instance(), 4, 9
        boundary = Replications(inst, n, 2, seed)._run_rows
        shared = Replications(inst, n, boundary + 2, seed)
        want = {rep: shared[rep].counts() for rep in (boundary - 1, boundary, boundary + 1)}

        def forbidden(*args):
            raise AssertionError("a standalone replication hashed a block of seeds")

        monkeypatch.setattr(sampler, "stream_words", forbidden)
        for rep, counts in want.items():
            got = Replication(inst, n, seed, rep).counts()
            assert [c.tobytes() for c in got] == [c.tobytes() for c in counts]

    def test_one_seed_run_hashes_once_for_both_tasks(self, monkeypatch):
        # 7 replications in blocks of 2, all inside one seed run: one hash call gives
        # the words of both design streams, for every block and every row of the cell,
        # in two passes of SeedSequence's hash (stream seeds, then their words)
        inst, n, reps, seed = zero_mass_instance(), 4, 7, 3
        monkeypatch.setattr(risk, "_COUNT_BLOCK", 2 * max(n, inst.d))
        calls, passes = [], []
        hash_words, hash_pass = sampler.stream_words, sampler._seed_sequence_state

        def counted(master, replications, tags):
            calls.append((master, list(replications), list(tags)))
            return hash_words(master, replications, tags)

        def counted_pass(entropy, n_words):
            passes.append(entropy.shape[1])
            return hash_pass(entropy, n_words)

        monkeypatch.setattr(sampler, "stream_words", counted)
        monkeypatch.setattr(sampler, "_seed_sequence_state", counted_pass)
        shared = Replications(inst, n, reps, seed)
        assert shared._block_rows == 2 and shared._run_rows >= reps
        for algorithm in (OCL(), Joint(), Sketch(2)):
            monte_carlo_expected_excess(inst, algorithm, n, reps, seed, replications=shared)
        assert calls == [(seed, list(range(reps)), [sampler.TASK1_DESIGN, sampler.TASK2_DESIGN])]
        assert passes == [2 * reps, 2 * reps]

    def test_custom_algorithm_runs_one_replication_at_a_time(self):
        class Custom:
            name = label = "custom"

            def check(self, inst, n):
                pass

            def risk(self, rep, weighting):
                return OCL().risk(rep, weighting)

        inst = zero_mass_instance()
        for replications in (None, Replications(inst, 6, 9, seed=3)):
            got, _ = monte_carlo_expected_excess(inst, Custom(), 6, 9, 3, replications=replications)
            want, _ = monte_carlo_expected_excess(inst, OCL(), 6, 9, 3)
            assert got == want

    def test_subclass_memory_is_read_per_replication(self):
        # the block engine reads OCL's memory off the class; a subclass that
        # builds its memory from the data must get that memory on each replication
        class FrequencyOCL(OCL):
            def memory(self, rep):
                return Frequency().memory(rep)

        inst = make_problem_pk(3, 6, Design.ONE_HOT)
        got = monte_carlo_expected_excess(inst, FrequencyOCL(), 4, 9, 3)
        assert got == monte_carlo_expected_excess(inst, Frequency(), 4, 9, 3)
        assert got != monte_carlo_expected_excess(inst, OCL(), 4, 9, 3)

    @pytest.mark.parametrize("d", [1, 2, 15, 16, 17, 33])  # about the 16-wide ddot kernel
    @pytest.mark.parametrize("rows", [1, 7, 4096])
    def test_row_sums_are_the_per_row_dots(self, d, rows):
        # each row's sums as one ``float(m @ row)`` per row, bit for bit
        rng = np.random.default_rng(d * 10**4 + rows)
        inst = one_hot_instance(rng, d, sigma2=0.7)
        c1, c2 = (rng.integers(0, 4, (rows, d)).astype(float) for _ in range(2))
        n2, gamma = 5, rng.choice([0.0, 0.3, 2.0], d)

        def dots(m, block):
            return [float(m @ row) for row in block]

        for weighting in RiskWeighting:
            m = weight_vector(inst, weighting)
            s = c2 + n2 * gamma
            live = s > 0
            q = np.where(live, np.divide(n2 * gamma, s, out=np.zeros_like(s), where=live), 1.0)
            b = q * np.where(c1 == 0, inst.w_star, 0.0)
            a1inv = np.divide(1.0, c1, out=np.zeros_like(c1), where=c1 > 0)
            noise2 = np.divide(c2, s * s, out=np.zeros_like(s), where=live)
            want = [dots(m, b * b), [inst.sigma2 * float(m @ first + m @ second)
                                     for first, second in zip(q * q * a1inv, noise2)]]
            got = risk._conditional_sequential_onehot(c1, c2, n2, inst, gamma, weighting)
            assert [list(g) for g in got] == want
            c = c1 + c2
            ainv = np.divide(1.0, c, out=np.zeros_like(c), where=c > 0)
            want = [dots(m, np.where(c == 0, inst.w_star, 0.0) ** 2), [inst.sigma2 * v for v in dots(m, ainv)]]
            assert [list(g) for g in risk._conditional_joint_onehot(c1, c2, inst, weighting)] == want

    @pytest.mark.parametrize("bad", [-1e-3, math.nan, math.inf])
    def test_bad_risk_in_a_block_raises(self, bad, monkeypatch):
        # one bad replication among nine must raise, not be averaged away
        count_risks = risk._count_risks

        def one_bad_row(*args):
            bias, variance = count_risks(*args)
            bias = bias.copy()
            bias[4] = bad
            return bias, variance

        monkeypatch.setattr(risk, "_count_risks", one_bad_row)
        with pytest.raises(NegativeEigenvalue, match="replications 0 to 8"):
            monte_carlo_expected_excess(make_problem_pk(3, 6, Design.ONE_HOT), Joint(), 4, 9, 3)

    def test_memory_is_bounded_by_the_block(self):
        # a block holds at most 2^14 draws and counts per task, and a run of
        # generator words 32 bytes per replication and task for 4,095 of them;
        # the estimate keeps three floats per replication (2.4 MB here) beside
        # them, where all count rows of the cell would take 32 MB; 3.9 MB measured
        inst = make_problem_pk(3, 20, Design.ONE_HOT)
        tracemalloc.start()
        try:
            monte_carlo_expected_excess(inst, Frequency(), 4, 10**5, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_count_path_neither_draws_nor_scans_designs(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a dense one-hot design was drawn or scanned")

        monkeypatch.setattr(sampler, "sample_one_hot_design", forbidden)
        monkeypatch.setattr("grclab.risk._is_one_hot_rows", forbidden)
        inst = zero_mass_instance()
        for algorithm in count_path_algorithms(inst.d):
            for replications in (None, Replications(inst, 9, 3, seed=2)):
                monte_carlo_expected_excess(inst, algorithm, 9, 3, 2, replications=replications)

    def test_row_reading_memories_neither_draw_nor_scan_designs(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a dense one-hot design was drawn or scanned")

        monkeypatch.setattr(sampler, "sample_one_hot_design", forbidden)
        monkeypatch.setattr("grclab.risk._is_one_hot_rows", forbidden)
        inst = zero_mass_instance()
        for algorithm in (Sketch(2), GRCL(builder=lambda x1, seed: sketch_regularizer(x1, 3, seed))):
            for replications in (None, Replications(inst, 9, 3, seed=2)):
                monte_carlo_expected_excess(inst, algorithm, 9, 3, 2, replications=replications)
            algorithm.risk(Replication(inst, 9, 2, 0), RiskWeighting.JOINT)

    def test_replications_are_count_pairs(self):
        inst = zero_mass_instance()
        replication = Replications(inst, 12, 3, seed=4)[1]
        assert isinstance(replication, Replication)
        c1, c2 = replication.counts()
        seeds = [sampler.stream_seed(4, 1, tag) for tag in (sampler.TASK1_DESIGN, sampler.TASK2_DESIGN)]
        assert c1.tobytes() == sample_one_hot_design(inst.g, 12, seeds[0]).sum(axis=0).tobytes()
        assert c2.tobytes() == sample_one_hot_design(inst.h, 12, seeds[1]).sum(axis=0).tobytes()
        a1, a2 = replication.normal()
        assert a1.tobytes() == np.diag(c1).tobytes()
        assert a2.tobytes() == np.diag(c2).tobytes()
        assert replication.x1.tobytes() == np.repeat(np.eye(inst.d), c1.astype(int), axis=0).tobytes()


def wide_instance(d=4100):
    """crit-11's kind of instance just above the dense limit."""
    i = np.arange(1, d + 1)
    return ProblemInstance(
        w_star=np.concatenate([[1.0], np.zeros(d - 1)]), sigma2=1.0,
        g=make_spectrum(1.0 / i), h=make_spectrum(1.0 / i**1.5), design=Design.GAUSSIAN,
    )


def svd_joint_risk(x1, x2, inst, weighting):
    """Independent joint risk from the thin SVD of the stacked design."""
    _, s, vt = np.linalg.svd(np.vstack([x1, x2]), full_matrices=False)
    keep = s > 1e-12 * s[0]
    v = vt[keep]
    m = weight_vector(inst, weighting)
    pw = inst.w_star - v.T @ (v @ inst.w_star)
    variance = inst.sigma2 * float(((v * v) @ m) @ s[keep] ** -2.0)
    return float(m @ (pw * pw)), variance


class TestWidePath:
    """The Gram path above NORMAL_PATH_MAX_D, as Monte Carlo and the public API run it."""

    def test_public_risk_leaves_its_designs_unchanged(self):
        inst = wide_instance()
        x1 = sample_gaussian_design(inst.g, 5, 1)
        x2 = sample_gaussian_design(inst.h, 7, 2)
        before = x1.tobytes(), x2.tobytes()
        first = conditional_risk(x1, x2, inst, None), conditional_risk_joint(x1, x2, inst)
        assert (x1.tobytes(), x2.tobytes()) == before
        given = Replication.of_designs(inst, x1, x2)
        assert (OCL().risk(given, RiskWeighting.JOINT), Joint().risk(given, RiskWeighting.JOINT)) == first
        assert (x1.tobytes(), x2.tobytes()) == before

    def test_monte_carlo_designs_serve_every_risk(self):
        inst = wide_instance()
        replication = Replications(inst, 5, 2, seed=1)[0]
        x1, x2 = replication.designs()
        before = x1.tobytes(), x2.tobytes()
        risks = [algorithm.risk(replication, weighting)
                 for algorithm in (OCL(), Joint(), OCL()) for weighting in RiskWeighting]
        assert replication.designs()[0] is x1 and replication.designs()[1] is x2
        assert (x1.tobytes(), x2.tobytes()) == before
        assert risks[:3] == risks[6:]
        assert risks[0] == conditional_risk(x1, x2, inst, None, RiskWeighting.TASK1)

    @pytest.mark.parametrize("algorithm", [OCL(), Joint()])
    def test_drawn_risk_scales_its_draw_in_place_and_keeps_none(self, algorithm):
        # X1 and X2 are 2 n d floats; a scaled copy of them for W would
        # add as much again
        d, n = 4200, 300
        replication = Replication(wide_instance(d), n, 1, 0)
        tracemalloc.start()
        try:
            algorithm.risk(replication, RiskWeighting.JOINT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (2 * n * d + 16 * n * n)
        assert replication._designs is None

    @pytest.mark.parametrize("sizes", [(300,), (75, 150, 300)])
    def test_drawn_ocl_holds_one_phase_of_gram_blocks_beside_its_draw(self, sizes):
        # beside X1 and X2 only A1^+, A2^+, K12, W11, W12 and W22 are n x n:
        # K1 and K2 are freed before K12; each smaller size adds its A1^+ and A2^+.
        # Both modules are imported on first use; their imports are not the engine's.
        import concurrent.futures  # noqa: F401
        import numpy.random  # noqa: F401

        d, n = 4200, sizes[-1]
        replication = Replications(wide_instance(d), sizes, 2, seed=1)[0]
        tracemalloc.start()
        try:
            OCL().risk(replication, RiskWeighting.JOINT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (2 * n * d + 7 * n * n + 2 * sum(s * s for s in sizes[:-1]))

    @pytest.mark.parametrize("algorithm", [OCL(), Joint()])
    def test_smaller_sizes_add_no_draw_and_stay_under_the_single_size_bound(self, monkeypatch, algorithm):
        d, sizes = 4200, (75, 150, 225, 300)
        shared = Replications(wide_instance(d), sizes, 2, seed=1)
        tracemalloc.start()
        try:
            first = algorithm.risk(shared[0], RiskWeighting.JOINT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = sizes[-1]
        assert peak < 8 * (2 * n * d + 16 * n * n)

        def no_draw(*args):
            raise AssertionError("a design was drawn")

        monkeypatch.setattr(sampler, "sample_gaussian_design", no_draw)
        risks = []
        for size in sizes:
            shared._select(size)
            risks.append(algorithm.risk(shared[0], RiskWeighting.JOINT))
        assert risks[0] == first and len(set(risks)) == len(sizes)

    @pytest.mark.parametrize("d", [4100, 60])
    def test_draws_equal_the_sampler_bit_for_bit(self, monkeypatch, d):
        threads = []
        draw = sampler.sample_gaussian_design

        def recorded(s, n, seed):
            threads.append(threading.get_ident())
            return draw(s, n, seed)

        monkeypatch.setattr(sampler, "sample_gaussian_design", recorded)
        inst = make_problem_pk(3, d, Design.GAUSSIAN)
        x1, x2 = Replication(inst, 9, 4, 2).designs()
        seeds = [sampler.stream_seed(4, 2, tag) for tag in (sampler.TASK1_DESIGN, sampler.TASK2_DESIGN)]
        assert x1.tobytes() == draw(inst.g, 9, seeds[0]).tobytes()
        assert x2.tobytes() == draw(inst.h, 9, seeds[1]).tobytes()
        # X2 comes from a helper thread only above the dense limit
        assert len(set(threads)) == (2 if d > 4096 else 1)

    def test_one_hot_designs_raise_without_a_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a design was drawn")

        for name in ("sample_gaussian_design", "gaussian_gram", "sample_one_hot_design", "sample_one_hot_counts",
                     "sample_one_hot_count_block"):
            monkeypatch.setattr(sampler, name, no_draw)
        for d in (4100, 6):
            inst = make_problem_pk(3, d, Design.ONE_HOT)
            rows = np.eye(4, d)
            for replication in (Replication(inst, 6, 1, 0), Replication.of_counts(inst, np.ones(d), np.ones(d)),
                                Replication.of_designs(inst, rows, rows)):
                with pytest.raises(DimensionMismatch, match="one-hot replication is its counts"):
                    replication.designs()

    @pytest.mark.parametrize("design, algorithm", [
        (Design.GAUSSIAN, L2RCL(0.1)), (Design.GAUSSIAN, TopK(1)), (Design.ONE_HOT, TopK(1)),
    ])
    def test_normal_matrices_refused_before_any_draw(self, monkeypatch, design, algorithm):
        def no_draw(*args):
            raise AssertionError("a design was drawn")

        for name in ("sample_gaussian_design", "gaussian_gram", "sample_one_hot_design", "sample_one_hot_counts",
                     "sample_one_hot_count_block"):
            monkeypatch.setattr(sampler, name, no_draw)
        replication = Replication(make_problem_pk(3, 4100, design), 5, 1, 0)
        with pytest.raises(DimensionMismatch, match="^d=4100 is above 4096"):
            algorithm.risk(replication, RiskWeighting.JOINT)

    @pytest.mark.parametrize("design, algorithm, refused", [
        (Design.GAUSSIAN, L2RCL(0.1), True),
        (Design.ONE_HOT, L2RCL(0.1), False),
        (Design.GAUSSIAN, TopK(1), True),
        (Design.ONE_HOT, TopK(1), True),
        (Design.GAUSSIAN, TopK(0), False),
        (Design.GAUSSIAN, Sketch(2), True),
        (Design.ONE_HOT, Sketch(2), True),
        (Design.ONE_HOT, Frequency(), False),
        (Design.GAUSSIAN, GRCL(regularizer=zero_regularizer(4100)), False),
        (Design.GAUSSIAN, GRCL(regularizer=Regularizer(form="diagonal", values=np.ones(4100))), True),
        (Design.ONE_HOT, GRCL(regularizer=Regularizer(form="diagonal", values=np.ones(4100))), False),
        (Design.ONE_HOT, GRCL(regularizer=Regularizer(form="lowrank", factor=np.ones((1, 4100)))), True),
        (Design.GAUSSIAN, GRCL(builder=lambda x1, seed: zero_regularizer(x1.shape[1])), True),
        (Design.ONE_HOT, GRCL(builder=lambda x1, seed: zero_regularizer(x1.shape[1])), True),
        (Design.GAUSSIAN, OCL(), False),
        (Design.ONE_HOT, Joint(), False),
    ])
    def test_check_refuses_d_by_d_memories(self, design, algorithm, refused):
        inst = make_problem_pk(3, 4100, design)
        if refused:
            with pytest.raises(DimensionMismatch, match="^d=4100 is above 4096, where this memory"):
                check_algorithm(algorithm, inst, 5)
        else:
            check_algorithm(algorithm, inst, 5)

    @pytest.mark.parametrize("weighting", list(RiskWeighting))
    def test_joint_rows_match_svd_reference(self, weighting):
        inst = wide_instance()
        n, reps, seed = 7, 3, 2
        est, dec = monte_carlo_expected_excess(inst, Joint(), n, reps, seed, weighting)
        parts = []
        for rep in range(reps):
            replication = Replication(inst, n, seed, rep)
            parts.append(svd_joint_risk(*replication.designs(), inst, weighting))
        bias, variance = np.mean(parts, axis=0)
        assert dec.bias == pytest.approx(bias, rel=1e-8, abs=1e-10)
        assert dec.variance == pytest.approx(variance, rel=1e-8, abs=1e-10)
        assert est.mean == pytest.approx(bias + variance, rel=1e-8)


class TestCertifiedInverse:
    """The Gram engines' K^+: np.linalg.inv where its certificate holds, else eigh with the cutoff."""

    @staticmethod
    def pair(duplicated=False):
        rng = np.random.default_rng(31)
        inst = gaussian_instance(rng, 300)
        x1, x2 = sample_gaussian_design(inst.g, 20, 1), sample_gaussian_design(inst.h, 25, 2)
        if duplicated:
            x1[10:] = x1[:10]
            x2[:5] = x2[5:10]
        return inst, x1, x2

    @staticmethod
    def dense_risks(inst, x1, x2):
        return [(conditional_risk(x1, x2, inst, None, weighting), conditional_risk_joint(x1, x2, inst, weighting))
                for weighting in RiskWeighting]

    @staticmethod
    def assert_gram_risks_equal(inst, x1, x2, dense):
        for weighting, want in zip(RiskWeighting, dense):
            got = (_conditional_sequential_gram([x1.copy(), x2.copy()], inst, weighting, (len(x1),))[0],
                   _conditional_joint_gram([x1.copy(), x2.copy()], inst, weighting, (len(x1),))[0])
            for d, g in zip(want, got):
                assert g.bias == pytest.approx(d.bias, rel=1e-8, abs=1e-10)
                assert g.variance == pytest.approx(d.variance, rel=1e-8, abs=1e-10)

    def test_well_conditioned_pair_takes_the_inverse(self, monkeypatch):
        inst, x1, x2 = self.pair()
        dense = self.dense_risks(inst, x1, x2)

        def no_eigh(a):
            raise AssertionError("a certified Gram was decomposed")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        self.assert_gram_risks_equal(inst, x1, x2, dense)

    def test_rank_deficient_pair_falls_back_and_drops_directions(self, monkeypatch):
        inst, x1, x2 = self.pair(duplicated=True)
        k, cutoff = x1 @ x1.T, _eigen_cutoff_ratio(25, 300)
        _, v, inv, keep = risk._pinv_parts(k, cutoff)
        assert np.count_nonzero(keep) == 10
        assert risk._pinv_sym(k, cutoff).tobytes() == ((v * inv) @ v.T).tobytes()
        dense = self.dense_risks(inst, x1, x2)
        sizes = []
        eigh = np.linalg.eigh

        def counted(a):
            sizes.append(a.shape[0])
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        self.assert_gram_risks_equal(inst, x1, x2, dense)
        # per weighting: K1 and K2 of the sequential fit, K of the joint one
        assert sizes == [20, 25, 45] * len(RiskWeighting)

    @pytest.mark.parametrize("inverse", ["nan", "inf", "singular"])
    def test_non_finite_or_failed_inverse_falls_back(self, monkeypatch, inverse):
        inst, x1, x2 = self.pair()
        k, cutoff = x1 @ x1.T, _eigen_cutoff_ratio(25, 300)
        _, v, inv, keep = risk._pinv_parts(k, cutoff)
        assert keep.all()
        dense = self.dense_risks(inst, x1, x2)

        def bad(a):
            if inverse == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return np.full(a.shape, np.nan if inverse == "nan" else np.inf)

        monkeypatch.setattr(np.linalg, "inv", bad)
        assert risk._pinv_sym(k, cutoff).tobytes() == ((v * inv) @ v.T).tobytes()
        self.assert_gram_risks_equal(inst, x1, x2, dense)


class TestNestedGramEngines:
    """One owned pair at the largest size gives the Gram risks of its leading rows at every size."""

    sizes = (5, 12, 20, 25)

    @staticmethod
    def pair(duplicated=False):
        rng = np.random.default_rng(41)
        inst = gaussian_instance(rng, 300)
        x1, x2 = sample_gaussian_design(inst.g, 25, 3), sample_gaussian_design(inst.h, 25, 4)
        if duplicated:
            x1[10:15] = x1[:5]
        return inst, x1, x2

    @pytest.mark.parametrize("engine", [_conditional_sequential_gram, _conditional_joint_gram])
    def test_largest_size_equals_a_single_size_call(self, engine):
        inst, x1, x2 = self.pair()
        for weighting in RiskWeighting:
            nested = engine([x1.copy(), x2.copy()], inst, weighting, self.sizes)
            assert len(nested) == len(self.sizes)
            assert nested[-1] == engine([x1.copy(), x2.copy()], inst, weighting, self.sizes[-1:])[0]

    @pytest.mark.parametrize("engine", [_conditional_sequential_gram, _conditional_joint_gram])
    def test_smaller_sizes_equal_the_prefix_designs(self, engine):
        inst, x1, x2 = self.pair()
        for weighting in RiskWeighting:
            nested = engine([x1.copy(), x2.copy()], inst, weighting, self.sizes)
            for n, got in zip(self.sizes, nested):
                want, = engine([x1[:n].copy(), x2[:n].copy()], inst, weighting, (n,))
                assert got.bias == pytest.approx(want.bias, rel=1e-8, abs=1e-10)
                assert got.variance == pytest.approx(want.variance, rel=1e-8, abs=1e-10)

    def test_prefix_with_duplicated_rows_falls_back_to_eigh(self, monkeypatch):
        inst, x1, x2 = self.pair(duplicated=True)
        sizes = (15, 25)
        k1 = x1 @ x1.T
        for n in sizes:
            cutoff = _eigen_cutoff_ratio(n, 300)
            kept = [np.count_nonzero(risk._pinv_parts(k, cutoff)[3]) for k in (k1[:n, :n], x1[:n] @ x1[:n].T)]
            assert kept == [n - 5] * 2
        want = [[(conditional_risk(x1[:n], x2[:n], inst, None, weighting),
                  conditional_risk_joint(x1[:n], x2[:n], inst, weighting)) for n in sizes]
                for weighting in RiskWeighting]
        shapes = []
        eigh = np.linalg.eigh

        def counted(a):
            shapes.append(a.shape[0])
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        for weighting, dense in zip(RiskWeighting, want):
            got = zip(_conditional_sequential_gram([x1.copy(), x2.copy()], inst, weighting, sizes),
                      _conditional_joint_gram([x1.copy(), x2.copy()], inst, weighting, sizes))
            for pairs, dense_pairs in zip(got, dense):
                for g, d in zip(pairs, dense_pairs):
                    assert g.bias == pytest.approx(d.bias, rel=1e-8, abs=1e-10)
                    assert g.variance == pytest.approx(d.variance, rel=1e-8, abs=1e-10)
        # only the singular Grams are decomposed: K1 at each size, then the stacked K
        assert shapes == [15, 25, 30, 50] * len(RiskWeighting)


class TestNestedReplications:
    """Replication r at n is the first n rows, or draws, of replication r at any larger n.

    Its seeds come from (seed, r, stream) and not from n, so the rows of a
    sweep-n share common random numbers.
    """

    def test_gaussian_designs_and_grams(self):
        inst = make_problem_pk(3, 6, Design.GAUSSIAN)
        large = sampler.GRAM_BLOCK_ROWS + 500
        for rep in (0, 5):
            big = Replication(inst, large, 3, rep).designs()
            for n in (1, 40, sampler.GRAM_BLOCK_ROWS + 1):
                replication = Replication(inst, n, 3, rep)
                for x, prefix in zip(replication.designs(), big):
                    assert x.tobytes() == prefix[:n].tobytes()
                # a replication with no designs forms its Grams by gaussian_gram, which
                # sums blocks of rows: above one block, equal to rounding
                for a, prefix in zip(Replication(inst, n, 3, rep).normal(), big):
                    np.testing.assert_allclose(a, prefix[:n].T @ prefix[:n], rtol=1e-12)

    def test_one_hot_counts_and_count_blocks(self):
        inst = make_problem_pk(3, 6, Design.ONE_HOT)
        large, reps = 500, 70
        tags = (sampler.TASK1_DESIGN, sampler.TASK2_DESIGN)
        for n in (1, 37, 499):  # 499 draws make blocks of 32 replications
            shared = Replications(inst, n, reps, seed=3)
            for rep in (0, 1, 33, 69):
                seeds = [sampler.stream_seed(3, rep, tag) for tag in tags]
                big = [sample_one_hot_design(s, large, seed) for s, seed in zip((inst.g, inst.h), seeds)]
                standalone = [sampler.sample_one_hot_counts(s, n, seed) for s, seed in zip((inst.g, inst.h), seeds)]
                for counts in (shared[rep].counts(), standalone):
                    for c, rows in zip(counts, big):
                        assert c.tobytes() == rows[:n].sum(axis=0).tobytes()


class TestAlgorithmProtocol:
    @pytest.mark.parametrize("cls, name", [
        (OCL, "ocl"), (L2RCL, "l2rcl"), (GRCL, "grcl"), (Joint, "joint"),
        (TopK, "grcl"), (Sketch, "grcl"), (Frequency, "grcl"),
    ])
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
        designs = Replication.of_designs(inst, x1, x2)
        seed = sampler.stream_seed(0, 0, sampler.REGULARIZER_STREAM)
        # a one-hot pair is its counts: a memory reads the rows of X1 in atom order
        rows1 = atom_order_rows(x1) if design is Design.ONE_HOT else x1
        cases = [
            (OCL(), None),
            (L2RCL(0.4), Regularizer(form="diagonal", values=np.full(6, 0.4))),
            (TopK(2), topk_empirical(x1, 2)),
            (Sketch(2), sketch_regularizer(rows1, 2, seed)),
        ]
        for algorithm, sigma in cases:
            assert algorithm.risk(designs, RiskWeighting.JOINT) == conditional_risk(x1, x2, inst, sigma)
        assert Joint().risk(designs, RiskWeighting.JOINT) == conditional_risk_joint(x1, x2, inst)

    @pytest.mark.parametrize("design, d, n", [
        (Design.ONE_HOT, 6, 9), (Design.ONE_HOT, 5, 2), (Design.GAUSSIAN, 6, 9), (Design.GAUSSIAN, 4100, 7),
    ])
    def test_drawn_given_and_count_replications_agree(self, design, d, n):
        inst = zero_mass_instance() if (design, d) == (Design.ONE_HOT, 5) else make_problem_pk(3, d, design)
        if d > 4096:
            algorithms = [OCL(), Joint()]  # the Gram path; other memories are d x d
        else:
            algorithms = count_path_algorithms(d) if design is Design.ONE_HOT else shared_algorithms(d)
            algorithms += [Sketch(2), GRCL(builder=lambda x1, seed: sketch_regularizer(x1, 3, seed))]
        algorithms = [a for a in algorithms if not isinstance(a, TopK) or a.k <= n]

        def risks(replication):
            return [tuple(a.risk(replication, weighting) for weighting in RiskWeighting)
                    for a in algorithms]

        # the streams of (seed 0, rep 0), whose memory seed a given replication has
        drawn = risks(Replication(inst, n, 0, 0))
        if design is Design.ONE_HOT:
            seeds = [sampler.stream_seed(0, 0, tag) for tag in (sampler.TASK1_DESIGN, sampler.TASK2_DESIGN)]
            x1, x2 = (sample_one_hot_design(s, n, seed) for s, seed in zip((inst.g, inst.h), seeds))
        else:
            x1, x2 = Replication(inst, n, 0, 0).designs()
        assert risks(Replication.of_designs(inst, x1, x2)) == drawn
        if design is Design.ONE_HOT:
            # every memory, those that read rows included, sees the rows of c1 in atom order
            assert risks(Replication.of_counts(inst, x1.sum(axis=0), x2.sum(axis=0))) == drawn
            assert risks(Replication.of_designs(inst, atom_order_rows(x1), atom_order_rows(x2))) == drawn

    def test_given_pair_may_have_unequal_sizes(self):
        inst = make_problem_pk(3, 5, Design.ONE_HOT)
        x1, x2 = sample_one_hot_design(inst.g, 4, 1), sample_one_hot_design(inst.h, 11, 2)
        counted = Replication.of_counts(inst, x1.sum(axis=0), x2.sum(axis=0))
        assert (counted.n, counted.n2) == (4, 11)
        sigma = Regularizer(form="diagonal", values=np.full(5, 0.2))
        for weighting in RiskWeighting:
            assert counted.sequential_risk(sigma, weighting) == conditional_risk(x1, x2, inst, sigma, weighting)
            assert counted.joint_risk(weighting) == conditional_risk_joint(x1, x2, inst, weighting)


class TestFailFast:
    @pytest.mark.parametrize("algorithm, design, n, error", [
        (TopK(9), Design.GAUSSIAN, 50, KTooLarge),
        (TopK(6), Design.GAUSSIAN, 5, KTooLarge),
        (TopK(-1), Design.GAUSSIAN, 50, KTooLarge),
        (Frequency(), Design.GAUSSIAN, 50, NotOneHotDesign),
        (GRCL(regularizer=zero_regularizer(5)), Design.GAUSSIAN, 50, DimensionMismatch),
        (OCL(), Design.GAUSSIAN, 0, DimensionMismatch),
    ])
    def test_bad_cells_rejected_before_any_draw(self, monkeypatch, algorithm, design, n, error):
        def no_draw(*args):
            raise AssertionError("drew a design")

        monkeypatch.setattr(sampler, "sample_gaussian_design", no_draw)
        monkeypatch.setattr(sampler, "gaussian_gram", no_draw)
        inst = make_problem_pk(3, 8, design)
        with pytest.raises(error):
            check_algorithm(algorithm, inst, n)
        with pytest.raises(error):
            monte_carlo_expected_excess(inst, algorithm, n, 3, 1)

    def test_negative_seed_rejected_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a design")

        monkeypatch.setattr(sampler, "sample_gaussian_design", no_draw)
        monkeypatch.setattr(sampler, "gaussian_gram", no_draw)
        inst = make_problem_pk(3, 8, Design.GAUSSIAN)
        with pytest.raises(DimensionMismatch):
            Replications(inst, 10, 3, seed=-1)
        with pytest.raises(DimensionMismatch):
            monte_carlo_expected_excess(inst, OCL(), 10, 3, -1)

    @pytest.mark.parametrize("builder", [42, TopK(1), Frequency()])
    def test_builder_must_be_callable(self, builder):
        # refused when built, not with a TypeError on the first replication
        with pytest.raises(DimensionMismatch, match="builder must be a callable"):
            GRCL(builder=builder)

    @pytest.mark.parametrize("k", [-1, 0])
    def test_bad_sketch_size(self, k):
        with pytest.raises(KTooLarge):
            Sketch(k)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_gamma(self, gamma):
        with pytest.raises(NotPSD):
            L2RCL(gamma)

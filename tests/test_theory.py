import math

import numpy as np
import pytest

from grclab.errors import IndexSetTooLarge, NotDiagonal, NotOneHot
from grclab.model import Design, ProblemInstance, gaussian_index_set, make_spectrum
from grclab.regularizers import Regularizer, corollary3_regularizer, zero_regularizer
from grclab.theory import (
    gaussian_ocl_lower,
    gaussian_ocl_upper,
    grcl_theory_one_hot,
    joint_theory_one_hot,
    l2rcl_upper_one_hot,
    ocl_gap_one_hot,
)


def one_hot_inst(mu, lam, w, sigma2=1.0):
    return ProblemInstance(
        w_star=np.asarray(w, dtype=float), sigma2=sigma2,
        g=make_spectrum(mu, one_hot=True), h=make_spectrum(lam, one_hot=True),
        design=Design.ONE_HOT,
    )


def gaussian_inst(mu, lam, w, sigma2=1.0):
    return ProblemInstance(
        w_star=np.asarray(w, dtype=float), sigma2=sigma2,
        g=make_spectrum(mu), h=make_spectrum(lam), design=Design.GAUSSIAN,
    )


def edge_instance(n):
    """Dominant task-1 atom whose task-2 eigenvalue sits at the 1/n edge."""
    return one_hot_inst([1.0, 0.0], [1.0 / n, 1.0 - 1.0 / n], [1.0, 0.0])


def block_instance(n):
    """Normalized analog of the two-block mismatch construction.

    The displayed instance is unnormalized (its masses sum to ~n/3); this
    analog keeps every coordinate at or above the 1/n threshold in both
    tasks with head ratios mu/lambda = 2, so the same constant-level gap
    survives normalization.
    """
    assert n % 3 == 0
    m = n // 3
    mu = np.concatenate([np.full(m, 2.0 / n), np.full(m, 1.0 / n)])
    lam = np.concatenate([np.full(m, 1.0 / n), np.full(m, 2.0 / n)])
    w = np.ones(2 * m) / math.sqrt(2 * m)
    return one_hot_inst(mu, lam, w)


# -- literal transcriptions used as oracles ------------------------------------

def joint_surrogates(inst, n):
    mu, lam, w = inst.g.values, inst.h.values, inst.w_star
    bias = sum(
        (1 - m) ** n * (1 - l) ** n * (m + l) * ww**2
        for m, l, ww in zip(mu, lam, w)
    )
    head = sum(1 for m, l in zip(mu, lam) if m >= 1 / n or l >= 1 / n)
    tail = sum((m + l) ** 2 for m, l in zip(mu, lam) if m < 1 / n and l < 1 / n)
    return bias, inst.sigma2 / n * (head + n**2 * tail)


def grcl_surrogates(inst, gamma, n):
    mu, lam, w = inst.g.values, inst.h.values, inst.w_star
    bias = var_first = var_second = 0.0
    for m, l, ww, g in zip(mu, lam, w, gamma):
        shrink = g**2 / (g + l) ** 2 if g > 0 else 0.0
        pass_through = shrink + (1 - l) ** n
        bias += (m + l) * (1 - m) ** n * pass_through * ww**2
        a = 1 / (n * m) if m >= 1 / n else n * m
        b = l / (n * (l + g) ** 2) if l >= 1 / n else n * l / (1 + n * g) ** 2
        var_first += (m + l) * pass_through * a
        var_second += (m + l) * b
    return bias, inst.sigma2 * (var_first + var_second)


class TestJointTheory:
    def test_single_saturated_coordinate(self):
        rep = joint_theory_one_hot(one_hot_inst([1.0], [1.0], [1.0]), 4)
        assert rep.bias_surrogate == 0.0
        assert rep.variance_surrogate == pytest.approx(0.25)

    def test_dead_coordinate_contributes_nothing(self):
        inst = one_hot_inst([0.0, 1.0], [0.0, 1.0], [1.0, 0.0])
        rep = joint_theory_one_hot(inst, 6)
        assert rep.bias_surrogate == 0.0  # (mu+lam) w*^2 = 0 on the dead axis

    def test_transcription_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            d = 10
            inst = one_hot_inst(
                rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d)),
                rng.standard_normal(d),
            )
            rep = joint_theory_one_hot(inst, 50)
            bias, var = joint_surrogates(inst, 50)
            assert rep.bias_surrogate == pytest.approx(bias, rel=1e-12, abs=1e-300)
            assert rep.variance_surrogate == pytest.approx(var, rel=1e-12)

    def test_requires_one_hot(self):
        with pytest.raises(NotOneHot):
            joint_theory_one_hot(gaussian_inst([1.0], [1.0], [0.0]), 5)


class TestGrclTheory:
    def test_zero_sigma_reduces_to_unregularized_form(self):
        rng = np.random.default_rng(1)
        d = 8
        inst = one_hot_inst(
            rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d)), rng.standard_normal(d)
        )
        n = 30
        rep = grcl_theory_one_hot(inst, zero_regularizer(d), n)
        mu, lam, w = inst.g.values, inst.h.values, inst.w_star
        expected_bias = sum(
            (m + l) * (1 - m) ** n * (1 - l) ** n * ww**2
            for m, l, ww in zip(mu, lam, w)
        )
        assert rep.bias_surrogate == pytest.approx(expected_bias, rel=1e-12)

    def test_transcription_oracle(self):
        rng = np.random.default_rng(2)
        for n in (20, 50, 100):
            d = 10
            inst = one_hot_inst(
                rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d)),
                rng.standard_normal(d),
            )
            gamma = rng.uniform(0, 1, d) * (rng.random(d) < 0.5)
            rep = grcl_theory_one_hot(inst, Regularizer(form="diagonal", values=gamma), n)
            bias, var = grcl_surrogates(inst, gamma, n)
            assert rep.bias_surrogate == pytest.approx(bias, rel=1e-12, abs=1e-300)
            assert rep.variance_surrogate == pytest.approx(var, rel=1e-12)

    def test_edge_instance_variance_is_constant_level(self):
        n = 64
        rep = grcl_theory_one_hot(edge_instance(n), zero_regularizer(2), n)
        assert rep.variance_surrogate >= 1.0  # contains the mu1/lam1 / n = 1 term

    def test_corollary3_variance_close_to_joint(self):
        rng = np.random.default_rng(3)
        for idx in range(30):
            d = int(rng.integers(3, 15))
            n = int(rng.integers(10, 200))
            inst = one_hot_inst(
                rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d)),
                rng.standard_normal(d),
            )
            sigma = corollary3_regularizer(inst.g, n)
            grcl_rep = grcl_theory_one_hot(inst, sigma, n)
            joint_rep = joint_theory_one_hot(inst, n)
            assert grcl_rep.variance_surrogate <= 10.0 * joint_rep.variance_surrogate

    def test_window_straddles_one(self):
        rep = grcl_theory_one_hot(edge_instance(10), zero_regularizer(2), 10)
        lo, hi = rep.constant_window
        assert lo <= 1.0 <= hi

    def test_variance_non_increasing_in_memory(self):
        # larger top-k memory never raises the variance surrogate over the
        # supra-threshold head (the trade-off direction); past the head the
        # extra memory is a no-op up to a sub-1e-3 relative wobble
        from grclab.model import make_problem_pk, one_hot_index_sets
        from grclab.regularizers import topk_spectrum_regularizer

        instances = [make_problem_pk(6, 12, Design.ONE_HOT)]
        i = np.arange(1, 13, dtype=float)
        mu = i**-2.0 / np.sum(i**-2.0)
        lam = i**-1.5 / np.sum(i**-1.5)
        instances.append(one_hot_inst(mu, lam, np.ones(12) / math.sqrt(12)))
        for inst in instances:
            for n in (20, 100):
                head = int(np.count_nonzero(one_hot_index_sets(inst.g, n)))
                variances = [
                    grcl_theory_one_hot(
                        inst, topk_spectrum_regularizer(inst.g, k), n
                    ).variance_surrogate
                    for k in range(inst.d + 1)
                ]
                diffs = np.diff(variances)
                assert np.all(diffs[:head] <= 0)
                assert np.all(diffs <= 1e-3 * max(variances))

    def test_requires_diagonal(self):
        inst = edge_instance(10)
        with pytest.raises(NotDiagonal):
            grcl_theory_one_hot(inst, Regularizer(form="lowrank", factor=np.ones((1, 2))), 10)


class TestOclGap:
    def test_edge_instance_gap_is_one(self):
        n = 50
        assert ocl_gap_one_hot(edge_instance(n), n) == pytest.approx(1.0)

    def test_identical_tasks(self):
        mu = np.array([0.5, 0.3, 0.15, 0.05])
        inst = one_hot_inst(mu, mu, np.ones(4))
        n = 10
        k_size = int(np.sum(mu >= 1 / n))
        assert ocl_gap_one_hot(inst, n) == pytest.approx(k_size / n)

    def test_block_instance_transcription(self):
        n = 600
        inst = block_instance(n)
        m = n // 3
        expected = (1.0 / n) * (m * 2.0 + m * 0.5)  # all coords in K, ratios 2 and 1/2
        assert ocl_gap_one_hot(inst, n) == pytest.approx(expected, rel=1e-12)
        assert expected >= 0.5  # constant-level failure survives normalization


class TestL2rclUpper:
    def test_single_coordinate_transcription(self):
        n = 25
        inst = one_hot_inst([1.0], [1.0], [1.0])
        gamma = 1.0 / n
        expected = (2.0 / n) + (1.0 / n) * (
            1.0 / (1.0 + 2.0 / n) + (1.0 / n) / (1.0 + 1.0 / n)
        )
        assert l2rcl_upper_one_hot(inst, gamma, n) == pytest.approx(expected, rel=1e-12)

    def test_vanishing_gamma_limit(self):
        n = 40
        inst = block_instance(600)
        tiny = l2rcl_upper_one_hot(inst, 1e-12, 600)
        mu, lam = inst.g.values, inst.h.values
        limit = (1.0 / 600) * float(np.sum(mu / (lam + 1.0 / 600))) + (1.0 / 600)
        assert tiny == pytest.approx(limit, rel=1e-6)

    def test_no_gamma_rescues_block_instance(self):
        n = 600
        inst = block_instance(n)
        grid = np.geomspace(1e-6, 1.0, 25)
        values = [l2rcl_upper_one_hot(inst, g, n) for g in grid]
        assert min(values) >= 0.05


def heavy_tail_instance(d=2000, n=100, tau=5e-4):
    mu = np.concatenate([[1.0], np.full(d - 1, tau)])
    lam = np.concatenate([[1.0 / n], np.full(d - 1, tau)])
    w = np.zeros(d)
    w[0] = 1.0
    return gaussian_inst(mu, lam, w)


def flat_tail_instance(head, d, tau, w_seed=0):
    mu = np.concatenate([np.full(head, 1.0), np.full(d - head, tau)])
    w = np.random.default_rng(w_seed).standard_normal(d)
    w /= np.linalg.norm(w)
    return gaussian_inst(mu, mu, w)


def gaussian_lower_transcription(inst, n, j, k):
    mu, lam, w = inst.g.values, inst.h.values, inst.w_star
    tr_gc = float(np.sum(mu[~j]))
    tr_hc = float(np.sum(lam[~k]))
    f_j = np.where(j, tr_gc**2 / (n**2 * np.where(j, mu, 1.0) ** 2), 1.0)
    f_k = np.where(k, tr_hc**2 / (n**2 * np.where(k, lam, 1.0) ** 2), 1.0)
    bias = float(np.sum(mu * f_j * f_k * w**2))
    h_term = np.where(k, 1.0 / np.where(k, lam, 1.0), n**2 * lam / tr_hc**2)
    g_term = np.where(j, 1.0, n**2 * mu**2 / tr_gc**2)
    var = inst.sigma2 / n * float(np.sum(mu * h_term) + np.sum(f_k * g_term))
    return bias, var


def gaussian_upper_transcription(inst, n, j, k):
    mu, lam, w = inst.g.values, inst.h.values, inst.w_star
    tr_gc = float(np.sum(mu[~j]))
    tr_hc = float(np.sum(lam[~k]))
    bias = tr_gc**2 / n**2 * float(np.sum(w[j] ** 2 / mu[j])) + float(
        np.sum((mu * w**2)[~j])
    )
    t1 = float(np.sum((mu / np.where(k, lam, 1.0))[j & k]))
    t2 = n**2 * float(np.sum((mu * lam)[j & ~k])) / tr_hc**2
    t3 = int(np.count_nonzero(j & k))
    t4 = n**2 * float(np.sum((mu**2)[~j & ~k])) / tr_gc**2
    gh = mu[k] / lam[k]
    c5 = (
        (float(gh.max()) if gh.size else 0.0)
        + n * (float(np.sum((mu * lam)[~k])) + n * float((mu * lam)[~k].max(initial=0)))
        / tr_hc**2
        + tr_gc**2 / tr_hc**2
    )
    g_fac = np.where(j, 1.0 / np.where(j, mu, 1.0), n**2 * mu / tr_gc**2)
    h_fac = np.where(k, tr_hc**2 / (n**2 * np.where(k, lam, 1.0)), lam)
    t5 = float(np.sum(g_fac * h_fac))
    var = inst.sigma2 / n * (t1 + t2 + t3 + t4 + c5 * t5)
    return bias, var


class TestGaussianBounds:
    def test_zero_signal_zero_bias(self):
        inst = heavy_tail_instance()
        zeroed = ProblemInstance(
            w_star=np.zeros(inst.d), sigma2=1.0, g=inst.g, h=inst.h, design=inst.design
        )
        rep = gaussian_ocl_lower(zeroed, 100, b1=0.25, b2=2.0)
        assert rep.bias_surrogate == 0.0

    def test_zero_noise_zero_variance(self):
        inst = heavy_tail_instance()
        silent = ProblemInstance(
            w_star=inst.w_star, sigma2=0.0, g=inst.g, h=inst.h, design=inst.design
        )
        rep = gaussian_ocl_upper(silent, 100, b1=0.25, b2=2.0)
        assert rep.variance_surrogate == 0.0

    def test_heavy_tail_mismatch_is_constant_level(self):
        rep = gaussian_ocl_lower(heavy_tail_instance(), 100, b1=0.25, b2=2.0)
        assert rep.variance_surrogate >= 1.0

    def test_lower_transcription(self):
        inst = heavy_tail_instance()
        n, b2 = 100, 2.0
        j = gaussian_index_set(inst.g, n, b2)
        k = gaussian_index_set(inst.h, n, b2)
        rep = gaussian_ocl_lower(inst, n, b1=0.25, b2=b2)
        bias, var = gaussian_lower_transcription(inst, n, j, k)
        assert rep.bias_surrogate == pytest.approx(bias, rel=1e-12)
        assert rep.variance_surrogate == pytest.approx(var, rel=1e-12)

    def test_upper_transcription(self):
        rng = np.random.default_rng(4)
        d, n, b2 = 800, 50, 2.0
        mu = np.concatenate([rng.uniform(0.5, 2.0, 6), np.full(d - 6, 1e-3)])
        lam = np.concatenate([rng.uniform(0.5, 2.0, 6), np.full(d - 6, 2e-3)])
        inst = gaussian_inst(mu, lam, rng.standard_normal(d))
        j = gaussian_index_set(inst.g, n, b2)
        k = gaussian_index_set(inst.h, n, b2)
        rep = gaussian_ocl_upper(inst, n, b1=0.5, b2=b2)
        bias, var = gaussian_upper_transcription(inst, n, j, k)
        assert rep.bias_surrogate == pytest.approx(bias, rel=1e-12)
        assert rep.variance_surrogate == pytest.approx(var, rel=1e-12)

    def test_upper_bias_head_signal_with_heavy_tail(self):
        # signal on the head with a large tail trace: the head term
        # (tr tail)^2/n^2 * ||w*||^2_{G_J^-1} carries the bias
        d, n = 2000, 40
        mu = np.concatenate([np.full(4, 1.0), np.full(d - 4, 2e-2)])
        w = np.zeros(d)
        w[:4] = 0.5
        inst = gaussian_inst(mu, mu, w)
        j = gaussian_index_set(inst.g, n, 2.0)
        rep = gaussian_ocl_upper(inst, n, b1=0.5, b2=2.0)
        tr_tail = float(np.sum(mu[~j]))
        head_term = tr_tail**2 / n**2 * float(np.sum(w[j] ** 2 / mu[j]))
        assert rep.bias_surrogate == pytest.approx(head_term)  # tail part is 0

    def test_matched_tasks_bounds_within_factor(self):
        n, b2 = 50, 2.0
        for head, tau, d in [(5, 1e-3, 1000), (10, 5e-4, 1500), (8, 2e-3, 1200)]:
            inst = flat_tail_instance(head, d, tau, w_seed=head)
            lower = gaussian_ocl_lower(inst, n, b1=0.5, b2=b2)
            upper = gaussian_ocl_upper(inst, n, b1=0.5, b2=b2)
            lo = lower.bias_surrogate + lower.variance_surrogate
            hi = upper.bias_surrogate + upper.variance_surrogate
            assert lo <= 50.0 * hi
            assert lower.variance_surrogate <= 50.0 * upper.variance_surrogate

    def test_power_law_pair_scaling(self):
        # slow decay of the lower surrogate for the log-mismatch pair
        d = 50000
        i = np.arange(1, d + 1)
        alpha, beta = 2.0, 2.5
        mu = 1.0 / (i * np.log(i + 1) ** alpha)
        lam = 1.0 / (i * np.log(i + 1) ** beta)
        w = np.zeros(d)
        w[0] = 1.0
        values = {}
        for n in (500, 1000, 2000):
            inst = gaussian_inst(mu, lam, w)
            rep = gaussian_ocl_lower(inst, n, b1=0.5, b2=1.0)
            j = gaussian_index_set(inst.g, n, 1.0)
            k = gaussian_index_set(inst.h, n, 1.0)
            bias, var = gaussian_lower_transcription(inst, n, j, k)
            assert rep.variance_surrogate == pytest.approx(var, rel=1e-12)
            values[n] = rep.variance_surrogate
        # decay across a doubling of n no faster than log^(beta-alpha-1), x2 slack
        for n1, n2 in [(500, 1000), (1000, 2000)]:
            floor = (math.log(n1) / math.log(n2)) ** 0.5 / 2.0
            assert values[n2] / values[n1] >= floor

    def test_head_budget_enforced(self):
        # 60 equal head spikes exceed b1*n = 25
        d, n = 1000, 50
        mu = np.concatenate([np.full(60, 1.0), np.full(d - 60, 1e-3)])
        inst = gaussian_inst(mu, mu, np.zeros(d))
        with pytest.raises(IndexSetTooLarge):
            gaussian_ocl_lower(inst, n, b1=0.5, b2=2.0)

    def test_requires_gaussian_design(self):
        with pytest.raises(NotOneHot):
            gaussian_ocl_lower(edge_instance(10), 10, b1=0.5, b2=1.0)

import tracemalloc

import numpy as np
import pytest

from grclab.errors import KTooLarge, NotOneHotDesign, NotPSD
from grclab.estimators import Weights, fit_grcl
from grclab.model import Design, ProblemInstance, make_problem_pk, make_spectrum
from grclab.regularizers import (
    _SKETCH_BLOCK_ROWS,
    Regularizer,
    corollary3_regularizer,
    sketch_regularizer,
    topk_empirical,
    topk_spectrum_regularizer,
    zero_regularizer,
)
from grclab.risk import Frequency, Replication, check_algorithm
from grclab.sampler import sample_one_hot_counts


def one_hot_rows(counts):
    return np.repeat(np.eye(len(counts)), counts, axis=0)


def frequency_memory(counts):
    """The ``grcl:freq`` memory of task-1 data with these atom counts."""
    c = np.asarray(counts, dtype=float)
    s = make_spectrum(np.full(c.size, 1.0 / c.size), one_hot=True)
    inst = ProblemInstance(w_star=np.zeros(c.size), sigma2=1.0, g=s, h=s, design=Design.ONE_HOT)
    return Frequency().memory(Replication.of_counts(inst, c, c))


class TestTopkEmpirical:
    def test_single_eigenpair(self):
        x1 = one_hot_rows([3, 1])
        reg = topk_empirical(x1, 1)
        np.testing.assert_allclose(reg.matrix(), np.diag([0.75, 0.0]), atol=1e-12)
        assert reg.memory_size == 1

    def test_zero_memory(self):
        reg = topk_empirical(np.ones((4, 3)), 0)
        assert reg.is_zero
        assert reg.memory_size == 0

    def test_full_rank_recovery(self):
        rng = np.random.default_rng(0)
        x1 = rng.standard_normal((50, 10))
        reg = topk_empirical(x1, 10)
        np.testing.assert_allclose(reg.matrix(), x1.T @ x1 / 50, atol=1e-10)

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            topk_empirical(np.ones((3, 5)), 4)

    def test_truncation_beats_random_rank_k(self):
        # Eckart-Young check against 100 random PSD rank-k alternatives
        rng = np.random.default_rng(1)
        x1 = rng.standard_normal((30, 6))
        emp = x1.T @ x1 / 30
        k = 2
        best = np.linalg.norm(topk_empirical(x1, k).matrix() - emp)
        for _ in range(100):
            f = rng.standard_normal((k, 6))
            # scale the alternative optimally (least squares in the cone span)
            cand = f.T @ f
            scale = max(np.trace(cand.T @ emp) / np.trace(cand.T @ cand), 0.0)
            assert best <= np.linalg.norm(scale * cand - emp) + 1e-12


class TestOnehotFrequency:
    def test_frequency_counting(self):
        reg = frequency_memory([2, 1, 0])
        np.testing.assert_allclose(reg.values, [2 / 3, 1 / 3, 0.0])
        assert reg.memory_size == 2

    def test_single_observed_atom(self):
        reg = frequency_memory([5, 0])
        np.testing.assert_allclose(reg.values, [1.0, 0.0])
        assert reg.memory_size == 1

    def test_rejects_dense_rows(self):
        with pytest.raises(NotOneHotDesign):
            check_algorithm(Frequency(), make_problem_pk(1, 2, Design.GAUSSIAN), 3)

    def test_capture_probability_above_threshold(self):
        # coordinates with mu > 10/n survive with probability 1 - (1-mu)^n
        n = 10**4
        mu = np.array([15.0 / n, 0.6, 0.4 - 15.0 / n])
        prob_capture = 1.0 - (1.0 - mu) ** n
        assert prob_capture.min() >= 0.999
        s = make_spectrum(mu, one_hot=True)
        for seed in range(200):
            assert frequency_memory(sample_one_hot_counts(s, n, seed)).values[0] > 0.0

    def test_unbiased_spectrum_estimator(self):
        # averaged over 1e4 draws, gamma-hat within 3 standard errors of mu
        n, draws = 50, 10**4
        mu = np.array([0.5, 0.3, 0.2])
        s = make_spectrum(mu, one_hot=True)
        acc = np.zeros(3)
        for seed in range(draws):
            acc += frequency_memory(sample_one_hot_counts(s, n, seed)).values
        mean = acc / draws
        stderr = np.sqrt(mu * (1 - mu) / n / draws)
        np.testing.assert_array_less(np.abs(mean - mu), 3 * stderr)


class TestSpectrumRules:
    def test_corollary3_rule(self):
        g = make_spectrum([0.5, 0.4, 0.1])
        reg = corollary3_regularizer(g, 5)
        np.testing.assert_allclose(reg.values, [0.5, 0.4, 0.0])
        assert reg.memory_size == 2

    def test_corollary3_empty_and_boundary(self):
        g = make_spectrum([0.01, 0.02])
        assert corollary3_regularizer(g, 5).is_zero
        atom = make_spectrum([1.0])
        np.testing.assert_allclose(corollary3_regularizer(atom, 1).values, [1.0])

    def test_topk_spectrum(self):
        g = make_spectrum(1.0 / np.arange(1, 6) ** 2)
        reg = topk_spectrum_regularizer(g, 2)
        np.testing.assert_allclose(reg.values, [1.0, 0.25, 0.0, 0.0, 0.0])
        assert topk_spectrum_regularizer(g, 0).is_zero
        np.testing.assert_allclose(topk_spectrum_regularizer(g, 5).values, g.values)
        with pytest.raises(KTooLarge):
            topk_spectrum_regularizer(g, 6)


class TestSketch:
    def test_unbiased_over_seeds(self):
        rng = np.random.default_rng(2)
        x1 = rng.standard_normal((8, 3))
        emp = x1.T @ x1 / 8
        acc = np.zeros((3, 3))
        draws = 10**4
        for seed in range(draws):
            acc += sketch_regularizer(x1, 4, seed).matrix()
        mean = acc / draws
        assert np.abs(mean - emp).max() <= 0.02 * np.abs(emp).max()

    def test_zero_data(self):
        reg = sketch_regularizer(np.zeros((5, 2)), 3, seed=0)
        assert reg.is_zero

    def test_deterministic(self):
        x1 = np.random.default_rng(3).standard_normal((6, 2))
        a = sketch_regularizer(x1, 2, seed=11)
        b = sketch_regularizer(x1, 2, seed=11)
        np.testing.assert_array_equal(a.factor, b.factor)
        assert a.memory_size == 2

    @pytest.mark.parametrize("n", [1, _SKETCH_BLOCK_ROWS - 1, _SKETCH_BLOCK_ROWS, _SKETCH_BLOCK_ROWS + 1,
                                   3 * _SKETCH_BLOCK_ROWS + 7])
    def test_blocks_add_as_one_whole_array_call(self, n):
        x1 = np.random.default_rng(n).standard_normal((n, 5))
        for k, seed in ((1, 0), (3, 8), (7, 21)):
            rng = np.random.default_rng(seed)
            rows = rng.integers(0, k, size=n)
            signs = rng.choice(np.array([-1.0, 1.0]), size=n)
            factor = np.zeros((k, 5))
            np.add.at(factor, rows, signs[:, None] * x1)
            want = factor / np.sqrt(n)
            assert sketch_regularizer(x1, k, seed).factor.tobytes() == want.tobytes()

    def test_makes_no_copy_of_the_design(self):
        # a signed copy of X1 alone would be n d 8 bytes (26 MB); a block of rows is 1.6 MB
        n, d = 16 * _SKETCH_BLOCK_ROWS, 200
        x1 = np.random.default_rng(5).standard_normal((n, d))
        tracemalloc.start()
        try:
            sketch_regularizer(x1, 4, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8 / 4


class TestRegularizerType:
    def test_every_sigma_is_psd(self):
        rng = np.random.default_rng(4)
        x1 = rng.standard_normal((20, 5))
        regs = [
            topk_empirical(x1, 3),
            sketch_regularizer(x1, 4, 0),
            corollary3_regularizer(make_spectrum(rng.dirichlet(np.ones(5)), one_hot=True), 7),
            frequency_memory([3, 4, 0, 2, 1]),
        ]
        for reg in regs:
            eig = np.linalg.eigvalsh(reg.matrix())
            assert eig.min() >= -1e-12 * max(eig.max(), 1.0)

    def test_negative_diagonal_rejected(self):
        with pytest.raises(NotPSD):
            Regularizer(form="diagonal", values=np.array([0.5, -0.1]))

    def test_memory_size_accounting(self):
        assert Regularizer(form="diagonal", values=np.array([0.0, 1.0, 2.0])).memory_size == 2
        assert Regularizer(form="lowrank", factor=np.ones((3, 4))).memory_size == 3
        assert zero_regularizer(6).memory_size == 0

    def test_representation_independence_in_grcl(self):
        # the fit depends on Sigma as a matrix, not on its encoding
        rng = np.random.default_rng(5)
        x2 = rng.standard_normal((7, 4))
        y2 = rng.standard_normal(7)
        w1 = Weights(rng.standard_normal(4))
        gamma = np.array([0.8, 0.0, 0.3, 1.5])
        diag = Regularizer(form="diagonal", values=gamma)
        nz = np.flatnonzero(gamma)
        factor = np.zeros((nz.size, 4))
        factor[np.arange(nz.size), nz] = np.sqrt(gamma[nz])
        low = Regularizer(form="lowrank", factor=factor)
        np.testing.assert_allclose(
            fit_grcl(x2, y2, w1, diag).w, fit_grcl(x2, y2, w1, low).w, atol=1e-10
        )

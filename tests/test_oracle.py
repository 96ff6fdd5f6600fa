import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grclab import oracle, risk
from grclab.errors import BudgetExceeded, DimensionMismatch, InvalidProbability, NegativeEigenvalue
from grclab.model import Design, ProblemInstance, make_spectrum
from grclab.oracle import (
    MAX_STATES,
    _compositions,
    _multinomial_states,
    _state_count,
    binomial_mixed_moment,
    binomial_pmf,
    exact_one_hot_expected_excess,
)
from grclab.risk import (
    GRCL,
    Frequency,
    Joint,
    L2RCL,
    OCL,
    RiskWeighting,
    Sketch,
    TopK,
    conditional_risk,
    conditional_risk_joint,
    monte_carlo_expected_excess,
)
from grclab.regularizers import Regularizer, sketch_regularizer, topk_empirical
from grclab.sampler import REGULARIZER_STREAM, stream_seed
from grclab.theory import joint_theory_one_hot


class TestBinomialMoment:
    def test_sure_two(self):
        assert binomial_mixed_moment(2, 1.0, 0.0, 1, 0) == pytest.approx(0.5)

    def test_three_term_sum(self):
        # j=1: 1 * 2*(1/4); j=2: 1/2 * 1/4
        assert binomial_mixed_moment(2, 0.5, 0.0, 1, 0) == pytest.approx(0.625)

    def test_zero_probability(self):
        assert binomial_mixed_moment(3, 0.0, 0.0, 2, 0) == 0.0
        assert binomial_mixed_moment(3, 0.0, 0.0, 1, 1) == 0.0

    def test_invalid_probability(self):
        with pytest.raises(InvalidProbability):
            binomial_mixed_moment(3, 1.5, 0.0, 1, 0)

    def test_invalid_powers(self):
        with pytest.raises(DimensionMismatch):
            binomial_mixed_moment(3, 0.5, 0.0, 3, 0)
        with pytest.raises(DimensionMismatch):
            binomial_mixed_moment(3, 0.5, 0.0, 1, 2)

    def test_pmf_mass(self):
        for n, p in [(5, 0.3), (64, 0.01), (1000, 0.999)]:
            assert math.fsum(binomial_pmf(n, p).tolist()) == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(2, 64), st.floats(0.001, 1.0))
    @settings(max_examples=80)
    def test_head_inverse_sandwich(self, n, frac):
        # Lemma-level window for E[(B^+)^-1] with p >= 1/n
        p = 1.0 / n + frac * (1.0 - 1.0 / n)
        m = binomial_mixed_moment(n, p, 0.0, 1, 0)
        assert 1.0 / (4 * n * p) - 1e-12 <= m <= 12.0 / (n * p) + 1e-12

    @given(st.integers(2, 64), st.floats(0.001, 1.0))
    @settings(max_examples=80)
    def test_tail_inverse_sandwich(self, n, frac):
        p = frac / n
        m = binomial_mixed_moment(n, p, 0.0, 1, 0)
        assert n * p / math.e - 1e-12 <= m <= n * p + 1e-12

    def test_zero_count_mass_equality(self):
        for n in (2, 4, 8, 16, 32, 64):
            for p in np.linspace(0.0, 1.0, 21):
                assert binomial_pmf(n, p)[0] == pytest.approx((1 - p) ** n, abs=1e-12)

    @given(st.integers(2, 64), st.floats(0.001, 1.0), st.floats(0.01, 2.0))
    @settings(max_examples=80)
    def test_shifted_square_sandwich(self, n, frac, gamma):
        p = 1.0 / n + frac * (1.0 - 1.0 / n)
        m = binomial_mixed_moment(n, p, n * gamma, 2, 0)
        base = 1.0 / (n**2 * (p + gamma) ** 2) + (1 - p) ** n / (n**2 * gamma**2)
        assert 0.5 * base - 1e-12 <= m <= 144.0 * base + 1e-12

    @given(st.integers(2, 64), st.floats(0.001, 1.0), st.floats(0.01, 2.0))
    @settings(max_examples=80)
    def test_mixed_head_sandwich(self, n, frac, gamma):
        p = 1.0 / n + frac * (1.0 - 1.0 / n)
        m = binomial_mixed_moment(n, p, n * gamma, 2, 1)
        center = p / (n * (p + gamma) ** 2)
        assert center / 48.0 - 1e-12 <= m <= 144.0 * center + 1e-12

    @given(st.integers(2, 64), st.floats(0.01, 1.0), st.floats(0.0, 2.0))
    @settings(max_examples=80)
    def test_mixed_tail_sandwich(self, n, frac, gamma):
        p = frac / n
        m = binomial_mixed_moment(n, p, n * gamma, 2, 1)
        cap = n * p / (1 + n * gamma) ** 2
        assert cap / math.e - 1e-12 <= m <= cap + 1e-12


def small_instance(mu, lam, w, sigma2=1.0):
    return ProblemInstance(
        w_star=np.asarray(w, dtype=float), sigma2=sigma2,
        g=make_spectrum(mu, one_hot=True), h=make_spectrum(lam, one_hot=True),
        design=Design.ONE_HOT,
    )


class TestExactEnumeration:
    def test_single_state(self):
        inst = small_instance([1.0], [1.0], [1.0])
        dec = exact_one_hot_expected_excess(inst, 1, OCL())
        assert dec.bias == 0.0
        assert dec.total == pytest.approx(2.0)

    def test_no_signal_no_noise(self):
        inst = small_instance([0.5, 0.5], [0.5, 0.5], [0.0, 0.0], sigma2=0.0)
        dec = exact_one_hot_expected_excess(inst, 3, Joint())
        assert (dec.bias, dec.variance, dec.total) == (0.0, 0.0, 0.0)

    def test_joint_bias_matches_closed_form(self):
        # two independent exact paths must agree to 1e-10
        rng = np.random.default_rng(0)
        for _ in range(5):
            inst = small_instance(
                rng.dirichlet([2.0, 2.0]), rng.dirichlet([2.0, 2.0]),
                rng.standard_normal(2),
            )
            n = 3
            dec = exact_one_hot_expected_excess(inst, n, Joint())
            closed = joint_theory_one_hot(inst, n).bias_surrogate
            assert dec.bias == pytest.approx(closed, abs=1e-10)

    def test_budget_exceeded(self):
        # C(20, 3) = 1,140 count vectors per task, so 1,299,600 pairs
        inst = small_instance([0.25] * 4, [0.25] * 4, np.ones(4))
        counts, probs = _multinomial_states(17, inst.g.values)
        assert counts.shape == (1140, 4) and probs.shape == (1140,)
        assert MAX_STATES == 10**6
        with pytest.raises(BudgetExceeded, match="1299600 dataset pairs"):
            exact_one_hot_expected_excess(inst, 17, OCL())

    @pytest.mark.parametrize("probs, n", [
        ([0.25] * 4, 6), ([0.7, 0.3, 0.0], 4), ([0.0, 0.5, 0.0, 0.5, 0.0], 5), ([1.0], 3), ([0.0, 1.0], 2),
    ])
    def test_state_count_is_the_enumeration(self, probs, n):
        probs = np.array(probs)
        counts, state_probs = _multinomial_states(n, probs)
        assert _state_count(n, probs) == len(counts) == len(state_probs)
        # the compositions of n over all atoms that put nothing on a zero-mass atom, in order
        live = [c for c in _compositions(n, probs.size) if all(p > 0 or not k for k, p in zip(c, probs))]
        assert [tuple(row) for row in counts] == live
        assert math.fsum(state_probs) == pytest.approx(1.0, abs=1e-12)

    def test_budget_checked_before_enumerating(self, monkeypatch):
        def no_states(*args):
            raise AssertionError("enumerated the states")

        monkeypatch.setattr(oracle, "_multinomial_states", no_states)
        inst = small_instance([0.125] * 8, [0.125] * 8, np.ones(8))
        with pytest.raises(BudgetExceeded, match=f"^{math.comb(47, 7) ** 2} dataset pairs exceed"):
            exact_one_hot_expected_excess(inst, 40, OCL())

    def test_monte_carlo_agrees_with_enumeration(self):
        rng = np.random.default_rng(1)
        inst = small_instance(
            rng.dirichlet([2.0, 2.0]), rng.dirichlet([2.0, 2.0]), rng.standard_normal(2)
        )
        n = 4
        sigma = Regularizer(form="diagonal", values=np.array([0.4, 0.0]))
        for algorithm in (OCL(), L2RCL(0.3), GRCL(regularizer=sigma), Joint()):
            exact = exact_one_hot_expected_excess(inst, n, algorithm)
            est, _ = monte_carlo_expected_excess(inst, algorithm, n, 4000, seed=2)
            assert abs(est.mean - exact.total) <= 4 * est.std_error + 1e-12


def enumeration_algorithms(d):
    lowrank = Regularizer(form="lowrank", factor=np.linspace(0.1, 0.6, 2 * d).reshape(2, d))
    diagonal = Regularizer(form="diagonal", values=np.linspace(0.0, 0.8, d))
    return [
        OCL(), L2RCL(0.3), GRCL(regularizer=diagonal), GRCL(regularizer=lowrank),
        Frequency(), TopK(1), TopK(0), Joint(),
    ]


def design_reference(inst, n, algorithm, weighting):
    """Enumeration through ``conditional_risk*`` on the dense designs of each count pair."""
    memory_seed = stream_seed(0, 0, REGULARIZER_STREAM)
    bias_terms, var_terms = [], []
    for c1, p1 in zip(*_multinomial_states(n, inst.g.values)):
        x1 = np.repeat(np.eye(inst.d), c1.astype(int), axis=0)
        for c2, p2 in zip(*_multinomial_states(n, inst.h.values)):
            x2 = np.repeat(np.eye(inst.d), c2.astype(int), axis=0)
            if isinstance(algorithm, Joint):
                dec = conditional_risk_joint(x1, x2, inst, weighting)
            else:
                if isinstance(algorithm, OCL):
                    sigma = None
                elif isinstance(algorithm, L2RCL):
                    sigma = Regularizer(form="diagonal", values=np.full(inst.d, algorithm.gamma))
                elif isinstance(algorithm, TopK):
                    sigma = topk_empirical(x1, algorithm.k)
                elif isinstance(algorithm, Frequency):
                    sigma = Regularizer(form="diagonal", values=x1.sum(axis=0) / n)
                elif isinstance(algorithm, Sketch):
                    sigma = sketch_regularizer(x1, algorithm.k, memory_seed)
                elif algorithm.regularizer is not None:
                    sigma = algorithm.regularizer
                else:
                    sigma = algorithm.builder(x1, memory_seed)
                dec = conditional_risk(x1, x2, inst, sigma, weighting)
            bias_terms.append(p1 * p2 * dec.bias)
            var_terms.append(p1 * p2 * dec.variance)
    return math.fsum(bias_terms), math.fsum(var_terms)


def random_small_instances():
    rng = np.random.default_rng(8)
    for d, n in [(2, 5), (3, 4), (3, 3)]:
        yield small_instance(rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d)),
                             rng.standard_normal(d), sigma2=0.6), n
    yield small_instance([0.7, 0.3, 0.0], [0.0, 0.4, 0.6], [1.0, -0.5, 2.0]), 4


class TestCountPairs:
    """The oracle reads each enumerated count pair as a count replication."""

    def test_exact_values_equal_the_design_reference(self):
        for inst, n in random_small_instances():
            algorithms = enumeration_algorithms(inst.d) + [
                Sketch(2),
                GRCL(builder=lambda x1, seed: sketch_regularizer(x1[::-1], 2, seed + 1)),
            ]
            for algorithm in algorithms:
                for weighting in RiskWeighting:
                    dec = exact_one_hot_expected_excess(inst, n, algorithm, weighting=weighting)
                    assert (dec.bias, dec.variance) == design_reference(inst, n, algorithm, weighting)

    @pytest.mark.parametrize("pairs_per_block", [1, 7])
    def test_block_boundaries_change_nothing(self, pairs_per_block, monkeypatch):
        cases = [(inst, n, algorithm, weighting)
                 for inst, n in random_small_instances()
                 for algorithm in enumeration_algorithms(inst.d)
                 for weighting in RiskWeighting]
        want = [exact_one_hot_expected_excess(*case[:3], weighting=case[3]) for case in cases]
        for (inst, n, algorithm, weighting), dec in zip(cases, want):
            monkeypatch.setattr(oracle, "_PAIR_BLOCK", pairs_per_block * inst.d)
            assert exact_one_hot_expected_excess(inst, n, algorithm, weighting=weighting) == dec

    @pytest.mark.parametrize("bad", [-1e-3, math.nan, math.inf])
    def test_bad_risk_in_a_block_raises(self, bad, monkeypatch):
        # one bad pair among the 36 of two 2-atom instances at n = 5 must raise
        count_risks = risk._count_risks

        def one_bad_row(*args):
            bias, variance = count_risks(*args)
            variance = variance.copy()
            variance[-1] = bad
            return bias, variance

        monkeypatch.setattr(risk, "_count_risks", one_bad_row)
        inst = small_instance([0.4, 0.6], [0.5, 0.5], [1.0, -1.0])
        with pytest.raises(NegativeEigenvalue, match="pairs 0 to 35"):
            exact_one_hot_expected_excess(inst, 5, Joint())

    def test_count_determined_algorithms_build_and_scan_no_design(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a design was built or scanned")

        monkeypatch.setattr("grclab.risk._rows_of_counts", forbidden)
        monkeypatch.setattr("grclab.risk._is_one_hot_rows", forbidden)
        for inst, n in random_small_instances():
            for algorithm in enumeration_algorithms(inst.d):
                for weighting in RiskWeighting:
                    exact_one_hot_expected_excess(inst, n, algorithm, weighting=weighting)

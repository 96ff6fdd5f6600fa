import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grclab.errors import (
    ConfigParse,
    DimensionMismatch,
    InfeasibleEffectiveRank,
    InvalidK,
    NegativeEigenvalue,
    OneHotMassMismatch,
)
from grclab.model import (
    Design,
    ProblemInstance,
    RiskDecomposition,
    effective_rank,
    gaussian_index_set,
    instance_from_text,
    instance_to_text,
    make_problem_pk,
    make_spectrum,
    one_hot_index_sets,
    read_key_values,
)


class TestMakeSpectrum:
    def test_single_atom(self):
        s = make_spectrum([1.0], one_hot=True)
        np.testing.assert_array_equal(s.values, [1.0])
        assert s.one_hot

    def test_uniform_two_point(self):
        s = make_spectrum([0.5, 0.5], one_hot=True)
        np.testing.assert_array_equal(s.values, [0.5, 0.5])

    def test_mass_mismatch(self):
        with pytest.raises(OneHotMassMismatch):
            make_spectrum([0.6, 0.3], one_hot=True)

    def test_negative_entry(self):
        with pytest.raises(NegativeEigenvalue):
            make_spectrum([0.5, -0.1])

    def test_renormalizes_small_drift(self):
        vals = np.full(7, 1.0 / 7)  # sums to 1 only approximately
        s = make_spectrum(vals, one_hot=True)
        assert math.fsum(s.values.tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_values_immutable(self):
        s = make_spectrum([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 5.0


class TestProblemPk:
    def test_small_instance_values(self):
        inst = make_problem_pk(2, 3, Design.GAUSSIAN)
        np.testing.assert_allclose(inst.g.values, [1.0, 0.5, 0.25])
        np.testing.assert_allclose(inst.h.values, [0.5, 1.0, 0.25])
        np.testing.assert_allclose(inst.w_star, [1.0, 0.5, 1.0 / 3.0])
        assert inst.sigma2 == 1.0

    def test_k1_head_reversal_is_noop(self):
        inst = make_problem_pk(1, 2, Design.GAUSSIAN)
        np.testing.assert_array_equal(inst.g.values, inst.h.values)

    def test_figure_instance(self):
        inst = make_problem_pk(15, 200, Design.GAUSSIAN)
        assert inst.d == 200
        assert inst.h.values[0] == 0.5**14
        assert inst.h.values[14] == 1.0
        np.testing.assert_array_equal(inst.g.values[15:], inst.h.values[15:])

    def test_head_multiset_and_tail_invariant(self):
        inst = make_problem_pk(6, 40, Design.GAUSSIAN)
        head_g = sorted(inst.g.values[:6].tolist())
        head_h = sorted(inst.h.values[:6].tolist())
        assert head_g == head_h
        np.testing.assert_array_equal(inst.g.values[6:], inst.h.values[6:])

    def test_one_hot_renormalization(self):
        inst = make_problem_pk(4, 10, Design.ONE_HOT)
        assert math.fsum(inst.g.values.tolist()) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(inst.h.values.tolist()) == pytest.approx(1.0, abs=1e-12)
        # relative profile is unchanged by the normalization
        np.testing.assert_allclose(inst.g.values[1] / inst.g.values[0], 0.5)

    @pytest.mark.parametrize("k,d", [(0, 5), (6, 5), (-1, 3)])
    def test_invalid_k(self, k, d):
        with pytest.raises(InvalidK):
            make_problem_pk(k, d)


class TestIndexSets:
    def test_single_atom(self):
        s = make_spectrum([1.0], one_hot=True)
        np.testing.assert_array_equal(one_hot_index_sets(s, 4), [True])

    def test_boundary_included(self):
        s = make_spectrum([0.5, 0.25, 0.25], one_hot=True)
        np.testing.assert_array_equal(one_hot_index_sets(s, 4), [True, True, True])

    def test_direct_threshold(self):
        s = make_spectrum([0.9, 0.05, 0.05], one_hot=True)
        np.testing.assert_array_equal(one_hot_index_sets(s, 10), [True, False, False])

    @given(st.integers(1, 50), st.integers(1, 50))
    def test_monotone_in_n(self, n1, n2):
        if n1 > n2:
            n1, n2 = n2, n1
        s = make_spectrum([0.4, 0.3, 0.2, 0.06, 0.04], one_hot=True)
        assert not np.any(one_hot_index_sets(s, n1) & ~one_hot_index_sets(s, n2))


class TestEffectiveRank:
    def test_flat_spectrum(self):
        assert effective_rank(make_spectrum([1.0, 1.0, 1.0, 1.0])) == 4.0

    def test_single_survivor(self):
        s = make_spectrum([1.0, 0.5])
        assert effective_rank(s, np.array([True, False])) == 1.0

    def test_geometric_tail(self):
        vals = 0.5 ** np.arange(1, 21)
        expected = math.fsum(vals.tolist()) / vals[0]  # direct summation oracle
        assert effective_rank(make_spectrum(vals)) == pytest.approx(expected)
        assert abs(expected - 2.0) < 2e-5

    def test_empty_or_zero_complement(self):
        s = make_spectrum([1.0, 2.0])
        assert effective_rank(s, np.array([True, True])) == 0.0
        z = make_spectrum([0.0, 0.0])
        assert effective_rank(z) == 0.0

    def test_wrong_length_mask_rejected(self):
        with pytest.raises(DimensionMismatch):
            effective_rank(make_spectrum([1.0, 0.5, 0.25]), np.array([True, False]))

    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=12))
    @settings(max_examples=60)
    def test_at_most_d_with_equality_iff_flat(self, vals):
        r = effective_rank(make_spectrum(vals))
        assert r <= len(vals) + 1e-9
        if len(set(vals)) == 1:
            assert r == pytest.approx(len(vals))
        else:
            assert r < len(vals)


class TestGaussianIndexSet:
    def test_geometric_tail_infeasible(self):
        s = make_spectrum(0.5 ** np.arange(1, 31))
        with pytest.raises(InfeasibleEffectiveRank):
            gaussian_index_set(s, 100, 1.0)

    def test_flat_spectrum_empty_head(self):
        b2, n = 2.0, 5
        d = int(10 * b2 * n)
        s = make_spectrum(np.full(d, 1.0 / d))
        assert not np.any(gaussian_index_set(s, n, b2))

    def test_power_law_scan(self):
        d, n, b2 = 10**5, 500, 1.0
        i = np.arange(1, d + 1)
        s = make_spectrum(1.0 / (i * np.log(i + 1) ** 2))
        k = gaussian_index_set(s, n, b2)
        # head is a by-value prefix of a decreasing spectrum
        i_star = int(np.count_nonzero(k))
        assert k.dtype == bool and k.shape == (d,)
        assert np.all(k[:i_star]) and not np.any(k[i_star:])
        # characteristic scaling: i* log i* within a constant of n
        assert 0.2 * n <= i_star * math.log(i_star) <= 5 * n
        # feasibility and threshold maximality
        assert effective_rank(s, k) >= b2 * n
        smaller = np.arange(d) < i_star - 1
        assert effective_rank(s, smaller) < b2 * n

    def test_output_satisfies_target(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(20, 200))
            vals = rng.exponential(1.0, d)
            s = make_spectrum(vals)
            n, b2 = 3, 2.0
            try:
                k = gaussian_index_set(s, n, b2)
            except InfeasibleEffectiveRank:
                assert effective_rank(s) < b2 * n
                continue
            assert effective_rank(s, k) >= b2 * n


class TestRiskDecomposition:
    def test_consistent_total(self):
        dec = RiskDecomposition(bias=1.0, variance=2.0)
        assert dec.total == 3.0

    def test_inconsistent_total_rejected(self):
        with pytest.raises(DimensionMismatch):
            RiskDecomposition(bias=1.0, variance=2.0, total=4.0)

    @pytest.mark.parametrize("bias, variance", [
        (float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0), (1.0, float("inf")),
    ])
    def test_non_finite_parts_rejected(self, bias, variance):
        with pytest.raises(NegativeEigenvalue):
            RiskDecomposition(bias=bias, variance=variance)

    def test_non_finite_total_rejected(self):
        with pytest.raises(DimensionMismatch):
            RiskDecomposition(bias=1.0, variance=2.0, total=float("nan"))


class TestSerialization:
    def test_round_trip(self):
        inst = make_problem_pk(3, 6, Design.ONE_HOT)
        text = instance_to_text(inst)
        back = instance_from_text(text)
        np.testing.assert_array_equal(back.g.values, inst.g.values)
        np.testing.assert_array_equal(back.h.values, inst.h.values)
        np.testing.assert_array_equal(back.w_star, inst.w_star)
        assert back.design is inst.design
        assert back.sigma2 == inst.sigma2

    def test_format_keys(self):
        text = instance_to_text(make_problem_pk(1, 2, Design.GAUSSIAN))
        keys = [line.split("=")[0] for line in text.strip().splitlines()]
        assert keys == ["d", "sigma2", "g", "h", "w_star", "design"]

    def test_bad_text(self):
        with pytest.raises(ConfigParse, match="have 1, 1, 1 entries, not d=3"):
            instance_from_text("d=3\nsigma2=1\ng=1\nh=1\nw_star=1\ndesign=gaussian")

    @pytest.mark.parametrize("old, new, problem", [
        ("d=2\n", "", "missing key 'd'"),
        ("sigma2=1.0", "sigma2=one", "could not convert string to float: 'one'"),
        ("design=gaussian", "design=dense", "'dense' is not a valid Design"),
    ])
    def test_missing_keys_and_bad_values(self, old, new, problem):
        text = instance_to_text(make_problem_pk(1, 2, Design.GAUSSIAN))
        with pytest.raises(ConfigParse, match=f"^instance: {problem}"):
            instance_from_text(text.replace(old, new))

    def test_value_checks_keep_their_errors(self):
        text = instance_to_text(make_problem_pk(1, 2, Design.GAUSSIAN))
        with pytest.raises(NegativeEigenvalue):
            instance_from_text(text.replace("sigma2=1.0", "sigma2=-1.0"))

    @pytest.mark.parametrize("extra, problem", [
        ("sigma2=2.0", "key 'sigma2' given twice"),
        ("noise=2.0", "unknown key 'noise'"),
        ("sigma2 2.0", "expected key=value"),
    ])
    def test_rejects_duplicate_unknown_and_malformed_lines(self, extra, problem):
        text = instance_to_text(make_problem_pk(1, 2, Design.GAUSSIAN))
        with pytest.raises(ConfigParse, match=f"^instance:7: {problem}$"):
            instance_from_text(text + extra + "\n")

    def test_comments_anywhere_on_a_line(self):
        inst = make_problem_pk(3, 6, Design.ONE_HOT)
        commented = "# P(3), one-hot\n\n" + instance_to_text(inst).replace(
            "design=one_hot", "design = one_hot   # or gaussian"
        )
        back = instance_from_text(commented)
        assert back.design is Design.ONE_HOT
        assert instance_to_text(back) == instance_to_text(inst)


class TestReadKeyValues:
    def test_comments_blank_lines_and_spaces(self):
        text = "# header\n\n  a = 1, 2   # trailing\nb=x#y\n   # indented comment\n"
        assert read_key_values(text, "f.cfg", ("a", "b", "c")) == {"a": "1, 2", "b": "x"}

    @pytest.mark.parametrize("text, problem", [
        ("a = 1\n\nb\n", "f.cfg:3: expected key=value"),
        ("a = 1\n# a = 2\nc = 3\n", "f.cfg:3: unknown key 'c'"),
        ("a = 1  # one\nb = 2\na = 1\n", "f.cfg:3: key 'a' given twice"),
        ("= 1\n", "f.cfg:1: unknown key ''"),
        ("b = 1 # = 2\na # = 3\n", "f.cfg:2: expected key=value"),
    ])
    def test_problems_name_source_and_line(self, text, problem):
        with pytest.raises(ConfigParse) as info:
            read_key_values(text, "f.cfg", ("a", "b"))
        assert str(info.value) == problem


class TestProblemInstanceValidation:
    def test_length_mismatch(self):
        g = make_spectrum([0.5, 0.5], one_hot=True)
        with pytest.raises(DimensionMismatch):
            ProblemInstance(
                w_star=np.array([1.0]), sigma2=1.0, g=g, h=g, design=Design.ONE_HOT
            )

    def test_one_hot_requires_probability_spectra(self):
        g = make_spectrum([0.5, 0.5])
        with pytest.raises(OneHotMassMismatch):
            ProblemInstance(
                w_star=np.zeros(2), sigma2=1.0, g=g, h=g, design=Design.ONE_HOT
            )

    def test_negative_noise_rejected(self):
        g = make_spectrum([0.5, 0.5], one_hot=True)
        with pytest.raises(NegativeEigenvalue):
            ProblemInstance(
                w_star=np.zeros(2), sigma2=-1.0, g=g, h=g, design=Design.ONE_HOT
            )

    @pytest.mark.parametrize("sigma2", [float("nan"), float("inf")])
    def test_non_finite_noise_rejected(self, sigma2):
        g = make_spectrum([0.5, 0.5], one_hot=True)
        with pytest.raises(NegativeEigenvalue):
            ProblemInstance(
                w_star=np.zeros(2), sigma2=sigma2, g=g, h=g, design=Design.ONE_HOT
            )

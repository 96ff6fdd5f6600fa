import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grclab import sampler

from grclab.errors import DimensionMismatch, NotAProbabilitySpectrum
from grclab.model import GUIDE_CELLS, make_spectrum
from grclab.sampler import (
    TASK1_DESIGN,
    TASK1_NOISE,
    TASK2_DESIGN,
    TASK2_NOISE,
    REGULARIZER_STREAM,
    GRAM_BLOCK_ROWS,
    gaussian_gram,
    sample_gaussian_design,
    sample_labels,
    sample_one_hot_count_block,
    sample_one_hot_counts,
    sample_one_hot_design,
    stream_seed,
    stream_words,
)

TAGS = (TASK1_DESIGN, TASK1_NOISE, TASK2_DESIGN, TASK2_NOISE, REGULARIZER_STREAM)


class TestOneHotDesign:
    def test_deterministic_atom(self):
        s = make_spectrum([1.0], one_hot=True)
        x = sample_one_hot_design(s, 5, seed=0)
        np.testing.assert_array_equal(x, np.ones((5, 1)))

    def test_rows_are_basis_vectors(self):
        s = make_spectrum([0.2, 0.5, 0.3], one_hot=True)
        x = sample_one_hot_design(s, 1000, seed=1)
        assert np.all((x == 0.0) | (x == 1.0))
        np.testing.assert_array_equal(x.sum(axis=1), np.ones(1000))

    def test_law_of_large_numbers(self):
        # 5 sigma for a fair coin at n = 1e5 is ~0.008, inside the 0.01 gate
        s = make_spectrum([0.5, 0.5], one_hot=True)
        x = sample_one_hot_design(s, 10**5, seed=2)
        freq = x.mean(axis=0)
        np.testing.assert_allclose(freq, [0.5, 0.5], atol=0.01)

    def test_determinism_and_seed_sensitivity(self):
        s = make_spectrum([0.3, 0.7], one_hot=True)
        a = sample_one_hot_design(s, 50, seed=42)
        b = sample_one_hot_design(s, 50, seed=42)
        c = sample_one_hot_design(s, 50, seed=43)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_non_probability_spectrum(self):
        with pytest.raises(NotAProbabilitySpectrum):
            sample_one_hot_design(make_spectrum([0.5, 0.2]), 10, seed=0)
        with pytest.raises(NotAProbabilitySpectrum):
            sample_one_hot_counts(make_spectrum([0.5, 0.2]), 10, seed=0)
        # no positive atom: the check runs before the cached table is read
        with pytest.raises(NotAProbabilitySpectrum):
            sample_one_hot_counts(make_spectrum([0.0, 0.0]), 10, seed=0)

    def test_top_of_the_unit_interval_avoids_zero_mass_atoms(self, monkeypatch):
        # ten 0.1 entries sum to 1 - 2**-53 in float, below the top draw
        s = make_spectrum([0.1] * 10 + [0.0], one_hot=True)
        assert np.cumsum(s.values)[-1] == 1 - 2**-53

        class TopDraw:
            def random(self, n):
                return np.full(n, 1 - 2**-53)

        monkeypatch.setattr(sampler, "_rng", lambda seed: TopDraw())
        x = sample_one_hot_design(s, 3, seed=0)
        np.testing.assert_array_equal(np.flatnonzero(x.sum(axis=0)), [9])
        np.testing.assert_array_equal(sample_one_hot_counts(s, 3, seed=0), [0.0] * 9 + [3.0, 0.0])


@st.composite
def one_hot_spectra(draw):
    """Probability vectors with some zero entries, the last one included at times."""
    raw = draw(st.lists(st.sampled_from([0.0, 0.0, 1e-9, 0.1, 0.3, 1.0, 7.0]), min_size=1, max_size=9))
    values = np.array(raw)
    if not values.any():
        values[draw(st.integers(0, len(raw) - 1))] = 1.0
    return make_spectrum(values / values.sum(), one_hot=True)


class TestOneHotCounts:
    @settings(max_examples=200, deadline=None)
    @given(s=one_hot_spectra(), n=st.integers(0, 300), seed=st.integers(0, 2**63))
    def test_counts_are_the_design_column_sums(self, s, n, seed):
        counts = sample_one_hot_counts(s, n, seed)
        assert counts.dtype == np.float64 and counts.shape == (s.d,)
        assert counts.tobytes() == sample_one_hot_design(s, n, seed).sum(axis=0).tobytes()
        # the inverse-CDF draw spelled out, without the spectrum's cached table
        u = np.random.default_rng(seed).random(n)
        idx = np.minimum(np.searchsorted(np.cumsum(s.values), u, side="right"), np.flatnonzero(s.values)[-1])
        assert counts.tobytes() == np.bincount(idx, minlength=s.d).astype(float).tobytes()
        assert not counts[s.values == 0].any()


    @settings(max_examples=50, deadline=None)
    @given(s=one_hot_spectra(), n=st.integers(1, 40), master=st.integers(0, 2**64),
           reps=st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=6))
    def test_block_rows_are_the_single_draws(self, s, n, master, reps):
        block = sample_one_hot_count_block(s, n, stream_words(master, reps, [TASK2_DESIGN])[0])
        assert block.dtype == np.float64 and block.shape == (len(reps), s.d)
        for row, rep in zip(block, reps):
            assert row.tobytes() == sample_one_hot_counts(s, n, stream_seed(master, rep, TASK2_DESIGN)).tobytes()


@st.composite
def guide_spectra(draw):
    """One-hot spectra from d = 1 to above ``GUIDE_CELLS``, zero-mass atoms anywhere.

    "uniform" above ``GUIDE_CELLS`` atoms splits every cell of the guide
    table, so the spectrum keeps none; "tenths" makes a cdf whose total
    rounds to 1 - 2**-53.
    """
    kind = draw(st.sampled_from(["random", "uniform", "tenths"]))
    lead, trail = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if kind == "tenths":
        body = np.full(10, 0.1)
    else:
        d = draw(st.sampled_from([1, 2, 5, 40, 300, GUIDE_CELLS - 1, GUIDE_CELLS, GUIDE_CELLS + 1,
                                  2 * GUIDE_CELLS + 5]))
        if kind == "uniform":
            body = np.ones(d)
        else:
            rng = np.random.default_rng(draw(st.integers(0, 2**32)))
            body = rng.choice([0.0, 0.0, 1e-9, 0.1, 1.0, 7.0], size=d)
            body[[0, -1]] = 1.0  # inner zeros only; leading and trailing ones come next
    values = np.concatenate([np.zeros(lead), body, np.zeros(trail)])
    return kind, make_spectrum(values / math.fsum(values), one_hot=True)


class TestGuideTable:
    @settings(max_examples=60, deadline=None)
    @given(case=guide_spectra(), seed=st.integers(0, 2**32))
    def test_atoms_are_the_clamped_cdf_search(self, case, seed):
        kind, s = case
        edges = np.arange(GUIDE_CELLS + 1) / GUIDE_CELLS
        points = np.concatenate([[0.0, 1 - 2**-53], s.cdf, edges])
        u = np.concatenate([points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf),
                            np.random.default_rng(seed).random(500)])
        u = u[(u >= 0) & (u < 1)]  # the range of Generator.random
        want = np.minimum(np.searchsorted(s.cdf, u, "right"), s.last_atom)
        np.testing.assert_array_equal(sampler._one_hot_atoms(s, u), want)
        block = np.stack([u, u[::-1]])
        np.testing.assert_array_equal(sampler._one_hot_atoms(s, block), np.stack([want, want[::-1]]))
        if kind == "uniform" and np.count_nonzero(s.values) > GUIDE_CELLS:
            assert s.guide is None
        if s.guide is not None:
            # a cell's code is the atom at both of its ends where they agree, -1 where they differ
            left, right = s.search(edges[:-1]), s.search(edges[1:])
            assert s.guide.dtype == np.intp and s.guide.shape == (GUIDE_CELLS,)
            np.testing.assert_array_equal(s.guide, np.where(left == right, left, -1))
            assert not s.guide.flags.writeable
        if kind == "tenths":
            assert s.cdf[-1] < 1

    def test_table_is_kept_unless_most_cells_are_split(self):
        # uniform atoms split one cell per inner cdf boundary
        assert make_spectrum(np.full(400, 1 / 400), one_hot=True).guide is not None
        assert make_spectrum(np.full(700, 1 / 700), one_hot=True).guide is None


class TestGaussianDesign:
    def test_zero_covariance(self):
        s = make_spectrum([0.0, 0.0, 0.0])
        np.testing.assert_array_equal(sample_gaussian_design(s, 3, seed=0), np.zeros((3, 3)))

    def test_column_variances(self):
        s = make_spectrum([1.0, 4.0])
        x = sample_gaussian_design(s, 10**5, seed=3)
        np.testing.assert_allclose(x.var(axis=0), [1.0, 4.0], rtol=0.02)

    def test_determinism(self):
        s = make_spectrum([1.0])
        a = sample_gaussian_design(s, 2, seed=9)
        b = sample_gaussian_design(s, 2, seed=9)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (2, 1)

    def test_bytes_are_the_scaled_standard_normal_draw(self):
        s = make_spectrum(np.random.default_rng(1).uniform(0.1, 3.0, 37))
        x = sample_gaussian_design(s, 11, seed=5)
        z = np.random.default_rng(5).standard_normal((11, 37))
        assert x.tobytes() == (z * np.sqrt(s.values)).tobytes()


@pytest.mark.parametrize("draw", [sample_gaussian_design, sample_one_hot_design])
def test_design_draws_take_exactly_spectrum_rows_seed(draw):
    # bench/spans.py counts a traced draw's bytes and seeds by calling its
    # counter with the draw's own arguments; a buffer-filling draw stays private
    assert list(inspect.signature(draw).parameters) == ["s", "n", "seed"]


class TestGaussianGram:
    @pytest.mark.parametrize("n", [1, GRAM_BLOCK_ROWS - 1, GRAM_BLOCK_ROWS, GRAM_BLOCK_ROWS + 1,
                                   3 * GRAM_BLOCK_ROWS + 7])
    def test_blocks_are_the_whole_draw(self, n):
        s = make_spectrum(np.random.default_rng(2).uniform(0.1, 3.0, 23))
        x = sample_gaussian_design(s, n, seed=11)
        blocks = [rows.copy() for rows in sampler._gaussian_row_blocks(s, n, 11)]
        assert [len(rows) for rows in blocks[:-1]] == [GRAM_BLOCK_ROWS] * (len(blocks) - 1)
        assert np.concatenate(blocks).tobytes() == x.tobytes()
        gram, want = gaussian_gram(s, n, 11), x.T @ x
        if n <= GRAM_BLOCK_ROWS:
            assert gram.tobytes() == want.tobytes()
        else:
            assert np.max(np.abs(gram - want)) <= 1e-14 * np.max(np.abs(want))

    def test_zero_covariance_is_the_product_bytes(self):
        s = make_spectrum([0.0, 0.0, 0.0])
        x = sample_gaussian_design(s, 5, seed=0)
        assert gaussian_gram(s, 5, 0).tobytes() == (x.T @ x).tobytes()

    def test_empty_draw_rejected(self):
        with pytest.raises(DimensionMismatch):
            gaussian_gram(make_spectrum([1.0]), 0, 0)


class TestLabels:
    def test_null_model(self):
        x = np.ones((4, 2))
        y = sample_labels(x, np.zeros(2), 0.0, seed=0)
        np.testing.assert_array_equal(y, np.zeros(4))

    def test_identity_design(self):
        y = sample_labels(np.eye(3), np.array([1.0, 2.0, 3.0]), 0.0, seed=0)
        np.testing.assert_array_equal(y, [1.0, 2.0, 3.0])

    def test_noise_variance(self):
        x = np.ones((10**5, 1))
        y = sample_labels(x, np.zeros(1), 4.0, seed=4)
        assert y.var() == pytest.approx(4.0, rel=0.02)

    def test_residual_independent_of_design(self):
        # empirical correlation between residuals and a fixed functional of X
        # is O(n^-1/2); 5 sigma gate
        rng = np.random.default_rng(0)
        n = 10**5
        x = rng.standard_normal((n, 3))
        w = np.array([1.0, -2.0, 0.5])
        y = sample_labels(x, w, 1.0, seed=5)
        resid = y - x @ w
        functional = x @ np.array([0.3, 0.3, 0.4])
        corr = np.corrcoef(resid, functional)[0, 1]
        assert abs(corr) < 5.0 / np.sqrt(n)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sample_labels(np.ones((3, 2)), np.zeros(3), 1.0, seed=0)


class TestStreams:
    def test_streams_are_distinct(self):
        tags = [TASK1_DESIGN, TASK1_NOISE, TASK2_DESIGN, TASK2_NOISE]
        seeds = {stream_seed(7, rep, tag) for rep in range(20) for tag in tags}
        assert len(seeds) == 80

    def test_stream_seed_stable(self):
        assert stream_seed(1, 2, 3) == stream_seed(1, 2, 3)


class TestBlockSeeds:
    """The block hash is numpy's SeedSequence, bit for bit, on blocks of every size."""

    @staticmethod
    def reference_words(master, rep, tag):
        return np.random.SeedSequence(stream_seed(master, rep, tag)).generate_state(4, np.uint64).tolist()

    @pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1, 2**64, 2**64 + 2**32 + 5,
                                        2**100 + 1])
    def test_stream_seeds_are_stream_seed(self, master):
        reps = np.concatenate([[0, 1, 2**32 - 1], np.random.default_rng(master % 97).integers(0, 2**32, 30)])
        words = stream_words(master, reps, TAGS)
        assert words.dtype == np.uint64 and words.shape == (len(TAGS), len(reps), 4)
        for tag, block in zip(TAGS, words):
            assert block.tolist() == [self.reference_words(master, int(rep), tag) for rep in reps]
        assert stream_words(master, reps[:1], TAGS[::-1]).tolist() == words[::-1, :1].tolist()

    @settings(max_examples=200, deadline=None)
    @given(master=st.integers(0, 2**96), rep=st.integers(0, 2**32 - 1), tag=st.sampled_from(TAGS))
    def test_random_triples(self, master, rep, tag):
        for reps in ([rep], [rep, 0, rep // 2]):
            for tags in ([tag], [tag, TASK1_DESIGN, TASK2_DESIGN]):
                words = stream_words(master, reps, tags)
                assert words.tolist() == [[self.reference_words(master, r, t) for r in reps] for t in tags]

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_generator_from_the_words_draws_as_default_rng(self, seed):
        self.check_words(seed)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1))
    def test_random_seeds_draw_as_default_rng(self, seed):
        self.check_words(seed)

    @staticmethod
    def check_words(seed):
        # the second hash alone, on seeds below 2**32 too, which numpy hashes as one entropy word
        seeds = np.array([seed, 2**64 - 1 - seed], dtype=np.uint64)
        entropy = np.stack([seeds & np.uint64(2**32 - 1), seeds >> np.uint64(32)]).astype(np.uint32)
        block = np.ascontiguousarray(sampler._seed_sequence_state(entropy, 8).T).view(np.uint64)
        for seed, words in zip(seeds.tolist(), block):
            assert words.tolist() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
            drawn = np.random.Generator(np.random.PCG64(sampler._seed_words_type()(words)))
            reference = np.random.default_rng(seed)
            assert drawn.random(33).tobytes() == reference.random(33).tobytes()
            assert drawn.standard_normal(5).tobytes() == reference.standard_normal(5).tobytes()

    def test_hash_warns_of_no_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for reps in ([2**32 - 1], [2**32 - 1, 0], [0, 2**32 - 1, 7]):
                stream_words(2**64 + 2**32 - 1, reps, TAGS)
                stream_words(2**32 - 1, reps, [REGULARIZER_STREAM])
            sampler._seed_sequence_state(np.array([[2**32 - 1, 0], [2**32 - 1, 0]], dtype=np.uint32), 8)

    def test_empty_block(self):
        assert stream_words(3, [], [TASK1_DESIGN]).shape == (1, 0, 4)
        assert stream_words(3, [0, 1], []).shape == (0, 2, 4)

    @pytest.mark.parametrize("master, reps", [(-1, [0]), (0, [-1]), (0, [2**32])])
    def test_out_of_range_rejected(self, master, reps):
        with pytest.raises(DimensionMismatch):
            stream_words(master, reps, [TASK1_DESIGN])

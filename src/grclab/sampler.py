"""Random designs and labels for both task distributions.

Every operation is a pure function of (inputs, seed).  Seeds for parallel
replications are derived from (master_seed, replication_index, stream_tag)
through ``numpy.random.SeedSequence`` so results do not depend on
scheduling order.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotAProbabilitySpectrum
from .model import Spectrum

# Stream tags for replication-level seed derivation.
TASK1_DESIGN = 0
TASK1_NOISE = 1
TASK2_DESIGN = 2
TASK2_NOISE = 3
REGULARIZER_STREAM = 4


def stream_seed(master_seed: int, replication: int, tag: int) -> int:
    """Derive a 64-bit sub-seed for one stream of one replication."""
    words = np.random.SeedSequence((master_seed, replication, tag)).generate_state(2)
    return int(words[0]) | (int(words[1]) << 32)


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _one_hot_indices(s: Spectrum, n: int, seed) -> np.ndarray:
    """Atom index of each of n i.i.d. one-hot rows, by inverse CDF.

    A draw at or beyond the rounded total mass goes to the last atom
    with positive mass, never to a trailing zero-mass atom.
    """
    if not s.one_hot:
        raise NotAProbabilitySpectrum("design spectrum must be one-hot")
    u = _rng(seed).random(n)
    idx = np.searchsorted(s.cdf, u, side="right")
    return np.minimum(idx, s.last_atom)


def sample_one_hot_design(s: Spectrum, n: int, seed) -> np.ndarray:
    """Draw n i.i.d. rows, row = e_i with probability s_i.

    Sampling is inverse-CDF over the cumulative spectrum, so equal seeds
    give bit-identical matrices.
    """
    idx = _one_hot_indices(s, n, seed)
    x = np.zeros((n, s.d))
    x[np.arange(n), idx] = 1.0
    return x


def sample_one_hot_counts(s: Spectrum, n: int, seed) -> np.ndarray:
    """How often each atom occurs in ``sample_one_hot_design(s, n, seed)``.

    The same draw, so the result equals that design's column sums
    exactly, without the n x d matrix.
    """
    return np.bincount(_one_hot_indices(s, n, seed), minlength=s.d).astype(float)


def sample_gaussian_design(s: Spectrum, n: int, seed) -> np.ndarray:
    """Draw n i.i.d. rows of diag(s)^(1/2) z with z standard normal."""
    z = _rng(seed).standard_normal((n, s.d))
    z *= np.sqrt(s.values)
    return z


def sample_labels(x: np.ndarray, w_star: np.ndarray, sigma2: float, seed) -> np.ndarray:
    """Labels y = X w* + eps with eps ~ N(0, sigma2 I), independent of X."""
    x = np.asarray(x, dtype=float)
    w_star = np.asarray(w_star, dtype=float)
    if x.ndim != 2 or w_star.ndim != 1 or x.shape[1] != w_star.shape[0]:
        raise DimensionMismatch(f"X is {x.shape}, w* is {w_star.shape}")
    if sigma2 < 0:
        raise DimensionMismatch(f"sigma2 must be nonnegative, got {sigma2}")
    noise = np.sqrt(sigma2) * _rng(seed).standard_normal(x.shape[0])
    return x @ w_star + noise

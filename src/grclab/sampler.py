"""Random designs and labels for both task distributions.

Every operation is a pure function of (inputs, seed).  The seed of one
stream of one replication derives from (master_seed, replication_index,
stream_tag) through ``numpy.random.SeedSequence``, so a replication's
draws do not depend on which others are drawn with it.  One-hot Monte
Carlo draws its counts a block of replications at a time: ``stream_seeds``
and ``pcg64_words`` run SeedSequence's hash for many replications at once
in uint32 array arithmetic, and each replication's generator starts from
the PCG64 words that ``numpy.random.default_rng`` would derive from its
seed, so a block draws exactly what the replications would draw one by
one.  ``gaussian_gram`` forms X^T X of a Gaussian design from blocks of
its rows, so the n x d design is never held.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionMismatch, NotAProbabilitySpectrum
from .model import GUIDE_CELLS, Spectrum

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


# numpy.random.SeedSequence's hash constants, pool size and shift.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_XSHIFT = np.uint32(16)


def _uint32_words(value: int) -> list[int]:
    """The 32-bit words of a nonnegative int, least significant first, as SeedSequence splits it."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _seed_sequence_state(entropy: list[np.ndarray], n_words: int) -> list[np.ndarray]:
    """``SeedSequence(e).generate_state(n_words)`` of each column e of ``entropy``.

    ``entropy`` is a list of equal-length uint32 arrays, one per entropy
    word, and the result one uint32 array per state word.  The hash
    constant steps the same way for every column, so it is a Python int;
    array arithmetic wraps modulo 2^32 without overflow warnings.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> _XSHIFT)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    state = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state.append(value ^ (value >> _XSHIFT))
    return state


def stream_seeds(master_seed: int, replications, tag: int) -> np.ndarray:
    """``stream_seed(master_seed, r, tag)`` of each r in ``replications``, as uint64.

    Every replication index must lie in [0, 2^32).
    """
    reps = np.asarray(replications)
    if reps.size and not (reps.min() >= 0 and reps.max() <= _MASK32):
        raise DimensionMismatch("replication indices must lie in [0, 2**32)")
    if master_seed < 0:
        raise DimensionMismatch(f"need seed >= 0, got {master_seed}")
    reps = reps.astype(np.uint32)

    def column(words):
        return [np.full(reps.shape, w, dtype=np.uint32) for w in words]

    entropy = column(_uint32_words(master_seed)) + [reps] + column(_uint32_words(tag))
    low, high = _seed_sequence_state(entropy, 2)
    return low.astype(np.uint64) | (high.astype(np.uint64) << np.uint64(32))


def pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` of each uint64 seed s, one row each.

    A seed below 2^32 is one entropy word, not two; both hash alike,
    since entropy shorter than the pool is padded with zero words.
    """
    low, high = seeds & np.uint64(_MASK32), seeds >> np.uint64(32)
    entropy = [low.astype(np.uint32), high.astype(np.uint32)]
    state = np.stack(_seed_sequence_state(entropy, 8), axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_words_type() -> type:
    """An ``ISeedSequence`` that gives PCG64 one seed's words, hashed already.

    PCG64 asks only ``generate_state(4, np.uint64)``.  The type is made on
    first use, so importing grclab does not import numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint64):
            return self.words

    return SeedWords


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _one_hot_atoms(s: Spectrum, u: np.ndarray) -> np.ndarray:
    """``s.search(u)`` for draws u in [0, 1), read from the spectrum's guide table.

    The table gives the atom of a draw whose cell is not split; only the
    other draws are searched, and all of them where the spectrum has no
    table.
    """
    if not s.one_hot:
        raise NotAProbabilitySpectrum("design spectrum must be one-hot")
    if s.guide is None:
        return s.search(u)
    lo, split = s.guide
    cell = (u * GUIDE_CELLS).astype(np.intp)
    idx = lo[cell]
    in_split = np.flatnonzero(split[cell])
    if in_split.size:
        np.put(idx, in_split, s.search(np.take(u, in_split)))
    return idx


def _one_hot_count_rows(s: Spectrum, u: np.ndarray) -> np.ndarray:
    """Atom counts of each row of uniform draws ``u``, one offset bincount for all rows."""
    rows = u.shape[0]
    idx = _one_hot_atoms(s, u)
    idx += np.arange(0, rows * s.d, s.d)[:, None]
    return np.bincount(idx.ravel(), minlength=rows * s.d).reshape(rows, s.d).astype(float)


def sample_one_hot_design(s: Spectrum, n: int, seed) -> np.ndarray:
    """Draw n i.i.d. rows, row = e_i with probability s_i.

    Sampling is inverse-CDF over the cumulative spectrum, so equal seeds
    give bit-identical matrices.
    """
    idx = _one_hot_atoms(s, _rng(seed).random(n))
    x = np.zeros((n, s.d))
    x[np.arange(n), idx] = 1.0
    return x


def sample_one_hot_counts(s: Spectrum, n: int, seed) -> np.ndarray:
    """How often each atom occurs in ``sample_one_hot_design(s, n, seed)``.

    The same draw, so the result equals that design's column sums
    exactly, without the n x d matrix.
    """
    return _one_hot_count_rows(s, _rng(seed).random(n)[None])[0]


def sample_one_hot_count_block(s: Spectrum, n: int, words: np.ndarray) -> np.ndarray:
    """Row i is ``sample_one_hot_counts(s, n, seed)``, where ``words[i]`` is ``pcg64_words`` of that seed.

    Each row's generator starts from its seed's PCG64 words, hashed
    already, and all rows share one inverse-CDF search.
    """
    seed_words = _seed_words_type()
    u = np.empty((len(words), n))
    for row, state in zip(u, words):
        np.random.Generator(np.random.PCG64(seed_words(state))).random(out=row)
    return _one_hot_count_rows(s, u)


def sample_gaussian_design(s: Spectrum, n: int, seed) -> np.ndarray:
    """Draw n i.i.d. rows of diag(s)^(1/2) z with z standard normal."""
    z = _rng(seed).standard_normal((n, s.d))
    z *= np.sqrt(s.values)
    return z


# Rows per block of ``gaussian_gram``: 1.6 MB of rows at d = 200.
GRAM_BLOCK_ROWS = 1024


def _gaussian_row_blocks(s: Spectrum, n: int, seed):
    """The rows of ``sample_gaussian_design(s, n, seed)``, ``GRAM_BLOCK_ROWS`` at a time.

    Every block is written into one reused array, valid until the next
    step.  numpy fills ``standard_normal`` in order from the same
    generator, so the rows are those of the whole draw, byte for byte.
    """
    rng = _rng(seed)
    root = np.sqrt(s.values)
    block = np.empty((min(n, GRAM_BLOCK_ROWS), s.d))
    for start in range(0, n, GRAM_BLOCK_ROWS):
        rows = block[: min(GRAM_BLOCK_ROWS, n - start)]
        rng.standard_normal(out=rows)
        rows *= root
        yield rows


def gaussian_gram(s: Spectrum, n: int, seed) -> np.ndarray:
    """X^T X of X = ``sample_gaussian_design(s, n, seed)``, without holding X.

    The blocks' products are summed in order.  Up to one block it is the
    product of the whole draw, byte for byte; above, it differs from that
    product at the rounding level.
    """
    if n < 1:
        raise DimensionMismatch(f"need n >= 1, got {n}")
    blocks = _gaussian_row_blocks(s, n, seed)
    rows = next(blocks)
    gram = rows.T @ rows
    product = None
    for rows in blocks:
        product = np.matmul(rows.T, rows, out=product)
        gram += product
    return gram


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

"""Random designs and labels for both task distributions.

Every operation is a pure function of (inputs, seed).  The seed of one
stream of one replication derives from (master_seed, replication_index,
stream_tag) through ``numpy.random.SeedSequence``, so a replication's
draws do not depend on which others are drawn with it.  One-hot Monte
Carlo draws its counts a block of replications at a time:
``stream_words`` runs SeedSequence's hash in uint32 array arithmetic over
every (stream, replication) pair of a run at once, both the stream seed's
hash and the hash that ``numpy.random.default_rng`` applies to that seed,
and each replication's generator starts from the PCG64 words it yields,
so a block draws exactly what the replications would draw one by one.
``gaussian_gram`` forms X^T X of a Gaussian design from blocks of
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
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_XSHIFT = np.uint32(16)
# The pool words each pool word mixes into, in SeedSequence's order.
_OTHERS = [[dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE)]


@functools.cache
def _hash_constants(init: int, mult: int, steps: int) -> np.ndarray:
    """The hash constant before each of ``steps`` steps and after the last: a uint32 column."""
    const = [init]
    for _ in range(steps):
        const.append(const[-1] * mult & _MASK32)
    return np.array(const, dtype=np.uint32)[:, None]


def _hash(value: np.ndarray, const: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of ``value`` by row, row i taking constants ``const[i]`` and ``const[i + 1]``."""
    value = value ^ const[:-1]
    value *= const[1:]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words ``x`` with hashed words ``y``."""
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def _seed_sequence_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(e).generate_state(n_words)`` of each column e of the uint32 rows ``entropy``.

    Entropy shorter than the pool is padded with zero words, as numpy
    pads it; uint32 array arithmetic wraps modulo 2^32 without warnings.
    """
    extra = len(entropy) - _POOL_SIZE
    if extra < 0:
        entropy = np.concatenate([entropy, np.zeros((-extra, entropy.shape[1]), np.uint32)])
    const = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE**2 + _POOL_SIZE * max(extra, 0))
    pool = _hash(entropy[:_POOL_SIZE], const[:_POOL_SIZE + 1])
    step = _POOL_SIZE
    for src, dst in enumerate(_OTHERS):
        pool[dst] = _mix(pool[dst], _hash(pool[src], const[step:step + _POOL_SIZE]))
        step += _POOL_SIZE - 1
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hash(word, const[step:step + _POOL_SIZE + 1]))
        step += _POOL_SIZE
    return _hash(pool[np.arange(n_words) % _POOL_SIZE], _hash_constants(_INIT_B, _MULT_B, n_words))


def stream_words(master_seed: int, replications, tags) -> np.ndarray:
    """The PCG64 words of each stream tag t and replication r, shape (tags, replications, 4).

    Row (t, r) is ``SeedSequence(stream_seed(master_seed, r, t)).generate_state(4, np.uint64)``,
    the words ``default_rng`` derives from that stream seed.  Both hashes
    run over every (t, r) column at once, the stream seed's two words
    feeding the second as its entropy.  Every replication index must lie
    in [0, 2^32).
    """
    reps = np.asarray(replications)
    if reps.size and not (reps.min() >= 0 and reps.max() <= _MASK32):
        raise DimensionMismatch("replication indices must lie in [0, 2**32)")
    if master_seed < 0:
        raise DimensionMismatch(f"need seed >= 0, got {master_seed}")
    master = [master_seed >> shift & _MASK32 for shift in range(0, max(master_seed.bit_length(), 1), 32)]
    entropy = np.empty((len(master) + 2, len(tags), reps.size), np.uint32)
    entropy[:-2] = np.array(master, np.uint32)[:, None, None]
    entropy[-2] = reps
    entropy[-1] = np.array(tags, np.uint32)[:, None]
    seeds = _seed_sequence_state(entropy.reshape(len(entropy), -1), 2)
    words = np.ascontiguousarray(_seed_sequence_state(seeds, 8).T, dtype="<u4")
    return words.view("<u8").astype(np.uint64, copy=False).reshape(len(tags), reps.size, 4)


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
    idx = s.guide[(u * GUIDE_CELLS).astype(np.intp)]
    in_split = np.flatnonzero(idx < 0)
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
    """Row i is ``sample_one_hot_counts(s, n, seed)``, where ``words[i]`` is that seed's PCG64 words.

    Each row's generator starts from its seed's words (``stream_words``),
    hashed already, through one seed-words object, and all rows share one
    inverse-CDF search.
    """
    seed_words = _seed_words_type()(None)
    generator, pcg64 = np.random.Generator, np.random.PCG64
    u = np.empty((len(words), n))
    for row, state in zip(u, words):
        seed_words.words = state
        generator(pcg64(seed_words)).random(out=row)
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

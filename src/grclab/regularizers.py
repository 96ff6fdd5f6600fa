"""Construction of the memory matrix carried between the two learning phases.

A regularizer is a PSD matrix stored either as a nonnegative diagonal or as
a k x d factor W with Sigma = W^T W.  Its memory size is the number of
d-vectors needed to write it down: k factor rows, or one axis eigenvector
per nonzero diagonal entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, KTooLarge, NotPSD
from .model import Spectrum

DIAGONAL = "diagonal"
LOWRANK = "lowrank"


@dataclass(frozen=True)
class Regularizer:
    """PSD memory matrix in diagonal or low-rank-factor form."""

    form: str
    values: np.ndarray | None = None  # (d,) nonnegative, diagonal form
    factor: np.ndarray | None = None  # (k, d), low-rank form
    memory_size: int = 0

    def __post_init__(self):
        if self.form == DIAGONAL:
            vals = np.asarray(self.values, dtype=float)
            if vals.ndim != 1:
                raise DimensionMismatch("diagonal values must be a vector")
            if np.any(vals < 0) or not np.all(np.isfinite(vals)):
                raise NotPSD("diagonal regularizer needs finite nonnegative entries")
            vals.setflags(write=False)
            object.__setattr__(self, "values", vals)
            object.__setattr__(self, "memory_size", int(np.count_nonzero(vals)))
        elif self.form == LOWRANK:
            fac = np.asarray(self.factor, dtype=float)
            if fac.ndim != 2:
                raise DimensionMismatch("low-rank factor must be a k x d matrix")
            if not np.all(np.isfinite(fac)):
                raise NotPSD("low-rank factor must be finite")
            fac.setflags(write=False)
            object.__setattr__(self, "factor", fac)
            object.__setattr__(self, "memory_size", int(fac.shape[0]))
        else:
            raise DimensionMismatch(f"unknown regularizer form {self.form!r}")

    @property
    def d(self) -> int:
        if self.form == DIAGONAL:
            return self.values.shape[0]
        return self.factor.shape[1]

    @property
    def is_diagonal(self) -> bool:
        return self.form == DIAGONAL

    @property
    def is_zero(self) -> bool:
        if self.form == DIAGONAL:
            return not np.any(self.values)
        return self.factor.size == 0 or not np.any(self.factor)

    def matrix(self) -> np.ndarray:
        """Densify to the full d x d PSD matrix."""
        if self.form == DIAGONAL:
            return np.diag(self.values)
        return self.factor.T @ self.factor

    def sqrt_factor(self) -> np.ndarray:
        """A matrix W with W^T W = Sigma (rows only for nonzero directions)."""
        if self.form == LOWRANK:
            return self.factor
        nz = np.flatnonzero(self.values)
        w = np.zeros((nz.size, self.d))
        w[np.arange(nz.size), nz] = np.sqrt(self.values[nz])
        return w


def zero_regularizer(d: int) -> Regularizer:
    return Regularizer(form=LOWRANK, factor=np.zeros((0, d)))


def _as_regularizer(sigma, d: int) -> Regularizer:
    """``sigma`` as a memory matrix in dimension d; None means zero.

    A memory matrix is a :class:`Regularizer`, which checked that it is PSD
    when it was built; any other type raises.
    """
    if sigma is None:
        return zero_regularizer(d)
    if not isinstance(sigma, Regularizer):
        raise DimensionMismatch(f"Sigma must be a Regularizer or None, got {type(sigma).__name__}")
    if sigma.d != d:
        raise DimensionMismatch(f"Sigma has d={sigma.d}, need d={d}")
    return sigma


def check_topk_size(k: int, n: int, d: int) -> None:
    """Raise unless a top-k memory of n samples in dimension d exists."""
    if not (0 <= k <= min(n, d)):
        raise KTooLarge(f"need 0 <= k <= min(n, d) = {min(n, d)}, got {k}")


def topk_empirical(x1: np.ndarray, k: int) -> Regularizer:
    """Best rank-k PSD approximation of the empirical covariance X1^T X1 / n."""
    x1 = np.asarray(x1, dtype=float)
    n, d = x1.shape
    return topk_from_eigh(lambda: np.linalg.eigh(x1.T @ x1), n, d, k)


def topk_from_eigh(eigh_a1: Callable[[], tuple], n: int, d: int, k: int) -> Regularizer:
    """Best rank-k PSD approximation of A1 / n, for A1 = X1^T X1 of an n x d X1.

    ``eigh_a1()`` returns ``np.linalg.eigh(A1)`` and is called only for
    k > 0.  Its eigenvalues ascend, so the last k columns, largest first,
    are the top k; the eigenvalues are divided by n after the decomposition.
    """
    check_topk_size(k, n, d)
    if k == 0:
        return zero_regularizer(d)
    eigvals, eigvecs = eigh_a1()
    top = slice(-1, -k - 1, -1)
    w = np.clip(eigvals[top], 0.0, None) / n
    return Regularizer(form=LOWRANK, factor=np.sqrt(w)[:, None] * eigvecs[:, top].T)


def _count_frequencies(counts: np.ndarray, n: int) -> np.ndarray:
    """Atom frequencies counts / n, of one count vector or of each row of a block."""
    return counts / n


def corollary3_regularizer(g: Spectrum, n: int) -> Regularizer:
    """Diagonal Sigma keeping the task-1 eigenvalues at or above 1/n."""
    if n < 1:
        raise KTooLarge(f"sample size must be >= 1, got {n}")
    gamma = np.where(g.values >= 1.0 / n, g.values, 0.0)
    return Regularizer(form=DIAGONAL, values=gamma)


def topk_spectrum_regularizer(g: Spectrum, k: int) -> Regularizer:
    """Diagonal Sigma keeping the first k entries of the task-1 spectrum."""
    if not (0 <= k <= g.d):
        raise KTooLarge(f"need 0 <= k <= d = {g.d}, got {k}")
    gamma = g.values.copy()
    gamma[k:] = 0.0
    return Regularizer(form=DIAGONAL, values=gamma)


# Rows of X1 whose signed copies ``sketch_regularizer`` holds at once: 8 MB at d = 1000.
_SKETCH_BLOCK_ROWS = 1024


def sketch_regularizer(x1: np.ndarray, k: int, seed) -> Regularizer:
    """CountSketch compression of the task-1 data, Sigma = (S X1 / sqrt(n))^T (...).

    S is k x n with one +-1 per column at a uniformly random row, so
    E_S[Sigma] equals the empirical covariance X1^T X1 / n.  The signed
    rows are added a block at a time, never as an n x d copy of X1;
    ``np.add.at`` adds in row order, so every factor entry receives the
    same additions in the same order as from one whole-array call.
    """
    x1 = np.asarray(x1, dtype=float)
    if k < 1:
        raise KTooLarge(f"sketch size must be >= 1, got {k}")
    n, d = x1.shape
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, k, size=n)
    signs = rng.choice(np.array([-1.0, 1.0]), size=n)
    factor = np.zeros((k, d))
    for start in range(0, n, _SKETCH_BLOCK_ROWS):
        block = slice(start, start + _SKETCH_BLOCK_ROWS)
        np.add.at(factor, rows[block], signs[block, None] * x1[block])
    return Regularizer(form=LOWRANK, factor=factor / np.sqrt(n))

"""The four learning procedures as deterministic linear-algebra routines.

All fits return the minimum-norm member of the solution set, with matrix
inverses taken in the Moore-Penrose sense under a relative singular-value
cutoff.  Each fit is one least-squares solve on its design (the SVD of
``numpy.linalg.lstsq``), never on the assembled normal matrix, whose
condition number is the square of the design's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .regularizers import _as_regularizer

@dataclass(frozen=True)
class Weights:
    """A model parameter vector."""

    w: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.w, dtype=float).reshape(-1)
        if not np.all(np.isfinite(arr)):
            raise DimensionMismatch("weights must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "w", arr)

    @property
    def d(self) -> int:
        return self.w.shape[0]


def _rank_tolerance(n: int, d: int) -> float:
    """Relative singular-value cutoff of an n x d problem, 1e-10 * max(n, d)."""
    return 1e-10 * max(n, d)


def _check_xy(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"X is {x.shape}, y has length {y.shape[0]}")
    return x, y


def _min_norm(x: np.ndarray, y: np.ndarray, tol: float) -> np.ndarray:
    """Min-norm least-squares solution of X v = y; singular values below
    ``tol`` times the largest count as zero."""
    sol, *_ = np.linalg.lstsq(x, y, rcond=tol)
    return sol


def fit_min_norm(x, y) -> Weights:
    """Minimum-l2-norm least-squares solution (interpolator when feasible)."""
    x, y = _check_xy(x, y)
    return Weights(_min_norm(x, y, _rank_tolerance(*x.shape)))


def fit_ocl(x2, y2, w1: Weights) -> Weights:
    """Second-phase update that stays as close to w1 as the new data allows.

    Returns w1 + v where v is the min-norm least-squares solution of
    X2 v = y2 - X2 w1; in the interpolation regime this is
    argmin{||w - w1|| : X2 w = y2}.
    """
    x2, y2 = _check_xy(x2, y2)
    if w1.d != x2.shape[1]:
        raise DimensionMismatch(f"w1 has d={w1.d}, X2 has d={x2.shape[1]}")
    v = _min_norm(x2, y2 - x2 @ w1.w, _rank_tolerance(*x2.shape))
    return Weights(w1.w + v)


def fit_grcl(x2, y2, w1: Weights, sigma) -> Weights:
    """Quadratically regularized second-phase fit with memory matrix Sigma.

    Minimizes (1/n)||y2 - X2 w||^2 + ||w - w1||_Sigma^2.  When the
    minimizer set is an affine subspace (Sigma and X2^T X2 share null
    directions) the member closest to w1 is returned, which keeps the
    Sigma -> 0 limit continuous with :func:`fit_ocl`; Sigma = 0 takes the
    OCL path exactly.

    The solve runs on the stacked factorization [X2; sqrt(n) W] with
    W^T W = Sigma, which stays accurate down to vanishing penalties where
    the assembled normal matrix X2^T X2 + n Sigma loses the
    small-eigenvalue directions to roundoff.

    Parameters
    ----------
    sigma : Regularizer or None
        PSD penalty metric; None means zero.
    """
    x2, y2 = _check_xy(x2, y2)
    n, d = x2.shape
    if w1.d != d:
        raise DimensionMismatch(f"w1 has d={w1.d}, X2 has d={d}")
    sigma = _as_regularizer(sigma, d)
    if sigma.is_zero:
        return fit_ocl(x2, y2, w1)
    w_rows = sigma.sqrt_factor()
    stacked = np.vstack([x2, np.sqrt(n) * w_rows])
    rhs = np.concatenate([y2 - x2 @ w1.w, np.zeros(w_rows.shape[0])])
    v = _min_norm(stacked, rhs, _rank_tolerance(n, d))
    return Weights(w1.w + v)


def fit_joint(x1, y1, x2, y2) -> Weights:
    """Min-norm least squares on the vertically stacked two-task data."""
    x1, y1 = _check_xy(x1, y1)
    x2, y2 = _check_xy(x2, y2)
    if x1.shape[1] != x2.shape[1]:
        raise DimensionMismatch(f"d mismatch: {x1.shape[1]} vs {x2.shape[1]}")
    x = np.vstack([x1, x2])
    y = np.concatenate([y1, y2])
    return Weights(_min_norm(x, y, _rank_tolerance(*x.shape)))

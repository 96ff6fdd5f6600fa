"""Closed-form risk surrogates evaluated exactly from the spectra.

Every surrogate is reported with constant 1; the ``constant_window`` on a
report is the multiplicative band within which the matching Monte-Carlo
quantity is expected to land (an artifact acceptance choice, since the
underlying two-sided bounds hold only up to absolute constants).  The
joint-learning bias is the one exception: it is an exact equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexSetTooLarge, NotDiagonal, NotOneHot
from .model import Design, ProblemInstance, gaussian_index_set, one_hot_index_sets
from .regularizers import Regularizer

ONE_HOT_WINDOW = (1.0 / 300.0, 300.0)
GAUSSIAN_WINDOW = (1.0 / 50.0, 50.0)

DEFAULT_B1 = 0.25
DEFAULT_B2 = 10.0


@dataclass(frozen=True)
class BoundReport:
    """A bias/variance surrogate pair with its multiplicative uncertainty."""

    bias_surrogate: float
    variance_surrogate: float
    constant_window: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.constant_window
        if not (0 < lo <= 1.0 <= hi):
            raise IndexSetTooLarge(f"window must straddle 1, got ({lo}, {hi})")


def _require_one_hot(inst: ProblemInstance):
    if inst.design is not Design.ONE_HOT:
        raise NotOneHot("this bound holds in the one-hot design only")


def joint_theory_one_hot(inst: ProblemInstance, n: int) -> BoundReport:
    """Stacked-fit risk surrogate; the bias part is an exact equality."""
    _require_one_hot(inst)
    mu, lam, w2 = inst.g.values, inst.h.values, inst.w_star**2
    bias = math.fsum(((1 - mu) ** n * (1 - lam) ** n * (mu + lam) * w2).tolist())
    j = one_hot_index_sets(inst.g, n)
    k = one_hot_index_sets(inst.h, n)
    dead = ~j & ~k
    var = (inst.sigma2 / n) * (
        int(np.count_nonzero(j | k))
        + n**2 * math.fsum(((mu + lam) ** 2)[dead].tolist())
    )
    return BoundReport(bias, var, ONE_HOT_WINDOW)


def grcl_theory_one_hot(inst: ProblemInstance, sigma: Regularizer, n: int) -> BoundReport:
    """Two-sided surrogate for the regularized sequential fit.

    Requires a diagonal memory matrix (it must commute with both
    covariances).  Conventions at degenerate coordinates: the shrink
    factor gamma^2/(gamma+lambda)^2 is 0 whenever gamma = 0, and head
    reciprocals are only formed inside their index sets, where the
    entries are at least 1/n.
    """
    _require_one_hot(inst)
    if not (sigma.is_diagonal or sigma.is_zero):
        raise NotDiagonal("the one-hot surrogate needs a diagonal memory matrix")
    gamma = sigma.values if sigma.is_diagonal else np.zeros(inst.d)
    if gamma.shape[0] != inst.d:
        raise NotDiagonal(f"Sigma has d={gamma.shape[0]}, instance has d={inst.d}")
    mu, lam, w2 = inst.g.values, inst.h.values, inst.w_star**2
    j = one_hot_index_sets(inst.g, n)
    k = one_hot_index_sets(inst.h, n)

    shrink = np.zeros(inst.d)
    pos = gamma > 0
    shrink[pos] = gamma[pos] ** 2 / (gamma[pos] + lam[pos]) ** 2
    pass_through = shrink + (1 - lam) ** n

    bias = math.fsum(((mu + lam) * (1 - mu) ** n * pass_through * w2).tolist())

    a = np.where(j, np.divide(1.0, n * mu, out=np.zeros(inst.d), where=j), n * mu)
    b = np.where(
        k,
        np.divide(lam, n * (lam + gamma) ** 2, out=np.zeros(inst.d), where=k),
        n * lam / (1 + n * gamma) ** 2,
    )
    var = inst.sigma2 * (
        math.fsum(((mu + lam) * pass_through * a).tolist())
        + math.fsum(((mu + lam) * b).tolist())
    )
    return BoundReport(bias, var, ONE_HOT_WINDOW)


def ocl_gap_one_hot(inst: ProblemInstance, n: int) -> float:
    """Surrogate for the excess of unregularized CL over joint learning."""
    _require_one_hot(inst)
    mu, lam = inst.g.values, inst.h.values
    j = one_hot_index_sets(inst.g, n)
    k = one_hot_index_sets(inst.h, n)
    head = math.fsum(np.divide(mu, lam, out=np.zeros(inst.d), where=k)[k].tolist())
    cross = math.fsum((mu * lam)[j & ~k].tolist())
    return (inst.sigma2 / n) * (head + n**2 * cross)


def l2rcl_upper_one_hot(inst: ProblemInstance, gamma: float, n: int) -> float:
    """Additive-over-joint upper surrogate for the isotropic penalty.

    The joint-learning surrogate is not included; callers add
    :func:`joint_theory_one_hot` when they want the full bound.
    """
    _require_one_hot(inst)
    if gamma <= 0:
        raise NotDiagonal(f"gamma must be positive, got {gamma}")
    mu, lam = inst.g.values, inst.h.values
    ju_k = one_hot_index_sets(inst.g, n) | one_hot_index_sets(inst.h, n)
    terms = mu / (lam + 1.0 / n + gamma) + gamma / (mu + 1.0 / n)
    head = math.fsum(terms[ju_k].tolist())
    w_norm2 = float(inst.w_star @ inst.w_star)
    return (gamma + 1.0 / n) * w_norm2 + (inst.sigma2 / n) * head


# -- Gaussian-design bounds for the unregularized algorithm -------------------

def _gaussian_heads(inst: ProblemInstance, n: int, b1: float, b2: float):
    if inst.design is not Design.GAUSSIAN:
        raise NotOneHot("this bound holds in the Gaussian design only")
    j = gaussian_index_set(inst.g, n, b2)
    k = gaussian_index_set(inst.h, n, b2)
    j_size, k_size = int(np.count_nonzero(j)), int(np.count_nonzero(k))
    if j_size > b1 * n or k_size > b1 * n:
        raise IndexSetTooLarge(f"|J|={j_size}, |K|={k_size} exceed b1*n={b1 * n}")
    return j, k


def _head_inflation(values: np.ndarray, head: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Diagonal of (tr tail)^2/n^2 * head^-2 + I_tail, and the tail trace."""
    tail_trace = math.fsum(values[~head].tolist())
    f = np.ones_like(values)
    f[head] = tail_trace**2 / (n**2 * values[head] ** 2)
    return f, tail_trace


def gaussian_ocl_lower(inst: ProblemInstance, n: int,
                       b1: float = DEFAULT_B1, b2: float = DEFAULT_B2) -> BoundReport:
    """Task-1 excess-risk lower surrogate for the unregularized algorithm."""
    mu, lam, w2 = inst.g.values, inst.h.values, inst.w_star**2
    j, k = _gaussian_heads(inst, n, b1, b2)
    f_j, tr_gc = _head_inflation(mu, j, n)
    f_k, tr_hc = _head_inflation(lam, k, n)

    bias = math.fsum((mu * f_j * f_k * w2).tolist())

    h_term = np.where(
        k, np.divide(1.0, lam, out=np.zeros(inst.d), where=k), n**2 * lam / tr_hc**2
    )
    g_term = np.where(j, 1.0, n**2 * mu**2 / tr_gc**2)
    var = (inst.sigma2 / n) * (
        math.fsum((mu * h_term).tolist()) + math.fsum((f_k * g_term).tolist())
    )
    return BoundReport(bias, var, GAUSSIAN_WINDOW)


def gaussian_ocl_upper(inst: ProblemInstance, n: int,
                       b1: float = DEFAULT_B1, b2: float = DEFAULT_B2) -> BoundReport:
    """Task-1 excess-risk upper surrogate for the unregularized algorithm."""
    mu, lam, w2 = inst.g.values, inst.h.values, inst.w_star**2
    j, k = _gaussian_heads(inst, n, b1, b2)
    tr_gc = math.fsum(mu[~j].tolist())
    tr_hc = math.fsum(lam[~k].tolist())

    bias = (tr_gc**2 / n**2) * math.fsum((w2[j] / mu[j]).tolist()) + math.fsum(
        (mu * w2)[~j].tolist()
    )

    jk = j & k
    t1 = math.fsum((mu[jk] / lam[jk]).tolist())
    t2 = n**2 * math.fsum((mu * lam)[j & ~k].tolist()) / tr_hc**2
    t3 = int(np.count_nonzero(jk))
    t4 = n**2 * math.fsum((mu**2)[~j & ~k].tolist()) / tr_gc**2

    gh_head = float(np.max(mu[k] / lam[k])) if np.any(k) else 0.0
    gh_tail = (mu * lam)[~k]
    c5 = (
        gh_head
        + n * (math.fsum(gh_tail.tolist()) + n * float(gh_tail.max(initial=0.0))) / tr_hc**2
        + tr_gc**2 / tr_hc**2
    )
    g_fac = np.where(j, np.divide(1.0, mu, out=np.zeros(inst.d), where=j), n**2 * mu / tr_gc**2)
    h_fac = np.where(
        k, np.divide(tr_hc**2, n**2 * lam, out=np.zeros(inst.d), where=k), lam
    )
    t5 = math.fsum((g_fac * h_fac).tolist())

    var = (inst.sigma2 / n) * (t1 + t2 + t3 + t4 + c5 * t5)
    return BoundReport(bias, var, GAUSSIAN_WINDOW)

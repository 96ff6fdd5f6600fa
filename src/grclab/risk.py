"""Population excess risk and its conditional bias/variance decomposition.

For fixed designs the expectation over label noise has a closed form:
the first-phase error w1 - w* has covariance P1 w* w*^T P1 + sigma2 A1^+
with A1 = X1^T X1 and P1 the projection onto null(A1); the second phase
propagates it through Q = I - (A2 + n Sigma)^+ A2 and adds its own noise
term (A2 + n Sigma)^+ A2 (A2 + n Sigma)^+.  Monte Carlo therefore only
ever integrates over designs, never over noise.
"""

from __future__ import annotations

import enum
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from . import sampler
from .errors import ConfigParse, DimensionMismatch, KTooLarge, NotOneHotDesign, NotPSD
from .estimators import Weights, _rank_tolerance
from .model import Design, ProblemInstance, RiskDecomposition
from .regularizers import (
    Regularizer,
    _as_regularizer,
    _count_frequency,
    check_topk_size,
    corollary3_regularizer,
    sketch_regularizer,
    topk_from_eigh,
    topk_spectrum_regularizer,
    zero_regularizer,
)
from .theory import BoundReport, grcl_theory_one_hot, joint_theory_one_hot


# Gaussian instances wider than this take the n x n Gram path, and no
# replication wider than this builds its d x d normal matrices.
NORMAL_PATH_MAX_D = 4096

_EPS = float(np.finfo(np.float64).eps)


class RiskWeighting(enum.Enum):
    """Which population covariance weights the squared parameter error."""

    TASK1 = "task1"
    TASK2 = "task2"
    JOINT = "joint"


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Replication average of the conditional excess risk."""

    mean: float
    std_error: float
    replications: int

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.std_error)):
            raise DimensionMismatch(f"non-finite estimate {self.mean}, {self.std_error}")
        if self.std_error < 0 or self.replications < 1:
            raise DimensionMismatch("need std_error >= 0 and replications >= 1")


def weight_vector(inst: ProblemInstance, weighting: RiskWeighting) -> np.ndarray:
    if weighting is RiskWeighting.TASK1:
        return inst.g.values
    if weighting is RiskWeighting.TASK2:
        return inst.h.values
    return inst.g.values + inst.h.values


def population_excess(w: Weights, inst: ProblemInstance,
                      weighting: RiskWeighting = RiskWeighting.JOINT) -> float:
    """Excess of the population risk at w over its minimum, sum m_i (w-w*)_i^2."""
    if w.d != inst.d:
        raise DimensionMismatch(f"weights have d={w.d}, instance has d={inst.d}")
    m = weight_vector(inst, weighting)
    diff = w.w - inst.w_star
    return float(m @ (diff * diff))


def _is_one_hot_rows(x: np.ndarray) -> bool:
    """Whether every row of the matrix ``x`` is a standard basis vector."""
    return bool(np.all((x == 0.0) | (x == 1.0)) and np.all(x.sum(axis=1) == 1.0))


def _check_designs(x1, x2, inst):
    """Both designs as float matrices of width d; those of a one-hot instance are one-hot."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.ndim != 2 or x2.ndim != 2:
        raise DimensionMismatch("designs must be matrices")
    if x1.shape[1] != inst.d or x2.shape[1] != inst.d:
        raise DimensionMismatch(
            f"designs have d={x1.shape[1]}, {x2.shape[1]}; instance has d={inst.d}"
        )
    if inst.design is Design.ONE_HOT and not (_is_one_hot_rows(x1) and _is_one_hot_rows(x2)):
        raise NotOneHotDesign("a one-hot instance needs designs of standard basis rows")
    return x1, x2


def _eigen_cutoff_ratio(n: int, d: int) -> float:
    """Relative eigenvalue cutoff of a Gram or normal matrix of an n x d design.

    It matches the singular-value cutoff ``_rank_tolerance(n, d)`` of the
    fits, floored at the symmetric-eigensolver noise level so exact rank
    deficiencies are still dropped.
    """
    tol = _rank_tolerance(n, d)
    return max(tol * tol, _EPS * max(n, d))


def _split_spectrum(eigvals: np.ndarray, cutoff_ratio: float):
    """Kept directions of a PSD spectrum and the pseudoinverse of its eigenvalues."""
    cutoff = cutoff_ratio * max(eigvals[-1], 0.0)
    keep = eigvals > cutoff
    inv = np.where(keep, 1.0 / np.maximum(eigvals, 1e-300), 0.0)
    return inv, keep


def _pinv_parts(sym: np.ndarray, cutoff_ratio: float):
    """Eigendecomposition split of a PSD matrix into kept/dropped directions."""
    eigvals, eigvecs = np.linalg.eigh(sym)
    inv, keep = _split_spectrum(eigvals, cutoff_ratio)
    return eigvals, eigvecs, inv, keep


def _sequential_risk(rep: Replication, reg: Regularizer, weighting):
    inst, d = rep.inst, rep.inst.d
    cutoff = _eigen_cutoff_ratio(max(rep.n, rep.n2), d)
    m = weight_vector(inst, weighting)

    eigvals1, v1 = rep.eigh_a1()
    inv1, keep1 = _split_spectrum(eigvals1, cutoff)
    # Null-space projection of the first task: symmetric, exact idempotent.
    v1_null = v1[:, ~keep1]
    p1w = v1_null @ (v1_null.T @ inst.w_star)

    a2 = rep.normal()[1]
    s = a2 + rep.n2 * reg.matrix()
    _, vs, invs, _ = _pinv_parts(s, cutoff)
    splus = (vs * invs) @ vs.T
    splus_a2 = splus @ a2
    q = np.eye(d) - splus_a2

    b = q @ p1w
    bias = float(m @ (b * b))

    # <M, Q A1^+ Q^T> through the PSD square root of A1^+.
    a1_half = v1 * np.sqrt(inv1)
    qa = q @ a1_half
    var1 = float(m @ np.einsum("ij,ij->i", qa, qa))
    # <M, S^+ A2 S^+>: diag(S^+ A2 S^+) = rowsum((S^+ A2) o S^+), S^+ symmetric.
    var2 = float(m @ np.einsum("ij,ij->i", splus_a2, splus))
    variance = inst.sigma2 * (var1 + var2)
    return RiskDecomposition(bias=bias, variance=variance)


def _joint_risk(rep: Replication, weighting):
    inst = rep.inst
    cutoff = _eigen_cutoff_ratio(rep.n + rep.n2, inst.d)
    m = weight_vector(inst, weighting)
    a1, a2 = rep.normal()
    _, v, inv, keep = _pinv_parts(a1 + a2, cutoff)
    v_null = v[:, ~keep]
    pw = v_null @ (v_null.T @ inst.w_star)
    bias = float(m @ (pw * pw))
    variance = inst.sigma2 * float(m @ np.einsum("ij,j,ij->i", v, inv, v))
    return RiskDecomposition(bias=bias, variance=variance)


# -- the n x n Gram path (d > NORMAL_PATH_MAX_D) ----------------------------------
#
# For d far beyond the sample sizes the d x d normal matrices are not
# materializable.  Every term then reduces to the blocks of K = Z Z^T and
# W = Z M Z^T with Z = [X1; X2], through (X^T X)^+ = X^T (X X^T)^+2 X.
# Each is one symmetric product: syrk on the diagonal blocks, one GEMM off
# it.  The designs are only read: W is accumulated over column blocks of
# Z scaled by sqrt(m) into a scratch array, never a weighted copy of Z.

# Columns of Z per step of the W sum.  Each step adds three n x n products,
# so narrower steps cost more adds per flop: 4096 keeps the sum within about
# 6% of three plain products at n = 1000 and 4000, for an 8 (n1 + n2) * 4096
# byte scratch array (64 MB at n1 = n2 = 1000).
_GRAM_BLOCK_COLUMNS = 4096


def _wide(inst: ProblemInstance) -> bool:
    """Whether ``inst`` is Gaussian above the dense limit, so its risks take the Gram path."""
    return inst.design is Design.GAUSSIAN and inst.d > NORMAL_PATH_MAX_D


def _pinv_sym(sym: np.ndarray, cutoff_ratio: float) -> np.ndarray:
    _, v, inv, _ = _pinv_parts(sym, cutoff_ratio)
    return (v * inv) @ v.T


def _scaled_grams(x1: np.ndarray, x2: np.ndarray, m: np.ndarray):
    """W11 = X1 M X1^T, W12 = X1 M X2^T and W22 = X2 M X2^T, summed over column blocks."""
    n1, d = x1.shape
    n2 = x2.shape[0]
    root = np.sqrt(m)
    width = _GRAM_BLOCK_COLUMNS
    scratch = np.empty((n1 + n2, min(width, d)))
    product = np.empty(max(n1, n2) ** 2)
    grams = (np.zeros((n1, n1)), np.zeros((n1, n2)), np.zeros((n2, n2)))
    for start in range(0, d, width):
        cols = slice(start, start + width)
        block = scratch[:, : min(width, d - start)]
        s1, s2 = block[:n1], block[n1:]
        np.multiply(x1[:, cols], root[cols], out=s1)
        np.multiply(x2[:, cols], root[cols], out=s2)
        for gram, left, right in zip(grams, (s1, s1, s2), (s1, s2, s2)):
            out = product[: gram.size].reshape(gram.shape)
            gram += np.matmul(left, right.T, out=out)  # syrk when left is right
    return grams


def _conditional_sequential_gram(x1, x2, inst, weighting):
    """Unregularized conditional risk from the Gram blocks.

    P2 = I - X2^T (X2 X2^T)^+ X2 propagates the first-phase error, so the
    first variance term is <(X1 P2) M (X1 P2)^T, A1^+2> in row space.
    """
    n1, d = x1.shape
    n2 = x2.shape[0]
    n_big = max(n1, n2)
    cutoff = _eigen_cutoff_ratio(n_big, d)
    m = weight_vector(inst, weighting)

    a1_plus = _pinv_sym(x1 @ x1.T, cutoff)
    a2_plus = _pinv_sym(x2 @ x2.T, cutoff)
    k12 = x1 @ x2.T

    u = inst.w_star - x1.T @ (a1_plus @ (x1 @ inst.w_star))
    b = u - x2.T @ (a2_plus @ (x2 @ u))
    bias = float(m @ (b * b))

    core, w12, w22 = _scaled_grams(x1, x2, m)
    t = k12 @ a2_plus
    del k12
    # (X1 P2) M (X1 P2)^T = W11 - T W12^T - W12 T^T + T W22 T^T, in place
    tw = t @ w12.T
    del w12
    core -= tw
    core -= tw.T
    del tw
    core += t @ w22 @ t.T
    del t
    var1 = float(np.einsum("ij,ji->", a1_plus @ core, a1_plus))
    var2 = float(np.einsum("ij,ji->", a2_plus @ w22, a2_plus))
    variance = inst.sigma2 * (var1 + var2)
    return RiskDecomposition(bias=bias, variance=max(variance, 0.0))


def _conditional_joint_gram(x1, x2, inst, weighting):
    """Stacked min-norm risk from the Gram blocks.

    bias = ||w* - Z^T K^+ Z w*||_M^2 and variance = sigma2 tr(K^+ W K^+),
    with the cutoff of the dense joint path at n1 + n2 rows.
    """
    n1, d = x1.shape
    n = n1 + x2.shape[0]
    cutoff = _eigen_cutoff_ratio(n, d)
    m = weight_vector(inst, weighting)

    k12 = x1 @ x2.T
    k_plus = _pinv_sym(np.block([[x1 @ x1.T, k12], [k12.T, x2 @ x2.T]]), cutoff)
    del k12

    c = k_plus @ np.concatenate([x1 @ inst.w_star, x2 @ inst.w_star])
    pw = inst.w_star - x1.T @ c[:n1] - x2.T @ c[n1:]
    bias = float(m @ (pw * pw))

    w11, w12, w22 = _scaled_grams(x1, x2, m)
    w = np.block([[w11, w12], [w12.T, w22]])
    del w11, w12, w22
    variance = inst.sigma2 * float(np.einsum("ij,ji->", k_plus @ w, k_plus))
    return RiskDecomposition(bias=bias, variance=max(variance, 0.0))


def _conditional_sequential_onehot(c1, c2, n2, inst, gamma, weighting):
    m = weight_vector(inst, weighting)
    s = c2 + n2 * gamma
    live = s > 0
    q = np.where(live, np.divide(n2 * gamma, s, out=np.zeros_like(s), where=live), 1.0)
    p1w = np.where(c1 == 0, inst.w_star, 0.0)
    b = q * p1w
    bias = float(m @ (b * b))
    a1inv = np.divide(1.0, c1, out=np.zeros_like(c1, dtype=float), where=c1 > 0)
    noise2 = np.divide(c2, s * s, out=np.zeros_like(s), where=live)
    variance = inst.sigma2 * float(m @ (q * q * a1inv) + m @ noise2)
    return RiskDecomposition(bias=bias, variance=variance)


def _conditional_joint_onehot(c1, c2, inst, weighting):
    m = weight_vector(inst, weighting)
    c = c1 + c2
    pw = np.where(c == 0, inst.w_star, 0.0)
    bias = float(m @ (pw * pw))
    ainv = np.divide(1.0, c, out=np.zeros_like(c, dtype=float), where=c > 0)
    return RiskDecomposition(bias=bias, variance=inst.sigma2 * float(m @ ainv))


# -- one pair of designs, and the one choice among the three paths ------------------


def _rows_of_counts(counts: np.ndarray) -> np.ndarray:
    """The one-hot design with ``counts[i]`` rows e_i, in atom order."""
    return np.repeat(np.eye(counts.shape[0]), counts.astype(int), axis=0)


class Replication:
    """One pair of designs as the risk paths read it.

    Its sufficient statistics are caches, each filled on first use: the
    designs (X1, X2), the count pair (c1, c2) of a one-hot pair, the
    normal matrices (A1, A2) = (X1^T X1, X2^T X2) and eigh(A1).  A Monte
    Carlo replication fills them from its (seed, rep) streams.  A dense
    Gaussian one keeps only A1, A2 and eigh(A1), 3 d^2 floats: the
    first-phase fit and every top-k memory read the same eigenpairs.  A
    one-hot one keeps only its counts, drawn without the n x d designs;
    its normal matrices are exactly diag(c1) and diag(c2), since a one-hot
    row adds 1 to one diagonal entry.  A replication of
    caller-held designs or counts (``of_designs``, ``of_counts``) starts
    with that cache filled, and has the memory seed of (seed 0, rep 0).

    ``x1`` serves a builder that reads rows: a held X1, else X1 drawn
    again from its seed, else the rows of c1.  ``sequential_risk`` and
    ``joint_risk`` choose the path by the declared design: the counts for
    one-hot, the n x n Gram path for Gaussian above ``NORMAL_PATH_MAX_D``,
    the normal matrices otherwise.  Not safe for concurrent use.
    """

    __slots__ = ("inst", "n", "n2", "seed", "rep", "_drawn", "_designs", "_counts", "_normal",
                 "_eig_a1")

    def __init__(self, inst: ProblemInstance, n: int, seed: int, rep: int):
        self.inst, self.n, self.n2, self.seed, self.rep = inst, n, n, seed, rep
        self._drawn = True
        self._designs = self._counts = self._normal = self._eig_a1 = None

    @classmethod
    def of_designs(cls, inst: ProblemInstance, x1: np.ndarray, x2: np.ndarray) -> "Replication":
        given = cls(inst, x1.shape[0], 0, 0)
        given.n2, given._drawn, given._designs = x2.shape[0], False, (x1, x2)
        return given

    @classmethod
    def of_counts(cls, inst: ProblemInstance, c1: np.ndarray, c2: np.ndarray) -> "Replication":
        given = cls(inst, int(c1.sum()), 0, 0)
        given.n2, given._drawn, given._counts = int(c2.sum()), False, (c1, c2)
        return given

    @property
    def memory_seed(self) -> int:
        return self._stream(sampler.REGULARIZER_STREAM)

    @property
    def one_hot(self) -> bool:
        return self.inst.design is Design.ONE_HOT

    def _stream(self, tag: int) -> int:
        return sampler.stream_seed(self.seed, self.rep, tag)

    def _draw(self, task: int) -> np.ndarray:
        """X1 (task 0) or X2 (task 1) drawn from its stream."""
        spectrum = self.inst.h if task else self.inst.g
        seed = self._stream(sampler.TASK2_DESIGN if task else sampler.TASK1_DESIGN)
        draw = sampler.sample_one_hot_design if self.one_hot else sampler.sample_gaussian_design
        return draw(spectrum, self.n, seed)

    def _design(self, task: int) -> np.ndarray:
        if self._designs is not None:
            return self._designs[task]
        if self._drawn:
            return self._draw(task)
        return _rows_of_counts(self._counts[task])

    @property
    def x1(self) -> np.ndarray:
        return self._design(0)

    @property
    def x2(self) -> np.ndarray:
        return self._design(1)

    def designs(self) -> tuple[np.ndarray, np.ndarray]:
        """(X1, X2), kept once made; of a drawn pair, only the Gram path asks.

        A wide Gaussian replication (d > NORMAL_PATH_MAX_D) draws X2 on a
        helper thread while this one draws X1: ``standard_normal`` releases
        the GIL, and each draw is a pure function of its own stream seed.
        """
        if self._designs is None:
            if _wide(self.inst):
                with ThreadPoolExecutor(max_workers=1) as helper:
                    x2 = helper.submit(self._draw, 1)
                    self._designs = (self._draw(0), x2.result())
            else:
                self._designs = (self.x1, self.x2)
        return self._designs

    def counts(self):
        """(c1, c2), the column sums of a one-hot X1 and X2."""
        if self._counts is None:
            if self._designs is not None:
                self._counts = tuple(x.sum(axis=0) for x in self._designs)
            else:
                draw = sampler.sample_one_hot_counts
                self._counts = (
                    draw(self.inst.g, self.n, self._stream(sampler.TASK1_DESIGN)),
                    draw(self.inst.h, self.n, self._stream(sampler.TASK2_DESIGN)),
                )
        return self._counts

    def normal(self) -> tuple[np.ndarray, np.ndarray]:
        """(A1, A2) = (X1^T X1, X2^T X2); (diag(c1), diag(c2)) of a one-hot pair.

        Refused above ``NORMAL_PATH_MAX_D``, before anything is drawn: two
        d x d matrices there take gigabytes (4.6 GB each at d = 24000).
        """
        if self._normal is None:
            if self.inst.d > NORMAL_PATH_MAX_D:
                raise DimensionMismatch(
                    f"d={self.inst.d} is above {NORMAL_PATH_MAX_D}, where this memory would need "
                    "d x d normal matrices; ocl, joint, grcl:topk:0 and diagonal one-hot memories run there"
                )
            if self._designs is not None:
                self._normal = tuple(x.T @ x for x in self._designs)
            elif self.one_hot:
                self._normal = tuple(np.diag(c) for c in self.counts())
            else:
                x1 = self.x1
                a1 = x1.T @ x1
                del x1
                x2 = self.x2
                self._normal = (a1, x2.T @ x2)
        return self._normal

    def eigh_a1(self):
        """eigh(A1), shared by the first-phase fit and every top-k memory."""
        if self._eig_a1 is None:
            self._eig_a1 = np.linalg.eigh(self.normal()[0])
        return self._eig_a1

    def topk(self, k: int) -> Regularizer:
        """The top-k memory of X1, same as ``topk_empirical(x1, k)``."""
        return topk_from_eigh(self.eigh_a1, self.n, self.inst.d, k)

    def sequential_risk(self, memory, weighting: RiskWeighting) -> RiskDecomposition:
        reg = _as_regularizer(memory, self.inst.d)
        if self.one_hot and (reg.is_zero or reg.is_diagonal):
            gamma = reg.values if reg.is_diagonal else np.zeros(self.inst.d)
            return _conditional_sequential_onehot(*self.counts(), self.n2, self.inst, gamma, weighting)
        if _wide(self.inst) and reg.is_zero:
            return _conditional_sequential_gram(*self.designs(), self.inst, weighting)
        return _sequential_risk(self, reg, weighting)

    def joint_risk(self, weighting: RiskWeighting) -> RiskDecomposition:
        if self.one_hot:
            return _conditional_joint_onehot(*self.counts(), self.inst, weighting)
        if _wide(self.inst):
            return _conditional_joint_gram(*self.designs(), self.inst, weighting)
        return _joint_risk(self, weighting)


def conditional_risk(x1, x2, inst: ProblemInstance, sigma,
                     weighting: RiskWeighting = RiskWeighting.JOINT) -> RiskDecomposition:
    """Noise-expected excess risk of the sequential fit, for fixed designs.

    Covers the whole Sigma family: Sigma = 0 is the unregularized update
    (the propagation map degenerates to the task-2 null-space projection),
    Sigma = gamma I the l2-penalized one, general PSD Sigma the structural
    one.  The path is that of ``Replication.sequential_risk``: one-hot
    instances with diagonal Sigma take an exact O(d) coordinate path (the
    dense path agrees with it to rounding), and Sigma = 0 above
    ``NORMAL_PATH_MAX_D`` takes the n x n Gram path; there a Sigma that
    needs the normal matrices raises ``DimensionMismatch``.  The designs
    are never modified.

    Parameters
    ----------
    sigma : Regularizer or None
        PSD penalty; None means zero.
    """
    x1, x2 = _check_designs(x1, x2, inst)
    return Replication.of_designs(inst, x1, x2).sequential_risk(sigma, weighting)


def conditional_risk_joint(x1, x2, inst: ProblemInstance,
                           weighting: RiskWeighting = RiskWeighting.JOINT) -> RiskDecomposition:
    """Noise-expected excess risk of the stacked min-norm fit, fixed designs.

    One-hot instances take an exact O(d) coordinate path, and Gaussian
    ones wider than ``NORMAL_PATH_MAX_D`` the n x n Gram path.  The
    designs are never modified.
    """
    x1, x2 = _check_designs(x1, x2, inst)
    return Replication.of_designs(inst, x1, x2).joint_risk(weighting)


# -- algorithms ---------------------------------------------------------------
#
# Each algorithm owns its label, check and risk.  It reads a replication
# through ``inst``, ``n``, ``x1``, ``memory_seed``, ``topk(k)``,
# ``sequential_risk(memory, weighting)`` and ``joint_risk(weighting)``.


class _Sequential:
    """Second-phase fit under ``memory(rep)``; one-hot theory under its population analog."""

    def check(self, inst: ProblemInstance, n: int) -> None:
        """Raise if the algorithm cannot run on ``inst`` at ``n``; draws nothing."""

    def memory(self, rep) -> Regularizer:
        """Sigma for ``rep``; a memory that ignores the data is its population analog."""
        return self.population_memory(rep.inst, rep.n)

    def risk(self, rep, weighting: RiskWeighting) -> RiskDecomposition:
        return rep.sequential_risk(self.memory(rep), weighting)

    def theory_one_hot(self, inst: ProblemInstance, n: int) -> BoundReport | None:
        """The one-hot surrogate under ``population_memory``; None where it has none."""
        sigma = self.population_memory(inst, n)
        return None if sigma is None else grcl_theory_one_hot(inst, sigma, n)


@dataclass(frozen=True)
class OCL(_Sequential):
    """Unregularized sequential learning, Sigma = 0."""

    name: ClassVar[str] = "ocl"
    label: ClassVar[str] = "ocl"

    def population_memory(self, inst: ProblemInstance, n: int) -> Regularizer:
        return zero_regularizer(inst.d)


@dataclass(frozen=True)
class L2RCL(_Sequential):
    """Sequential learning with an isotropic penalty gamma ||w - w1||^2, Sigma = gamma I."""

    gamma: float
    name: ClassVar[str] = "l2rcl"

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise NotPSD(f"gamma must be positive and finite, got {self.gamma}")

    @property
    def label(self) -> str:
        return f"l2rcl:{self.gamma!r}"

    def population_memory(self, inst: ProblemInstance, n: int) -> Regularizer:
        return Regularizer(form="diagonal", values=np.full(inst.d, self.gamma))


@dataclass(frozen=True)
class GRCL(_Sequential):
    """Sequential learning with a memory matrix, fixed or built from X1.

    A builder is a callable ``(x1, seed) -> Regularizer`` or has a
    ``memory(rep)`` that reads the replication, as ``TopK`` and
    ``Frequency`` do.  It may carry a ``label``, a ``check(inst, n)`` and
    a ``population(inst, n)`` analog for the one-hot theory, as ``TopK``,
    ``Sketch`` and ``Frequency`` do.
    """

    regularizer: Regularizer | None = None
    builder: Callable[[np.ndarray, int], Regularizer] | None = None
    name: ClassVar[str] = "grcl"

    def __post_init__(self):
        if (self.regularizer is None) == (self.builder is None):
            raise DimensionMismatch("provide exactly one of regularizer, builder")

    @property
    def label(self) -> str:
        return f"grcl:{self.builder.label}" if hasattr(self.builder, "label") else "grcl"

    def check(self, inst: ProblemInstance, n: int) -> None:
        if self.regularizer is not None and self.regularizer.d != inst.d:
            raise DimensionMismatch(f"Sigma has d={self.regularizer.d}, instance has d={inst.d}")
        if hasattr(self.builder, "check"):
            self.builder.check(inst, n)

    def memory(self, rep) -> Regularizer:
        if self.builder is None:
            return self.regularizer
        if hasattr(self.builder, "memory"):
            return self.builder.memory(rep)
        return self.builder(rep.x1, rep.memory_seed)

    def population_memory(self, inst: ProblemInstance, n: int) -> Regularizer | None:
        if self.builder is None:
            return self.regularizer
        return self.builder.population(inst, n) if hasattr(self.builder, "population") else None


@dataclass(frozen=True)
class Joint:
    """Min-norm least squares on the union of both datasets."""

    name: ClassVar[str] = "joint"
    label: ClassVar[str] = "joint"

    def check(self, inst: ProblemInstance, n: int) -> None:
        """Joint training runs on every instance."""

    def risk(self, rep, weighting: RiskWeighting) -> RiskDecomposition:
        return rep.joint_risk(weighting)

    def theory_one_hot(self, inst: ProblemInstance, n: int) -> BoundReport:
        return joint_theory_one_hot(inst, n)


@dataclass(frozen=True)
class TopK:
    """Builder of the rank-k truncation of the empirical task-1 covariance."""

    k: int

    @property
    def label(self) -> str:
        return f"topk:{self.k}"

    def memory(self, rep) -> Regularizer:
        return rep.topk(self.k)  # the eigenpairs of the first-phase fit

    def check(self, inst: ProblemInstance, n: int) -> None:
        check_topk_size(self.k, n, inst.d)

    def population(self, inst: ProblemInstance, n: int) -> Regularizer:
        return topk_spectrum_regularizer(inst.g, self.k)


@dataclass(frozen=True)
class Sketch:
    """Builder of the k-row CountSketch of the task-1 data; no population analog."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise KTooLarge(f"sketch size must be >= 1, got {self.k}")

    @property
    def label(self) -> str:
        return f"sketch:{self.k}"

    def __call__(self, x1: np.ndarray, seed) -> Regularizer:
        return sketch_regularizer(x1, self.k, seed)


@dataclass(frozen=True)
class Frequency:
    """Builder of the observed-atom frequencies of one-hot task-1 data."""

    label: ClassVar[str] = "freq"

    def memory(self, rep) -> Regularizer:
        return _count_frequency(rep.counts()[0], rep.n)

    def check(self, inst: ProblemInstance, n: int) -> None:
        if inst.design is not Design.ONE_HOT:
            raise NotOneHotDesign("observed-atom frequencies need a one-hot design")

    def population(self, inst: ProblemInstance, n: int) -> Regularizer:
        return corollary3_regularizer(inst.g, n)


def check_algorithm(algorithm, inst: ProblemInstance, n: int) -> None:
    """Raise if ``algorithm`` cannot run on ``inst`` at ``n``; draws nothing."""
    if n < 1:
        raise DimensionMismatch(f"need n >= 1, got {n}")
    algorithm.check(inst, n)


# -- Monte Carlo over design replications ---------------------------------------

# Bytes of normal matrices and eigenbases a shared set of replications keeps between rows.
SHARED_BYTES_MAX = 512 * 2**20


class Replications:
    """The ``reps`` replications of one (instance, n, reps, seed) cell.

    Rows of a sweep that share the cell share their seed streams, and
    through one ``Replications`` they share the draws too: on the dense
    path a replication is drawn inside the first row's estimate and its
    A1, A2 and eigh(A1) serve every later row.  The first replications are
    kept, each made on first use, so that at most ``memory_bytes`` are
    held (3 d^2 floats per replication); the rest, and every replication
    off the dense path, are drawn again for each row.
    """

    def __init__(self, inst: ProblemInstance, n: int, reps: int, seed: int,
                 memory_bytes: int = SHARED_BYTES_MAX):
        if seed < 0:
            raise DimensionMismatch(f"need seed >= 0, got {seed}")
        self.inst, self.n, self.reps, self.seed = inst, n, reps, seed
        dense = inst.design is Design.GAUSSIAN and not _wide(inst)
        self._capacity = min(reps, memory_bytes // (3 * 8 * inst.d * inst.d)) if dense else 0
        self._kept: dict[int, Replication] = {}

    def __getitem__(self, rep: int) -> Replication:
        """Replication ``rep`` as the algorithms read it."""
        replication = self._kept.get(rep)
        if replication is None:
            replication = Replication(self.inst, self.n, self.seed, rep)
            if rep < self._capacity:
                self._kept[rep] = replication
        return replication


def worker_count() -> int:
    """Worker threads per estimate: ``GRCL_THREADS``, 1 when unset."""
    raw = os.environ.get("GRCL_THREADS") or "1"
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigParse(f"GRCL_THREADS must be a positive integer, got {raw!r}")
    return workers


def monte_carlo_expected_excess(
    inst: ProblemInstance,
    algorithm,
    n: int,
    reps: int,
    seed: int,
    weighting: RiskWeighting = RiskWeighting.JOINT,
    *,
    replications: Replications | None = None,
) -> tuple[MonteCarloEstimate, RiskDecomposition]:
    """Design-average of the conditional excess risk over ``reps`` replications.

    Noise is integrated analytically inside each replication, so the only
    randomness is the pair of designs (and a data-built regularizer, when
    the algorithm carries one).  Per-replication seeds derive from
    (seed, replication, stream), making the result independent of
    execution order; ``GRCL_THREADS`` caps worker threads.  Pass the
    ``replications`` of (inst, n, reps, seed) to share the draws with
    other estimates on the same cell; the result does not change.
    """
    if reps < 2:
        raise DimensionMismatch(f"need reps >= 2, got {reps}")
    check_algorithm(algorithm, inst, n)
    workers = worker_count()
    if replications is None:
        replications = Replications(inst, n, reps, seed, memory_bytes=0)
    elif (replications.inst is not inst
          or (replications.n, replications.reps, replications.seed) != (n, reps, seed)):
        raise DimensionMismatch("replications were drawn for another (instance, n, reps, seed)")

    def risk(rep):
        return algorithm.risk(replications[rep], weighting)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            decomps = list(pool.map(risk, range(reps)))
    else:
        decomps = [risk(rep) for rep in range(reps)]
    totals = [dec.total for dec in decomps]
    mean = math.fsum(totals) / reps
    sq = math.fsum((t - mean) ** 2 for t in totals)
    std_error = math.sqrt(sq / (reps - 1)) / math.sqrt(reps)
    bias_mean = math.fsum(dec.bias for dec in decomps) / reps
    var_mean = math.fsum(dec.variance for dec in decomps) / reps
    estimate = MonteCarloEstimate(mean=mean, std_error=std_error, replications=reps)
    return estimate, RiskDecomposition(bias=bias_mean, variance=var_mean)

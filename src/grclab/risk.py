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
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from . import sampler
from .errors import DimensionMismatch, KTooLarge, NegativeEigenvalue, NotOneHotDesign, NotPSD
from .estimators import Weights, _rank_tolerance
from .model import Design, ProblemInstance, RiskDecomposition
from .regularizers import (
    Regularizer,
    _as_regularizer,
    _count_frequencies,
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


def _kept_start(keep: np.ndarray) -> int:
    """First kept column of an ascending eigh: the kept directions are its last ones."""
    return keep.size - int(np.count_nonzero(keep))


def _sequential_risk(rep: Replication, reg: Regularizer, weighting):
    """The dense sequential risk on the kept eigenvectors U of S = A2 + n Sigma.

    With D their inverse eigenvalues, S^+ = U D U^T, so Q = I - U D U^T A2
    is applied without a d x d product: every product costs O(d^2 r) for
    the r kept directions; only the eigh of S is d^3.
    """
    inst = rep.inst
    cutoff = _eigen_cutoff_ratio(max(rep.n, rep.n2), inst.d)
    m = weight_vector(inst, weighting)

    eigvals1, v1 = rep.eigh_a1()
    inv1, keep1 = _split_spectrum(eigvals1, cutoff)
    # Null-space projection of the first task: symmetric, exact idempotent.
    v1_null = v1[:, ~keep1]
    p1w = v1_null @ (v1_null.T @ inst.w_star)

    a2 = rep.normal()[1]
    s = reg.matrix()
    s *= rep.n2
    s += a2
    _, vs, invs, keep = _pinv_parts(s, cutoff)
    kept = _kept_start(keep)
    u, inv = vs[:, kept:], invs[kept:]
    ud = u * inv
    ua2 = u.T @ a2

    b = p1w - ud @ (ua2 @ p1w)
    bias = float(m @ (b * b))

    # <M, Q A1^+ Q^T> through the PSD square root of A1^+ on A1's kept directions.
    kept1 = _kept_start(keep1)
    a1_half = v1[:, kept1:] * np.sqrt(inv1[kept1:])
    qa = a1_half - ud @ (ua2 @ a1_half)
    var1 = float(m @ np.einsum("ij,ij->i", qa, qa))
    # <M, S^+ A2 S^+>: diag(U D C D U^T) = rowsum((U D C D) o U), C = U^T A2 U.
    var2 = float(m @ np.einsum("ij,ij->i", ud @ (ua2 @ u) * inv, u))
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
    kept = _kept_start(keep)
    u = v[:, kept:]
    variance = inst.sigma2 * float(m @ np.einsum("ij,j,ij->i", u, inv[kept:], u))
    return RiskDecomposition(bias=bias, variance=variance)


# -- the n x n Gram path (d > NORMAL_PATH_MAX_D) ----------------------------------
#
# For d far beyond the sample sizes the d x d normal matrices are not
# materializable.  Every term then reduces to the blocks of K = Z Z^T and
# W = Z M Z^T with Z = [X1; X2], through (X^T X)^+ = X^T (X X^T)^+2 X.
# Each is one symmetric product: syrk on the diagonal blocks, one GEMM off
# it.  An engine owns the pair it is given: it forms K and the bias from
# the designs as drawn, then scales them by sqrt(m) in place for W, and
# frees them before the n x n phase.  K and W stay n x n blocks: one
# 2n x 2n product of Z is about 7% faster, but freeing a 2n x 2n block
# raises glibc's dynamic mmap and trim thresholds, so later n x n blocks
# come from heap that is not returned (the gram-wide benchmark's peak RSS
# rose by 10-26 MB, and fell back with MALLOC_TRIM_THRESHOLD_=0).


def _check_normal_matrices(inst: ProblemInstance) -> None:
    """Refuse d x d normal matrices above ``NORMAL_PATH_MAX_D``, where each takes gigabytes."""
    if inst.d > NORMAL_PATH_MAX_D:
        raise DimensionMismatch(
            f"d={inst.d} is above {NORMAL_PATH_MAX_D}, where this memory would need "
            "d x d normal matrices; ocl, joint, grcl:topk:0 and diagonal one-hot memories run there"
        )


def _wide(inst: ProblemInstance) -> bool:
    """Whether ``inst`` is Gaussian above the dense limit, so its risks take the Gram path."""
    return inst.design is Design.GAUSSIAN and inst.d > NORMAL_PATH_MAX_D


def _pinv_sym(sym: np.ndarray, cutoff_ratio: float) -> np.ndarray:
    """K^+ of a PSD Gram K: ``np.linalg.inv`` where certified, else eigh with the cutoff.

    lambda_max <= ||K||_F and lambda_min >= 1 / ||K^-1||_F, so a finite K^-1 with ||K||_F ||K^-1||_F
    < 1e-3 / cutoff_ratio puts every eigenvalue above 1000 times the cutoff, room for its own
    rounding, and is K^+: the certificate picks a numerical route, not the directions kept.
    """
    try:
        inv = np.linalg.inv(sym)
    except np.linalg.LinAlgError:  # exactly singular
        inv = None
    # Python floats: a non-finite norm compares False, and the product cannot warn
    if inv is not None and float(np.linalg.norm(sym)) * float(np.linalg.norm(inv)) < 1e-3 / cutoff_ratio:
        return inv
    _, v, inv, _ = _pinv_parts(sym, cutoff_ratio)
    return (v * inv) @ v.T


def _scaled_grams(x1: np.ndarray, x2: np.ndarray, m: np.ndarray):
    """W11 = X1 M X1^T, W12 = X1 M X2^T and W22 = X2 M X2^T, scaling X1 and X2 by sqrt(m) in place."""
    root = np.sqrt(m)
    x1 *= root
    x2 *= root
    return x1 @ x1.T, x1 @ x2.T, x2 @ x2.T


def _project_out(x, vectors, prefixes, cutoffs):
    """K^+ of each leading block of K = X X^T, and each vector minus its projection on that block's rows.

    K is freed on return.  Each residual follows its inverse: after all the inverses, glibc's heap
    was more fragmented at the W products (gram-wide peak RSS 468 MB instead of 463 MB).
    """
    k = x @ x.T
    inverses, residuals = [], []
    for n, cutoff, v in zip(prefixes, cutoffs, vectors):
        plus = _pinv_sym(k[:n, :n], cutoff)
        inverses.append(plus)
        residuals.append(v - x[:n].T @ (plus @ (x[:n] @ v)))
    return inverses, residuals


def _conditional_sequential_gram(pair: list, inst, weighting, sizes) -> list:
    """Unregularized conditional risks from the Gram blocks of ``pair`` = [X1, X2], scaled and emptied.

    One risk per size of the ascending ``sizes``: the last is the whole
    pair's, each other size n that of the first n rows of X1 and X2, read
    from the leading blocks of the whole pair's Grams.  P2 = I - X2^T
    (X2 X2^T)^+ X2 propagates the first-phase error, so the first variance
    term is <(X1 P2) M (X1 P2)^T, A1^+2> in row space.
    """
    x1, x2 = pair
    m = weight_vector(inst, weighting)
    prefixes = (*sizes[:-1], None)  # None: the whole pair
    cutoffs = [_eigen_cutoff_ratio(max(len(x1[:n]), len(x2[:n])), inst.d) for n in prefixes]

    # bias vectors: w* minus its projection on the rows of X1, then X2; K1 is freed before K2, K2 before K12
    a1_pluses, u = _project_out(x1, [inst.w_star] * len(prefixes), prefixes, cutoffs)
    a2_pluses, b = _project_out(x2, u, prefixes, cutoffs)
    biases = [float(m @ (v * v)) for v in b]

    k12 = x1 @ x2.T
    w11, w12, w22 = _scaled_grams(x1, x2, m)
    del x1, x2, pair[:]  # the only references: the designs are freed here
    risks = []
    for bias, a1_plus, a2_plus in zip(biases, a1_pluses, a2_pluses):
        n1, n2 = len(a1_plus), len(a2_plus)
        t = k12[:n1, :n2] @ a2_plus
        # (X1 P2) M (X1 P2)^T = W11 - T W12^T - W12 T^T + T W22 T^T
        core = w11[:n1, :n1].copy()
        tw = t @ w12[:n1, :n2].T
        core -= tw
        core -= tw.T
        del tw
        core += t @ w22[:n2, :n2] @ t.T
        del t
        var1 = float(np.einsum("ij,ji->", a1_plus @ core, a1_plus))
        var2 = float(np.einsum("ij,ji->", a2_plus @ w22[:n2, :n2], a2_plus))
        variance = inst.sigma2 * (var1 + var2)
        risks.append(RiskDecomposition(bias=bias, variance=max(variance, 0.0)))
    return risks


def _conditional_joint_gram(pair: list, inst, weighting, sizes) -> list:
    """Stacked min-norm risks from the Gram blocks of ``pair`` = [X1, X2], scaled and emptied.

    One risk per size, as in ``_conditional_sequential_gram``.  bias =
    ||w* - Z^T K^+ Z w*||_M^2 and variance = sigma2 tr(K^+ W K^+) =
    sigma2 <K^+ K^+, W>, read block by block from W11, W12 and W22, with
    the cutoff of the dense joint path at n1 + n2 rows.
    """
    x1, x2 = pair
    n1, d = x1.shape
    m = weight_vector(inst, weighting)

    k12 = x1 @ x2.T
    k = np.block([[x1 @ x1.T, k12], [k12.T, x2 @ x2.T]])
    del k12
    parts = []
    for n in (*sizes[:-1], None):  # None: the whole pair
        r1, r2 = x1[:n], x2[:n]
        rows = np.r_[: len(r1), n1 : n1 + len(r2)]
        k_plus = _pinv_sym(k if n is None else k[np.ix_(rows, rows)], _eigen_cutoff_ratio(len(rows), d))
        c = k_plus @ np.concatenate([r1 @ inst.w_star, r2 @ inst.w_star])
        pw = inst.w_star - r1.T @ c[: len(r1)] - r2.T @ c[len(r1):]
        parts.append((float(m @ (pw * pw)), k_plus, len(r1), len(r2)))
    del k, r1, r2

    w11, w12, w22 = _scaled_grams(x1, x2, m)
    del x1, x2, pair[:]  # the only references: the designs are freed here
    risks = []
    for bias, k_plus, r, s in parts:
        p = k_plus @ k_plus.T  # K^+ K^+ of the symmetric K^+, as one syrk
        inner = (np.einsum("ij,ij->", p[:r, :r], w11[:r, :r])
                 + 2.0 * np.einsum("ij,ij->", p[:r, r:], w12[:r, :s])
                 + np.einsum("ij,ij->", p[r:, r:], w22[:s, :s]))
        variance = inst.sigma2 * float(inner)
        risks.append(RiskDecomposition(bias=bias, variance=max(variance, 0.0)))
    return risks


# -- one-hot count rows ---------------------------------------------------------
#
# The count engines take blocks of count rows c1, c2 (B x d), one row per
# replication, and return an array of biases and an array of variances.
# The terms are elementwise over the block, and each row's sum is
# ``np.vecdot(rows, m)``: the same dot per row as ``m @ row``, in one loop.


def _count_gamma(reg: Regularizer, d: int) -> np.ndarray | None:
    """The diagonal of a zero or diagonal memory, as the count engine reads it; None for any other."""
    if reg.is_diagonal:
        return reg.values
    return np.zeros(d) if reg.is_zero else None


def _conditional_sequential_onehot(c1, c2, n2, inst, gamma, weighting):
    """Sequential risks of count rows under the diagonal memory gamma, (d,) or (B, d).

    Per coordinate, with s = c2 + n2 gamma and q = n2 gamma / s (1 where
    s = 0): bias q^2 w*^2 where c1 = 0, variance q^2 / c1 + c2 / s^2.  The
    terms are computed in place, in three arrays of the block's shape.
    """
    m = weight_vector(inst, weighting)
    ngamma = n2 * gamma
    s = c2 + ngamma
    live = s > 0
    seen = c1 > 0
    q = np.ones(s.shape)
    np.divide(ngamma, s, out=q, where=live)
    term = np.multiply(q, inst.w_star)
    term *= term
    term[seen] = 0.0
    bias = np.vecdot(term, m)
    term.fill(0.0)
    np.divide(1.0, c1, out=term, where=seen)
    q *= q
    q *= term
    s *= s
    np.divide(c2, s, out=s, where=live)  # s^2 = 0 where s is not live
    return bias, inst.sigma2 * (np.vecdot(q, m) + np.vecdot(s, m))


def _conditional_joint_onehot(c1, c2, inst, weighting):
    """Stacked min-norm risks of count rows."""
    m = weight_vector(inst, weighting)
    c = c1 + c2
    pw = np.where(c == 0, inst.w_star, 0.0)
    ainv = np.divide(1.0, c, out=np.zeros_like(c, dtype=float), where=c > 0)
    return np.vecdot(pw * pw, m), inst.sigma2 * np.vecdot(ainv, m)


def _one_row(risks) -> RiskDecomposition:
    (bias,), (variance,) = risks
    return RiskDecomposition(bias=float(bias), variance=float(variance))


# -- one pair of designs, and the one choice among the three paths ------------------


def _rows_of_counts(counts: np.ndarray) -> np.ndarray:
    """The one-hot design with ``counts[i]`` rows e_i, in atom order; n x d, with no d x d identity."""
    atoms = np.repeat(np.arange(counts.shape[0]), counts.astype(int))
    rows = np.zeros((atoms.size, counts.shape[0]))
    rows[np.arange(atoms.size), atoms] = 1.0
    return rows


class Replication:
    """One pair of designs as the risk paths read it.

    Its sufficient statistics are caches, each filled on first use: the
    designs (X1, X2) of a Gaussian pair, the count pair (c1, c2) of a
    one-hot pair, the normal matrices (A1, A2) = (X1^T X1, X2^T X2) and
    eigh(A1).  A Monte Carlo replication fills them from its (seed, rep)
    streams.  A dense Gaussian one keeps only A1, A2 and eigh(A1), 3 d^2
    floats, and forms A1 and A2 from blocks of rows without holding X1 or
    X2: the first-phase fit and every top-k memory read the same
    eigenpairs.  A wide one keeps no design: each Gram risk scales a fresh
    draw in place and frees it, or a copy of the designs that ``designs()``
    keeps or the caller gave; a draw has the rows of the largest of
    ``_sizes`` and serves every size.  A one-hot pair is its counts, drawn, given
    or enumerated, and never holds a design: its normal matrices are
    exactly diag(c1) and diag(c2), since a one-hot row adds 1 to one
    diagonal entry, and ``of_designs`` keeps only the column sums of
    one-hot designs.  A
    replication of caller-held designs or counts (``of_designs``,
    ``of_counts``) starts with that cache filled, and has the memory seed
    of (seed 0, rep 0).

    ``x1`` serves a memory that reads rows: the rows of c1 in atom order
    for a one-hot pair, else a held X1, else X1 drawn again from its seed.
    ``sequential_risk`` and ``joint_risk`` choose the path by the declared
    design: the counts for one-hot, the n x n Gram path for Gaussian above
    ``NORMAL_PATH_MAX_D``, the normal matrices otherwise.  Not safe for
    concurrent use.
    """

    __slots__ = ("inst", "n", "n2", "seed", "rep", "_designs", "_counts", "_normal", "_eig_a1", "_sizes",
                 "_risks")

    def __init__(self, inst: ProblemInstance, n: int, seed: int, rep: int):
        self.inst, self.n, self.n2, self.seed, self.rep = inst, n, n, seed, rep
        self._designs = self._counts = self._normal = self._eig_a1 = None
        self._sizes, self._risks = (n,), {}

    @classmethod
    def of_designs(cls, inst: ProblemInstance, x1: np.ndarray, x2: np.ndarray) -> "Replication":
        if inst.design is Design.ONE_HOT:
            return cls.of_counts(inst, x1.sum(axis=0), x2.sum(axis=0))
        given = cls(inst, x1.shape[0], 0, 0)
        given.n2, given._designs = x2.shape[0], (x1, x2)
        return given

    @classmethod
    def of_counts(cls, inst: ProblemInstance, c1: np.ndarray, c2: np.ndarray) -> "Replication":
        given = cls(inst, int(c1.sum()), 0, 0)
        given.n2, given._counts = int(c2.sum()), (c1, c2)
        return given

    @property
    def memory_seed(self) -> int:
        return self._stream(sampler.REGULARIZER_STREAM)

    @property
    def one_hot(self) -> bool:
        return self.inst.design is Design.ONE_HOT

    def _stream(self, tag: int) -> int:
        return sampler.stream_seed(self.seed, self.rep, tag)

    def _draw_args(self, task: int, rows: int | None = None) -> tuple:
        """(spectrum, rows, seed) of the draw of X1 (task 0) or X2 (task 1), of n rows by default."""
        rows = self.n if rows is None else rows
        if task:
            return self.inst.h, rows, self._stream(sampler.TASK2_DESIGN)
        return self.inst.g, rows, self._stream(sampler.TASK1_DESIGN)

    def _draw(self, task: int, rows: int | None = None) -> np.ndarray:
        """Gaussian X1 (task 0) or X2 (task 1) drawn from its stream, of n rows by default."""
        return sampler.sample_gaussian_design(*self._draw_args(task, rows))

    @property
    def x1(self) -> np.ndarray:
        if self.one_hot:
            return _rows_of_counts(self.counts()[0])
        return self._draw(0) if self._designs is None else self._designs[0]

    def designs(self) -> tuple[np.ndarray, np.ndarray]:
        """Gaussian (X1, X2), kept once made; a one-hot pair is its counts and has no designs."""
        if self.one_hot:
            raise DimensionMismatch("a one-hot replication is its counts (c1, c2) and holds no designs")
        if self._designs is None:
            self._designs = tuple(self._gram_pair())
        return self._designs

    def _gram_pair(self, rows: int | None = None) -> list:
        """[X1, X2] that a Gram engine may scale and free: copies of held designs, else a draw not kept.

        A draw has ``rows`` rows each, n by default.  A wide Gaussian
        replication (d > NORMAL_PATH_MAX_D) draws X2 on a helper thread
        while this one draws X1: ``standard_normal`` releases the GIL, and
        each draw is a pure function of its own stream seed.
        """
        if self._designs is not None:
            return [x.copy() for x in self._designs]
        if not _wide(self.inst):
            return [self._draw(0, rows), self._draw(1, rows)]
        # imported here: it loads logging, which no other path needs
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as helper:
            x2 = helper.submit(self._draw, 1, rows)
            return [self._draw(0, rows), x2.result()]

    def counts(self):
        """(c1, c2), how often each atom occurs in a one-hot X1 and X2."""
        if self._counts is None:
            self._counts = tuple(sampler.sample_one_hot_counts(*self._draw_args(task)) for task in (0, 1))
        return self._counts

    def normal(self) -> tuple[np.ndarray, np.ndarray]:
        """(A1, A2) = (X1^T X1, X2^T X2); (diag(c1), diag(c2)) of a one-hot pair.

        A drawn Gaussian pair forms each from blocks of rows
        (``sampler.gaussian_gram``) and never holds X1 or X2.  Refused
        above ``NORMAL_PATH_MAX_D``, before anything is drawn: two d x d
        matrices there take gigabytes (4.6 GB each at d = 24000).
        """
        if self._normal is None:
            _check_normal_matrices(self.inst)
            if self._designs is not None:
                self._normal = tuple(x.T @ x for x in self._designs)
            elif self.one_hot:
                self._normal = tuple(np.diag(c) for c in self.counts())
            else:
                self._normal = tuple(sampler.gaussian_gram(*self._draw_args(task)) for task in (0, 1))
        return self._normal

    def eigh_a1(self):
        """eigh(A1), shared by the first-phase fit and every top-k memory."""
        if self._eig_a1 is None:
            self._eig_a1 = np.linalg.eigh(self.normal()[0])
        return self._eig_a1

    def sequential_risk(self, memory, weighting: RiskWeighting) -> RiskDecomposition:
        reg = _as_regularizer(memory, self.inst.d)
        gamma = _count_gamma(reg, self.inst.d) if self.one_hot else None
        if gamma is not None:
            c1, c2 = self.counts()
            rows = _conditional_sequential_onehot(c1[None], c2[None], self.n2, self.inst, gamma, weighting)
            return _one_row(rows)
        if reg.is_zero:
            return self._memory_free_risk(OCL, weighting)
        return _sequential_risk(self, reg, weighting)

    def joint_risk(self, weighting: RiskWeighting) -> RiskDecomposition:
        if self.one_hot:
            c1, c2 = self.counts()
            return _one_row(_conditional_joint_onehot(c1[None], c2[None], self.inst, weighting))
        return self._memory_free_risk(Joint, weighting)

    def _memory_free_risk(self, kind, weighting: RiskWeighting) -> RiskDecomposition:
        """The Gaussian risk of ``kind`` (OCL: a zero memory, or Joint) at n, kept per (kind, weighting).

        A wide replication with no held designs computes it at every size
        of ``_sizes`` from one draw at the largest; ``Replications`` gives
        one rep's replications at every size the same kept risks.
        """
        risks = self._risks.setdefault((kind, weighting), {})
        if self.n not in risks:
            if _wide(self.inst):
                engine = _conditional_joint_gram if kind is Joint else _conditional_sequential_gram
                sizes = (self.n,) if self._designs is not None else self._sizes
                risks.update(zip(sizes, engine(self._gram_pair(sizes[-1]), self.inst, weighting, sizes)))
            elif kind is Joint:
                risks[self.n] = _joint_risk(self, weighting)
            else:
                risks[self.n] = _sequential_risk(self, zero_regularizer(self.inst.d), weighting)
        return risks[self.n]


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
# through ``inst``, ``n``, ``x1``, ``memory_seed``, ``eigh_a1()``,
# ``counts()``, ``sequential_risk(memory, weighting)`` and
# ``joint_risk(weighting)``.


class _Sequential:
    """Second-phase fit under ``memory(rep)``; one-hot theory under its population analog."""

    def check(self, inst: ProblemInstance, n: int) -> None:
        """Raise if the algorithm cannot run on ``inst`` at ``n``; draws nothing."""

    def memory(self, rep) -> Regularizer:
        """Sigma for ``rep``; a memory that ignores the data is its population analog."""
        return self.population_memory(rep.inst, rep.n)

    def population_memory(self, inst: ProblemInstance, n: int) -> Regularizer | None:
        """The population analog of ``memory``; None where there is none."""
        return None

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

    def check(self, inst: ProblemInstance, n: int) -> None:
        if inst.design is Design.GAUSSIAN:
            _check_normal_matrices(inst)

    def population_memory(self, inst: ProblemInstance, n: int) -> Regularizer:
        return Regularizer(form="diagonal", values=np.full(inst.d, self.gamma))


@dataclass(frozen=True)
class GRCL(_Sequential):
    """Sequential learning with a memory matrix, fixed or built from X1.

    A builder is a plain callable ``(x1, seed) -> Regularizer``, called
    with each replication's task-1 rows and memory seed.  ``TopK``,
    ``Sketch`` and ``Frequency`` are GRCL with a built-in memory, each its
    own algorithm.
    """

    regularizer: Regularizer | None = None
    builder: Callable[[np.ndarray, int], Regularizer] | None = None
    name: ClassVar[str] = "grcl"
    label: ClassVar[str] = "grcl"

    def __post_init__(self):
        if (self.regularizer is None) == (self.builder is None):
            raise DimensionMismatch("provide exactly one of regularizer, builder")
        if self.builder is not None and not callable(self.builder):
            raise DimensionMismatch(f"builder must be a callable (x1, seed), got {type(self.builder).__name__}")

    def check(self, inst: ProblemInstance, n: int) -> None:
        reg = self.regularizer
        if reg is None:
            _check_normal_matrices(inst)  # a builder may return any memory
        elif reg.d != inst.d:
            raise DimensionMismatch(f"Sigma has d={reg.d}, instance has d={inst.d}")
        elif not (reg.is_zero or (reg.is_diagonal and inst.design is Design.ONE_HOT)):
            _check_normal_matrices(inst)

    def memory(self, rep) -> Regularizer:
        if self.builder is None:
            return self.regularizer
        return self.builder(rep.x1, rep.memory_seed)

    def population_memory(self, inst: ProblemInstance, n: int) -> Regularizer | None:
        return self.regularizer


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
class TopK(_Sequential):
    """GRCL with the rank-k truncation of the empirical task-1 covariance."""

    k: int
    name: ClassVar[str] = "grcl"

    @property
    def label(self) -> str:
        return f"grcl:topk:{self.k}"

    def memory(self, rep) -> Regularizer:
        # the eigenpairs of the first-phase fit
        return topk_from_eigh(rep.eigh_a1, rep.n, rep.inst.d, self.k)

    def check(self, inst: ProblemInstance, n: int) -> None:
        check_topk_size(self.k, n, inst.d)
        if self.k:
            _check_normal_matrices(inst)

    def population_memory(self, inst: ProblemInstance, n: int) -> Regularizer:
        return topk_spectrum_regularizer(inst.g, self.k)


@dataclass(frozen=True)
class Sketch(_Sequential):
    """GRCL with the k-row CountSketch of the task-1 data; no population analog."""

    k: int
    name: ClassVar[str] = "grcl"

    def __post_init__(self):
        if self.k < 1:
            raise KTooLarge(f"sketch size must be >= 1, got {self.k}")

    @property
    def label(self) -> str:
        return f"grcl:sketch:{self.k}"

    def memory(self, rep) -> Regularizer:
        return sketch_regularizer(rep.x1, self.k, rep.memory_seed)

    def check(self, inst: ProblemInstance, n: int) -> None:
        _check_normal_matrices(inst)


@dataclass(frozen=True)
class Frequency(_Sequential):
    """GRCL with the observed-atom frequencies of one-hot task-1 data."""

    name: ClassVar[str] = "grcl"
    label: ClassVar[str] = "grcl:freq"

    def memory(self, rep) -> Regularizer:
        return Regularizer(form="diagonal", values=_count_frequencies(rep.counts()[0], rep.n))

    def check(self, inst: ProblemInstance, n: int) -> None:
        if inst.design is not Design.ONE_HOT:
            raise NotOneHotDesign("observed-atom frequencies need a one-hot design")

    def population_memory(self, inst: ProblemInstance, n: int) -> Regularizer:
        return corollary3_regularizer(inst.g, n)


def check_algorithm(algorithm, inst: ProblemInstance, n: int) -> None:
    """Raise if ``algorithm`` cannot run on ``inst`` at ``n``; draws nothing."""
    if n < 1:
        raise DimensionMismatch(f"need n >= 1, got {n}")
    algorithm.check(inst, n)


def _count_risks(algorithm, c1, c2, inst: ProblemInstance, n: int, weighting: RiskWeighting):
    """Biases and variances of ``algorithm`` on one-hot count rows c1, c2 (B x d).

    None where the counts do not determine them.  ``Joint``, ``OCL``,
    ``L2RCL``, a fixed zero or diagonal ``GRCL`` memory and ``Frequency``
    are read from the counts; types match exactly, since a subclass may
    read more of a replication than its counts.
    """
    kind = type(algorithm)
    if kind is Joint:
        return _conditional_joint_onehot(c1, c2, inst, weighting)
    if kind is Frequency:
        gamma = _count_frequencies(c1, n)
    elif kind in (OCL, L2RCL) or (kind is GRCL and algorithm.builder is None):
        gamma = _count_gamma(algorithm.population_memory(inst, n), inst.d)
    else:
        return None
    return None if gamma is None else _conditional_sequential_onehot(c1, c2, n, inst, gamma, weighting)


def _risk_rows(algorithm, inst: ProblemInstance, n: int, weighting: RiskWeighting, size: int,
               blocks, replication: Callable[[int], Replication], unit: str) -> np.ndarray:
    """Biases and variances (2, size) of ``algorithm`` on ``size`` pairs, in order.

    ``blocks`` yields the one-hot pairs' (c1, c2) count rows (B x d), a
    block at a time; where the counts determine the risks they are read
    from the blocks, checked as each RiskDecomposition is, with the rows
    named as ``unit`` in the error.  Otherwise pair ``i`` is read as
    ``replication(i)``, one at a time.
    """
    risks = np.empty((2, size))
    done = 0
    for c1, c2 in blocks:
        rows = _count_risks(algorithm, c1, c2, inst, n, weighting)
        if rows is None:  # the memory reads more than the counts
            break
        rows = np.array(rows)
        end = done + rows.shape[1]
        if not np.all((rows >= 0) & (rows < math.inf)):
            raise NegativeEigenvalue(f"non-finite or negative risk in {unit} {done} to {end - 1}")
        risks[:, done:end] = rows
        done = end
    for i in range(done, size):
        dec = algorithm.risk(replication(i), weighting)
        risks[:, i] = dec.bias, dec.variance
    return risks


# -- Monte Carlo over design replications ---------------------------------------

# Bytes of normal matrices and eigenbases a shared set of replications keeps between rows.
SHARED_BYTES_MAX = 512 * 2**20

# Most draws, and most counts, per task in one block of one-hot replications;
# a block holds one replication at least.
_COUNT_BLOCK = 2**14

# Replications whose generator words are hashed at once, or one block if more:
# a hash costs about 0.1 ms a call at any length, so small blocks share one.
_SEED_RUN = 2**12


class Replications:
    """The ``reps`` replications of (instance, reps, seed) at one sample size n or several.

    Rows of a sweep share their seed streams, and through one
    ``Replications`` the draws too.  It serves one size ``n`` at a time,
    and moving to another drops what the last kept.  On the dense path a
    replication is drawn inside the first row's estimate and its A1, A2
    and eigh(A1) serve every later row.  The first replications are kept,
    each made on first use, so that at most ``memory_bytes`` are held
    (3 d^2 floats per replication); the rest are drawn again for each row.

    The memory-free risks of a Gaussian replication (a zero memory, and
    ``Joint``) are kept as floats per (kind, weighting, rep), so ``ocl``
    and ``grcl:topk:0`` rows share one solve.  A wide one (d >
    NORMAL_PATH_MAX_D) computes them at every size on first request, from
    one draw at the largest: replication r at n is its first n rows.

    One-hot replications are drawn as blocks of count rows, each block
    holding at most ``_COUNT_BLOCK`` draws and counts per task; the block
    drawn last is kept, so a cell of one block is drawn once for all rows.
    Their generator words are hashed for runs of whole blocks, at least
    ``_SEED_RUN`` replications long, and the run hashed last is kept.
    """

    def __init__(self, inst: ProblemInstance, n, reps: int, seed: int,
                 memory_bytes: int = SHARED_BYTES_MAX):
        """``n`` is one sample size or an iterable of the sizes served."""
        if seed < 0:
            raise DimensionMismatch(f"need seed >= 0, got {seed}")
        self.inst, self.reps, self.seed = inst, reps, seed
        self.sizes = tuple(sorted(set(n))) if np.iterable(n) else (n,)
        if not self.sizes:
            raise DimensionMismatch("need at least one sample size")
        dense = inst.design is Design.GAUSSIAN and not _wide(inst)
        self._capacity = min(reps, memory_bytes // (3 * 8 * inst.d * inst.d)) if dense else 0
        self._risks: dict[int, dict] = {}  # rep -> (kind, weighting) -> n -> RiskDecomposition
        self.n = None
        self._select(self.sizes[0])

    def _select(self, n: int) -> None:
        """Serve size ``n``, dropping the kept replications, count block and seed words of the last."""
        if n != self.n:
            self.n = n
            self._kept: dict[int, Replication] = {}
            self._block_rows = max(1, _COUNT_BLOCK // max(n, self.inst.d))
            self._run_rows = self._block_rows * max(1, _SEED_RUN // self._block_rows)
            self._block = (0, None)  # first replication and (c1, c2) rows of the block drawn last
            self._words = (0, None)  # first replication and design-stream words of the run hashed last

    @property
    def one_hot(self) -> bool:
        return self.inst.design is Design.ONE_HOT

    def _count_block(self, start: int) -> tuple[np.ndarray, np.ndarray]:
        """(c1, c2) rows (B x d) of the one-hot block that begins at replication ``start``."""
        first, rows = self._block
        if rows is None or first != start:
            run, words = self._words
            if words is None or not run <= start < run + len(words[0]):
                run = start
                reps = np.arange(run, min(run + self._run_rows, self.reps))
                words = tuple(sampler.pcg64_words(sampler.stream_seeds(self.seed, reps, tag))
                              for tag in (sampler.TASK1_DESIGN, sampler.TASK2_DESIGN))
                self._words = (run, words)
            block = slice(start - run, start - run + self._block_rows)
            rows = tuple(sampler.sample_one_hot_count_block(s, self.n, w[block])
                         for s, w in zip((self.inst.g, self.inst.h), words))
            self._block = (start, rows)
        return rows

    def __getitem__(self, rep: int) -> Replication:
        """Replication ``rep`` as the algorithms read it."""
        replication = self._kept.get(rep)
        if replication is None:
            replication = Replication(self.inst, self.n, self.seed, rep)
            if self.one_hot:
                row = rep % self._block_rows
                replication._counts = tuple(c[row] for c in self._count_block(rep - row))
                return replication
            replication._sizes, replication._risks = self.sizes, self._risks.setdefault(rep, {})
            if rep < self._capacity:
                self._kept[rep] = replication
        return replication


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
    (seed, replication, stream).  Pass the ``replications`` of (inst,
    reps, seed) at sizes that include n to share the draws with other
    estimates.  The result does not change, except that the smaller sizes
    of a wide Gaussian instance (d > NORMAL_PATH_MAX_D) are read from the
    Grams of the largest, which moves them by rounding.  One-hot
    algorithms whose risk the counts determine run a block of replications
    at a time; the result is that of one replication at a time, bit for bit.
    """
    if reps < 2:
        raise DimensionMismatch(f"need reps >= 2, got {reps}")
    check_algorithm(algorithm, inst, n)
    if replications is None:
        replications = Replications(inst, n, reps, seed, memory_bytes=0)
    elif (replications.inst is not inst or n not in replications.sizes
          or (replications.reps, replications.seed) != (reps, seed)):
        raise DimensionMismatch("replications were drawn for another (instance, n, reps, seed)")
    replications._select(n)
    starts = range(0, reps, replications._block_rows) if replications.one_hot else ()
    blocks = (replications._count_block(start) for start in starts)
    bias, variance = _risk_rows(algorithm, inst, n, weighting, reps, blocks, replications.__getitem__,
                                "replications")
    totals = bias + variance
    mean = math.fsum(totals) / reps
    sq = math.fsum((t - mean) ** 2 for t in map(float, totals))
    std_error = math.sqrt(sq / (reps - 1)) / math.sqrt(reps)
    estimate = MonteCarloEstimate(mean=mean, std_error=std_error, replications=reps)
    return estimate, RiskDecomposition(bias=math.fsum(bias) / reps, variance=math.fsum(variance) / reps)

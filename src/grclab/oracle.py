"""Independent exact computations for validating the risk and theory modules.

Small one-hot problems admit exhaustive enumeration: a one-hot dataset is
determined (up to row order, which no estimator here sees) by its count
vector, so the design expectation is a finite multinomial sum over
compositions rather than d^n raw sequences.  Binomial mixed moments are
summed exactly in log space.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, GrclabError, InvalidProbability
from .model import Design, ProblemInstance, RiskDecomposition
from .risk import Replication, RiskWeighting, _risk_rows, check_algorithm

# Most dataset pairs one enumeration may visit.
MAX_STATES = 10**6

# Most counts per task in one block of pairs.
_PAIR_BLOCK = 2**16


def binomial_pmf(n: int, p: float) -> np.ndarray:
    """Exact Binomial(n, p) probabilities for j = 0..n, via log-space terms."""
    if not (0.0 <= p <= 1.0):
        raise InvalidProbability(f"p must be in [0, 1], got {p}")
    if n < 0:
        raise DimensionMismatch(f"n must be nonnegative, got {n}")
    j = np.arange(n + 1)
    if p == 0.0:
        out = np.zeros(n + 1)
        out[0] = 1.0
        return out
    if p == 1.0:
        out = np.zeros(n + 1)
        out[n] = 1.0
        return out
    log_comb = (
        math.lgamma(n + 1)
        - np.array([math.lgamma(v + 1) for v in j])
        - np.array([math.lgamma(n - v + 1) for v in j])
    )
    return np.exp(log_comb + j * math.log(p) + (n - j) * math.log1p(-p))


def binomial_mixed_moment(n: int, p: float, shift: float,
                          inv_power: int, num_power: int) -> float:
    """Exact E[B^num / (B + shift)^inv] for B ~ Binomial(n, p).

    Follows the pseudoinverse convention: the j = 0 term contributes 0
    whenever shift = 0 (for num = 0 this is E[(B^+)^-inv]).
    """
    if inv_power not in (1, 2):
        raise DimensionMismatch(f"inv_power must be 1 or 2, got {inv_power}")
    if num_power not in (0, 1):
        raise DimensionMismatch(f"num_power must be 0 or 1, got {num_power}")
    if shift < 0:
        raise DimensionMismatch(f"shift must be nonnegative, got {shift}")
    pmf = binomial_pmf(n, p)
    terms = []
    for j in range(n + 1):
        den = (j + shift) ** inv_power
        if den == 0.0:
            continue
        num = float(j) ** num_power if num_power else 1.0
        if num == 0.0:
            continue
        terms.append(num / den * pmf[j])
    return math.fsum(terms)


def _compositions(n: int, d: int):
    """All count vectors of length d summing to n, in lexicographic order."""
    if d == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, d - 1):
            yield (first,) + rest


def _log_factorials(n: int) -> np.ndarray:
    return np.array([math.lgamma(v + 1) for v in range(n + 1)])


def _state_count(n: int, probs: np.ndarray) -> int:
    """How many states ``_multinomial_states(n, probs)`` has, counted without making them."""
    k = int(np.count_nonzero(probs))
    return math.comb(n + k - 1, k - 1)


def _multinomial_states(n: int, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Counts (S, d) and probabilities (S,) of the states of a Multinomial(n, probs) draw.

    Zero-mass atoms count 0 in every state.
    """
    support = np.flatnonzero(probs)
    log_probs = [math.log(p) for p in probs[support]]
    lf = _log_factorials(n)
    subs = list(_compositions(n, support.size))
    counts = np.zeros((len(subs), probs.shape[0]))
    counts[:, support] = subs
    state_probs = []
    for sub in subs:
        logp = lf[n]
        for c, log_p in zip(sub, log_probs):
            if c:
                logp += c * log_p - lf[c]
        state_probs.append(math.exp(logp))
    return counts, np.array(state_probs)


def exact_one_hot_expected_excess(
    inst: ProblemInstance,
    n: int,
    algorithm,
    weighting: RiskWeighting = RiskWeighting.JOINT,
) -> RiskDecomposition:
    """Exact design-expectation of the conditional excess risk.

    Every pair of one-hot datasets is visited through its count vectors
    with the exact multinomial probability; its risk integrates the label
    noise analytically.  The pairs, task-1 major, are read as Monte Carlo
    reads its replications: in blocks of count rows where the counts
    determine the risk, else each as a count :class:`grclab.risk.Replication`.
    Only count-determined algorithms are meaningful here (all four
    standard ones are); a memory that reads rows gets the rows of c1 in
    atom order, as on every one-hot replication, and one that draws gets
    the memory seed of stream (seed 0, replication 0) for every pair.
    """
    if inst.design is not Design.ONE_HOT:
        raise DimensionMismatch("exhaustive enumeration needs a one-hot instance")
    check_algorithm(algorithm, inst, n)
    n_pairs = _state_count(n, inst.g.values) * _state_count(n, inst.h.values)
    if n_pairs > MAX_STATES:
        raise BudgetExceeded(f"{n_pairs} dataset pairs exceed the budget of {MAX_STATES}")
    counts1, probs1 = _multinomial_states(n, inst.g.values)
    counts2, probs2 = _multinomial_states(n, inst.h.values)
    probs = np.multiply.outer(probs1, probs2).ravel()
    size2, step = len(counts2), max(1, _PAIR_BLOCK // inst.d)
    pairs = (divmod(np.arange(start, min(start + step, n_pairs)), size2) for start in range(0, n_pairs, step))
    blocks = ((counts1[task1], counts2[task2]) for task1, task2 in pairs)
    bias, variance = _risk_rows(
        algorithm, inst, n, weighting, n_pairs, blocks,
        lambda pair: Replication.of_counts(inst, counts1[pair // size2], counts2[pair % size2]), "pairs",
    )

    total_prob = math.fsum(probs)
    if abs(total_prob - 1.0) > 1e-9:
        raise GrclabError(f"enumeration probabilities sum to {total_prob!r}")
    return RiskDecomposition(
        bias=math.fsum(probs * bias), variance=math.fsum(probs * variance)
    )

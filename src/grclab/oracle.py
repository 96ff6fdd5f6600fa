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
from .risk import Replication, RiskWeighting, check_algorithm

# Most dataset pairs one enumeration may visit.
MAX_STATES = 10**6


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


def _multinomial_states(n: int, probs: np.ndarray):
    """(counts, probability) pairs for a Multinomial(n, probs) draw."""
    d = probs.shape[0]
    lf = _log_factorials(n)
    states = []
    for counts in _compositions(n, d):
        logp = lf[n]
        dead = False
        for c, p in zip(counts, probs):
            if c == 0:
                continue
            if p == 0.0:
                dead = True
                break
            logp += c * math.log(p) - lf[c]
        if dead:
            continue
        states.append((np.array(counts, dtype=float), math.exp(logp)))
    return states


def exact_one_hot_expected_excess(
    inst: ProblemInstance,
    n: int,
    algorithm,
    weighting: RiskWeighting = RiskWeighting.JOINT,
) -> RiskDecomposition:
    """Exact design-expectation of the conditional excess risk.

    Every pair of one-hot datasets is visited through its count vectors
    with the exact multinomial probability, read as a count
    :class:`grclab.risk.Replication`, whose risk integrates the label
    noise analytically.  Only count-determined algorithms are meaningful
    here (all four standard ones are); a builder that reads rows gets
    them in atom order, and one that draws gets the memory seed of
    stream (seed 0, replication 0) for every pair.
    """
    if inst.design is not Design.ONE_HOT:
        raise DimensionMismatch("exhaustive enumeration needs a one-hot instance")
    check_algorithm(algorithm, inst, n)
    states1 = _multinomial_states(n, inst.g.values)
    states2 = _multinomial_states(n, inst.h.values)
    n_pairs = len(states1) * len(states2)
    if n_pairs > MAX_STATES:
        raise BudgetExceeded(f"{n_pairs} dataset pairs exceed the budget of {MAX_STATES}")

    bias_terms, var_terms, prob_terms = [], [], []
    for c1, p1 in states1:
        for c2, p2 in states2:
            dec = algorithm.risk(Replication.of_counts(inst, c1, c2), weighting)
            p = p1 * p2
            prob_terms.append(p)
            bias_terms.append(p * dec.bias)
            var_terms.append(p * dec.variance)

    total_prob = math.fsum(prob_terms)
    if abs(total_prob - 1.0) > 1e-9:
        raise GrclabError(f"enumeration probabilities sum to {total_prob!r}")
    return RiskDecomposition(
        bias=math.fsum(bias_terms), variance=math.fsum(var_terms)
    )

"""Independent exact computations for validating the risk and theory modules.

Small one-hot problems admit exhaustive enumeration: a one-hot dataset is
determined (up to row order, which no estimator here sees) by its count
vector, so the design expectation is a finite multinomial sum over
compositions rather than d^n raw sequences.  Binomial mixed moments are
summed exactly in log space.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, GrclabError, InvalidProbability
from .model import Design, ProblemInstance, RiskDecomposition
from .risk import Replication, RiskWeighting, _checked_count_risks, check_algorithm

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


def _multinomial_states(n: int, probs: np.ndarray):
    """(counts, probability) pairs of a Multinomial(n, probs) draw; zero-mass atoms count 0."""
    support = np.flatnonzero(probs)
    log_probs = [math.log(p) for p in probs[support]]
    lf = _log_factorials(n)
    subs = list(_compositions(n, support.size))
    counts = np.zeros((len(subs), probs.shape[0]))
    counts[:, support] = subs
    states = []
    for row, sub in zip(counts, subs):
        logp = lf[n]
        for c, log_p in zip(sub, log_probs):
            if c:
                logp += c * log_p - lf[c]
        states.append((row, math.exp(logp)))
    return states


def exact_one_hot_expected_excess(
    inst: ProblemInstance,
    n: int,
    algorithm,
    weighting: RiskWeighting = RiskWeighting.JOINT,
) -> RiskDecomposition:
    """Exact design-expectation of the conditional excess risk.

    Every pair of one-hot datasets is visited through its count vectors
    with the exact multinomial probability; its risk integrates the label
    noise analytically.  Pairs are read in blocks by the Monte Carlo
    count engine where the counts determine the risk, else each as a
    count :class:`grclab.risk.Replication`.  Only count-determined
    algorithms are meaningful here (all four standard ones are); a
    memory that reads rows gets them in atom order, and one that draws
    gets the memory seed of stream (seed 0, replication 0) for every pair.
    """
    if inst.design is not Design.ONE_HOT:
        raise DimensionMismatch("exhaustive enumeration needs a one-hot instance")
    check_algorithm(algorithm, inst, n)
    n_pairs = _state_count(n, inst.g.values) * _state_count(n, inst.h.values)
    if n_pairs > MAX_STATES:
        raise BudgetExceeded(f"{n_pairs} dataset pairs exceed the budget of {MAX_STATES}")
    states1 = _multinomial_states(n, inst.g.values)
    states2 = _multinomial_states(n, inst.h.values)
    probs = np.multiply.outer([p for _, p in states1], [p for _, p in states2]).ravel()
    counts1, counts2 = (np.array([c for c, _ in states]) for states in (states1, states2))
    bias, variance = _pair_risks(inst, n, algorithm, weighting, counts1, counts2)

    total_prob = math.fsum(probs)
    if abs(total_prob - 1.0) > 1e-9:
        raise GrclabError(f"enumeration probabilities sum to {total_prob!r}")
    return RiskDecomposition(
        bias=math.fsum(probs * bias), variance=math.fsum(probs * variance)
    )


def _pair_risks(inst, n, algorithm, weighting, counts1, counts2) -> np.ndarray:
    """Biases and variances (2, P) of all pairs of a task-1 and a task-2 count row, task-1 major.

    Algorithms whose risks the counts determine run blocks of pairs
    through the Monte Carlo count engine; any other reads one count
    ``Replication`` per pair.
    """
    size2 = len(counts2)
    pairs = len(counts1) * size2
    step = max(1, _PAIR_BLOCK // inst.d)
    risks = np.empty((2, pairs))
    for start in range(0, pairs, step):
        task1, task2 = divmod(np.arange(start, min(start + step, pairs)), size2)
        rows = _checked_count_risks(algorithm, counts1[task1], counts2[task2], inst, n, weighting,
                                    start, "pairs")
        if rows is None:
            break
        risks[:, start:start + rows.shape[1]] = rows
    else:
        return risks
    for pair, (c1, c2) in enumerate(itertools.product(counts1, counts2)):
        dec = algorithm.risk(Replication.of_counts(inst, c1, c2), weighting)
        risks[:, pair] = dec.bias, dec.variance
    return risks

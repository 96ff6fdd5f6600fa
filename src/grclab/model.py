"""Problem definitions: spectra, instances, head masks, and the P(k) family.

Both task covariances are diagonal in a shared basis, so a covariance is
represented by its eigenvalue sequence alone.  All types are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConfigParse,
    DimensionMismatch,
    InfeasibleEffectiveRank,
    InvalidK,
    NegativeEigenvalue,
    OneHotMassMismatch,
)

ONE_HOT_MASS_TOL = 1e-9

# Cells of a one-hot spectrum's guide table.  A power of two, so that u * G
# is exact and floor(u * G) is the cell of a uniform draw u.
GUIDE_CELLS = 2**10


class Design(enum.Enum):
    """Random-design family for the covariate draws."""

    ONE_HOT = "one_hot"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class Spectrum:
    """Ordered nonnegative eigenvalue sequence of a diagonal covariance.

    ``one_hot`` marks spectra that double as categorical sampling
    probabilities; those must sum to 1 (enforced by :func:`make_spectrum`).
    Construct through :func:`make_spectrum` rather than directly.
    """

    values: np.ndarray
    one_hot: bool = False

    @property
    def d(self) -> int:
        return self.values.shape[0]

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        self.values.setflags(write=False)

    @cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative sums of ``values``: the inverse-CDF table of a one-hot draw."""
        cdf = np.cumsum(self.values)
        cdf.setflags(write=False)
        return cdf

    @cached_property
    def last_atom(self) -> int:
        """Index of the last entry with positive mass."""
        return int(np.flatnonzero(self.values)[-1])

    def search(self, u: np.ndarray) -> np.ndarray:
        """Atom of each draw in ``u`` by inverse CDF, a search of ``cdf``.

        A draw at or beyond the rounded total mass goes to the last atom
        with positive mass, never to a trailing zero-mass atom.
        """
        idx = np.searchsorted(self.cdf, u, side="right")
        return np.minimum(idx, self.last_atom, out=idx)

    @cached_property
    def guide(self) -> np.ndarray | None:
        """Guide table of the inverse CDF over ``GUIDE_CELLS`` cells of [0, 1).

        Entry k is ``search(u)`` at both ends u = k / G and (k + 1) / G of
        cell k where the two agree, and -1 where they differ (the cell is
        split).  The search is monotone in u, so every draw of an unsplit
        cell has the cell's atom.  None where more than half the cells are
        split (wide spectra): the table then spares too few searches to pay
        for its own lookups.
        """
        atoms = self.search(np.arange(GUIDE_CELLS + 1) / GUIDE_CELLS)
        table = np.where(atoms[:-1] == atoms[1:], atoms[:-1], -1)
        if np.count_nonzero(table < 0) > GUIDE_CELLS // 2:
            return None
        table.setflags(write=False)
        return table


def make_spectrum(values, one_hot: bool = False) -> Spectrum:
    """Validate an eigenvalue sequence and build a :class:`Spectrum`.

    For ``one_hot=True`` the entries must sum to 1 within 1e-9; they are
    then renormalized by their exact sum so downstream mass checks at
    1e-12 hold.

    Raises
    ------
    NegativeEigenvalue
        Some entry is negative or non-finite.
    OneHotMassMismatch
        ``one_hot`` is set but the mass deviates from 1 by more than 1e-9.
    """
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise NegativeEigenvalue("spectrum entries must be finite and nonempty")
    if np.any(arr < 0):
        raise NegativeEigenvalue(f"negative eigenvalue: min={arr.min()}")
    if one_hot:
        mass = math.fsum(arr.tolist())
        if abs(mass - 1.0) > ONE_HOT_MASS_TOL:
            raise OneHotMassMismatch(f"one-hot spectrum sums to {mass!r}, not 1")
        arr = arr / mass
    return Spectrum(values=arr, one_hot=one_hot)


@dataclass(frozen=True)
class ProblemInstance:
    """A two-task problem: shared optimum, noise level, and both covariances."""

    w_star: np.ndarray
    sigma2: float
    g: Spectrum
    h: Spectrum
    design: Design

    def __post_init__(self):
        object.__setattr__(self, "w_star", np.asarray(self.w_star, dtype=float))
        self.w_star.setflags(write=False)
        d = self.w_star.shape[0]
        if self.g.d != d or self.h.d != d:
            raise DimensionMismatch(
                f"w_star has d={d} but spectra have d={self.g.d}, {self.h.d}"
            )
        if not np.all(np.isfinite(self.w_star)):
            raise DimensionMismatch("w_star entries must be finite")
        if not 0 <= self.sigma2 < math.inf:
            raise NegativeEigenvalue(f"sigma2 must be finite and nonnegative, got {self.sigma2}")
        if self.design is Design.ONE_HOT and not (self.g.one_hot and self.h.one_hot):
            raise OneHotMassMismatch(
                "one-hot instances need one-hot spectra for both tasks"
            )

    @property
    def d(self) -> int:
        return self.w_star.shape[0]


@dataclass(frozen=True)
class RiskDecomposition:
    """Excess risk split into a signal (bias) and a noise (variance) part."""

    bias: float
    variance: float
    total: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.total is None:
            object.__setattr__(self, "total", self.bias + self.variance)
        if not (0 <= self.bias < math.inf and 0 <= self.variance < math.inf):
            raise NegativeEigenvalue(
                f"bias and variance must be finite and nonnegative, got {self.bias}, {self.variance}"
            )
        scale = max(abs(self.total), self.bias + self.variance, 1e-300)
        if not abs(self.total - (self.bias + self.variance)) <= 1e-10 * scale:
            raise DimensionMismatch("total must equal bias + variance")


def make_problem_pk(k: int, d: int, design: Design = Design.GAUSSIAN) -> ProblemInstance:
    """Build the geometric benchmark instance P(k).

    Task-1 eigenvalues decay as 2^-(i-1); task 2 reverses the first k of
    them and keeps the tail.  The optimum is w*_i = 1/i and sigma2 = 1.
    Under a one-hot design both spectra are renormalized by their (equal)
    sums so they are valid sampling distributions.
    """
    if not (1 <= k <= d):
        raise InvalidK(f"need 1 <= k <= d, got k={k}, d={d}")
    mu = 0.5 ** np.arange(d, dtype=float)
    lam = mu.copy()
    lam[:k] = mu[:k][::-1]
    w_star = 1.0 / np.arange(1, d + 1, dtype=float)
    one_hot = design is Design.ONE_HOT
    if one_hot:
        mu = mu / mu.sum()
        lam = lam / lam.sum()
    return ProblemInstance(
        w_star=w_star,
        sigma2=1.0,
        g=make_spectrum(mu, one_hot=one_hot),
        h=make_spectrum(lam, one_hot=one_hot),
        design=design,
    )


def one_hot_index_sets(s: Spectrum, n: int) -> np.ndarray:
    """Boolean mask of the head coordinates {i : s_i >= 1/n} (non-strict threshold)."""
    if n < 1:
        raise InvalidK(f"sample size must be >= 1, got {n}")
    return s.values >= 1.0 / n


def effective_rank(s: Spectrum, exclude: np.ndarray | None = None) -> float:
    """Trace over operator norm of the spectrum outside the boolean mask ``exclude``.

    Returns 0 when the complement is empty or all-zero.
    """
    tail = s.values
    if exclude is not None:
        exclude = np.asarray(exclude, dtype=bool)
        if exclude.shape != (s.d,):
            raise DimensionMismatch(f"exclude mask has shape {exclude.shape}, spectrum has d={s.d}")
        tail = tail[~exclude]
    if tail.size == 0:
        return 0.0
    top = tail.max()
    if top <= 0:
        return 0.0
    return float(math.fsum(tail.tolist()) / top)


def gaussian_index_set(s: Spectrum, n: int, b2: float) -> np.ndarray:
    """Boolean mask of the smallest strict-threshold head K with tail effective rank >= b2*n.

    Candidate heads are K_t = {i : s_i > t} for t at each distinct
    eigenvalue, scanned from the largest threshold down; the first
    candidate whose complement satisfies r >= b2*n is returned (this
    realizes the maximal feasible threshold).  K = empty is a legal
    answer when the full spectrum is already flat enough.

    Raises
    ------
    InfeasibleEffectiveRank
        No candidate, including excluding nothing, reaches b2*n.
    """
    if n < 1:
        raise InvalidK(f"sample size must be >= 1, got {n}")
    if b2 <= 0:
        raise InvalidK(f"b2 must be positive, got {b2}")
    target = b2 * n
    order = np.argsort(-s.values, kind="stable")
    sorted_vals = s.values[order]
    # Suffix data for each candidate boundary: candidate K = first `c` sorted
    # coordinates, where `c` counts entries strictly above each distinct value.
    distinct = np.unique(sorted_vals)[::-1]
    for t in np.concatenate(([np.inf], distinct)):
        head = int(np.count_nonzero(sorted_vals > t))
        tail = sorted_vals[head:]
        if tail.size == 0:
            continue
        top = tail[0]
        if top <= 0:
            continue
        if math.fsum(tail.tolist()) / top >= target:
            mask = np.zeros(s.d, dtype=bool)
            mask[order[:head]] = True
            return mask
    raise InfeasibleEffectiveRank(
        f"no threshold achieves tail effective rank >= {target}"
    )


# -- plain-text serialization -------------------------------------------------

def _fmt_list(arr) -> str:
    return ",".join(repr(float(v)) for v in arr)


def instance_to_text(inst: ProblemInstance) -> str:
    """Serialize an instance to the key=value exchange format."""
    lines = [
        f"d={inst.d}",
        f"sigma2={inst.sigma2!r}",
        f"g={_fmt_list(inst.g.values)}",
        f"h={_fmt_list(inst.h.values)}",
        f"w_star={_fmt_list(inst.w_star)}",
        f"design={inst.design.value}",
    ]
    return "\n".join(lines) + "\n"


_INSTANCE_KEYS = ("d", "sigma2", "g", "h", "w_star", "design")


def read_key_values(text: str, source: str, keys) -> dict[str, str]:
    """The ``key = value`` lines of ``text`` as a dict, each key one of ``keys``.

    ``#`` starts a comment anywhere on a line, so no value can hold one;
    blank lines are skipped.  A line without ``=``, an unknown key or a
    key given twice raises :class:`ConfigParse` as
    ``<source>:<line>: <problem>``.
    """
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            problem = "expected key=value"
        elif key not in keys:
            problem = f"unknown key {key!r}"
        elif key in fields:
            problem = f"key {key!r} given twice"
        else:
            fields[key] = value
            continue
        raise ConfigParse(f"{source}:{lineno}: {problem}")
    return fields


def instance_from_text(text: str) -> ProblemInstance:
    """Parse the key=value exchange format back into an instance.

    Text that does not parse raises :class:`ConfigParse`, with the line
    where there is one (``instance:<line>: <problem>``).  Values that
    parse are then checked by :func:`make_spectrum` and
    :class:`ProblemInstance`, which raise their own errors.
    """
    fields = read_key_values(text, "instance", _INSTANCE_KEYS)
    try:
        d = int(fields["d"])
        sigma2 = float(fields["sigma2"])
        design = Design(fields["design"])
        g, h, w_star = (np.array([float(v) for v in fields[key].split(",")])
                        for key in ("g", "h", "w_star"))
    except KeyError as exc:
        raise ConfigParse(f"instance: missing key {exc}") from exc
    except ValueError as exc:
        raise ConfigParse(f"instance: {exc}") from exc
    if not (len(g) == len(h) == len(w_star) == d):
        raise ConfigParse(
            f"instance: g, h and w_star have {len(g)}, {len(h)}, {len(w_star)} entries, not d={d}"
        )
    one_hot = design is Design.ONE_HOT
    return ProblemInstance(
        w_star=w_star,
        sigma2=sigma2,
        g=make_spectrum(g, one_hot=one_hot),
        h=make_spectrum(h, one_hot=one_hot),
        design=design,
    )

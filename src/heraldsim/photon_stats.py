"""Photon-number distributions and number-resolved statistics.

Everything in this module is diagonal in the Fock basis: a state is just a
truncated probability vector over photon number n = 0..n_max.  The
second-order correlation at zero delay is computed directly from those
number statistics,

    g2(0) = sum_n n(n-1) P(n) / (sum_n n P(n))**2,

which is 0 for a single photon, 0.5 for a two-photon Fock state, 1 for
Poissonian and 2 for thermal light.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .detector_model import _MAX_ENTRIES
from .errors import EmptyEnsembleError, ParameterError, TruncationError, UndefinedStatisticError

#: Upper bound on the probability mass allowed beyond the truncation window
#: when building a distribution from an analytic family.
TAIL_MASS_TOL = 1e-9

#: Probability vectors must sum to one within this absolute tolerance.
NORMALIZATION_TOL = 1e-12

_LOG_TINY = math.log(sys.float_info.min)  # smallest normal float, about -708.4
_MAX_POISSON_N = 100_000  # unreachable for any sane mean


@dataclass(frozen=True, eq=False)
class PhotonNumberDistribution:
    """Probability per photon number n = 0..n_max.

    The constructor validates the invariants (entries in [0, 1], total mass 1
    within ``NORMALIZATION_TOL``); use :func:`renormalize` to build an
    instance from an unnormalized weight vector.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ParameterError("probs must be a non-empty 1-D vector")
        if np.any(~np.isfinite(probs)):
            raise ParameterError("probs must be finite")
        if np.any(probs < -NORMALIZATION_TOL) or np.any(probs > 1 + NORMALIZATION_TOL):
            raise ParameterError("probabilities must lie in [0, 1]")
        total = float(probs.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ParameterError(
                f"probabilities sum to {total!r}, expected 1 within {NORMALIZATION_TOL}; "
                "use renormalize() for raw weights"
            )
        probs = np.clip(probs, 0.0, 1.0)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @property
    def n_max(self) -> int:
        return self.probs.size - 1


def as_distribution(dist) -> PhotonNumberDistribution:
    """Coerce an array-like of weights into a PhotonNumberDistribution."""
    if isinstance(dist, PhotonNumberDistribution):
        return dist
    return renormalize(dist)


def renormalize(weights) -> PhotonNumberDistribution:
    """Divide a non-negative weight vector by its total mass.

    Raises:
        EmptyEnsembleError: if the total mass is zero (or numerically so).
        ParameterError: on negative or non-finite entries.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ParameterError("weights must be a non-empty 1-D vector")
    if np.any(~np.isfinite(w)) or np.any(w < 0):
        raise ParameterError("weights must be finite and non-negative")
    total = w.sum()
    if total <= 0.0:
        raise EmptyEnsembleError("cannot renormalize: total probability mass is zero")
    return PhotonNumberDistribution(w / total)


def _poisson_start(mean: float) -> tuple[int, float]:
    """The first n whose term exp(-mean) * mean**n / n! is a normal float, and that term.

    Up to a mean of about 708 this is n = 0 and exp(-mean).  For larger means
    exp(-mean) underflows, so the terms are taken in log space with
    math.lgamma until one reaches the normal range; the terms before it are
    below 2.3e-308 and count as 0.
    """
    n = 0
    log_term = -mean
    while log_term < _LOG_TINY:
        n += 1
        if n > _MAX_POISSON_N:
            raise ParameterError(f"no adequate truncation found for mean={mean!r}")
        log_term = n * math.log(mean) - mean - math.lgamma(n + 1)
    return n, math.exp(log_term)


def required_n_max(mean: float, family: str = "poissonian") -> int:
    """Smallest cutoff whose truncated tail mass is below ``TAIL_MASS_TOL``."""
    if not math.isfinite(mean) or mean < 0:
        raise ParameterError(f"mean photon number must be finite and >= 0, got {mean!r}")
    if mean == 0.0:
        return 0
    if family == "poissonian":
        n, term = _poisson_start(mean)
        cum = term
        while 1.0 - cum >= TAIL_MASS_TOL:
            n += 1
            term *= mean / n
            cum += term
            if n > _MAX_POISSON_N:
                raise ParameterError(f"no adequate truncation found for mean={mean!r}")
        return n
    if family == "thermal":
        # tail mass beyond n_max is (mean / (1 + mean))**(n_max + 1)
        r = mean / (1.0 + mean)
        if r == 1.0:  # 1 + mean rounds to mean: no cutoff holds the tail
            raise ParameterError(f"no adequate truncation found for mean={mean!r}")
        n = max(0, math.ceil(math.log(TAIL_MASS_TOL) / math.log(r)) - 1)
        while r ** (n + 1) >= TAIL_MASS_TOL:  # boundary round-off
            n += 1
        return n
    raise ParameterError(f"unknown photon-number family {family!r}")


def _check_tail(mean: float, n_max: int, tail_mass: float, family: str):
    if tail_mass >= TAIL_MASS_TOL:
        needed = required_n_max(mean, family)
        raise TruncationError(
            f"truncated tail mass {tail_mass:.3e} at n_max={n_max} exceeds {TAIL_MASS_TOL:.1e} "
            f"for {family} mean={mean!r}; use n_max >= {needed}",
            required_n_max=needed,
        )


def _checked_n_max(mean: float, n_max: int | None, family: str) -> int:
    """The cutoff, ``required_n_max`` by default, if its table can be allocated."""
    if n_max is None:
        n_max = required_n_max(mean, family)
    if n_max < 0:
        raise ParameterError(f"n_max must be >= 0, got {n_max}")
    if n_max + 1 > _MAX_ENTRIES:
        raise ParameterError(f"a distribution of {n_max + 1} entries cannot be allocated (the limit is {_MAX_ENTRIES})")
    return n_max


def poissonian(mean: float, n_max: int | None = None) -> PhotonNumberDistribution:
    """Poissonian photon-number distribution, renormalized over 0..n_max.

    P(n) = exp(-mean) mean**n / n! before renormalization.  The cutoff must
    leave less than ``TAIL_MASS_TOL`` of the untruncated mass outside the
    window; otherwise a TruncationError names an adequate n_max.
    """
    if not math.isfinite(mean) or mean < 0:
        raise ParameterError(f"mean photon number must be finite and >= 0, got {mean!r}")
    n_max = _checked_n_max(mean, n_max, "poissonian")
    probs = np.zeros(n_max + 1)
    start, term = _poisson_start(mean)
    if start <= n_max:
        probs[start] = term
    for n in range(start + 1, n_max + 1):
        probs[n] = probs[n - 1] * mean / n
    _check_tail(mean, n_max, 1.0 - probs.sum(), "poissonian")
    return renormalize(probs)


def thermal(mean: float, n_max: int | None = None) -> PhotonNumberDistribution:
    """Thermal (geometric) photon-number distribution over 0..n_max.

    P(n) = mean**n / (1 + mean)**(n + 1) before renormalization.  The cutoff
    obeys the same ``TAIL_MASS_TOL`` rule as :func:`poissonian`.
    """
    if not math.isfinite(mean) or mean < 0:
        raise ParameterError(f"mean photon number must be finite and >= 0, got {mean!r}")
    n_max = _checked_n_max(mean, n_max, "thermal")
    n = np.arange(n_max + 1)
    ratio = mean / (1.0 + mean)
    probs = ratio**n / (1.0 + mean)
    _check_tail(mean, n_max, ratio ** (n_max + 1), "thermal")
    return renormalize(probs)


#: The analytic source families by name: each maps (mean, n_max) to a distribution.
FAMILIES = {"poissonian": poissonian, "thermal": thermal}


def g2_zero(dist) -> float:
    """Second-order correlation at zero delay from number statistics.

    Raises:
        UndefinedStatisticError: if the mean photon number is zero, where the
            normalization of g2(0) is undefined.
    """
    d = as_distribution(dist)
    n = np.arange(d.probs.size)
    mean = float(n @ d.probs)
    if mean <= 0.0:
        raise UndefinedStatisticError("g2(0) is undefined for a zero-mean photon-number distribution")
    pairs = float((n * (n - 1)) @ d.probs)
    # successive division: mean**2 can underflow for denormal means
    return pairs / mean / mean

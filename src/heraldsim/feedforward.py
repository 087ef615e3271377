"""Herald-conditioned signal statistics.

Signal and idler photon numbers are taken as perfectly correlated, so
conditioning the signal mode on a click outcome of the idler detector is a
reweighting of the source distribution:

    P'(n)  proportional to  P(n) * sum_{k in selection} p(n, k),

renormalized over the accepted mass.  The pre-normalization mass is the
acceptance probability of the selection and is returned alongside P'.

This module deliberately ignores the modulator's finite extinction: leakage
of unheralded light exists only in the event-level simulation, mirroring how
the measured distributions are post-selected on heralds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector_model import DetectionMatrix
from .errors import EmptyEnsembleError, InconsistentRatesError, ParameterError
from .photon_stats import FAMILIES, PhotonNumberDistribution, as_distribution, g2_zero

#: Default sweep grid for heralded g2(0) vs source brightness.
DEFAULT_MEAN_GRID_POINTS = 30
DEFAULT_MEAN_GRID_RANGE = (1e-4, 1.0)


@dataclass(frozen=True)
class HeraldSelection:
    """A set of accepted click counts, e.g. {1}, {2}, or {3, 4} for '3 or more'."""

    accepted_clicks: frozenset
    label: str = ""

    def __post_init__(self):
        clicks = frozenset(int(k) for k in self.accepted_clicks)
        if not clicks:
            raise ParameterError("herald selection must accept at least one click outcome")
        if any(k < 0 for k in clicks):
            raise ParameterError("click outcomes are non-negative")
        object.__setattr__(self, "accepted_clicks", clicks)
        if not self.label:
            object.__setattr__(self, "label", ",".join(str(k) for k in sorted(clicks)))

    @classmethod
    def exactly(cls, k: int) -> "HeraldSelection":
        return cls(frozenset({k}), label=str(k))

    @classmethod
    def at_least(cls, k: int, n_pixels: int) -> "HeraldSelection":
        return cls(frozenset(range(k, n_pixels + 1)), label=f"{k}+")

    @classmethod
    def parse(cls, text: str, n_pixels: int) -> "HeraldSelection":
        """Parse '2', '1,2', '2+' or 'any' into a selection."""
        raw = text.strip().lower()
        try:
            if raw == "any":
                return cls.at_least(1, n_pixels)
            if raw.endswith("+"):
                return cls.at_least(int(raw[:-1]), n_pixels)
            return cls(frozenset(int(tok) for tok in raw.split(",")), label=raw)
        except ValueError as exc:
            if isinstance(exc, ParameterError):
                raise
            raise ParameterError(f"cannot parse herald selection {text!r}") from exc


def heralded_distribution(
    source, det: DetectionMatrix, selection: HeraldSelection
) -> tuple[PhotonNumberDistribution, float]:
    """Condition the signal mode on the idler click outcome.

    Returns:
        (heralded distribution, acceptance probability).  The acceptance
        probability is the pre-normalization mass, i.e. the probability per
        pulse that the selection fires.

    Raises:
        EmptyEnsembleError: if the selection has zero acceptance mass.
    """
    src = as_distribution(source)
    if src.probs.size != det.entries.shape[0]:
        raise ParameterError(
            f"source cutoff ({src.probs.size - 1}) must equal the detection matrix's "
            f"incident dimension ({det.entries.shape[0] - 1})"
        )
    clicks = sorted(selection.accepted_clicks)
    if clicks[-1] > det.n_clicks:
        raise ParameterError(
            f"selection {selection.label!r} exceeds the detector's {det.n_clicks}-click range"
        )
    herald_prob = det.entries[:, clicks].sum(axis=1)
    weights = src.probs * herald_prob
    acceptance = float(weights.sum())
    if acceptance <= 0.0:
        raise EmptyEnsembleError(
            f"selection {selection.label!r} has zero acceptance for this source"
        )
    return PhotonNumberDistribution(weights / acceptance), acceptance


def default_mean_grid(
    n_points: int = DEFAULT_MEAN_GRID_POINTS,
    low: float = DEFAULT_MEAN_GRID_RANGE[0],
    high: float = DEFAULT_MEAN_GRID_RANGE[1],
) -> np.ndarray:
    """Log-spaced grid of mean photon numbers for sweeps."""
    if n_points < 1:
        raise ParameterError(f"n_points must be >= 1, got {n_points}")
    if not (0 < low < high):
        raise ParameterError("grid bounds must satisfy 0 < low < high")
    return np.geomspace(low, high, n_points)


def g2_sweep(det: DetectionMatrix, selection: HeraldSelection, means, family: str = "poissonian"):
    """Heralded g2(0) and acceptance for each mean photon number.

    Returns a list of (mean, g2, acceptance) tuples.  The source family is a
    key of ``photon_stats.FAMILIES``; each source is truncated at the detection
    matrix's incident dimension, which must satisfy the tail-mass policy for
    the largest mean requested.
    """
    means = np.asarray(means, dtype=float)
    if means.size == 0 or np.any(means <= 0):
        raise ParameterError("means must be positive")
    if np.any(np.diff(means) < 0):
        raise ParameterError("means must be sorted ascending")
    if family not in FAMILIES:
        raise ParameterError(f"unknown photon-number family {family!r}")
    out = []
    for mu in means:
        source = FAMILIES[family](float(mu), det.n_max)
        heralded, acceptance = heralded_distribution(source, det, selection)
        out.append((float(mu), g2_zero(heralded), acceptance))
    return out


def genuine_two_click_fraction(single_rate: float, double_rate: float, crosstalk: float) -> float:
    """Fraction of observed two-click heralds that are genuine two-photon events.

    The crosstalk-induced double rate is inferred from the observed
    (post-crosstalk) single rate: a detected single survives crosstalk with
    probability (1 - eps), so the underlying single-click rate is
    single_rate / (1 - eps) and a fraction eps of it leaks into doubles.

    Raises:
        InconsistentRatesError: if the inferred crosstalk doubles exceed the
            observed double rate.
    """
    if single_rate <= 0 or double_rate <= 0:
        raise ParameterError("count rates must be positive")
    if not 0.0 <= crosstalk < 1.0:
        raise ParameterError(f"crosstalk probability must lie in [0, 1), got {crosstalk!r}")
    crosstalk_doubles = single_rate * crosstalk / (1.0 - crosstalk)
    if crosstalk_doubles > double_rate:
        raise InconsistentRatesError(
            f"inferred crosstalk double rate {crosstalk_doubles:.1f}/s exceeds the observed "
            f"double rate {double_rate:.1f}/s"
        )
    return float(np.clip(1.0 - crosstalk_doubles / double_rate, 0.0, 1.0))


def write_sweep_csv(rows, selection: HeraldSelection, family: str, path):
    """Emit sweep results as CSV: mean, g2, acceptance, selection_label, family."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("mean,g2,acceptance,selection_label,family\n")
        for mean, g2, acceptance in rows:
            fh.write(f"{mean:.12g},{g2:.12g},{acceptance:.12g},{selection.label},{family}\n")

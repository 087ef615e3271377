"""Amplitude-multiplexed pulse-height discrimination.

The summed output of the pixel array is modeled as a pulse height linear in
the number of simultaneously fired pixels plus additive Gaussian noise.  A
trigger window (two thresholds feeding a coincidence gate) accepts a pulse
when its height falls in [low, high).  Sweeping the thresholds over a
click-number-resolved source produces count-rate plateaus, one per occupied
click level, which is how the photon-number outputs are identified on the
real discriminator.

One function, ``_at_least``, gives P(height >= t) for a click level; the
threshold sweep takes each window probability as
P(height >= low) - P(height >= high).

The per-click amplitudes and the noise floor of the physical device are not
published; they are free parameters here.  The default noise of 5% of the
unit amplitude is a modeling choice that yields clearly separated plateaus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector_model import DetectionMatrix
from .errors import ParameterError
from .photon_stats import as_distribution

#: What ``count_plateaus`` calls a plateau; see its docstring.
PLATEAU_REL_FLATNESS = 1e-3
PLATEAU_MIN_RUN = 3
PLATEAU_LEVEL_FLOOR = 1e-6

#: Most threshold pairs a surface may hold: 8 MiB of rates, and a sweep takes
#: a few times that in temporaries.
_MAX_SURFACE = 1 << 20


@dataclass(frozen=True)
class AmplitudeModel:
    """Pulse height = baseline + clicks * unit_amplitude + Gaussian(0, noise_sigma)."""

    unit_amplitude: float
    noise_sigma: float
    baseline: float = 0.0

    def __post_init__(self):
        for name in ("unit_amplitude", "noise_sigma", "baseline"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.unit_amplitude > 0:
            raise ParameterError(f"unit_amplitude must be > 0, got {self.unit_amplitude!r}")
        if self.noise_sigma < 0:
            raise ParameterError(f"noise_sigma must be >= 0, got {self.noise_sigma!r}")

    def level(self, clicks: int) -> float:
        return self.baseline + clicks * self.unit_amplitude


def _at_least(thresholds, level: float, sigma: float) -> np.ndarray:
    """P(height >= t) for each threshold t, of a pulse at ``level`` with Gaussian noise ``sigma``.

    erfc gives the upper tail to full relative precision, where 1 - Phi(z) cancels past z of about 8.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    if sigma == 0.0:
        return (level >= thresholds).astype(float)
    # Python floats overflow to an infinite z without a warning, and erfc takes it
    return np.array([0.5 * math.erfc((t - level) / (sigma * math.sqrt(2.0))) for t in thresholds.tolist()])


def click_number_rates(source, det: DetectionMatrix) -> np.ndarray:
    """Per-pulse probability of each click outcome, Q(k) = sum_n P(n) p(n, k)."""
    src = as_distribution(source)
    if src.probs.size != det.entries.shape[0]:
        raise ParameterError("source cutoff must equal the detection matrix's incident dimension")
    return src.probs @ det.entries


def threshold_sweep(source, det: DetectionMatrix, model: AmplitudeModel, rep_rate: float, low_grid, high_grid) -> np.ndarray:
    """Count-rate surface over a grid of low and high thresholds.

    surface[l][h] = rep_rate * sum_k Q(k) * P(low_l <= height_k < high_h).

    The surface is monotone non-increasing in the low threshold and
    non-decreasing in the high threshold.
    """
    if not (math.isfinite(rep_rate) and rep_rate > 0):
        raise ParameterError(f"rep_rate must be finite and > 0, got {rep_rate!r}")
    low_grid = np.asarray(low_grid, dtype=float)
    high_grid = np.asarray(high_grid, dtype=float)
    if low_grid.ndim != 1 or high_grid.ndim != 1 or low_grid.size == 0 or high_grid.size == 0:
        raise ParameterError("threshold grids must be non-empty 1-D vectors")
    if low_grid.size * high_grid.size > _MAX_SURFACE:
        raise ParameterError(f"a surface of {low_grid.size} x {high_grid.size} thresholds exceeds {_MAX_SURFACE}")
    if np.isnan(low_grid).any() or np.isnan(high_grid).any():
        raise ParameterError("threshold grids must not hold NaN")
    if np.any(np.diff(low_grid) < 0) or np.any(np.diff(high_grid) < 0):
        raise ParameterError("threshold grids must be monotone ascending")
    q = click_number_rates(source, det)
    surface = np.zeros((low_grid.size, high_grid.size))
    for k, qk in enumerate(q):
        if qk == 0.0:
            continue
        level = model.level(k)
        # P(low <= height < high) = P(height >= low) - P(height >= high)
        surface += rep_rate * qk * (
            _at_least(low_grid, level, model.noise_sigma)[:, None]
            - _at_least(high_grid, level, model.noise_sigma)[None, :]
        )
    return np.clip(surface, 0.0, None)


def count_plateaus(rates: np.ndarray) -> int:
    """Number of flat plateaus in a 1-D threshold sweep.

    A plateau is a maximal run of at least ``PLATEAU_MIN_RUN`` consecutive
    grid points whose step-to-step change is below ``PLATEAU_REL_FLATNESS``
    of the sweep maximum and whose level stays above ``PLATEAU_LEVEL_FLOOR``
    of the maximum (so the empty region beyond the highest occupied
    amplitude does not count as a plateau).
    """
    rates = np.asarray(rates, dtype=float)
    if rates.size < PLATEAU_MIN_RUN:
        return 0
    scale = rates.max()
    if scale <= 0:
        return 0
    flat = np.abs(np.diff(rates)) < PLATEAU_REL_FLATNESS * scale
    plateaus = 0
    run = 0
    for i, is_flat in enumerate(flat):
        if is_flat and rates[i] > PLATEAU_LEVEL_FLOOR * scale:
            run += 1
        else:
            if run >= PLATEAU_MIN_RUN - 1:
                plateaus += 1
            run = 0
    if run >= PLATEAU_MIN_RUN - 1:
        plateaus += 1
    return plateaus


def write_surface_csv(low_grid, high_grid, surface: np.ndarray, path):
    """Emit the count-rate surface as CSV rows (low, high, rate_hz)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("low,high,rate_hz\n")
        for i, lo in enumerate(low_grid):
            for j, hi in enumerate(high_grid):
                fh.write(f"{lo:.12g},{hi:.12g},{surface[i, j]:.12g}\n")

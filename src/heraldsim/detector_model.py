"""End-to-end detection model of the 4-pixel series click detector.

Each created photon independently reaches the array with probability T
(the source-to-detector transmission) and lands on one of its N pixels,
chosen uniformly.  The click count after n photons therefore follows the
recurrence, from n - 1 photons with k pixels fired, of three outcomes for
the extra photon:

* lost, with probability 1 - T,
* on one of the k fired pixels, with probability T k / N, or
* on an unfired pixel, which fires, with probability T (N - k) / N.

Every term is positive, so each row stays normalized to machine precision
at any photon number and pixel count.  Pixel crosstalk then perturbs the
click count: each outcome k = 1..N-1 loses a fraction eps of its
probability to the outcome k + 1 (a single absorbed photon firing a
neighbouring pixel inflates the click count by one; the top outcome can
receive but cannot donate).

With transmission 0.7 and crosstalk 0.025 the matrix reproduces the
published response table of the 4-pixel device to its printed precision;
those values are the package's reference configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

#: Row sums of detection matrices must be 1 within this tolerance.
ROW_SUM_TOL = 1e-10

#: Reference configuration reproducing the published 4-pixel response table.
REFERENCE_TRANSMISSION = 0.7
REFERENCE_N_PIXELS = 4
REFERENCE_CROSSTALK = 0.025

_MAX_ENTRIES = 1 << 24  # 128 MiB of float64 entries


@dataclass(frozen=True, eq=False)
class DetectionMatrix:
    """Detector response; entries[n][k] = P(k measured clicks | n created photons)."""

    entries: np.ndarray

    def __post_init__(self):
        entries = self.entries
        if entries.ndim != 2:
            raise ParameterError("detection matrix must be a 2-D matrix")
        if np.any(entries < -ROW_SUM_TOL) or np.any(~np.isfinite(entries)):
            raise ParameterError("detection matrix entries must be finite probabilities")
        bad = np.abs(entries.sum(axis=1) - 1.0) > ROW_SUM_TOL
        if np.any(bad):
            raise ParameterError(
                f"detection matrix rows {np.nonzero(bad)[0].tolist()} do not sum to 1 within {ROW_SUM_TOL}"
            )
        entries.flags.writeable = False

    @property
    def n_max(self) -> int:
        return self.entries.shape[0] - 1

    @property
    def n_clicks(self) -> int:
        return self.entries.shape[1] - 1


def detection_matrix(transmission: float, n_pixels: int, crosstalk: float, n_max: int) -> DetectionMatrix:
    """P(k measured clicks | n created photons) for n = 0..n_max and k = 0..n_pixels."""
    if not 0.0 <= transmission <= 1.0:
        raise ParameterError(f"transmission must lie in [0, 1], got {transmission!r}")
    if n_pixels < 1:
        raise ParameterError(f"n_pixels must be >= 1, got {n_pixels}")
    if n_max < 0:
        raise ParameterError(f"n_max must be >= 0, got {n_max}")
    if not 0.0 <= crosstalk < 1.0:
        raise ParameterError(f"crosstalk probability must lie in [0, 1), got {crosstalk!r}")
    size = (n_max + 1) * (n_pixels + 1)
    if size > _MAX_ENTRIES:
        raise ParameterError(f"a detection matrix of {size} entries cannot be allocated (the limit is {_MAX_ENTRIES})")
    t = float(transmission)
    k = np.arange(n_pixels + 1)
    stay = (1.0 - t) + t * (k / n_pixels)  # lost, or on one of the k fired pixels
    fire = t * ((n_pixels - k[:-1]) / n_pixels)  # on one of the N - k unfired pixels
    entries = np.zeros((n_max + 1, n_pixels + 1))
    entries[0, 0] = 1.0
    for n in range(1, n_max + 1):
        np.multiply(stay, entries[n - 1], out=entries[n])
        entries[n, 1:] += fire * entries[n - 1, :-1]
    donated = crosstalk * entries[:, 1:n_pixels]
    entries[:, 1:n_pixels] *= 1.0 - crosstalk
    entries[:, 2:] += donated
    return DetectionMatrix(entries=entries)


def reference_detection_matrix(n_max: int = 10) -> DetectionMatrix:
    """Detection matrix of the reference 4-pixel configuration."""
    return detection_matrix(REFERENCE_TRANSMISSION, REFERENCE_N_PIXELS, REFERENCE_CROSSTALK, n_max)


def write_matrix_csv(matrix: DetectionMatrix, path):
    """Write a detection matrix as CSV, one row per created photon number."""
    entries = matrix.entries
    header = "n," + ",".join(str(k) for k in range(entries.shape[1]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i, row in enumerate(entries):
            fh.write(str(i) + "," + ",".join(format(v, ".12g") for v in row) + "\n")

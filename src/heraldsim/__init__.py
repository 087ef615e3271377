"""Simulator and analysis toolkit for photon-number-conditioned feedforward.

The package models a pulsed heralded photon-pair source read out by a
multipixel click detector: analytic detection matrices and heralded photon
statistics, an amplitude-discriminator model, a deterministic time-tag
Monte Carlo of the detector-logic-modulator-HBT chain, and coincidence
analysis of the resulting tag streams.
"""

__version__ = "0.1.0"

from .coincidence import (
    CoincidenceHistogram,
    HeraldedCounts,
    correlate,
    g2_tau,
    heralded_coincidence_counts,
    heralded_g2,
    integrate_peaks,
    isolated_times,
)
from .detector_model import DetectionMatrix, detection_matrix, reference_detection_matrix
from .discriminator import AmplitudeModel, threshold_sweep
from .errors import (
    EmptyEnsembleError,
    FormatError,
    InconsistentRatesError,
    ParameterError,
    TruncationError,
    UndefinedStatisticError,
)
from .event_sim import (
    Channel,
    ExperimentConfig,
    RunSummary,
    TagStream,
    run,
)
from .feedforward import (
    HeraldSelection,
    default_mean_grid,
    g2_sweep,
    genuine_two_click_fraction,
    heralded_distribution,
)
from .photon_stats import (
    PhotonNumberDistribution,
    g2_zero,
    poissonian,
    renormalize,
    required_n_max,
    thermal,
)

__all__ = [
    "AmplitudeModel",
    "Channel",
    "CoincidenceHistogram",
    "DetectionMatrix",
    "EmptyEnsembleError",
    "ExperimentConfig",
    "FormatError",
    "HeraldSelection",
    "HeraldedCounts",
    "InconsistentRatesError",
    "ParameterError",
    "PhotonNumberDistribution",
    "RunSummary",
    "TagStream",
    "TruncationError",
    "UndefinedStatisticError",
    "correlate",
    "default_mean_grid",
    "detection_matrix",
    "g2_sweep",
    "g2_tau",
    "g2_zero",
    "genuine_two_click_fraction",
    "heralded_coincidence_counts",
    "heralded_distribution",
    "heralded_g2",
    "integrate_peaks",
    "isolated_times",
    "poissonian",
    "reference_detection_matrix",
    "renormalize",
    "required_n_max",
    "run",
    "thermal",
    "threshold_sweep",
]

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
    herald_conditioned_rates,
    heralded_coincidence_counts,
    heralded_g2,
    integrate_peaks,
    isolated_times,
)
from .detector_model import (
    ClickPovm,
    DetectionMatrix,
    LossMatrix,
    apply_crosstalk,
    click_povm,
    detection_matrix,
    loss_matrix,
    reference_detection_matrix,
)
from .discriminator import AmplitudeModel, TriggerWindow, threshold_sweep, trigger_probability
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
    mean_photon_number,
    poissonian,
    renormalize,
    required_n_max,
    thermal,
)

__all__ = [
    "AmplitudeModel",
    "Channel",
    "ClickPovm",
    "CoincidenceHistogram",
    "DetectionMatrix",
    "EmptyEnsembleError",
    "ExperimentConfig",
    "FormatError",
    "HeraldSelection",
    "HeraldedCounts",
    "InconsistentRatesError",
    "LossMatrix",
    "ParameterError",
    "PhotonNumberDistribution",
    "RunSummary",
    "TagStream",
    "TriggerWindow",
    "TruncationError",
    "UndefinedStatisticError",
    "apply_crosstalk",
    "click_povm",
    "correlate",
    "default_mean_grid",
    "detection_matrix",
    "g2_sweep",
    "g2_tau",
    "g2_zero",
    "genuine_two_click_fraction",
    "herald_conditioned_rates",
    "heralded_coincidence_counts",
    "heralded_distribution",
    "heralded_g2",
    "integrate_peaks",
    "isolated_times",
    "loss_matrix",
    "mean_photon_number",
    "poissonian",
    "reference_detection_matrix",
    "renormalize",
    "required_n_max",
    "run",
    "thermal",
    "threshold_sweep",
    "trigger_probability",
]

import math

import numpy as np
import pytest
from scipy import stats

from heraldsim import (
    AmplitudeModel,
    DetectionMatrix,
    ParameterError,
    poissonian,
    reference_detection_matrix,
    threshold_sweep,
)
from heraldsim.discriminator import click_number_rates, count_plateaus, write_surface_csv


def window_probability(clicks: int, low: float, high: float, model: AmplitudeModel) -> float:
    """P(low <= height < high) for a pulse of ``clicks`` clicks, read off a one-point threshold sweep."""
    det = DetectionMatrix(entries=np.eye(clicks + 1))
    source = np.eye(clicks + 1)[clicks]  # every pulse makes ``clicks`` clicks
    return float(threshold_sweep(source, det, model, 1.0, [low], [high])[0, 0])


class TestTriggerProbability:
    def test_noiseless_inside_window(self):
        model = AmplitudeModel(unit_amplitude=0.1, noise_sigma=0.0)
        assert window_probability(2, 0.15, 0.25, model) == 1.0

    def test_noiseless_outside_window(self):
        model = AmplitudeModel(unit_amplitude=0.1, noise_sigma=0.0)
        assert window_probability(1, 0.15, 0.25, model) == 0.0

    def test_five_sigma_boundary(self):
        # window opening midway between the k and k+1 amplitudes, noise at
        # 10% of the unit amplitude: the boundary sits 5 sigma away
        model = AmplitudeModel(unit_amplitude=1.0, noise_sigma=0.1)
        expected = stats.norm.sf(5.0)
        assert window_probability(2, 2.5, math.inf, model) == pytest.approx(expected, rel=1e-9)

    def test_matches_scipy_cdf(self):
        model = AmplitudeModel(unit_amplitude=0.37, noise_sigma=0.05, baseline=0.01)
        for clicks in range(5):
            level = 0.01 + clicks * 0.37
            expected = stats.norm.cdf(0.6, level, 0.05) - stats.norm.cdf(0.3, level, 0.05)
            assert window_probability(clicks, 0.3, 0.6, model) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("z", [7.0, 8.0, 9.0, 20.0])
    def test_upper_tail_matches_scipy_sf(self, z):
        # where 1 - Phi(z) cancels: at z = 9 it rounds to 0, against 1.13e-19
        model = AmplitudeModel(unit_amplitude=1.0, noise_sigma=0.1)
        low = 2.0 + z * 0.1
        expected = stats.norm.sf(low, 2.0, 0.1)
        assert window_probability(2, low, math.inf, model) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_threshold_far_below_the_level(self):
        # (t - level) / sigma overflows to -inf, and every pulse clears the threshold
        model = AmplitudeModel(unit_amplitude=0.1, noise_sigma=0.005, baseline=1e308)
        assert window_probability(1, -1e308, math.inf, model) == 1.0

    @pytest.mark.parametrize("field", ["unit_amplitude", "noise_sigma", "baseline"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_amplitude_model_rejected(self, field, value):
        kwargs = {"unit_amplitude": 0.1, "noise_sigma": 0.005, "baseline": 0.0, field: value}
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            AmplitudeModel(**kwargs)


@pytest.fixture(scope="module")
def reference_setup():
    det = reference_detection_matrix(20)
    source = poissonian(1.0, 20)
    model = AmplitudeModel(unit_amplitude=0.1, noise_sigma=0.005)
    return source, det, model


class TestThresholdSweep:
    def test_low_threshold_below_noise_gives_total_click_rate(self, reference_setup):
        source, det, model = reference_setup
        rep = 80e6
        surface = threshold_sweep(source, det, model, rep, [0.05], [math.inf])
        q = click_number_rates(source, det)
        assert surface[0, 0] == pytest.approx(rep * q[1:].sum(), rel=1e-9)

    def test_low_threshold_above_top_amplitude_is_empty(self, reference_setup):
        source, det, model = reference_setup
        surface = threshold_sweep(source, det, model, 80e6, [0.45], [math.inf])
        assert surface[0, 0] < 1e-3

    def test_monotone_in_both_thresholds(self, reference_setup):
        source, det, model = reference_setup
        lows = np.linspace(0.02, 0.48, 47)
        highs = np.array([0.15, 0.25, 0.35, math.inf])
        surface = threshold_sweep(source, det, model, 80e6, lows, highs)
        assert np.all(np.diff(surface, axis=0) <= 1e-6 * surface.max())
        assert np.all(np.diff(surface, axis=1) >= -1e-6 * surface.max())

    def test_noiseless_steps_equal_cumulative_tiers(self, reference_setup):
        source, det, _ = reference_setup
        model = AmplitudeModel(unit_amplitude=0.1, noise_sigma=0.0)
        rep = 80e6
        q = click_number_rates(source, det)
        for k in range(4):
            low = 0.1 * k + 0.05  # between the k and k+1 amplitudes
            surface = threshold_sweep(source, det, model, rep, [low], [math.inf])
            assert surface[0, 0] == pytest.approx(rep * q[k + 1 :].sum(), rel=1e-12)

    def test_plateau_count_equals_occupied_click_levels(self, reference_setup):
        source, det, model = reference_setup
        lows = np.arange(0.04, 0.46, 0.005)
        surface = threshold_sweep(source, det, model, 80e6, lows, [math.inf])
        q = click_number_rates(source, det)
        occupied = int(np.sum(q[1:] > 1e-9))
        assert count_plateaus(surface[:, 0]) == occupied

    def test_grid_validation(self, reference_setup):
        source, det, model = reference_setup
        with pytest.raises(ParameterError):
            threshold_sweep(source, det, model, 80e6, [0.3, 0.1], [math.inf])

    @pytest.mark.parametrize("lows, highs", [([math.nan], [math.inf]), ([0.1, math.nan], [math.inf]),
                                             ([0.1], [0.3, math.nan])])
    def test_nan_threshold_rejected(self, reference_setup, lows, highs):
        source, det, model = reference_setup
        with pytest.raises(ParameterError, match="must not hold NaN"):
            threshold_sweep(source, det, model, 80e6, lows, highs)

    def test_infinite_thresholds_accepted(self, reference_setup):
        source, det, model = reference_setup
        surface = threshold_sweep(source, det, model, 80e6, [-math.inf, 0.05], [math.inf])
        q = click_number_rates(source, det)
        assert surface[0, 0] == pytest.approx(80e6, rel=1e-12)
        assert surface[1, 0] == pytest.approx(80e6 * q[1:].sum(), rel=1e-9)

    @pytest.mark.parametrize("rep_rate", [0.0, -1.0, math.nan, math.inf])
    def test_rep_rate_must_be_finite_and_positive(self, reference_setup, rep_rate):
        source, det, model = reference_setup
        with pytest.raises(ParameterError, match="rep_rate must be finite and > 0"):
            threshold_sweep(source, det, model, rep_rate, [0.05], [math.inf])

    def test_surface_csv(self, reference_setup, tmp_path):
        source, det, model = reference_setup
        lows = np.array([0.05, 0.15])
        highs = np.array([0.25, math.inf])
        surface = threshold_sweep(source, det, model, 80e6, lows, highs)
        path = tmp_path / "surface.csv"
        write_surface_csv(lows, highs, surface, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "low,high,rate_hz"
        assert len(lines) == 5

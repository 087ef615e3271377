import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from heraldsim import (
    EmptyEnsembleError,
    ParameterError,
    PhotonNumberDistribution,
    TruncationError,
    UndefinedStatisticError,
    g2_zero,
    poissonian,
    renormalize,
    required_n_max,
    thermal,
)


def mean_photon_number(dist) -> float:
    """First moment sum_n n P(n)."""
    return float(np.arange(dist.probs.size) @ dist.probs)


class TestPoissonian:
    def test_vacuum(self):
        dist = poissonian(0.0, 5)
        assert dist.probs[0] == 1.0
        assert np.all(dist.probs[1:] == 0.0)

    def test_mu_one_ground_state(self):
        dist = poissonian(1.0, 20)
        assert dist.probs[0] == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_matches_scipy_pmf(self):
        # independent oracle for the truncated series
        mu, n_max = 0.7, 25
        dist = poissonian(mu, n_max)
        expected = stats.poisson.pmf(np.arange(n_max + 1), mu)
        expected /= expected.sum()
        np.testing.assert_allclose(dist.probs, expected, rtol=1e-12)

    def test_single_to_double_ratio_low_mu(self):
        # P(1)/P(2) = 2/mu for a Poissonian
        dist = poissonian(0.0075, 12)
        assert dist.probs[1] / dist.probs[2] == pytest.approx(2 / 0.0075, rel=1e-9)

    def test_mean_recovers_mu(self):
        assert mean_photon_number(poissonian(2.0, 40)) == pytest.approx(2.0, abs=1e-9)

    def test_truncation_error_names_adequate_cutoff(self):
        with pytest.raises(TruncationError) as err:
            poissonian(5.0, 8)
        needed = err.value.required_n_max
        assert 1.0 - stats.poisson.cdf(needed, 5.0) < 1e-9
        assert 1.0 - stats.poisson.cdf(needed - 1, 5.0) >= 1e-9
        poissonian(5.0, needed)  # adequate cutoff passes

    def test_negative_mean_rejected(self):
        with pytest.raises(ParameterError):
            poissonian(-0.1, 10)

    @pytest.mark.parametrize("mu", [746.0, 800.0, 5_000.0])
    def test_mean_past_exp_underflow(self, mu):
        # exp(-mu) underflows to 0 above about 745
        n_max = required_n_max(mu)
        assert 1.0 - stats.poisson.cdf(n_max, mu) < 1e-9
        assert 1.0 - stats.poisson.cdf(n_max - 1, mu) >= 1e-9
        dist = poissonian(mu)
        assert dist.n_max == n_max
        assert mean_photon_number(dist) == pytest.approx(mu, rel=1e-9)
        mode = int(mu)
        assert dist.probs[mode] == pytest.approx(stats.poisson.pmf(mode, mu), rel=1e-8)

    @pytest.mark.parametrize("mu", [0.0075, 0.5, 1.0, 37.25, 412.5, 700.0])
    def test_table_is_the_recurrence_from_exp_minus_mu(self, mu):
        # the sampler's inversion table, and so the random stream, rests on
        # these exact values
        n_max = required_n_max(mu)
        expected = np.empty(n_max + 1)
        expected[0] = math.exp(-mu)
        for n in range(1, n_max + 1):
            expected[n] = expected[n - 1] * mu / n
        np.testing.assert_array_equal(poissonian(mu).probs, expected / expected.sum())

    def test_table_past_the_entry_limit_rejected(self):
        # 10**13 + 1 float64 entries would take 72.8 TiB
        with pytest.raises(ParameterError, match="10000000000001 entries cannot be allocated"):
            poissonian(5.0, 10**13)


class TestThermal:
    def test_vacuum(self):
        dist = thermal(0.0, 4)
        assert dist.probs[0] == 1.0

    def test_ground_state_weight(self):
        assert thermal(1.0, 60).probs[0] == pytest.approx(0.5, abs=1e-9)

    def test_g2_is_two(self):
        # generous cutoffs: 1e-6 moment accuracy needs far less tail mass
        # than the 1e-9 default mass policy guarantees
        for mu, n_max in ((0.05, 30), (0.4, 60), (1.0, 90)):
            assert g2_zero(thermal(mu, n_max)) == pytest.approx(2.0, abs=1e-6)

    def test_variance(self):
        mu = 0.8
        dist = thermal(mu, 80)
        n = np.arange(dist.probs.size)
        var = float((n**2) @ dist.probs) - mean_photon_number(dist) ** 2
        assert var == pytest.approx(mu**2 + mu, abs=1e-8)

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            thermal(1.0, 3)

    def test_mean_past_float_resolution_rejected(self):
        # past about 9e15, 1 + mean rounds to mean and no cutoff holds the tail
        with pytest.raises(ParameterError, match="no adequate truncation found for mean=1e\\+17"):
            required_n_max(1e17, "thermal")

    def test_table_past_the_entry_limit_rejected(self):
        # the default cutoff of a 1e15 mean is about 2.1e16 entries (147 PiB)
        with pytest.raises(ParameterError, match="20739842733593675 entries cannot be allocated"):
            thermal(1e15)


class TestG2Zero:
    def test_single_photon(self):
        assert g2_zero([0.0, 1.0]) == 0.0

    def test_two_photon_fock(self):
        assert g2_zero([0.0, 0.0, 1.0]) == pytest.approx(0.5, abs=1e-12)

    def test_poissonian_is_one(self):
        for mu, n_max in ((0.01, 30), (0.3, 40), (2.0, 60)):
            assert g2_zero(poissonian(mu, n_max)) == pytest.approx(1.0, abs=1e-9)

    def test_zero_mean_raises(self):
        with pytest.raises(UndefinedStatisticError):
            g2_zero([1.0])


class TestRenormalize:
    def test_halves(self):
        dist = renormalize([0.2, 0.2])
        np.testing.assert_allclose(dist.probs, [0.5, 0.5])

    def test_mean_of_halves(self):
        assert mean_photon_number(renormalize([0.5, 0.5])) == 0.5

    def test_zero_mass_raises(self):
        with pytest.raises(EmptyEnsembleError):
            renormalize([0.0, 0.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ParameterError):
            renormalize([0.5, -0.1])


class TestInvariantsConstruction:
    def test_unnormalized_ctor_rejected(self):
        with pytest.raises(ParameterError):
            PhotonNumberDistribution(np.array([0.2, 0.2]))

    def test_required_n_max_monotone(self):
        assert required_n_max(0.01) <= required_n_max(0.1) <= required_n_max(1.0)


@st.composite
def raw_weights(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    w = draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n).filter(
            lambda v: sum(v) > 1e-6
        )
    )
    return w


@given(raw_weights())
@settings(max_examples=200, deadline=None)
def test_g2_nonnegative_and_scale_invariant(weights):
    dist = renormalize(weights)
    if mean_photon_number(dist) == 0.0:
        return
    g2 = g2_zero(dist)
    assert g2 >= 0.0
    rescaled = renormalize(np.asarray(weights) * 3.7)
    assert g2_zero(rescaled) == pytest.approx(g2, rel=1e-12)


@given(st.floats(min_value=1e-3, max_value=0.999))
@settings(max_examples=100, deadline=None)
def test_support_on_zero_one_gives_zero(p1):
    assert g2_zero(renormalize([1.0 - p1, p1])) == 0.0


@given(st.floats(min_value=1e-3, max_value=3.0))
@settings(max_examples=60, deadline=None)
def test_poissonian_mean_matches(mu):
    n_max = required_n_max(mu) + 25
    assert mean_photon_number(poissonian(mu, n_max)) == pytest.approx(mu, rel=1e-8)

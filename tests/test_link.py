import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swipt_relay.channel import sample_gains, substream
from swipt_relay.link import (
    conditional_outage,
    f_of_rho,
    h_threshold,
    harvested_power,
    margin_terms,
    sigma0_sq,
    snr,
    snr_via_beta,
    w_ratio,
)
from swipt_relay.params import SystemParams, dbm_to_linear

GAMMA_0 = 7.0

# Regression constant for the headline operating point (P_s=40 dBm, noise
# -20/-20/-17 dBm, h_sq=g_sq=1.5, rho=0.5), confirmed by independent hand
# arithmetic on both algebraic SNR forms.
SNR_AT_HALF = 265001.12632334145


def textbook_rho_max(p, h_sq, gamma_0):
    """Root of F(rho) = rho*((1 - rho)*(P_s h^2 - gamma_0 sr^2) - gamma_0 sp^2) above zero."""
    return 1.0 - gamma_0 * p.sigma_p_sq / (p.p_s * h_sq - gamma_0 * p.sigma_r_sq)


def random_params(rng):
    return SystemParams(
        p_s=dbm_to_linear(rng.uniform(20.0, 50.0)),
        sigma_r_sq=dbm_to_linear(rng.uniform(-30.0, -10.0)),
        sigma_p_sq=dbm_to_linear(rng.uniform(-30.0, -10.0)),
        sigma_d_sq=dbm_to_linear(rng.uniform(-30.0, -10.0)),
        rate=3.0,
    )


def random_gain(rng, n=None):
    return np.exp(rng.uniform(np.log(0.01), np.log(10.0), n))


class TestHarvestedPower:
    def test_reference_value(self, ref_params):
        # eps=1, rho=1: P_r = P_s*h_sq + sigma_r_sq
        assert harvested_power(ref_params, 1.5, 1.0) == pytest.approx(15000.01, rel=1e-12)

    def test_vanishes_with_rho(self, ref_params):
        assert harvested_power(ref_params, 1.5, 0.0) == 0.0

    def test_linear_in_epsilon(self, ref_params):
        half = dataclasses.replace(ref_params, epsilon=0.5)
        assert harvested_power(half, 1.5, 0.7) == pytest.approx(
            0.5 * harvested_power(ref_params, 1.5, 0.7), rel=1e-15
        )


class TestSnr:
    def test_zero_at_endpoints(self, ref_params):
        assert snr(ref_params, 1.5, 1.5, 0.0) == 0.0
        assert snr(ref_params, 1.5, 1.5, 1.0) == 0.0

    def test_regression_value(self, ref_params):
        assert float(snr(ref_params, 1.5, 1.5, 0.5)) == pytest.approx(
            SNR_AT_HALF, rel=1e-12
        )

    def test_nonnegative_on_unit_interval(self, ref_params):
        rho = np.linspace(0.0, 1.0, 1001)
        assert np.all(snr(ref_params, 1.5, 1.5, rho) >= 0.0)

    def test_denominator_positive_randomized(self):
        # gamma is finite everywhere on [0,1], endpoints included
        rng = substream(11)
        rho = np.linspace(0.0, 1.0, 101)
        for _ in range(200):
            p = random_params(rng)
            vals = snr(p, float(random_gain(rng)), float(random_gain(rng)), rho)
            assert np.all(np.isfinite(vals))

    def test_epsilon_scales_relay_power_term(self, ref_params):
        # smaller epsilon means less relay power, so SNR can only drop
        low = dataclasses.replace(ref_params, epsilon=0.5)
        assert float(snr(low, 1.5, 1.5, 0.5)) < float(snr(ref_params, 1.5, 1.5, 0.5))

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(p_s_dbm=st.floats(20.0, 55.0), noise_dbm=st.tuples(*[st.floats(-30.0, -10.0)] * 3),
           epsilon=st.floats(0.1, 1.0), h_sq=st.floats(0.01, 10.0), g_sq=st.floats(0.01, 10.0),
           rho=st.floats(1e-6, 1.0 - 1e-6))
    def test_epsilon_only_divides_destination_noise(self, p_s_dbm, noise_dbm, epsilon,
                                                    h_sq, g_sq, rho):
        sr, sp, sd = (dbm_to_linear(x) for x in noise_dbm)
        p = SystemParams(p_s=dbm_to_linear(p_s_dbm), sigma_r_sq=sr, sigma_p_sq=sp,
                         sigma_d_sq=sd, rate=3.0, epsilon=epsilon)
        folded = dataclasses.replace(p, sigma_d_sq=sd / epsilon, epsilon=1.0)
        assert float(snr(p, h_sq, g_sq, rho)) == pytest.approx(
            float(snr(folded, h_sq, g_sq, rho)), rel=1e-12)


class TestSnrBetaIdentity:
    def test_agreement_midrange(self, ref_params):
        a = float(snr(ref_params, 1.5, 1.5, 0.3))
        b = float(snr_via_beta(ref_params, 1.5, 1.5, 0.3))
        assert a == pytest.approx(b, rel=1e-12)

    def test_agreement_near_boundary(self, ref_params):
        a = float(snr(ref_params, 1.5, 1.5, 0.999))
        b = float(snr_via_beta(ref_params, 1.5, 1.5, 0.999))
        assert a == pytest.approx(b, rel=1e-12)

    def test_randomized_identity(self):
        # epsilon < 1 too: snr() folds it into sigma_d^2/eps, snr_via_beta()
        # carries it literally through the relay's harvested power
        rng = substream(12)
        for _ in range(100):
            p = dataclasses.replace(random_params(rng), epsilon=rng.uniform(0.1, 1.0))
            h = random_gain(rng, 100)
            g = random_gain(rng, 100)
            rho = rng.uniform(1e-6, 1 - 1e-6, 100)
            a = snr(p, h, g, rho)
            b = snr_via_beta(p, h, g, rho)
            np.testing.assert_allclose(a, b, rtol=1e-10)

    @pytest.mark.parametrize("rho", [0.0, 1.0])
    def test_rejects_boundary(self, ref_params, rho):
        with pytest.raises(ValueError):
            snr_via_beta(ref_params, 1.5, 1.5, rho)


class TestFOfRho:
    def test_zero_at_origin(self, ref_params):
        assert f_of_rho(ref_params, 1.5, 0.0) == 0.0

    def test_zero_at_rho_max(self, ref_params):
        r = float(textbook_rho_max(ref_params, 1.5, GAMMA_0))
        assert abs(float(f_of_rho(ref_params, 1.5, r))) < 1e-8 * ref_params.p_s

    def test_nonpositive_below_threshold(self, ref_params):
        h0 = h_threshold(ref_params)
        rho = np.linspace(1e-6, 1 - 1e-6, 10001)
        assert np.all(f_of_rho(ref_params, h0 / 2, rho) <= 0.0)

    def test_sign_matches_feasible_interval(self):
        rng = substream(13)
        rho = np.linspace(1e-6, 1 - 1e-6, 2001)
        for _ in range(100):
            p = random_params(rng)
            h = float(random_gain(rng))
            if h <= h_threshold(p):
                continue
            r_max = float(textbook_rho_max(p, h, GAMMA_0))
            f = f_of_rho(p, h, rho)
            np.testing.assert_array_equal(f > 0, rho < r_max)


class TestSigma0Sq:
    def test_at_rho_one(self, ref_params):
        p = ref_params
        expected = p.sigma_p_sq * p.sigma_d_sq / (p.p_s * 1.5 + p.sigma_r_sq)
        assert float(sigma0_sq(p, 1.5, 1.0)) == pytest.approx(expected, rel=1e-12)
        assert float(sigma0_sq(p, 1.5, 1.0)) > 0

    def test_at_rho_zero(self, ref_params):
        p = ref_params
        expected = p.sigma_d_sq * (1 + p.sigma_p_sq / (p.p_s * 1.5 + p.sigma_r_sq))
        assert float(sigma0_sq(p, 1.5, 0.0)) == pytest.approx(expected, rel=1e-12)

    def test_monotone_decreasing(self, ref_params):
        rho = np.linspace(0.0, 1.0, 101)
        vals = sigma0_sq(ref_params, 1.5, rho)
        assert np.all(np.diff(vals) < 0)


class TestHThreshold:
    def test_reference_value(self):
        p = SystemParams(p_s=10000.0, sigma_r_sq=0.01, sigma_p_sq=0.01,
                         sigma_d_sq=0.02, rate=3.0)
        assert h_threshold(p) == pytest.approx(1.4e-5, rel=1e-12)

    def test_proportional_to_gamma0(self, ref_params):
        # gamma_0 = 2^R - 1 is 1 at R = 1 and 7 at R = 3
        rate_1 = dataclasses.replace(ref_params, rate=1.0)
        assert h_threshold(rate_1) == pytest.approx(h_threshold(ref_params) / 7, rel=1e-12)

    def test_inverse_in_p_s(self, ref_params):
        doubled = dataclasses.replace(ref_params, p_s=2 * ref_params.p_s)
        assert h_threshold(doubled) == pytest.approx(
            h_threshold(ref_params) / 2, rel=1e-12
        )


class TestWRatio:
    def test_zero_at_rho_max(self, ref_params):
        r = float(textbook_rho_max(ref_params, 1.5, GAMMA_0))
        w_peak = float(w_ratio(ref_params, 1.5, 0.5))
        assert abs(float(w_ratio(ref_params, 1.5, r))) < 1e-8 * w_peak

    def test_vanishes_at_origin(self, ref_params):
        assert abs(float(w_ratio(ref_params, 1.5, 1e-12))) < 1e-6

    def test_concavity_midpoint(self):
        rng = substream(14)
        for _ in range(200):
            p = random_params(rng)
            h = float(random_gain(rng))
            if h <= h_threshold(p):
                continue
            r_max = min(float(textbook_rho_max(p, h, GAMMA_0)), 1.0)
            if r_max <= 0:
                continue
            r1, r2 = sorted(rng.uniform(1e-6, r_max - 1e-9, 2))
            mid = float(w_ratio(p, h, 0.5 * (r1 + r2)))
            avg = 0.5 * (float(w_ratio(p, h, r1)) + float(w_ratio(p, h, r2)))
            assert mid >= avg - 1e-9 * abs(avg)


class TestConditionalOutage:
    def test_certain_below_threshold(self, ref_params):
        h0 = h_threshold(ref_params)
        for rho in (0.1, 0.5, 0.9, 1.0):
            assert conditional_outage(ref_params, h0 / 2, rho, 1.5) == 1.0

    def test_rho_one_is_certain_outage(self, ref_params):
        assert conditional_outage(ref_params, 1.5, 1.0, 1.5) == 1.0

    def test_vanishes_for_huge_lambda_g(self, ref_params):
        p = conditional_outage(ref_params, 1.5, 0.5, 1e12)
        assert 0 <= p < 1e-9

    def test_in_unit_interval(self):
        rng = substream(15)
        for _ in range(200):
            p = random_params(rng)
            h = float(random_gain(rng))
            rho = float(rng.uniform(0.01, 1.0))
            val = conditional_outage(p, h, rho, float(rng.uniform(0.1, 10)))
            assert 0.0 <= val <= 1.0

    def test_monotone_in_lambda_g(self, ref_params):
        lams = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        vals = [conditional_outage(ref_params, 1.5, 0.5, lam) for lam in lams]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_h(self, ref_params):
        hs = [0.1, 0.5, 1.0, 2.0, 5.0]
        vals = [conditional_outage(ref_params, h, 0.5, 1.5) for h in hs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_relative_precision_at_tiny_outage(self, ref_params):
        # at 54 dBm the exponent x is about 1.2e-8, where 1 - exp(-x) keeps
        # only about 8 significant digits
        p = dataclasses.replace(ref_params, p_s=dbm_to_linear(54.0))
        h, rho, lam_g = 50.0, 0.6, 1.5
        x = GAMMA_0 * float(sigma0_sq(p, h, rho)) / (float(f_of_rho(p, h, rho)) * lam_g)
        assert 1e-8 < x < 2e-8
        exact = -math.expm1(-x)
        assert abs(conditional_outage(p, h, rho, lam_g) - exact) <= 1e-14 * exact

    def test_against_mc_over_g(self, ref_params):
        # the closed form is the expectation over the exponential g; check it
        # against raw outage frequency on 1e6 g draws at fixed (h, rho)
        rng = substream(16)
        lam_g, rho, h = 1.5, 0.5, 0.01  # weak first hop so outage events are plentiful
        analytic = conditional_outage(ref_params, h, rho, lam_g)
        n = 10**6
        g = sample_gains(rng, lam_g, n)
        gamma = snr(ref_params, h, g, rho)
        emp = float(np.mean(gamma < GAMMA_0))
        se = math.sqrt(analytic * (1 - analytic) / n)
        assert abs(emp - analytic) <= 3 * se


class TestCoefficientIdentities:
    def test_reference_coefficients(self):
        # the margin terms at P_s = 1e4 mW, noise 0.01 mW, |h|^2 = 1.5 by direct arithmetic
        p = SystemParams(p_s=10000.0, sigma_r_sq=0.01, sigma_p_sq=0.01,
                         sigma_d_sq=0.02, rate=3.0)
        a, q = margin_terms(p, 1.5)
        assert a == pytest.approx(15000 - 0.07, rel=1e-15)
        assert q == pytest.approx(0.01 / 15000.01, rel=1e-15)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(p_s_dbm=st.floats(20.0, 55.0), noise_dbm=st.tuples(*[st.floats(-30.0, -10.0)] * 3),
           epsilon=st.floats(0.1, 1.0), h_sq=st.floats(0.01, 10.0), rho=st.floats(0.0, 1.0))
    def test_margin_forms_equal_the_polynomial_forms(self, p_s_dbm, noise_dbm, epsilon,
                                                     h_sq, rho):
        # F and sigma_0^2 as the paper writes them, each checked to 1e-12 of
        # the size of its terms, since F cancels to zero at rho_max
        sr, sp, sd = (dbm_to_linear(x) for x in noise_dbm)
        p = SystemParams(p_s=dbm_to_linear(p_s_dbm), sigma_r_sq=sr, sigma_p_sq=sp,
                         sigma_d_sq=sd, rate=3.0, epsilon=epsilon)
        sd_eff = sd / epsilon
        signal = p.p_s * h_sq * rho * (1 - rho)
        noise = GAMMA_0 * (rho ** 2 * sr + rho * sr + rho * sp)
        f_ref = signal - GAMMA_0 * (-(rho ** 2) * sr + rho * sr + rho * sp)
        assert abs(float(f_of_rho(p, h_sq, rho)) - f_ref) <= 1e-12 * (signal + noise)
        s0_ref = sd_eff * (1 - rho) + sp * sd_eff / (p.p_s * h_sq + sr)
        assert float(sigma0_sq(p, h_sq, rho)) == pytest.approx(s0_ref, rel=1e-12)

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import k1

from swipt_relay import policy, verify
from swipt_relay.channel import FadingParams, sample_gains, substream
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
from swipt_relay.sim import outage_exact

GAMMA_0 = 7.0
EPS = np.finfo(float).eps

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

    @pytest.mark.parametrize("rho0", [0.4, 0.6, 0.8])
    def test_is_the_root_of_f_at_a_fixed_rho(self, ref_params, rho0):
        for p_s_dbm in np.arange(20.0, 55.5, 0.5):
            p = dataclasses.replace(ref_params, p_s=dbm_to_linear(float(p_s_dbm)))
            h_c = h_threshold(p, rho0)
            assert f_of_rho(p, h_c, rho0) <= 0.0 < f_of_rho(p, h_c * 1.000001, rho0)

    @pytest.mark.parametrize("rho0", [0.1, 0.4, 0.6, 0.8, 0.99])
    def test_f_changes_sign_at_it_for_random_params(self, rho0):
        # at h_c itself F is a cancellation residue, a few ulps of gamma_0 sp^2
        rng = substream(15)
        for _ in range(200):
            p = random_params(rng)
            h_c = h_threshold(p, rho0)
            assert abs(f_of_rho(p, h_c, rho0)) <= 1e-14 * p.gamma_0 * p.sigma_p_sq
            assert f_of_rho(p, h_c * 0.999999, rho0) < 0.0 < f_of_rho(p, h_c * 1.000001, rho0)

    def test_h0_keeps_its_bits_on_the_partial_battery_draws(self):
        # sp^2/(1 - 0.0) is sp^2 exactly, so every caller of H0 keeps its outputs
        view, _ = verify._draw_partial(substream(2025), 10_000)
        np.testing.assert_array_equal(
            h_threshold(view), view.gamma_0 * (view.sigma_r_sq + view.sigma_p_sq) / view.p_s)


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
    @pytest.mark.parametrize("lambda_g", [1.5, 1e-5])
    def test_a_subnormal_f_gives_certain_outage_without_a_warning(self, ref_params, lambda_g):
        # at rho = 5e-324, F is subnormal: the exponent overflows (or, times a
        # small lambda_g, divides by zero) to -inf, and the outage is exactly 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert conditional_outage(ref_params, 1.5, 5e-324, lambda_g) == 1.0

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


def assert_partial_csi_is_pointwise_optimal(params, h_sq, rho, lambda_g):
    """conditional_outage at policy.partial_csi_rho(|h|^2) is at most its value
    at any rho in (0, 1), within 8 eps relative; both are exactly 1 at or
    below H0. h_sq and rho are arrays of the same shape."""
    best = conditional_outage(params, h_sq, policy.partial_csi_rho(params, h_sq), lambda_g)
    other = conditional_outage(params, h_sq, rho, lambda_g)
    assert np.all(best <= other * (1.0 + 8.0 * EPS))
    dead = h_sq <= h_threshold(params)
    assert np.all(best[dead] == 1.0) and np.all(other[dead] == 1.0)


class TestPointwiseDominance:
    """Partial CSI minimizes the g-averaged outage at every |h|^2, not only on
    average: criterion 8's dominance, stated exactly."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(p_s_dbm=st.floats(20.0, 55.0), noise_dbm=st.tuples(*[st.floats(-30.0, -10.0)] * 3),
           epsilon=st.floats(0.1, 1.0), rate=st.floats(0.5, 4.0), lambda_g=st.floats(0.1, 10.0),
           pairs=st.lists(st.tuples(st.floats(-1.0, 6.0), st.floats(0.0, 1.0, exclude_min=True,
                                                                     exclude_max=True),
                                    st.floats(-1e-3, 1e-3)), min_size=1, max_size=16))
    def test_partial_csi_rho_minimizes_conditional_outage(self, p_s_dbm, noise_dbm, epsilon,
                                                         rate, lambda_g, pairs):
        # |h|^2 log-uniform from H0/10 to 1e6 H0, plus H0 itself; each |h|^2 is
        # compared with a free rho and with its own optimum nudged by up to 1e-3
        # relative, where a slightly detuned rule would win
        sr, sp, sd = (dbm_to_linear(x) for x in noise_dbm)
        p = SystemParams(p_s=dbm_to_linear(p_s_dbm), sigma_r_sq=sr, sigma_p_sq=sp,
                         sigma_d_sq=sd, rate=rate, epsilon=epsilon)
        exponent, rho, nudge = (np.array(col) for col in zip(*pairs))
        h0 = h_threshold(p)
        h_sq = np.append(h0 * 10.0 ** exponent, h0)
        assert_partial_csi_is_pointwise_optimal(p, h_sq, np.append(rho, 0.5), lambda_g)
        near = policy.partial_csi_rho(p, h_sq) * np.append(1.0 + nudge, 1.0)
        inside = (near > 0.0) & (near < 1.0)
        assert_partial_csi_is_pointwise_optimal(p, h_sq[inside], near[inside], lambda_g)

    def test_a_detuned_rule_fails_the_check(self, monkeypatch, ref_params):
        # rho* (1 - 1e-3) loses to rho* itself: the check can tell them apart
        rule = policy.partial_csi_rho
        h_sq = h_threshold(ref_params) * np.array([2.0, 1e2, 1e4])
        rho = rule(ref_params, h_sq)
        assert_partial_csi_is_pointwise_optimal(ref_params, h_sq, rho, 1.5)
        monkeypatch.setattr(policy, "partial_csi_rho", lambda p, h: rule(p, h) * (1.0 - 1e-3))
        with pytest.raises(AssertionError):
            assert_partial_csi_is_pointwise_optimal(ref_params, h_sq, rho, 1.5)


def k1_outage(params, lambda_h, lambda_g, rho0, q):
    """Fixed-rho0 outage if q(|h|^2) = sp^2/(P_s|h|^2 + sr^2) were the constant q:
    F(rho0) = rho0 (1 - rho0) P_s (h - h_c) exactly, so
    P_out = 1 - exp(-h_c/lambda_h) u K1(u), u = 2 sqrt(c/lambda_h), with
    c = gamma_0 sd (1 - rho0 + q) / (rho0 (1 - rho0) P_s lambda_g) (Nasir, Zhou,
    Durrani and Kennedy, IEEE TWC 2013, arXiv 1212.5406)."""
    h_c = h_threshold(params, rho0)
    c = (params.gamma_0 * params.sigma_d_eff * (1.0 - rho0 + q)
         / (rho0 * (1.0 - rho0) * params.p_s * lambda_g))
    u = 2.0 * math.sqrt(c / lambda_h)
    return 1.0 - math.exp(-h_c / lambda_h) * u * k1(u), h_c


class TestFixedRhoBracket:
    """q(|h|^2) falls from q(h_c) to 0 above the fixed-rho0 threshold h_c, so the
    K1 closed form at q = 0 and at q = q(h_c) brackets the exact outage."""

    def test_exact_outage_lies_in_the_k1_bracket(self, checked_outage):
        # both the benchmark's checker and sim.outage_exact, which agree to 1e-9
        lambda_h, worst_low, worst_high = 1.5, 0.0, 0.0
        for p_s_dbm, lambda_g, epsilon, rho0 in itertools.product(
                (20.0, 35.0, 50.0, 65.0, 80.0), (1.5, 9.0), (1.0, 0.5), (0.4, 0.6, 0.8)):
            p = SystemParams(p_s=dbm_to_linear(p_s_dbm), sigma_r_sq=dbm_to_linear(-20.0),
                             sigma_p_sq=dbm_to_linear(-20.0), sigma_d_sq=dbm_to_linear(-17.0),
                             rate=3.0, epsilon=epsilon)
            fading = FadingParams(lambda_h, lambda_g)
            p_out = checked_outage(p, fading, f"fixed:{rho0}")
            engine = outage_exact(p, fading, policy.Fixed(rho0))
            assert engine == pytest.approx(p_out, rel=1e-9, abs=0.0)
            low, h_c = k1_outage(p, lambda_h, lambda_g, rho0, 0.0)
            high, _ = k1_outage(p, lambda_h, lambda_g, rho0,
                                p.sigma_p_sq / (p.p_s * h_c + p.sigma_r_sq))
            # strictly above the q = 0 form, so the upper bound needs its q(h_c)
            assert low < p_out <= high, (p_s_dbm, lambda_g, epsilon, rho0)
            assert low < engine <= high, (p_s_dbm, lambda_g, epsilon, rho0)
            worst_low = max(worst_low, 1.0 - low / p_out)
            worst_high = max(worst_high, high / p_out - 1.0)
        # and the bracket is tight: measured 1.35 % below and 9.6 % above
        assert worst_low < 0.015 and worst_high < 0.1

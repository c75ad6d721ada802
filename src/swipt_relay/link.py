"""Closed-form link math for the power-splitting AF relay.

The relay splits the received power with ratio rho: a fraction rho feeds the
energy harvester and powers the relay's own transmission, the remaining
1 - rho feeds the information path. Everything here is a pure function of
(params, channel gains, rho) and broadcasts over numpy arrays. The outage
threshold gamma_0 = 2^R - 1 is params.gamma_0, which every layer reads.

The conversion efficiency eps scales the relay's transmit power, which
carries the signal and the relay noise alike, so in the SNR it only divides
sigma_d^2. It appears literally only in harvested_power; every other function
uses the effective destination noise params.sigma_d_eff = sigma_d^2/eps, and
snr_via_beta, which goes through harvested_power, checks that fold.

Outage and both dynamic policies are written in two |h|^2 terms, returned
by margin_terms (sr^2, sp^2 the relay's antenna and processing noise, sd^2
the effective destination noise):

    a = P_s h^2 - gamma_0 sr^2,        q = sp^2 / (P_s h^2 + sr^2).

In them the outage event gamma(rho) < gamma_0 is |g|^2 F(rho) < gamma_0 sigma_0^2(rho)
(both sides times the SNR's positive denominator), with

    F(rho) = rho*((1 - rho)*a - gamma_0 sp^2),    sigma_0^2(rho) = sd^2*(1 - rho + q).

Two algebraically equivalent SNR forms are kept on purpose. snr() is the
polynomial-denominator form, finite on all of [0, 1]; snr_via_beta() goes
literally through the AF normalization factor beta and the relay transmit
power, has removable singularities at rho in {0, 1}, and exists only as an
independent cross-check of snr().
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "harvested_power",
    "snr",
    "snr_via_beta",
    "margin_terms",
    "f_of_rho",
    "sigma0_sq",
    "h_threshold",
    "w_ratio",
    "conditional_outage",
]


def harvested_power(params, h_sq, rho):
    """Relay transmit power P_r = eps * rho * (P_s*|h|^2 + sigma_r^2), mW.

    The harvest phase lasts T/2 and the forward phase lasts T/2, so the block
    length cancels and P_r equals the average harvested power.
    """
    return params.epsilon * rho * (params.p_s * h_sq + params.sigma_r_sq)


def snr(params, h_sq, g_sq, rho):
    """End-to-end SNR gamma(rho), finite on all of rho in [0, 1].

    Denominator (all terms mW), with sd^2 the effective noise sigma_d^2/eps:
        g^2*sr^2*rho*(1-rho) + g^2*sp^2*rho + sd^2*((1-rho) + sp^2/(P_s h^2 + sr^2))
    which is strictly positive on [0, 1], so gamma(0) = gamma(1) = 0 exactly.
    """
    rho = np.asarray(rho, dtype=float)
    info = 1.0 - rho  # the information share, computed once
    ps_h = params.p_s * h_sq + params.sigma_r_sq
    num = params.p_s * h_sq * g_sq * rho * info
    den = (
        g_sq * params.sigma_r_sq * rho * info
        + g_sq * params.sigma_p_sq * rho
        + params.sigma_d_eff * (info + params.sigma_p_sq / ps_h)
    )
    return num / den


def snr_via_beta(params, h_sq, g_sq, rho):
    """Literal SNR through beta(rho) and P_r; valid only for 0 < rho < 1.

    gamma = P_s h^2 g^2 / (g^2 sr^2 + g^2 sp^2/(1-rho) + sd^2/(P_r beta^2 (1-rho)))
    Kept as an independent algebraic route for equivalence testing against snr().
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0) or np.any(rho >= 1.0):
        raise ValueError("snr_via_beta requires 0 < rho < 1")
    ps_h = params.p_s * h_sq + params.sigma_r_sq
    p_r = harvested_power(params, h_sq, rho)
    beta_sq = 1.0 / ((1.0 - rho) * ps_h + params.sigma_p_sq)
    den = (
        g_sq * params.sigma_r_sq
        + g_sq * params.sigma_p_sq / (1.0 - rho)
        + params.sigma_d_sq / (p_r * beta_sq * (1.0 - rho))
    )
    return params.p_s * h_sq * g_sq / den


def margin_terms(params, h_sq):
    """The terms (a, q) of the module docstring at |h|^2 = h_sq."""
    ps_h = params.p_s * h_sq
    a = ps_h - params.gamma_0 * params.sigma_r_sq
    return a, params.sigma_p_sq / (ps_h + params.sigma_r_sq)


def f_of_rho(params, h_sq, rho, *, terms=None):
    """F(rho), the g-independent numerator margin of the outage condition:
    the feasible set is exactly {rho in (0,1) : F(rho) > 0}. terms, if given,
    is margin_terms(params, h_sq); sigma0_sq and conditional_outage take it too."""
    a, _ = margin_terms(params, h_sq) if terms is None else terms
    rho = np.asarray(rho, dtype=float)
    return rho * ((1.0 - rho) * a - params.gamma_0 * params.sigma_p_sq)


def sigma0_sq(params, h_sq, rho, *, terms=None):
    """Effective noise sigma_0^2(rho); strictly positive on (0, 1] and affine
    decreasing in rho."""
    _, q = margin_terms(params, h_sq) if terms is None else terms
    return params.sigma_d_eff * (1.0 - np.asarray(rho, dtype=float) + q)


def h_threshold(params, rho=0.0):
    """Channel-gain threshold gamma_0*(sr^2 + sp^2/(1 - rho))/P_s, above which
    exactly F(rho) > 0. At rho = 0 it is the lowest, H0: for |h|^2 <= H0 no rho is
    feasible and outage is certain, so the only sensible action is to harvest."""
    return params.gamma_0 * (params.sigma_r_sq + params.sigma_p_sq / (1.0 - rho)) / params.p_s


def w_ratio(params, h_sq, rho):
    """W(rho) = F(rho)/sigma_0^2(rho); maximizing W minimizes conditional outage."""
    return f_of_rho(params, h_sq, rho) / sigma0_sq(params, h_sq, rho)


def conditional_outage(params, h_sq, rho, lambda_g, *, terms=None):
    """Outage probability given |h|^2 and rho, averaged over the exponential g.

    For feasible rho (F(rho) > 0) this is 1 - exp(-gamma_0*sigma_0^2/(F*lambda_g));
    for infeasible rho (including rho = 1) the outage is certain and the value
    is exactly 1.
    """
    if terms is None:
        terms = margin_terms(params, h_sq)
    f = f_of_rho(params, h_sq, rho, terms=terms)
    s0 = sigma0_sq(params, h_sq, rho, terms=terms)
    feasible = f > 0.0
    safe_f = np.where(feasible, f, 1.0)
    with np.errstate(over="ignore", divide="ignore"):  # subnormal F: p is exactly 1
        p = -np.expm1(-params.gamma_0 * s0 / (safe_f * lambda_g))
    out = np.where(feasible, p, 1.0)
    return float(out) if np.ndim(out) == 0 else out

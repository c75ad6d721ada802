"""Randomized verification batteries: closed forms vs brute-force oracles.

Each battery draws random operating points (transmit power and noise figures
uniform in dBm, channel gains log-uniform) and checks a closed-form result
against an independent route: grid search for the policy optima, the literal
beta-form SNR for the algebraic identity, and the semi-analytic estimator for
the Monte Carlo one. The CLI `verify` command runs all of them; the
acceptance tests run the same code at full instance counts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import FadingParams, substream
from .link import f_of_rho, h_threshold, snr, snr_via_beta, w_ratio
from .params import SystemParams, dbm_to_linear
from .policy import (
    Fixed,
    PartialCSI,
    full_csi_rho,
    oracle_grid_full,
    oracle_grid_partial,
    partial_csi_rho,
)
from .sim import outage_mc, outage_semi_analytic

__all__ = [
    "BatteryResult",
    "random_instances",
    "battery_full_csi",
    "battery_partial_csi",
    "battery_snr_identity",
    "battery_estimator_cross_check",
    "run_all",
]

DEFAULT_RATE = 3.0  # bits/sec/Hz, gives gamma_0 = 7
STEP = 1e-4  # rho grid step of both grid batteries
SNR_TOL = 1e-10  # largest relative gap allowed between the two SNR forms


@dataclass(frozen=True)
class BatteryResult:
    name: str
    passed: bool
    detail: str


def _random_params(rng) -> SystemParams:
    """P_s uniform in [20, 50] dBm, noises in [-30, -10] dBm, epsilon in [0.2, 1)."""
    return SystemParams(
        p_s=dbm_to_linear(float(rng.uniform(20.0, 50.0))),
        sigma_r_sq=dbm_to_linear(float(rng.uniform(-30.0, -10.0))),
        sigma_p_sq=dbm_to_linear(float(rng.uniform(-30.0, -10.0))),
        sigma_d_sq=dbm_to_linear(float(rng.uniform(-30.0, -10.0))),
        rate=DEFAULT_RATE,
        epsilon=float(rng.uniform(0.2, 1.0)),
    )


def random_instances(rng, count):
    """Random (params, h_sq, g_sq) instances covering a wide operating range:
    params from _random_params, channel gains log-uniform in [0.01, 10]."""
    out = []
    for _ in range(count):
        params = _random_params(rng)
        h_sq = float(np.exp(rng.uniform(np.log(0.01), np.log(10.0))))
        g_sq = float(np.exp(rng.uniform(np.log(0.01), np.log(10.0))))
        out.append((params, h_sq, g_sq))
    return out


def battery_full_csi(count=10_000, seed=2024) -> BatteryResult:
    """Closed-form SNR-optimal rho vs grid argmax.

    Checks |rho_closed - rho_grid| <= 2*STEP and that the closed form's SNR is
    never below the grid's best by more than 1e-9 relative.
    """
    rng = substream(seed)
    worst_drho, worst_rel = 0.0, 0.0
    for params, h_sq, g_sq in random_instances(rng, count):
        rho_cf = float(full_csi_rho(params, h_sq, g_sq))
        rho_grid = oracle_grid_full(params, h_sq, g_sq, STEP)
        snr_cf = float(snr(params, h_sq, g_sq, rho_cf))
        snr_grid = float(snr(params, h_sq, g_sq, rho_grid))
        worst_drho = max(worst_drho, abs(rho_cf - rho_grid))
        worst_rel = max(worst_rel, (snr_grid - snr_cf) / snr_grid)
    passed = worst_drho <= 2 * STEP and worst_rel <= 1e-9
    return BatteryResult(
        "full_csi_vs_grid", passed,
        f"count={count} max|drho|={worst_drho:.3g} max_rel_snr_deficit={worst_rel:.3g}",
    )


def battery_partial_csi(count=10_000, seed=2025) -> BatteryResult:
    """Closed-form partial-CSI rho vs grid argmax of W over the feasible set.

    |h|^2 is log-uniform on [H0/10, 10], so about one draw in six lies at or
    below the instance's threshold H0 and must be harvest-only. Where no grid
    point is feasible, a feasible closed-form rho passes too."""
    rng = substream(seed)
    worst_drho, worst_rel, bad_infeasible = 0.0, 0.0, 0
    for _ in range(count):
        params = _random_params(rng)
        low = np.log(h_threshold(params) / 10.0)
        h_sq = float(np.exp(rng.uniform(low, np.log(10.0))))
        rho_cf = float(partial_csi_rho(params, h_sq))
        rho_grid = oracle_grid_partial(params, h_sq, STEP)
        if rho_grid == 1.0:  # harvest-only, or a feasible interval narrower than STEP
            feasible = 0.0 < rho_cf < 1.0 and f_of_rho(params, h_sq, rho_cf) > 0.0
            if rho_cf != 1.0 and not feasible:
                bad_infeasible += 1
            continue
        worst_drho = max(worst_drho, abs(rho_cf - rho_grid))
        w_cf = float(w_ratio(params, h_sq, rho_cf))
        w_grid = float(w_ratio(params, h_sq, rho_grid))
        if w_grid > 0:
            worst_rel = max(worst_rel, (w_grid - w_cf) / w_grid)
    passed = worst_drho <= 2 * STEP and worst_rel <= 1e-9 and bad_infeasible == 0
    return BatteryResult(
        "partial_csi_vs_grid", passed,
        f"count={count} max|drho|={worst_drho:.3g} max_rel_w_deficit={worst_rel:.3g} "
        f"bad_infeasible={bad_infeasible}",
    )


def battery_snr_identity(count=100_000, seed=2026) -> BatteryResult:
    """snr() vs the literal beta-form on random inputs with rho in [1e-6, 1-1e-6]."""
    rng = substream(seed)
    worst = 0.0
    chunk = 10_000
    remaining = count
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        params = _random_params(rng)
        h_sq = np.exp(rng.uniform(np.log(0.01), np.log(10.0), m))
        g_sq = np.exp(rng.uniform(np.log(0.01), np.log(10.0), m))
        rho = rng.uniform(1e-6, 1.0 - 1e-6, m)
        a = snr(params, h_sq, g_sq, rho)
        b = snr_via_beta(params, h_sq, g_sq, rho)
        worst = max(worst, float(np.max(np.abs(a - b) / np.abs(b))))
    passed = worst <= SNR_TOL
    return BatteryResult("snr_identity", passed, f"count={count} max_rel_err={worst:.3g}")


def battery_estimator_cross_check(n=200_000, seed=2027) -> BatteryResult:
    """outage_mc vs outage_semi_analytic within 3 combined standard errors."""
    params = SystemParams(
        p_s=dbm_to_linear(40.0),
        sigma_r_sq=dbm_to_linear(-20.0),
        sigma_p_sq=dbm_to_linear(-20.0),
        sigma_d_sq=dbm_to_linear(-17.0),
        rate=DEFAULT_RATE,
    )
    fading = FadingParams(lambda_h=1.5, lambda_g=1.5)
    details, passed = [], True
    for policy in (PartialCSI(), Fixed(0.6)):
        mc = outage_mc(params, fading, policy, n, seed)
        sa = outage_semi_analytic(params, fading, policy, n, seed + 1)
        gap = abs(mc.p_out - sa.p_out)
        limit = 3.0 * np.hypot(mc.std_err, sa.std_err)
        ok = gap <= limit
        passed = passed and ok
        details.append(f"{type(policy).__name__}: gap={gap:.3g} limit={limit:.3g}")
    return BatteryResult("mc_vs_semi_analytic", passed, "; ".join(details))


def run_all(quick=False):
    """Run every battery; `quick` shrinks instance counts, not coverage."""
    scale = 10 if quick else 1
    return [
        battery_full_csi(count=10_000 // scale),
        battery_partial_csi(count=10_000 // scale),
        battery_snr_identity(count=100_000 // scale),
        battery_estimator_cross_check(n=200_000 // scale),
    ]

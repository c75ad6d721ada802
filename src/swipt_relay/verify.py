"""Randomized verification batteries: closed forms vs brute-force oracles.

Each battery draws random operating points (transmit power and noise figures
uniform in dBm, channel gains log-uniform) and checks a closed-form result
against an independent route: grid search for the policy optima, the literal
beta-form SNR for the algebraic identity, and the semi-analytic estimator for
the Monte Carlo one. The CLI `verify` command runs all of them; the
acceptance tests run the same code at full instance counts.

The two grid batteries and the SNR identity work on whole arrays (one draw,
closed-form call, oracle call and comparison per battery) over a record array
of the instances' parameters built straight from the uniforms. The oracles
bisect the grid for the argmin of snr()'s denominator over its numerator and
the argmax of sd^2 W, both unimodal in rho, ties going to the smaller rho.
run_all runs the four batteries at once on sim's thread pool; each draws
from its own substream, so no result depends on the scheduling. The longest,
the estimator cross-check, starts first: started last it runs alone on one core.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

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
from .sim import POINT_FIELDS, outage_mc, outage_semi_analytic, thread_map

__all__ = [
    "BatteryResult",
    "battery_full_csi",
    "battery_partial_csi",
    "battery_snr_identity",
    "battery_estimator_cross_check",
    "run_all",
]

DEFAULT_RATE = 3.0  # bits/sec/Hz, gives gamma_0 = 7
STEP = 1e-4  # rho grid step of both grid batteries
SNR_TOL = 1e-10  # largest relative gap allowed between the two SNR forms
SNR_DRAWS_PER_POINT = 100  # snr_identity instances that share one operating point

# Draw ranges, in draw order: P_s and the three noises sigma_r^2, sigma_p^2,
# sigma_d^2 in dBm, then epsilon; and log |h|^2, log |g|^2 for the gains.
_PARAM_LO = np.array([20.0, -30.0, -30.0, -30.0, 0.2])
_PARAM_HI = np.array([50.0, -10.0, -10.0, -10.0, 1.0])
_LOG_GAIN = (np.log(0.01), np.log(10.0))


@dataclass(frozen=True)
class BatteryResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0  # wall time, set by run_all


def _scale(u, low, high):
    """numpy's own uniform map low + (high - low)*u on standard uniforms, so an
    array from rng.random equals the same rng.uniform calls bit for bit."""
    return low + (high - low) * u


def _view(u):
    """The instances drawn as rows of five standard uniforms (draw order above) as one
    record array with the fields of sim.POINT_FIELDS: view.p_s holds every P_s, and so
    on, so link and policy functions broadcast over it unchanged. The four dBm columns take one
    dbm_to_linear call (np.float_power: the scalar conversion's C pow per value, without the
    GIL); sigma_d_eff is the division SystemParams does, and gamma_0 is read from SystemParams."""
    scaled = _scale(u, _PARAM_LO, _PARAM_HI)
    linear, eps = dbm_to_linear(scaled[:, :4]).T, scaled[:, 4]
    gamma_0 = np.full_like(eps, SystemParams(1.0, 1.0, 1.0, 1.0, rate=DEFAULT_RATE).gamma_0)
    return np.rec.fromarrays([*linear, eps, gamma_0, linear[3] / eps], names=POINT_FIELDS)


def _worst(x):
    """max(0, max(x)) that propagates a NaN, so a NaN fails the battery."""
    return float(np.max(x, initial=0.0))


def _draw_full(rng, count):
    """count (view, |h|^2, |g|^2) draws; the gains log-uniform in [0.01, 10]."""
    u = rng.random((count, 7))
    h_sq, g_sq = np.exp(_scale(u[:, 5:], *_LOG_GAIN)).T
    return _view(u[:, :5]), h_sq, g_sq


def _draw_partial(rng, count):
    """count (view, |h|^2) draws, |h|^2 log-uniform on [H0/10, 10] for each
    instance's own threshold H0."""
    u = rng.random((count, 6))
    view = _view(u[:, :5])
    low = np.log(h_threshold(view) / 10.0)
    return view, np.exp(_scale(u[:, 5], low, _LOG_GAIN[1]))


def battery_full_csi(count=10_000, seed=2024) -> BatteryResult:
    """Closed-form SNR-optimal rho vs grid argmax.

    Checks |rho_closed - rho_grid| <= 2*STEP and that the closed form's SNR is
    never below the grid's best by more than 1e-9 relative. The closed form,
    the oracle and both SNRs take one array call each.
    """
    view, h_sq, g_sq = _draw_full(substream(seed), count)
    rho_cf = full_csi_rho(view, h_sq, g_sq)
    rho_grid = oracle_grid_full(view, h_sq, g_sq, STEP)
    snr_cf = snr(view, h_sq, g_sq, rho_cf)
    snr_grid = snr(view, h_sq, g_sq, rho_grid)
    worst_drho = _worst(np.abs(rho_cf - rho_grid))
    worst_rel = _worst((snr_grid - snr_cf) / snr_grid)
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
    view, h_sq = _draw_partial(substream(seed), count)
    rho_cf = partial_csi_rho(view, h_sq)
    rho_grid = oracle_grid_partial(view, h_sq, STEP)
    # rho_grid == 1: harvest-only, or a feasible interval narrower than STEP
    harvest = rho_grid == 1.0
    feasible = (0.0 < rho_cf) & (rho_cf < 1.0) & (f_of_rho(view, h_sq, rho_cf) > 0.0)
    bad_infeasible = int(np.count_nonzero(harvest & (rho_cf != 1.0) & ~feasible))
    # the rest: the grid transmits at a feasible rho, so W(rho_grid) > 0
    sent = ~harvest
    view, h_sq, rho_cf, rho_grid = view[sent], h_sq[sent], rho_cf[sent], rho_grid[sent]
    worst_drho = _worst(np.abs(rho_cf - rho_grid))
    w_cf = w_ratio(view, h_sq, rho_cf)
    w_grid = w_ratio(view, h_sq, rho_grid)
    worst_rel = _worst((w_grid - w_cf) / w_grid)
    passed = worst_drho <= 2 * STEP and worst_rel <= 1e-9 and bad_infeasible == 0
    return BatteryResult(
        "partial_csi_vs_grid", passed,
        f"count={count} max|drho|={worst_drho:.3g} max_rel_w_deficit={worst_rel:.3g} "
        f"bad_infeasible={bad_infeasible}",
    )


def battery_snr_identity(count=100_000, seed=2026) -> BatteryResult:
    """snr() vs the literal beta-form on random inputs with rho in [1e-6, 1-1e-6]:
    one random operating point per SNR_DRAWS_PER_POINT instances."""
    rng = substream(seed)
    points = -(-count // SNR_DRAWS_PER_POINT)
    view = _view(rng.random((points, 5)))[:, None]  # one row per point
    u = rng.random((3, points, SNR_DRAWS_PER_POINT))
    h_sq, g_sq = np.exp(_scale(u[:2], *_LOG_GAIN))
    rho = _scale(u[2], 1e-6, 1.0 - 1e-6)
    a = snr(view, h_sq, g_sq, rho)
    b = snr_via_beta(view, h_sq, g_sq, rho)
    worst = _worst((np.abs(a - b) / np.abs(b)).ravel()[:count])  # the last point may be short
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
    """Run every battery, on one thread each up to the core count, the estimator
    cross-check first: it is the longest, and two cores gain nothing once it starts
    last. The results come in battery order, each carrying its wall time, which
    threads sharing a core lengthen; `quick` shrinks instance counts, not coverage."""
    scale = 10 if quick else 1
    runs = [
        (battery_full_csi, {"count": 10_000 // scale}),
        (battery_partial_csi, {"count": 10_000 // scale}),
        (battery_snr_identity, {"count": 100_000 // scale}),
        (battery_estimator_cross_check, {"n": 200_000 // scale}),
    ]

    def timed(run):
        battery, kwargs = run
        t0 = time.perf_counter()
        result = battery(**kwargs)
        return replace(result, seconds=time.perf_counter() - t0)
    return thread_map(timed, runs[::-1], len(runs))[::-1]

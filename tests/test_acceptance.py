"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Every Monte Carlo (MC) estimate is seeded with the repo default (12345) so
reruns are bit-identical. The heavy shared artifacts (the outage-vs-P_s curves
and the two fading-mean sweeps) are computed once per session and reused by
the dominance criterion.

Criterion 6's sign and order claims on the fixed-ratio gains are checked on
exact outage (``sim.outage_exact``: the semi-analytic integrand on fixed
Gauss-Legendre nodes over |h|^2), because their margins (|eta_0.8| = 0.0019 at
lambda_g = 9) are about 100 times smaller than the MC standard error at
n = 1e6; the MC sweep must agree with the exact values within 3 sigma, and the
exact values with the benchmark's own checker, ``perfbench/exact.py``, which
shares no code with the package. Criterion 5 prints the exact gains beside its
MC ones. Everything else is judged on seeded MC alone.
"""
import dataclasses
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats

from conftest import package_env
from swipt_relay.channel import FadingParams, sample_gains, substream
from swipt_relay.params import SystemParams, dbm_to_linear
from swipt_relay.policy import Fixed, FullCSI, PartialCSI, policy_name
from swipt_relay.sim import (
    SweepSpec,
    gain_eta,
    gains_from_sweep,
    horizontal_gain_db,
    operating_points,
    outage_exact,
    outage_mc,
    outage_point,
    outage_semi_analytic,
    run_sweep,
)
from swipt_relay.verify import (
    battery_full_csi,
    battery_partial_csi,
    battery_snr_identity,
)

SEED = 12345

REF_PARAMS = SystemParams(
    p_s=dbm_to_linear(40.0),
    sigma_r_sq=dbm_to_linear(-20.0),
    sigma_p_sq=dbm_to_linear(-20.0),
    sigma_d_sq=dbm_to_linear(-17.0),
    rate=3.0,
)
REF_FADING = FadingParams(lambda_h=1.5, lambda_g=1.5)
POLICIES = (FullCSI(), PartialCSI(), Fixed(0.4), Fixed(0.6), Fixed(0.8))
PS_GRID_DBM = np.arange(46.0, 54.25, 0.5)


def check(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def combined_se(a, b):
    return math.hypot(a.std_err, b.std_err)


@pytest.fixture(scope="module")
def fig2_curves():
    """Outage vs P_s curves, n=1e7 per point, common random numbers across
    both policies and P_s points (same seed and substream key everywhere)."""
    curves = {policy_name(p): [] for p in POLICIES}
    for v in PS_GRID_DBM:
        params = dataclasses.replace(REF_PARAMS, p_s=dbm_to_linear(float(v)))
        estimates = outage_point(
            params, REF_FADING, POLICIES, params.gamma_0, 10**7, SEED
        )
        for pol, est in zip(POLICIES, estimates):
            curves[policy_name(pol)].append((float(v), est))
    return curves


def curve_points(curves, name):
    return [(v, est.p_out) for v, est in curves[name]]


@pytest.fixture(scope="module")
def lambda_g_sweep():
    spec = SweepSpec(
        variable="lambda_g", values=tuple(float(v) for v in range(1, 11)),
        params=REF_PARAMS, fading=REF_FADING, policies=POLICIES,
        n=10**6, seed=SEED,
    )
    return run_sweep(spec)


@pytest.fixture(scope="module")
def lambda_h_sweep():
    spec = SweepSpec(
        variable="lambda_h", values=tuple(float(v) for v in range(1, 11)),
        params=REF_PARAMS, fading=REF_FADING, policies=POLICIES,
        n=10**6, seed=SEED,
    )
    return run_sweep(spec)


def test_criterion_1_full_csi_closed_form_optimality():
    t0 = time.time()
    result = battery_full_csi(count=10_000, seed=SEED)
    elapsed = time.time() - t0
    check(
        "criterion 1: full-CSI closed form vs 1e-4 grid (1e4 instances)",
        result.passed and elapsed <= 120.0,
        f"{result.detail} elapsed={elapsed:.1f}s",
    )


def test_criterion_2_partial_csi_closed_form_optimality():
    t0 = time.time()
    result = battery_partial_csi(count=10_000, seed=SEED)
    elapsed = time.time() - t0
    check(
        "criterion 2: partial-CSI closed form vs 1e-4 grid (1e4 instances)",
        result.passed and elapsed <= 120.0,
        f"{result.detail} elapsed={elapsed:.1f}s",
    )


def test_criterion_3_snr_algebraic_identity():
    result = battery_snr_identity(count=100_000, seed=SEED)
    check("criterion 3: snr() vs beta-form identity (1e5 inputs)", result.passed,
          result.detail)


def test_criterion_4_estimator_cross_check():
    details, ok = [], True
    for policy in (PartialCSI(), Fixed(0.4), Fixed(0.6), Fixed(0.8)):
        mc = outage_mc(REF_PARAMS, REF_FADING, policy, 10**6, SEED)
        sa = outage_semi_analytic(REF_PARAMS, REF_FADING, policy, 10**6, SEED + 1)
        gap = abs(mc.p_out - sa.p_out)
        limit = 3 * combined_se(mc, sa)
        ok = ok and gap <= limit
        details.append(f"{policy_name(policy)}: |mc-sa|={gap:.2e} limit={limit:.2e}")
    check("criterion 4: MC vs semi-analytic at 40 dBm (n=1e6)", ok,
          "; ".join(details))


def test_criterion_5_power_sweep_gains(fig2_curves):
    t0 = time.time()
    dyn = curve_points(fig2_curves, "full_csi")
    par = curve_points(fig2_curves, "partial_csi")
    gain_08 = horizontal_gain_db(dyn, curve_points(fig2_curves, "fixed:0.8"), 50.0)
    gain_06 = horizontal_gain_db(dyn, curve_points(fig2_curves, "fixed:0.6"), 50.0)
    gain_04 = horizontal_gain_db(dyn, curve_points(fig2_curves, "fixed:0.4"), 50.0)
    gap_par = horizontal_gain_db(dyn, par, 50.0)
    p_full_50 = dict(dyn)[50.0]
    p_par_50 = dict(par)[50.0]
    elapsed = time.time() - t0
    # exact curves on the same grid, one call per policy
    points = operating_points([(dataclasses.replace(REF_PARAMS, p_s=dbm_to_linear(float(v))),
                                REF_FADING) for v in PS_GRID_DBM])
    exact = {pol: list(zip(PS_GRID_DBM.tolist(), outage_exact(points, points, pol).tolist()))
             for pol in (FullCSI(), Fixed(0.8), Fixed(0.6), Fixed(0.4))}
    exact_gains = "/".join(
        f"{horizontal_gain_db(exact[FullCSI()], exact[Fixed(rho0)], 50.0):.3f}"
        for rho0 in (0.8, 0.6, 0.4)
    )
    ok = (
        abs(gain_08 - 1.25) <= 0.5
        and abs(gain_06 - 1.7) <= 0.5
        and abs(gain_04 - 2.5) <= 0.6
        and abs(gap_par) <= 1.0
        and p_full_50 < 1e-4
        and p_par_50 < 1e-4
    )
    check(
        "criterion 5: power-sweep gains at 50 dBm (n=1e7)", ok,
        f"gain vs rho0.8={gain_08:.2f}dB (want 1.25±0.5), "
        f"vs rho0.6={gain_06:.2f}dB (want 1.7±0.5), "
        f"vs rho0.4={gain_04:.2f}dB (want 2.5±0.6), "
        f"full-vs-partial gap={gap_par:.2f}dB (<=1.0), "
        f"p_out(full)={p_full_50:.1e}, p_out(partial)={p_par_50:.1e} (<1e-4); "
        f"exact gains vs rho0.8/0.6/0.4={exact_gains}dB; "
        f"gain-eval time={elapsed:.1f}s",
    )


def _adjacent_trend_ok(pairs, direction):
    """(eta, se) pairs; direction=-1: non-increasing within 2 sigma; +1: non-decreasing."""
    for (v1, s1), (v2, s2) in zip(pairs, pairs[1:]):
        slack = 2.0 * math.hypot(s1, s2)
        if direction < 0 and v2 > v1 + slack:
            return False
        if direction > 0 and v2 < v1 - slack:
            return False
    return True


def test_criterion_6_gain_trends_vs_lambda_g(lambda_g_sweep, checked_outage):
    gains = gains_from_sweep(lambda_g_sweep)
    full_ok = _adjacent_trend_ok([g.eta["full_csi"] for g in gains], -1)
    par_ok = _adjacent_trend_ok([g.eta["partial_csi"] for g in gains], -1)
    # Sign and order margins are far below the MC resolution at n=1e6 (about
    # 45 outage events per point), so they are judged on exact outage and the
    # MC sweep is tied to it within 3 sigma.
    points = operating_points([(REF_PARAMS, dataclasses.replace(REF_FADING, lambda_g=g.sweep_value))
                               for g in gains])
    by_rho0 = {rho0: outage_exact(points, points, Fixed(rho0)).tolist() for rho0 in (0.4, 0.6, 0.8)}
    exact = {g.sweep_value: {rho0: p[i] for rho0, p in by_rho0.items()} for i, g in enumerate(gains)}
    eta_06 = {v: gain_eta(e[0.6], e[0.4]) for v, e in exact.items()}
    eta_08 = {v: gain_eta(e[0.8], e[0.4]) for v, e in exact.items()}
    order_ok = all(eta_06[v] > eta_08[v] for v in exact if v >= 4)
    sign_ok = all(eta_08[v] < 0 for v in exact if v >= 9)
    # each exact value against the benchmark's checker, written apart from the
    # package, to far below the smallest margin the claims rest on
    err_limit = 1e-3 * abs(eta_08[9.0])
    engine_gap = max(
        abs(p_out / checked_outage(REF_PARAMS, dataclasses.replace(REF_FADING, lambda_g=v),
                                   f"fixed:{rho0}") - 1.0)
        for v, e in exact.items() for rho0, p_out in e.items()
    )
    engine_ok = engine_gap < err_limit
    z_max = max(
        abs(g.eta[name][0] - eta_exact[g.sweep_value]) / g.eta[name][1]
        for name, eta_exact in (("fixed:0.6", eta_06), ("fixed:0.8", eta_08))
        for g in gains
    )
    mc_ok = z_max <= 3.0
    eta08_tail = {v: round(e, 4) for v, e in eta_08.items() if v >= 8}
    check(
        "criterion 6: gain trends vs lambda_g (n=1e6/point)",
        full_ok and par_ok and order_ok and sign_ok and engine_ok and mc_ok,
        f"eta_full non-increasing(2sigma)={full_ok}, eta_par={par_ok}, "
        f"exact eta06>eta08 for lg>=4: {order_ok}, exact eta08<0 for lg>=9: {sign_ok} "
        f"(exact eta08 tail={eta08_tail}), "
        f"max exact rel gap to perfbench/exact.py={engine_gap:.1e} (<{err_limit:.1e}), "
        f"max |MC-exact|/se for eta06, eta08={z_max:.2f} (<=3)",
    )


def test_criterion_7_gain_trends_vs_lambda_h(lambda_h_sweep):
    gains = gains_from_sweep(lambda_h_sweep)
    full_ok = _adjacent_trend_ok([g.eta["full_csi"] for g in gains], +1)
    par_ok = _adjacent_trend_ok([g.eta["partial_csi"] for g in gains], +1)
    gap = max(abs(g.eta["full_csi"][0] - g.eta["partial_csi"][0]) for g in gains)
    check(
        "criterion 7: gain trends vs lambda_h (n=1e6/point)",
        full_ok and par_ok and gap <= 0.3,
        f"eta_full non-decreasing(2sigma)={full_ok}, eta_par={par_ok}, "
        f"max|eta_full-eta_par|={gap:.3f} (<=0.3)",
    )


def test_criterion_8_policy_dominance(fig2_curves, lambda_g_sweep, lambda_h_sweep):
    # full <= partial + 3 sigma <= best fixed + 6 sigma, checked as the two
    # pairwise steps with 3 combined standard errors each
    points = []
    for i in range(len(fig2_curves["full_csi"])):
        points.append({name: fig2_curves[name][i][1] for name in fig2_curves})
    for sweep in (lambda_g_sweep, lambda_h_sweep):
        by_value = {}
        for row in sweep:
            by_value.setdefault(row.sweep_value, {})[policy_name(row.policy)] = row.estimate
        points.extend(by_value.values())
    violations = 0
    for ests in points:
        full, par = ests["full_csi"], ests["partial_csi"]
        best_fixed = min(
            (ests[k] for k in ("fixed:0.4", "fixed:0.6", "fixed:0.8")),
            key=lambda e: e.p_out,
        )
        if full.p_out > par.p_out + 3 * combined_se(full, par):
            violations += 1
        elif par.p_out > best_fixed.p_out + 3 * combined_se(par, best_fixed):
            violations += 1
    check(
        "criterion 8: policy dominance at every swept point",
        violations == 0,
        f"{len(points)} points, {violations} violations",
    )


def test_criterion_9_cli_sweep_determinism(tmp_path):
    cfg = {
        "p_s_dbm": 40.0, "sigma_r_sq_dbm": -20.0, "sigma_p_sq_dbm": -20.0,
        "sigma_d_sq_dbm": -17.0, "rate_bps_hz": 3.0,
        "lambda_h": 1.5, "lambda_g": 1.5,
        "policies": ["full_csi", "partial_csi", "fixed:0.4"],
        "sweep": {"variable": "lambda_g", "values": [1.0, 2.0, 3.0]},
        "n": 50000, "seed": SEED,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for name, extra in (("a", []), ("b", []), ("c", ["--workers", "4"])):
        out = tmp_path / f"{name}.csv"
        r = subprocess.run(
            [sys.executable, "-m", "swipt_relay.cli", "sweep",
             "--config", str(cfg_path), "--out", str(out), *extra],
            env=package_env(), capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    check("criterion 9: cmd_sweep byte-identical across reruns and worker counts",
          ok, f"{len(outputs[0])} bytes each")


def test_criterion_10_channel_sampler_distribution():
    n = 10**5
    critical = 1.628 / math.sqrt(n)  # 1% KS critical value, large-sample
    details, ok = [], True
    for i, lam in enumerate((0.5, 1.5, 5.0)):
        samples = sample_gains(substream(SEED + i), lam, n)
        stat = stats.kstest(samples, "expon", args=(0, lam)).statistic
        ok = ok and stat < critical
        details.append(f"lambda={lam}: D={stat:.2e}")
    check("criterion 10: KS test vs Exponential(lambda) at 1% level", ok,
          f"critical={critical:.2e}; " + "; ".join(details))

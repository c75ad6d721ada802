import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from conftest import package_env
from swipt_relay import policy, verify
from swipt_relay.channel import FadingParams, substream
from swipt_relay.link import f_of_rho, h_threshold, snr, w_ratio
from swipt_relay.params import SystemParams, dbm_to_linear
from swipt_relay.policy import (
    full_csi_rho,
    oracle_grid_full,
    oracle_grid_partial,
    partial_csi_rho,
)
from swipt_relay.sim import POINT_FIELDS, operating_points
from swipt_relay.verify import (
    DEFAULT_RATE,
    STEP,
    battery_full_csi,
    battery_partial_csi,
    battery_snr_identity,
)


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_partial_csi_battery_sees_a_wrong_threshold(monkeypatch, factor):
    # the closed form reads H0 through policy.h_threshold; the grid oracle
    # tests F(rho) > 0 itself, so a scaled H0 shows up as a disagreement
    h_threshold = policy.h_threshold
    monkeypatch.setattr(policy, "h_threshold", lambda p: factor * h_threshold(p))
    with np.errstate(invalid="ignore"):  # a too-low H0 takes sqrt of negatives
        assert not battery_partial_csi(count=1000).passed


def test_partial_csi_battery_accepts_a_feasible_interval_narrower_than_the_grid(
        monkeypatch, ref_params):
    # |h|^2 just above H0: rho_max = 1 - gamma_0 sp^2 / a = 5e-5 < STEP, so no
    # grid point is feasible, while the closed form rightly transmits
    params = ref_params
    gamma_0 = params.gamma_0
    a = gamma_0 * params.sigma_p_sq / (1.0 - 5e-5)
    h_sq = (a + gamma_0 * params.sigma_r_sq) / params.p_s
    rho_cf = float(partial_csi_rho(params, h_sq))
    assert oracle_grid_partial(params, h_sq, STEP) == 1.0
    assert 0.0 < rho_cf < 5e-5 and f_of_rho(params, h_sq, rho_cf) > 0.0

    # the battery's draw step hands over this one instance
    monkeypatch.setattr(verify, "_draw_partial",
                        lambda rng, count: (operating_points([(params, FadingParams(1.0, 1.0))]),
                                           np.array([h_sq])))
    result = battery_partial_csi(count=1)
    assert result.passed, result.detail
    assert "bad_infeasible=0" in result.detail


# A NaN from a closed form must fail its battery and show in the detail line,
# not vanish in a max(). |h|^2 > 5 is about one draw in ten, and always above
# H0, so in the partial battery it hits transmitting draws only.
def _nan_where_h_above_5(rule):
    def patched(params, h_sq, *rest):
        return np.where(np.asarray(h_sq) > 5.0, np.nan, rule(params, h_sq, *rest))
    return patched


def test_full_csi_battery_fails_on_a_nan_rho(monkeypatch):
    monkeypatch.setattr(verify, "full_csi_rho", _nan_where_h_above_5(full_csi_rho))
    result = battery_full_csi(count=1000)
    assert not result.passed
    assert "max|drho|=nan" in result.detail


def test_partial_csi_battery_fails_on_a_nan_rho(monkeypatch):
    monkeypatch.setattr(verify, "partial_csi_rho", _nan_where_h_above_5(partial_csi_rho))
    result = battery_partial_csi(count=1000)
    assert not result.passed
    assert "max|drho|=nan" in result.detail


def test_snr_identity_battery_fails_on_a_nan_snr(monkeypatch):
    monkeypatch.setattr(verify, "snr", lambda params, h_sq, g_sq, rho: np.where(
        h_sq > 5.0, np.nan, snr(params, h_sq, g_sq, rho)))
    result = battery_snr_identity(count=30_000)
    assert not result.passed
    assert "max_rel_err=nan" in result.detail


# The per-instance batteries as they were before they took whole arrays, one
# scalar oracle call per instance: the reference the array batteries must
# reproduce exactly.
def _scalar_params(rng):
    return SystemParams(
        p_s=dbm_to_linear(float(rng.uniform(20.0, 50.0))),
        sigma_r_sq=dbm_to_linear(float(rng.uniform(-30.0, -10.0))),
        sigma_p_sq=dbm_to_linear(float(rng.uniform(-30.0, -10.0))),
        sigma_d_sq=dbm_to_linear(float(rng.uniform(-30.0, -10.0))),
        rate=DEFAULT_RATE,
        epsilon=float(rng.uniform(0.2, 1.0)),
    )


def _scalar_full(count, seed):
    rng = substream(seed)
    rows, worst_drho, worst_rel = [], 0.0, 0.0
    for _ in range(count):
        params = _scalar_params(rng)
        h_sq = float(np.exp(rng.uniform(np.log(0.01), np.log(10.0))))
        g_sq = float(np.exp(rng.uniform(np.log(0.01), np.log(10.0))))
        rho_cf = float(full_csi_rho(params, h_sq, g_sq))
        rho_grid = oracle_grid_full(params, h_sq, g_sq, STEP)
        snr_cf = float(snr(params, h_sq, g_sq, rho_cf))
        snr_grid = float(snr(params, h_sq, g_sq, rho_grid))
        worst_drho = max(worst_drho, abs(rho_cf - rho_grid))
        worst_rel = max(worst_rel, (snr_grid - snr_cf) / snr_grid)
        rows.append((params, h_sq, g_sq, rho_cf, rho_grid))
    detail = f"count={count} max|drho|={worst_drho:.3g} max_rel_snr_deficit={worst_rel:.3g}"
    return rows, detail


def _scalar_partial(count, seed):
    rng = substream(seed)
    rows, worst_drho, worst_rel, bad_infeasible = [], 0.0, 0.0, 0
    for _ in range(count):
        params = _scalar_params(rng)
        low = np.log(h_threshold(params) / 10.0)
        h_sq = float(np.exp(rng.uniform(low, np.log(10.0))))
        rho_cf = float(partial_csi_rho(params, h_sq))
        rho_grid = oracle_grid_partial(params, h_sq, STEP)
        rows.append((params, h_sq, rho_cf, rho_grid))
        if rho_grid == 1.0:
            feasible = 0.0 < rho_cf < 1.0 and f_of_rho(params, h_sq, rho_cf) > 0.0
            if rho_cf != 1.0 and not feasible:
                bad_infeasible += 1
            continue
        worst_drho = max(worst_drho, abs(rho_cf - rho_grid))
        w_cf = float(w_ratio(params, h_sq, rho_cf))
        w_grid = float(w_ratio(params, h_sq, rho_grid))
        if w_grid > 0:
            worst_rel = max(worst_rel, (w_grid - w_cf) / w_grid)
    detail = (f"count={count} max|drho|={worst_drho:.3g} max_rel_w_deficit={worst_rel:.3g} "
              f"bad_infeasible={bad_infeasible}")
    return rows, detail


def _assert_view_holds(view, params):
    """The record view has, field by field, the parameters of the scalar loop."""
    for field in POINT_FIELDS:
        assert view[field].tolist() == [getattr(p, field) for p in params]


def _recording(monkeypatch, name, log):
    """Replace verify.<name> by a wrapper that appends (args, result) to log."""
    fn = getattr(verify, name)

    def recorded(*args):
        result = fn(*args)
        log.append((args, result))
        return result
    monkeypatch.setattr(verify, name, recorded)


@pytest.mark.parametrize("seed", [2024, 2025, 4242])
def test_full_csi_battery_matches_the_scalar_loop(monkeypatch, seed):
    rows, detail = _scalar_full(1000, seed)
    closed, oracle = [], []
    _recording(monkeypatch, "full_csi_rho", closed)
    _recording(monkeypatch, "oracle_grid_full", oracle)
    result = battery_full_csi(count=1000, seed=seed)
    assert result.detail == detail
    [((_, h_sq, g_sq), rho_cf)] = closed
    [((view, h_grid, g_grid, step), rho_grid)] = oracle  # one call for all instances
    _assert_view_holds(view, [row[0] for row in rows])
    assert h_grid.tolist() == h_sq.tolist() == [row[1] for row in rows]
    assert g_grid.tolist() == g_sq.tolist() == [row[2] for row in rows]
    assert step == STEP
    assert rho_cf.tolist() == [row[3] for row in rows]
    assert rho_grid.tolist() == [row[4] for row in rows]


@pytest.mark.parametrize("seed", [2024, 2025, 4242])
def test_partial_csi_battery_matches_the_scalar_loop(monkeypatch, seed):
    rows, detail = _scalar_partial(1000, seed)
    closed, oracle = [], []
    _recording(monkeypatch, "partial_csi_rho", closed)
    _recording(monkeypatch, "oracle_grid_partial", oracle)
    result = battery_partial_csi(count=1000, seed=seed)
    assert result.detail == detail
    [((_, h_sq), rho_cf)] = closed
    [((view, h_grid, step), rho_grid)] = oracle  # one call for all instances
    _assert_view_holds(view, [row[0] for row in rows])
    assert h_grid.tolist() == h_sq.tolist() == [row[1] for row in rows]
    assert step == STEP
    assert rho_cf.tolist() == [row[2] for row in rows]
    assert rho_grid.tolist() == [row[3] for row in rows]


def test_random_instances_match_the_scalar_draws(random_instances):
    rng, ref = substream(7), substream(7)
    expected = [(_scalar_params(ref),
                 float(np.exp(ref.uniform(np.log(0.01), np.log(10.0)))),
                 float(np.exp(ref.uniform(np.log(0.01), np.log(10.0)))))
                for _ in range(300)]
    assert random_instances(rng, 300) == expected
    assert rng.random() == ref.random()  # the stream is left where it was


def _scalar_rows(seed, count, gains):
    """The first count _scalar_params of a battery's stream, skipping the
    `gains` uniforms that follow each instance's own five."""
    rng = substream(seed)
    rows = []
    for _ in range(count):
        rows.append(_scalar_params(rng))
        rng.random(gains)
    return rows


def _assert_view_is_the_scalar_params(view, expected):
    _assert_view_holds(view, expected)
    # each row is a valid SystemParams, equal to the scalar draw's bit for bit
    assert [SystemParams(*row[:4], rate=DEFAULT_RATE, epsilon=row[4])
            for row in view.tolist()] == expected


@pytest.mark.parametrize("draw,seed,gains", [
    (verify._draw_full, 2024, 2), (verify._draw_partial, 2025, 1)])
def test_the_grid_batteries_draw_the_scalar_params_at_full_count(draw, seed, gains):
    view = draw(substream(seed), 10_000)[0]
    _assert_view_is_the_scalar_params(view, _scalar_rows(seed, 10_000, gains))


def test_the_snr_identity_points_are_the_scalar_params(monkeypatch):
    calls = []
    _recording(monkeypatch, "snr", calls)
    assert battery_snr_identity().passed
    [((view, *_), _)] = calls
    assert view.shape == (1000, 1)  # one row per operating point
    _assert_view_is_the_scalar_params(view.ravel(), _scalar_rows(2026, 1000, 0))


# A fresh interpreter: the heap has not yet grown, so large arrays made and
# freed in a loop would each be mapped and unmapped again; (block, grid)
# arrays per block of instances took this battery about 338,000 minor faults.
# The bisection oracle's arrays hold one value per instance, and the battery
# takes about 1,500.
FRESH_PARTIAL = """
import resource
from swipt_relay.verify import battery_partial_csi
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
passed = battery_partial_csi().passed
print(passed, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_a_fresh_partial_battery_does_not_refault_its_blocks():
    pytest.importorskip("resource")
    proc = subprocess.run([sys.executable, "-c", FRESH_PARTIAL], env=package_env(),
                          capture_output=True, text=True, timeout=120)
    passed, faults = proc.stdout.split()
    assert passed == "True"
    assert int(faults) < 50_000


BATTERIES = ("battery_full_csi", "battery_partial_csi", "battery_snr_identity",
             "battery_estimator_cross_check")


def _within(seconds, fn):
    """fn() on a daemon thread: its result, its error, or a failure after seconds."""
    box = []

    def run():
        try:
            box.append((fn(), None))
        except BaseException as e:  # noqa: BLE001 - re-raised below
            box.append((None, e))

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(seconds)
    assert box, f"no result within {seconds} s"
    result, error = box[0]
    if error is not None:
        raise error
    return result


def test_threaded_batteries_equal_a_serial_run(monkeypatch):
    ran_on = []  # the thread of each battery call
    for name in BATTERIES:
        def recorded(*args, _battery=getattr(verify, name), **kwargs):
            ran_on.append(threading.current_thread())
            return _battery(*args, **kwargs)
        monkeypatch.setattr(verify, name, recorded)

    def lines(cpus, repeats):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        return [[(r.name, r.passed, r.detail) for r in verify.run_all(quick=True)]
                for _ in range(repeats)]

    [serial] = lines(1, 1)
    assert ran_on == [threading.main_thread()] * 4
    ran_on.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # 4 threads, likely more than cores, switching at every chance
    try:
        threaded = _within(120, lambda: lines(8, 3))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == [serial] * 3
    assert len(ran_on) == 12
    assert all(t.name.startswith("ThreadPoolExecutor") for t in ran_on)

import concurrent.futures
import dataclasses
import inspect
import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from conftest import package_env
from swipt_relay import sim
from swipt_relay.channel import FadingParams, sample_channels, sample_gains, substream
from swipt_relay.link import conditional_outage, f_of_rho, h_threshold, sigma0_sq, snr
from swipt_relay.params import SystemParams, dbm_to_linear
from swipt_relay.policy import (
    Fixed,
    FullCSI,
    PartialCSI,
    decide_rho,
    full_csi_rho,
    parse_policy,
    partial_csi_rho,
)
from swipt_relay.sim import (
    OutageEstimate,
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

GAMMA_0 = 7.0


def install_serial_pool(monkeypatch, cpus):
    """Patch concurrent.futures.ThreadPoolExecutor, which sim imports at call
    time, with a serial stand-in and report os.cpu_count() as cpus. Returns the
    list of max_workers, one entry per pool started. No thread is started."""
    started = []

    class SerialPool:
        """Runs the items worker by worker (item i on worker i % max_workers),
        so the run order depends on the worker count, and returns the results
        in submission order, as Executor.map does."""
        def __init__(self, max_workers):
            started.append(max_workers)
            self.workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            results = [None] * len(items)
            for w in range(self.workers):
                for i in range(w, len(items), self.workers):
                    results[i] = fn(items[i])
            return iter(results)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: cpus)
    return started


class TestOutageMc:
    def test_hopeless_configuration(self, ref_params):
        # nearly all power harvested and tiny fading means: outage almost sure
        fading = FadingParams(lambda_h=1e-6, lambda_g=1e-6)
        est = outage_mc(ref_params, fading, Fixed(0.999999), 20000, 1)
        assert est.p_out > 0.999

    def test_deterministic_in_seed(self, ref_params, ref_fading):
        a = outage_mc(ref_params, ref_fading, Fixed(0.6), 50000, 7)
        b = outage_mc(ref_params, ref_fading, Fixed(0.6), 50000, 7)
        assert a == b
        c = outage_mc(ref_params, ref_fading, Fixed(0.6), 50000, 8)
        assert a != c

    def test_std_err_is_binomial(self, ref_params, ref_fading):
        est = outage_mc(ref_params, ref_fading, Fixed(0.4), 10000, 3)
        expected = math.sqrt(est.p_out * (1 - est.p_out) / est.n)
        assert est.std_err == pytest.approx(expected, rel=1e-12)

    def test_harvest_only_fraction_partial_csi(self, ref_params):
        # lambda_h equal to the threshold: P(h <= H0) = 1 - 1/e
        h0 = h_threshold(ref_params)
        fading = FadingParams(lambda_h=h0, lambda_g=1.5)
        est = outage_mc(ref_params, fading, PartialCSI(), 10**5, 4)
        assert est.harvest_only_fraction == pytest.approx(1 - math.exp(-1), abs=0.01)
        assert math.isfinite(est.mean_rho)

    @pytest.mark.parametrize("rho0,n", [(0.6, 1000), (0.999999, sim.BATCH_SIZE + 12345)])
    def test_fixed_policy_rho_stats(self, ref_params, ref_fading, rho0, n):
        # every draw transmits at rho0, so the mean rho is rho0 up to its last division
        est = outage_mc(ref_params, ref_fading, Fixed(rho0), n, 5)
        assert abs(est.mean_rho - rho0) <= math.ulp(rho0)
        assert est.harvest_only_fraction == 0.0

    def test_crn_shares_draws_across_policies(self, ref_params, ref_fading):
        joint = outage_point(
            ref_params, ref_fading, (Fixed(0.6), Fixed(0.8)), GAMMA_0, 50000, 9
        )
        solo = outage_mc(ref_params, ref_fading, Fixed(0.6), 50000, 9)
        assert joint[0] == solo

    def test_worker_count_does_not_change_result(self, ref_params, ref_fading):
        a = outage_point(ref_params, ref_fading, (FullCSI(),), GAMMA_0, 10**6, 10, workers=1)
        b = outage_point(ref_params, ref_fading, (FullCSI(),), GAMMA_0, 10**6, 10, workers=3)
        assert a == b

    @pytest.mark.parametrize("cpus,expected", [(2, 2), (8, 3)])
    def test_workers_clamped_to_cores_and_batches(self, monkeypatch, ref_params,
                                                  ref_fading, cpus, expected):
        monkeypatch.setattr(sim, "BATCH_SIZE", 1000)
        started = install_serial_pool(monkeypatch, cpus)
        policies = (FullCSI(), Fixed(0.6))
        serial = outage_point(ref_params, ref_fading, policies, GAMMA_0, 2500, 12)
        pooled = outage_point(ref_params, ref_fading, policies, GAMMA_0, 2500, 12, workers=64)
        assert started == [expected]  # 3 batches
        assert pooled == serial

    @pytest.mark.parametrize("p_s_dbm", [30.0, 40.0, 50.0])
    def test_full_and_partial_csi_fail_on_the_same_draws(self, ref_params, ref_fading, p_s_dbm):
        # both fail exactly when |g|^2 * max_rho W(rho) < gamma_0
        params = dataclasses.replace(ref_params, p_s=dbm_to_linear(p_s_dbm))
        h, g = sample_channels(substream(13), ref_fading, 1 << 19)
        full = snr(params, h, g, full_csi_rho(params, h, g)) < GAMMA_0
        partial = snr(params, h, g, partial_csi_rho(params, h)) < GAMMA_0
        assert np.any(full)
        assert np.count_nonzero(full != partial) == 0

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(p_s_dbm=st.floats(20.0, 55.0), noise_dbm=st.tuples(*[st.floats(-30.0, -10.0)] * 3),
           epsilon=st.floats(0.1, 1.0), lambda_h=st.floats(0.1, 10.0),
           lambda_g=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_full_and_partial_csi_fail_on_the_same_draws_anywhere(
            self, p_s_dbm, noise_dbm, epsilon, lambda_h, lambda_g, seed):
        sr, sp, sd = (dbm_to_linear(x) for x in noise_dbm)
        params = SystemParams(p_s=dbm_to_linear(p_s_dbm), sigma_r_sq=sr, sigma_p_sq=sp,
                              sigma_d_sq=sd, rate=3.0, epsilon=epsilon)
        h, g = sample_channels(substream(seed), FadingParams(lambda_h, lambda_g), 4096)
        full = snr(params, h, g, full_csi_rho(params, h, g)) < GAMMA_0
        partial = snr(params, h, g, partial_csi_rho(params, h)) < GAMMA_0
        assert np.count_nonzero(full != partial) == 0


def _reference_stats(params, policies, h, g):
    """The Monte Carlo batch written plainly on given draws: every draw, no
    screen, outage as snr() < gamma_0. A Fixed rho's sum is math.fsum's exactly
    rounded one, which is the one rounding of rho0 * size."""
    stats = []
    for pol in policies:
        rho = np.broadcast_to(decide_rho(pol, params, h, g), np.shape(h))
        transmitting = rho < 1.0
        rho_tx = np.where(transmitting, rho, 0.0)
        stats.append((
            int(np.count_nonzero(snr(params, h, g, rho) < params.gamma_0)),
            math.fsum(rho_tx) if isinstance(pol, Fixed) else float(np.sum(rho_tx)),
            int(np.count_nonzero(transmitting)),
        ))
    return stats


def _reference_mc_batch(params, fading, policies, seed, key, batch_idx, size):
    """_reference_stats on the batch's own channel draws."""
    h, g = sample_channels(substream(seed, *key, batch_idx), fading, size)
    return _reference_stats(params, policies, h, g)


class TestMcKernel:
    POLICIES = (FullCSI(), PartialCSI(), Fixed(0.4), Fixed(0.6), Fixed(0.8))

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(p_s_dbm=st.floats(20.0, 55.0), noise_dbm=st.tuples(*[st.floats(-30.0, -10.0)] * 3),
           epsilon=st.floats(0.1, 1.0), lambda_h=st.floats(0.1, 10.0),
           lambda_g=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_full_batch_snr_reference(
            self, p_s_dbm, noise_dbm, epsilon, lambda_h, lambda_g, seed):
        sr, sp, sd = (dbm_to_linear(x) for x in noise_dbm)
        params = SystemParams(p_s=dbm_to_linear(p_s_dbm), sigma_r_sq=sr, sigma_p_sq=sp,
                              sigma_d_sq=sd, rate=3.0, epsilon=epsilon)
        # two full chunks and a partial one
        args = (params, FadingParams(lambda_h, lambda_g), self.POLICIES,
                seed, (3,), 1, 2 * sim.CHUNK + 1001)
        assert sim._mc_batch(args) == _reference_mc_batch(*args)

    @pytest.mark.parametrize("chunk", [1000, 1 << 10, sim.BATCH_SIZE])
    def test_estimates_do_not_depend_on_chunk_size(self, monkeypatch, ref_params,
                                                   ref_fading, chunk):
        n = sim.BATCH_SIZE + 12345  # a full batch and a short one
        expected = outage_point(ref_params, ref_fading, self.POLICIES, GAMMA_0, n, 14)
        monkeypatch.setattr(sim, "CHUNK", chunk)
        assert outage_point(ref_params, ref_fading, self.POLICIES, GAMMA_0, n, 14) == expected


def _boundary_draws(params, policies, seed, size):
    """(|h|^2, |g|^2) draws where most |g|^2 lie within 4 ulps of some policy's
    outage boundary |g|^2 F(rho) = gamma_0 sigma_0^2(rho). |h|^2 is mostly
    log-uniform on [H0/4, 1e4 H0], where the screen's bounds are tightest, and
    H0 itself or its neighbours for a few draws. The dynamic rules share partial CSI's boundary, since full
    CSI is in outage on exactly the draws where partial CSI is."""
    rng = np.random.default_rng(seed)
    h0 = h_threshold(params)
    h = h0 * np.exp(rng.uniform(np.log(0.25), np.log(1e4), size))
    h[:size // 8] = rng.exponential(1.0, size // 8)
    h[rng.integers(size, size=64)] = h0
    h[-3:] = np.nextafter(h0, 0.0), h0, np.nextafter(h0, np.inf)
    rules = [pol.rho0 for pol in policies if isinstance(pol, Fixed)]
    if len(rules) < len(policies):
        rules.append(partial_csi_rho(params, h))
    rho = np.choose(rng.integers(len(rules), size=size), rules)
    f = f_of_rho(params, h, rho)
    g_edge = params.gamma_0 * sigma0_sq(params, h, rho) / np.where(f > 0.0, f, 1.0)
    g_edge += rng.integers(-4, 5, size) * np.spacing(g_edge)
    # a few ordinary draws, and every draw where the rule is infeasible
    ordinary = (f <= 0.0) | (rng.random(size) < 0.05)
    return h, np.where(ordinary, rng.exponential(1.0, size), g_edge)


class TestOutageScreen:
    """_mc_batch runs the exact outage test only on the draws its screen keeps;
    every count must equal the snr reference's over all draws, also where the
    draws sit at the outage boundary."""
    SHIPPED = (FullCSI(), PartialCSI(), Fixed(0.4), Fixed(0.6), Fixed(0.8))
    EXTREME_FIXED = (Fixed(0.001), PartialCSI(), Fixed(0.999))
    DYNAMIC = (FullCSI(), PartialCSI())

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(p_s_dbm=st.floats(0.0, 60.0), noise_dbm=st.tuples(*[st.floats(-40.0, -5.0)] * 3),
           rate=st.floats(0.5, 6.0), epsilon=st.floats(0.05, 1.0),
           policies=st.one_of(st.sampled_from([SHIPPED, EXTREME_FIXED, DYNAMIC]),
                              st.floats(0.001, 0.999).map(lambda r: (Fixed(r),))),
           seed=st.integers(0, 2**32 - 1))
    def test_counts_equal_the_unscreened_test_at_the_boundary(
            self, p_s_dbm, noise_dbm, rate, epsilon, policies, seed):
        sr, sp, sd = (dbm_to_linear(x) for x in noise_dbm)
        params = SystemParams(p_s=dbm_to_linear(p_s_dbm), sigma_r_sq=sr, sigma_p_sq=sp,
                              sigma_d_sq=sd, rate=rate, epsilon=epsilon)
        size = sim.CHUNK + 999  # a full slice and a short one
        h, g = _boundary_draws(params, policies, seed, size)
        assert _mc_batch_on(params, policies, h, g) == _reference_stats(params, policies, h, g)

    @staticmethod
    def _tight_draws(sigma_r_dbm, delta):
        """Draws where both bounds of the screen are nearly tight: gamma_0 -> 0,
        rho = 1/2, a = A* (1 + U(0, delta)) with A* = 4 k_p and a huge q, so the
        screen's bound on |g|^2 is about 1 + delta times the outage boundary,
        and |g|^2 within 4 ulps of that boundary. The bound's sigma_0^2 factor
        (1/2 + q)/(1 + q) leaves a room that shrinks with sigma_r^2."""
        params = SystemParams(p_s=dbm_to_linear(0.0), sigma_r_sq=dbm_to_linear(sigma_r_dbm),
                              sigma_p_sq=dbm_to_linear(-5.0),
                              sigma_d_sq=dbm_to_linear(-20.0), rate=1e-15)
        size = sim.CHUNK + 999
        rng = np.random.default_rng(16)
        a = 4.0 * params.gamma_0 * params.sigma_p_sq * (1.0 + rng.uniform(0.0, delta, size))
        h = (a + params.gamma_0 * params.sigma_r_sq) / params.p_s
        g = params.gamma_0 * sigma0_sq(params, h, 0.5) / f_of_rho(params, h, 0.5)
        g += rng.integers(-4, 5, size) * np.spacing(g)
        return params, h, g

    def _assert_slack_drops_outages(self, monkeypatch, sigma_r_dbm, delta, slack):
        """The shipped slack keeps every outage of the draws; `slack` drops some."""
        params, h, g = self._tight_draws(sigma_r_dbm, delta)
        policies = (Fixed(0.5),)
        (expected, _, _), = _reference_stats(params, policies, h, g)
        assert _mc_batch_on(params, policies, h, g)[0][0] == expected
        monkeypatch.setattr(sim, "SCREEN_SLACK", slack)
        assert _mc_batch_on(params, policies, h, g)[0][0] < expected

    def test_the_slack_keeps_the_outages_where_the_bound_is_tight(self, monkeypatch):
        """At sigma_r^2 = -100 dBm and delta below 1e-8, a slack of -1e-9 drops
        the outages with delta below about 1e-9; the shipped slack keeps them."""
        self._assert_slack_drops_outages(monkeypatch, -100.0, 1e-8, -1e-9)

    def test_a_slack_below_zero_drops_outages_where_the_bound_is_tighter(self, monkeypatch):
        """At sigma_r^2 = -130 dBm the room is far below 1e-12, so with delta
        below 1e-12 a slack of -1e-12 drops outages (564 of 3,769 kept) that the
        shipped slack keeps: the slack cannot be negative by even 1e-12."""
        self._assert_slack_drops_outages(monkeypatch, -130.0, 1e-12, -1e-12)


def _mc_batch_on(params, policies, h, g):
    """_mc_batch on the given draws, written into its workspace rows."""
    calls = []

    def draws(rng, fading, n, out):
        calls.append(n)
        np.copyto(out[0], h)
        np.copyto(out[1], g)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "sample_channels", draws)
        got = sim._mc_batch((params, FadingParams(1.0, 1.0), policies, 0, (), 0, len(h)))
    assert calls == [len(h)]
    return got


# A fresh interpreter running one point after another: slice-sized temporaries
# freed between calls let glibc trim its heap, so every call refaulted them
# (about 29,000 minor faults per n = 1e7 point at 2^15-draw slices). The
# kernels write every slice into workspace rows, and the second call reads 0.
SECOND_POINT = """
import resource
from swipt_relay import sim
from swipt_relay.channel import FadingParams
from swipt_relay.params import SystemParams, dbm_to_linear
from swipt_relay.policy import Fixed, FullCSI, PartialCSI
params = SystemParams(p_s=dbm_to_linear(50.0), sigma_r_sq=0.01, sigma_p_sq=0.01,
                      sigma_d_sq=dbm_to_linear(-17.0), rate=3.0)
point = (params, FadingParams(1.5, 1.5), (FullCSI(), PartialCSI(), Fixed(0.4), Fixed(0.6),
         Fixed(0.8)), params.gamma_0, 4 * sim.BATCH_SIZE, 7)
sim.outage_point(*point)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
sim.outage_point(*point)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestWorkspace:
    """_mc_batch keeps h, g and each dynamic rho in rows of a per-thread
    workspace that grows to the largest batch and is then reused."""
    SHIPPED = (FullCSI(), PartialCSI(), Fixed(0.4), Fixed(0.6), Fixed(0.8))
    MIXES = ((Fixed(0.4), Fixed(0.8)), (Fixed(0.6), PartialCSI()),
             (PartialCSI(), Fixed(0.4), FullCSI()))  # 0, 1 and 2 dynamic rules

    def test_a_warm_batch_allocates_nothing_slice_sized(self, ref_params, ref_fading):
        # one float temporary of a slice is 8 CHUNK bytes (256 KiB), a batch array 4 MiB
        params = dataclasses.replace(ref_params, p_s=dbm_to_linear(50.0))
        args = (params, ref_fading, self.SHIPPED, 41, (), 0, sim.BATCH_SIZE)
        sim._mc_batch(args)
        tracemalloc.start()
        try:
            sim._mc_batch(args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**10

    def test_a_second_point_in_a_fresh_process_takes_no_fault_storm(self):
        pytest.importorskip("resource")
        proc = subprocess.run([sys.executable, "-c", SECOND_POINT], env=package_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 100

    def test_batches_in_sequence_equal_the_reference(self, monkeypatch, ref_params, ref_fading):
        monkeypatch.setattr(sim, "_local", threading.local())  # no workspace yet
        n = 2500
        with monkeypatch.context() as mp:
            mp.setattr(sim, "BATCH_SIZE", 1000)
            for pols in self.MIXES:
                batches = [_reference_mc_batch(ref_params, ref_fading, pols, 42, (), b, size)
                           for b, size in enumerate((1000, 1000, 500))]
                got = outage_point(ref_params, ref_fading, pols, GAMMA_0, n, 42)
                assert got == sim._mc_estimates(batches, n)
        for pols, size in [(self.MIXES[2], sim.BATCH_SIZE), (self.MIXES[0], 777),
                           (self.MIXES[1], sim.BATCH_SIZE), (self.MIXES[2], sim.CHUNK + 1),
                           (self.MIXES[0], sim.BATCH_SIZE), (self.MIXES[1], 1)]:
            args = (ref_params, ref_fading, pols, 43, (size,), 0, size)
            assert sim._mc_batch(args) == _reference_mc_batch(*args)

    def test_threads_running_batches_at_once_match_the_serial_results(self, ref_params,
                                                                      ref_fading):
        jobs = [(ref_params, ref_fading, self.MIXES[i % 3], 44, (), i, 3 * sim.CHUNK + 17 * i)
                for i in range(12)]
        serial = [sim._mc_batch(args) for args in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(sim._mc_batch, args) for args in jobs]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


class TestSampleCount:
    """n >= 1, and outage_point's gamma_0, are checked once, before any batch runs."""

    @pytest.fixture(autouse=True)
    def no_batch_runs(self, monkeypatch):
        def fail(args):
            raise AssertionError("a batch ran")
        monkeypatch.setattr(sim, "_mc_batch", fail)
        monkeypatch.setattr(sim, "_sa_batch", fail)

    def test_outage_point(self, ref_params, ref_fading):
        with pytest.raises(ValueError, match="n must be >= 1"):
            outage_point(ref_params, ref_fading, (Fixed(0.5),), GAMMA_0, n=0, seed=1)

    def test_outage_point_rejects_a_gamma_0_other_than_params(self, ref_params, ref_fading):
        with pytest.raises(ValueError, match="gamma_0"):
            outage_point(ref_params, ref_fading, (Fixed(0.5),), ref_params.gamma_0 + 1, 10, 1)

    def test_outage_semi_analytic(self, ref_params, ref_fading):
        with pytest.raises(ValueError, match="n must be >= 1"):
            outage_semi_analytic(ref_params, ref_fading, Fixed(0.5), n_h=0, seed=1)

    def test_run_sweep(self, ref_params, ref_fading):
        with pytest.raises(ValueError, match="n must be"):
            spec = SweepSpec(variable="p_s_dbm", values=(40.0,), params=ref_params,
                             fading=ref_fading, policies=(Fixed(0.5),), n=0, seed=1)
            run_sweep(spec)


def _reference_sa_batch(params, fading, policy, seed, key, batch_idx, size):
    """The semi-analytic batch written plainly, on fresh full-batch arrays. A
    Fixed rho's sum is math.fsum's, as in _reference_stats."""
    h_sq = sample_gains(substream(seed, *key, batch_idx), fading.lambda_h, size)
    rho = np.broadcast_to(decide_rho(policy, params, h_sq, None), h_sq.shape)
    p = conditional_outage(params, h_sq, rho, fading.lambda_g)
    transmitting = rho < 1.0
    rho_tx = np.where(transmitting, rho, 0.0)
    return (float(p.sum()), float(np.square(p).sum()),
            math.fsum(rho_tx) if isinstance(policy, Fixed) else float(np.sum(rho_tx)),
            int(np.count_nonzero(transmitting)))


def _reference_semi_analytic(params, fading, policy, n_h, seed):
    """outage_semi_analytic written plainly: _reference_sa_batch per batch,
    sums merged with fsum, standard error from the sample variance."""
    sizes = [min(sim.BATCH_SIZE, n_h - lo) for lo in range(0, n_h, sim.BATCH_SIZE)]
    batches = [_reference_sa_batch(params, fading, policy, seed, (), b, size)
               for b, size in enumerate(sizes)]
    s1, s2, rho_sum = (math.fsum(batch[i] for batch in batches) for i in range(3))
    n_tx = sum(batch[3] for batch in batches)
    p = s1 / n_h
    var = max((s2 - n_h * p * p) / (n_h - 1), 0.0) if n_h > 1 else 0.0
    return OutageEstimate(p_out=p, std_err=math.sqrt(var / n_h), n=n_h,
                          mean_rho=rho_sum / n_tx if n_tx else float("nan"),
                          harvest_only_fraction=(n_h - n_tx) / n_h)


class TestSemiAnalytic:
    # batches that end inside the first slice, one short of and one past a
    # full slice, and a full batch and a short one
    @pytest.mark.parametrize("n_h", [1, 8191, 8193, sim.CHUNK - 1, sim.CHUNK + 1,
                                     sim.BATCH_SIZE + 12345])
    @pytest.mark.parametrize("epsilon", [1.0, 0.5])
    @pytest.mark.parametrize("policy", [PartialCSI(), Fixed(0.6)])
    def test_equals_the_full_batch_reference(self, ref_params, ref_fading, policy, epsilon, n_h):
        params = dataclasses.replace(ref_params, epsilon=epsilon)
        assert (outage_semi_analytic(params, ref_fading, policy, n_h, 17)
                == _reference_semi_analytic(params, ref_fading, policy, n_h, 17))

    def test_a_warm_batch_allocates_nothing_slice_sized(self, ref_params, ref_fading):
        # one float temporary of a slice is 256 KiB: the full-batch reference peaks at about 36 MiB
        params = dataclasses.replace(ref_params, p_s=dbm_to_linear(50.0))
        args = (params, ref_fading, (PartialCSI(),), 41, (), 0, sim.BATCH_SIZE)
        sim._sa_batch(args)
        tracemalloc.start()
        try:
            sim._sa_batch(args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**10

    @pytest.mark.parametrize("rho0,n_h", [(0.6, 1000), (0.999999, sim.BATCH_SIZE + 12345)])
    def test_fixed_policy_mean_rho_is_rho0(self, ref_params, ref_fading, rho0, n_h):
        # every draw transmits at rho0, so the mean rho is rho0 up to its last division
        est = outage_semi_analytic(ref_params, ref_fading, Fixed(rho0), n_h, 5)
        assert abs(est.mean_rho - rho0) <= math.ulp(rho0)
        assert est.harvest_only_fraction == 0.0

    def test_rejects_full_csi(self, ref_params, ref_fading):
        with pytest.raises(ValueError):
            outage_semi_analytic(ref_params, ref_fading, FullCSI(), 100, 1)

    def test_deterministic(self, ref_params, ref_fading):
        a = outage_semi_analytic(ref_params, ref_fading, PartialCSI(), 10000, 2)
        b = outage_semi_analytic(ref_params, ref_fading, PartialCSI(), 10000, 2)
        assert a == b

    def test_hopeless_channel(self, ref_params):
        h0 = h_threshold(ref_params)
        fading = FadingParams(lambda_h=h0 / 100, lambda_g=1.5)
        est = outage_semi_analytic(ref_params, fading, PartialCSI(), 10000, 3)
        assert est.p_out > 0.999
        assert outage_exact(ref_params, fading, PartialCSI()) > 0.999

    def test_cross_check_with_mc(self, ref_params, ref_fading):
        # three routes: MC and semi-analytic agree, and each is within 3 sigma of exact
        for eps in (1.0, 0.5):
            params = dataclasses.replace(ref_params, epsilon=eps)
            for policy in (PartialCSI(), Fixed(0.6)):
                mc = outage_mc(params, ref_fading, policy, 4 * 10**5, 11)
                sa = outage_semi_analytic(params, ref_fading, policy, 4 * 10**5, 12)
                limit = 3 * math.hypot(mc.std_err, sa.std_err)
                assert abs(mc.p_out - sa.p_out) <= limit, (eps, policy)
                exact = outage_exact(params, ref_fading, policy)
                assert abs(mc.p_out - exact) <= 3 * mc.std_err, (eps, policy)
                assert abs(sa.p_out - exact) <= 3 * sa.std_err, (eps, policy)


class TestOutageExact:
    @pytest.mark.parametrize("p_s_dbm", [20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0, 55.0])
    @pytest.mark.parametrize("name", ["partial_csi", "fixed:0.4", "fixed:0.8"])
    def test_equals_the_benchmark_quadrature(self, ref_params, checked_outage, name, p_s_dbm):
        for lambda_g, epsilon in itertools.product((1.5, 9.0), (1.0, 0.5)):
            p = dataclasses.replace(ref_params, p_s=dbm_to_linear(p_s_dbm), epsilon=epsilon)
            fading = FadingParams(1.5, lambda_g)
            assert outage_exact(p, fading, parse_policy(name)) == pytest.approx(
                checked_outage(p, fading, name), rel=1e-9, abs=0.0)

    def test_full_csi_has_the_partial_csi_value(self, ref_params, ref_fading):
        points = operating_points([(dataclasses.replace(ref_params, p_s=dbm_to_linear(p_s_dbm)),
                                    ref_fading) for p_s_dbm in (20.0, 40.0, 55.0)])
        full = outage_exact(points, points, FullCSI())
        assert full.tolist() == outage_exact(points, points, PartialCSI()).tolist()

    @pytest.mark.parametrize("p_s_dbm,epsilon,lambda_g,name,bits", [
        (40.0, 1.0, 1.5, "full_csi", "0x1.afde7742ac89fp-14"),
        (20.0, 0.5, 9.0, "partial_csi", "0x1.f004ad10b73ebp-9"),
        (50.0, 1.0, 9.0, "fixed:0.8", "0x1.46e15a3872188p-18"),
    ])
    def test_one_point_keeps_its_bits(self, ref_params, p_s_dbm, epsilon, lambda_g, name, bits):
        # the values of the one-point route before it broadcast over arrays of points
        p = dataclasses.replace(ref_params, p_s=dbm_to_linear(p_s_dbm), epsilon=epsilon)
        assert outage_exact(p, FadingParams(1.5, lambda_g), parse_policy(name)).hex() == bits

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(points=st.lists(st.tuples(st.tuples(*[st.floats(-30.0, -10.0)] * 3), st.floats(0.1, 1.0),
                                     st.floats(0.5, 4.0), st.floats(20.0, 55.0),
                                     st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
                           min_size=1, max_size=12),
           rho0=st.floats(0.05, 0.95))
    def test_an_array_of_points_gives_each_point_its_one_point_value(self, points, rho0):
        configs = [(SystemParams(p_s=dbm_to_linear(p_s_dbm), sigma_r_sq=dbm_to_linear(sr),
                                 sigma_p_sq=dbm_to_linear(sp), sigma_d_sq=dbm_to_linear(sd),
                                 rate=rate, epsilon=epsilon), FadingParams(lambda_h, lambda_g))
                   for (sr, sp, sd), epsilon, rate, p_s_dbm, lambda_h, lambda_g in points]
        records = operating_points(configs)
        for policy in (FullCSI(), PartialCSI(), Fixed(rho0)):
            array = outage_exact(records, records, policy)
            assert array.shape == (len(configs),)
            # padding to the widest point reorders each sum: a few ulps, no more
            assert array.tolist() == pytest.approx(
                [outage_exact(p, f, policy) for p, f in configs], rel=1e-14, abs=0.0)

    # P_s = -100 dBm, sigma_r^2 = 100 dBm, R = 1000 overflow h_c to inf, and
    # P_s = 3000 dBm, sigma_r^2 = sigma_p^2 = -3000 dBm underflow it to 0
    @pytest.mark.parametrize("p_s,sr,sp,rate,h_c", [
        (-100.0, 100.0, -20.0, 1000.0, "inf"), (3000.0, -3000.0, -3000.0, 3.0, "0.0")],
        ids=["h_c-inf", "h_c-0"])
    def test_refuses_an_h_c_outside_its_domain(self, ref_params, ref_fading, p_s, sr, sp, rate, h_c):
        bad = dataclasses.replace(ref_params, p_s=dbm_to_linear(p_s), sigma_r_sq=dbm_to_linear(sr),
                                  sigma_p_sq=dbm_to_linear(sp), rate=rate)
        for policy in (PartialCSI(), Fixed(0.5)):
            with pytest.raises(ValueError, match=rf"got h_c = {h_c}$"):
                outage_exact(bad, ref_fading, policy)
            points = operating_points([(ref_params, ref_fading), (bad, ref_fading)])
            with pytest.raises(ValueError, match=rf"got h_c = {h_c} at point 1$"):
                outage_exact(points, points, policy)

    @pytest.mark.parametrize("fixed", [False, True], ids=["partial_csi", "fixed"])
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(noise_dbm=st.tuples(*[st.floats(-30.0, -10.0)] * 3), epsilon=st.floats(0.1, 1.0),
           rate=st.floats(0.5, 4.0), rho0=st.floats(0.05, 0.95),
           p_s_dbm=st.lists(st.floats(20.0, 55.0), min_size=2, max_size=5),
           lambda_h=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=5),
           lambda_g=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=5))
    def test_does_not_increase_in_power_or_mean_gains(
            self, fixed, noise_dbm, epsilon, rate, rho0, p_s_dbm, lambda_h, lambda_g):
        # each list is a sweep of one variable; the others stay at their first value
        policy = Fixed(rho0) if fixed else PartialCSI()
        sr, sp, sd = (dbm_to_linear(x) for x in noise_dbm)

        def point(p_s_dbm=p_s_dbm[0], lambda_h=lambda_h[0], lambda_g=lambda_g[0]):
            params = SystemParams(p_s=dbm_to_linear(p_s_dbm), sigma_r_sq=sr, sigma_p_sq=sp,
                                  sigma_d_sq=sd, rate=rate, epsilon=epsilon)
            return params, FadingParams(lambda_h, lambda_g)

        for name, values in (("p_s_dbm", p_s_dbm), ("lambda_h", lambda_h), ("lambda_g", lambda_g)):
            points = operating_points([point(**{name: v}) for v in sorted(values)])
            curve = outage_exact(points, points, policy).tolist()
            assert all(b <= a for a, b in zip(curve, curve[1:])), (name, sorted(values), curve)

    @pytest.mark.parametrize("name", ["partial_csi", "fixed:0.4", "fixed:0.8"])
    def test_is_at_most_one(self, name):
        # the certain head and the quadrature tail summed to 1 + 1.3e-15 here unclamped
        params = SystemParams(p_s=dbm_to_linear(40.0), sigma_r_sq=dbm_to_linear(-20.0),
                              sigma_p_sq=dbm_to_linear(-20.0), sigma_d_sq=dbm_to_linear(0.0),
                              rate=3.0)
        p = outage_exact(params, FadingParams(1e-3, 1e-3), parse_policy(name))
        assert 1.0 - 1e-12 < p <= 1.0

    def test_no_pairs_give_a_zero_length_record_with_the_same_fields(self, ref_params, ref_fading):
        empty, one = operating_points([]), operating_points([(ref_params, ref_fading)])
        assert (empty.shape, one.shape) == ((0,), (1,))
        assert empty.dtype == one.dtype
        assert empty.dtype.names == sim.POINT_FIELDS + ("lambda_h", "lambda_g")

    @pytest.mark.parametrize("policy", [FullCSI(), PartialCSI(), Fixed(0.4)],
                             ids=["full_csi", "partial_csi", "fixed"])
    def test_a_zero_length_record_gives_an_empty_array(self, ref_params, ref_fading, policy):
        points = operating_points([(ref_params, ref_fading)])[:0]
        p = outage_exact(points, points, policy)
        assert (type(p), p.dtype, p.shape) == (np.ndarray, np.dtype(float), (0,))

    def test_takes_params_fading_policy_and_returns_a_float(self, ref_params, ref_fading):
        assert list(inspect.signature(outage_exact).parameters) == ["params", "fading", "policy"]
        assert type(outage_exact(ref_params, ref_fading, Fixed(0.5))) is float

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(p_s_dbm=st.floats(20.0, 40.0), noise_dbm=st.tuples(*[st.floats(-30.0, -10.0)] * 3),
           epsilon=st.floats(0.1, 1.0), lambda_h=st.floats(0.5, 5.0), lambda_g=st.floats(0.5, 5.0),
           policy=st.one_of(st.sampled_from([FullCSI(), PartialCSI()]),
                            st.floats(0.05, 0.95).map(Fixed)),
           seed=st.integers(0, 2**32 - 1))
    def test_monte_carlo_lies_within_4_sigma(self, p_s_dbm, noise_dbm, epsilon, lambda_h,
                                             lambda_g, policy, seed):
        """Monte Carlo outage against the exact route anywhere in the drawn ranges, at
        rate 3. n = ceil(20/p) draws expect at least 20 outage events, the z-test's
        validity rule, so the binomial count is near normal and 4 sigma is a z bound;
        a draw needing more than 2^21 draws is skipped, the one assumption. The ranges
        are set by run time, not by agreement: 40 examples take about 0.3 s on 2 cores.
        4 sigma is about 0.9 p at these n, so only a gross disagreement fails."""
        sr, sp, sd = (dbm_to_linear(x) for x in noise_dbm)
        params = SystemParams(p_s=dbm_to_linear(p_s_dbm), sigma_r_sq=sr, sigma_p_sq=sp,
                              sigma_d_sq=sd, rate=3.0, epsilon=epsilon)
        fading = FadingParams(lambda_h, lambda_g)
        p = outage_exact(params, fading, policy)
        n = math.ceil(20.0 / p)
        assume(n <= 2**21)
        mc = outage_mc(params, fading, policy, n, seed)
        assert abs(mc.p_out - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n), (mc, p)


class TestGainEta:
    def test_equal_probabilities(self):
        assert gain_eta(1e-3, 1e-3) == 0.0

    def test_one_neper(self):
        assert gain_eta(1e-3 / math.e, 1e-3) == pytest.approx(1.0, rel=1e-12)

    def test_negative_when_worse(self):
        assert gain_eta(2e-3, 1e-3) < 0

    @pytest.mark.parametrize("px,pref", [(0.0, 0.5), (0.5, 0.0), (1.0, 0.5), (0.5, 1.0)])
    def test_degenerate_probabilities_rejected(self, px, pref):
        with pytest.raises(ValueError, match="insufficient resolution"):
            gain_eta(px, pref)


class TestHorizontalGain:
    def make_curve(self, shift_db=0.0):
        ps = np.arange(30.0, 51.0, 2.0)
        # synthetic log-linear curve: one decade per 10 dB
        return [(p, 10 ** (-(p - shift_db) / 10.0)) for p in ps]

    def test_identical_curves(self):
        c = self.make_curve()
        assert horizontal_gain_db(c, c, 40.0) == pytest.approx(0.0, abs=1e-9)

    def test_synthetic_two_db_shift(self):
        dyn = self.make_curve()
        base = self.make_curve(shift_db=2.0)
        assert horizontal_gain_db(dyn, base, 40.0) == pytest.approx(2.0, abs=1e-9)

    def test_extrapolation_refused(self):
        dyn = self.make_curve()
        base = self.make_curve(shift_db=-30.0)  # base never reaches dyn's outage
        with pytest.raises(ValueError, match="extrapolation refused"):
            horizontal_gain_db(dyn, base, 50.0)

    def test_requires_monotone_curves(self):
        dyn = self.make_curve()
        bad = list(dyn)
        bad[3] = (bad[3][0], bad[2][1] * 1.5)  # break monotonicity
        with pytest.raises(ValueError):
            horizontal_gain_db(dyn, bad, 40.0)

    @pytest.mark.parametrize("edit,message", [
        (lambda c: c[:3] + [(c[2][0], c[3][1])] + c[4:], "strictly increasing P_s"),
        (lambda c: c[:-1] + [(c[-1][0], 0.0)], "non-positive outage"),
    ], ids=["p_s-repeated", "outage-zero"])
    def test_rejects_malformed_curve(self, edit, message):
        dyn = self.make_curve()
        with pytest.raises(ValueError, match=message):
            horizontal_gain_db(dyn, edit(dyn), 40.0)

    def test_at_point_outside_domain(self):
        dyn = self.make_curve()
        with pytest.raises(ValueError):
            horizontal_gain_db(dyn, dyn, 60.0)


class TestRunSweep:
    POLICIES = (FullCSI(), PartialCSI(), Fixed(0.4), Fixed(0.6), Fixed(0.8))

    def test_row_count_matches_grid(self, ref_params, ref_fading):
        spec = SweepSpec(
            variable="p_s_dbm", values=tuple(range(30, 52, 2)),
            params=ref_params, fading=ref_fading,
            policies=self.POLICIES, n=1000, seed=1,
        )
        assert len(run_sweep(spec)) == 11 * 5

    def test_single_point_single_policy_n1(self, ref_params, ref_fading):
        spec = SweepSpec(
            variable="lambda_g", values=(1.5,), params=ref_params,
            fading=ref_fading, policies=(Fixed(0.4),), n=1, seed=2,
        )
        rows = run_sweep(spec)
        assert len(rows) == 1
        assert rows[0].estimate.p_out in (0.0, 1.0)

    def test_deterministic_and_worker_independent(self, ref_params, ref_fading):
        spec = SweepSpec(
            variable="lambda_h", values=(1.0, 2.0), params=ref_params,
            fading=ref_fading, policies=(Fixed(0.4), PartialCSI()), n=30000, seed=3,
        )
        assert run_sweep(spec) == run_sweep(spec)
        assert run_sweep(spec) == run_sweep(spec, workers=2)

    def test_plans_over_the_points_of_its_spec(self, monkeypatch, ref_params, ref_fading):
        plans = []
        monkeypatch.setattr(sim, "_map_batches",
                            lambda fn, plan, n, seed, workers: plans.append(plan) or [[]] * len(plan))
        spec = SweepSpec(variable="lambda_h", values=(1.0, 2.0, 4.0), params=ref_params,
                         fading=ref_fading, policies=self.POLICIES, n=10, seed=1)
        run_sweep(spec)
        assert plans == [[((p, f, self.POLICIES), (i,)) for i, (p, f) in enumerate(spec.points)]]

    def test_values_must_increase(self, ref_params, ref_fading):
        with pytest.raises(ValueError):
            SweepSpec(variable="lambda_g", values=(2.0, 1.0), params=ref_params,
                      fading=ref_fading, policies=(Fixed(0.4),), n=10, seed=1)

    def test_unknown_variable(self, ref_params, ref_fading):
        with pytest.raises(ValueError):
            SweepSpec(variable="epsilon", values=(0.5,), params=ref_params,
                      fading=ref_fading, policies=(Fixed(0.4),), n=10, seed=1)

    @pytest.mark.parametrize("values,policies,message", [
        ((), (Fixed(0.4),), "nonempty"),
        ((1.5,), (), "at least one policy"),
        ((1.5,), (Fixed(0.6), Fixed(0.60), FullCSI()), "policy fixed:0.6 is listed twice"),
    ], ids=["values-empty", "policies-empty", "policy-twice"])
    def test_incomplete_spec_rejected(self, ref_params, ref_fading, values, policies, message):
        with pytest.raises(ValueError, match=message):
            SweepSpec(variable="lambda_g", values=values, params=ref_params,
                      fading=ref_fading, policies=policies, n=10, seed=1)

    def test_gains_require_all_policies(self, ref_params, ref_fading):
        spec = SweepSpec(
            variable="lambda_g", values=(1.5,), params=ref_params,
            fading=ref_fading, policies=(Fixed(0.4), FullCSI()), n=100, seed=4,
        )
        with pytest.raises(ValueError, match="gain computation needs"):
            gains_from_sweep(run_sweep(spec))

    def test_gains_row_per_value(self, ref_params, ref_fading):
        spec = SweepSpec(
            variable="lambda_g", values=(1.0, 2.0), params=ref_params,
            fading=ref_fading, policies=self.POLICIES, n=10**5, seed=5,
        )
        gains = gains_from_sweep(run_sweep(spec))
        assert [g.sweep_value for g in gains] == [1.0, 2.0]
        for g in gains:
            for eta, _ in g.eta.values():
                assert math.isfinite(eta)


class TestOnePoolPerSweep:
    """run_sweep maps every (point, batch) of the sweep through one pool."""
    POLICIES = (FullCSI(), PartialCSI(), Fixed(0.4), Fixed(0.8))
    BATCH = 1000  # small batches keep these tests fast; the plan logic is the same

    def spec(self, params, fading, values, n, seed=21):
        return SweepSpec(variable="p_s_dbm", values=tuple(values), params=params,
                         fading=fading, policies=self.POLICIES, n=n, seed=seed)

    # ref_params and ref_fading are frozen dataclasses: nothing to reset per example
    @settings(max_examples=40, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.sampled_from([1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 7]),
           points=st.integers(1, 4), workers=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_do_not_depend_on_the_worker_count(self, ref_params, ref_fading,
                                                   n, points, workers, seed):
        spec = self.spec(ref_params, ref_fading, range(30, 30 + 5 * points, 5), n, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "BATCH_SIZE", self.BATCH)
            started = install_serial_pool(mp, cpus=8)
            serial = run_sweep(spec, workers=1)
            assert started == []
            assert run_sweep(spec, workers=workers) == serial
        batches = points * -(-n // self.BATCH)
        assert started == ([min(workers, batches)] if min(workers, batches) > 1 else [])

    def test_an_eleven_point_sweep_starts_one_pool(self, monkeypatch, ref_params, ref_fading):
        monkeypatch.setattr(sim, "BATCH_SIZE", self.BATCH)
        started = install_serial_pool(monkeypatch, cpus=2)
        spec = self.spec(ref_params, ref_fading, range(30, 52, 2), 2 * self.BATCH)
        serial = run_sweep(spec)
        assert started == []  # one worker: no pool
        assert run_sweep(spec, workers=2) == serial
        assert started == [2]  # 22 batches, one pool

    def test_a_pooled_point_starts_one_pool(self, monkeypatch, ref_params, ref_fading):
        monkeypatch.setattr(sim, "BATCH_SIZE", self.BATCH)
        started = install_serial_pool(monkeypatch, cpus=2)
        outage_point(ref_params, ref_fading, self.POLICIES, GAMMA_0, 3 * self.BATCH, 1, workers=2)
        assert started == [2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_point_equals_outage_point_at_its_key(self, monkeypatch, ref_params,
                                                      ref_fading, workers):
        monkeypatch.setattr(sim, "BATCH_SIZE", self.BATCH)
        install_serial_pool(monkeypatch, cpus=2)
        n = 2 * self.BATCH + 7
        spec = self.spec(ref_params, ref_fading, (30.0, 40.0, 50.0), n)
        rows = run_sweep(spec, workers=workers)
        per_point = len(self.POLICIES)
        for i, value in enumerate(spec.values):
            params = dataclasses.replace(ref_params, p_s=dbm_to_linear(value))
            expected = sim._mc_estimates([
                _reference_mc_batch(params, ref_fading, self.POLICIES, spec.seed, (i,), b, size)
                for b, size in enumerate((self.BATCH, self.BATCH, 7))], n)
            got = rows[i * per_point:(i + 1) * per_point]
            assert [r.sweep_value for r in got] == [value] * per_point
            assert [r.policy for r in got] == list(self.POLICIES)
            assert [r.estimate for r in got] == expected

    def test_a_real_pool_runs_the_plan_on_threads_of_this_process(self, monkeypatch,
                                                                   ref_params, ref_fading):
        monkeypatch.setattr(sim, "BATCH_SIZE", self.BATCH)
        monkeypatch.setattr(sim, "CHUNK", 300)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        spec = self.spec(ref_params, ref_fading, range(30, 52, 2), 2 * self.BATCH + 7)
        slices = []  # the slice length of each decide_rho call in _mc_batch
        decide = sim.decide_rho

        def recording_rho(pol, params, h, g, **kwargs):
            slices.append(len(h))
            return decide(pol, params, h, g, **kwargs)

        monkeypatch.setattr(sim, "decide_rho", recording_rho)
        serial = run_sweep(spec, workers=1)
        assert set(slices) == {300, 100, 7}  # batches of 1000, 1000 and 7 draws
        serial_slices = sorted(slices)
        slices.clear()
        seen = []  # (pid, thread name, live child processes) per batch
        batch = sim._mc_batch

        def recording(args):
            seen.append((os.getpid(), threading.current_thread().name,
                         multiprocessing.active_children()))
            return batch(args)

        monkeypatch.setattr(sim, "_mc_batch", recording)
        assert run_sweep(spec, workers=2) == serial
        assert sorted(slices) == serial_slices  # pool threads slice at the same CHUNK
        assert len(seen) == 33
        assert {pid for pid, _, _ in seen} == {os.getpid()}
        assert all(name.startswith("ThreadPoolExecutor") for _, name, _ in seen)
        assert all(children == [] for _, _, children in seen)
        assert multiprocessing.active_children() == []

    def test_an_error_in_an_early_batch_stops_a_pooled_sweep(self, monkeypatch,
                                                             ref_params, ref_fading):
        monkeypatch.setattr(sim, "BATCH_SIZE", 100)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        spec = self.spec(ref_params, ref_fading, range(30, 80), 400)  # 200 batches
        started, lock = [], threading.Lock()
        batch = sim._mc_batch

        class BatchFailed(Exception):
            pass

        def failing(args):
            key, b = args[4], args[5]
            with lock:
                started.append((key, b))
            if (key, b) == ((0,), 2):
                raise BatchFailed
            time.sleep(0.002)  # the pool must not outrun the cancellation
            return batch(args)

        monkeypatch.setattr(sim, "_mc_batch", failing)
        with pytest.raises(BatchFailed):
            run_sweep(spec, workers=2)
        assert ((0,), 2) in started
        assert len(started) < 200

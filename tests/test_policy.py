import math

import numpy as np
import pytest

from swipt_relay.channel import substream
from swipt_relay.link import (
    f_of_rho,
    h_threshold,
    sigma0_sq,
    snr,
    w_ratio,
    conditional_outage,
)
from swipt_relay import policy, verify
from swipt_relay.params import SystemParams, dbm_to_linear
from swipt_relay.policy import (
    Fixed,
    FullCSI,
    PartialCSI,
    decide_rho,
    full_csi_rho,
    oracle_grid_full,
    oracle_grid_partial,
    parse_policy,
    partial_csi_rho,
    policy_name,
)

GAMMA_0 = 7.0

# Frozen optima at the headline operating point (h_sq=g_sq=1.5), confirmed
# by 1e-6-step grid search on the respective objectives.
FULL_RHO_REF = 0.5356034165509731
PART_RHO_REF = 0.9976912602008429


def masked_oracle_partial(params, h_sq, step):
    """The partial-CSI grid oracle in its masked form: argmax of W over the grid
    points where F(rho) > 0, harvest-only (rho = 1) when there are none."""
    grid = policy._rho_grid(step)
    f = f_of_rho(params, h_sq, grid)
    feasible = f > 0.0
    if not np.any(feasible):
        return 1.0
    w = np.where(feasible, f / sigma0_sq(params, h_sq, grid), -np.inf)
    return float(grid[int(np.argmax(w))])


def textbook_rho_max(p, h_sq, gamma_0):
    """Root of F(rho) = rho*((1 - rho)*(P_s h^2 - gamma_0 sr^2) - gamma_0 sp^2) above zero."""
    return 1.0 - gamma_0 * p.sigma_p_sq / (p.p_s * h_sq - gamma_0 * p.sigma_r_sq)


def textbook_coefficients(params, h_sq, g_sq):
    """(a1, b1, c1) of the full-CSI stationarity quadratic a1 rho^2 + b1 rho + c1 = 0,
    the numerator of dSNR/drho, as written out from snr()'s denominator."""
    sd = params.sigma_d_eff
    c1 = sd * (1.0 + params.sigma_p_sq / (params.p_s * h_sq + params.sigma_r_sq))
    return sd - g_sq * params.sigma_p_sq, -2.0 * c1, c1


class TestFullCsiClosedForm:
    def test_half_when_a1_zero(self, ref_params):
        # a1 = sd^2 - g_sq*sp^2 == 0 at this g_sq
        g_sq = ref_params.sigma_d_sq / ref_params.sigma_p_sq
        assert float(full_csi_rho(ref_params, 1.5, g_sq)) == pytest.approx(0.5, rel=1e-12)

    def test_reference_value(self, ref_params):
        assert float(full_csi_rho(ref_params, 1.5, 1.5)) == pytest.approx(
            FULL_RHO_REF, rel=1e-10
        )

    def test_matches_fine_grid(self, ref_params):
        grid = oracle_grid_full(ref_params, 1.5, 1.5, step=1e-5)
        assert abs(float(full_csi_rho(ref_params, 1.5, 1.5)) - grid) <= 2e-5

    def test_strictly_interior(self, random_instances):
        rng = substream(21)
        for params, h_sq, g_sq in random_instances(rng, 500):
            rho = float(full_csi_rho(params, h_sq, g_sq))
            assert 0.0 < rho < 1.0

    def test_stable_form_equals_two_branch_form(self, random_instances):
        # textbook form (-b1 - sqrt(b1^2-4a1c1)) / (2a1), valid for a1 != 0
        rng = substream(22)
        for params, h_sq, g_sq in random_instances(rng, 500):
            a1, b1, c1 = textbook_coefficients(params, h_sq, g_sq)
            if abs(a1) <= 1e-6 * c1:
                continue
            branch = (-b1 - math.sqrt(b1 ** 2 - 4 * a1 * c1)) / (2 * a1)
            stable = float(full_csi_rho(params, h_sq, g_sq))
            assert stable == pytest.approx(branch, rel=1e-12)

    def test_continuity_at_a1_zero(self, ref_params):
        # pick g_sq so that a1 = 1e-12 * c1: rho* must sit at 0.5
        _, _, c1 = textbook_coefficients(ref_params, 1.5, 1.0)
        g_sq = (ref_params.sigma_d_sq - 1e-12 * c1) / ref_params.sigma_p_sq
        rho = float(full_csi_rho(ref_params, 1.5, g_sq))
        assert rho == pytest.approx(0.5, abs=1e-9)

    def test_optimal_against_grid(self, random_instances):
        # random_instances draws epsilon in [0.2, 1), so this covers the fold
        for params, h_sq, g_sq in random_instances(substream(23), 200):
            rho_cf = float(full_csi_rho(params, h_sq, g_sq))
            rho_grid = oracle_grid_full(params, h_sq, g_sq, step=1e-4)
            assert abs(rho_cf - rho_grid) <= 2e-4
            s_cf = float(snr(params, h_sq, g_sq, rho_cf))
            s_grid = float(snr(params, h_sq, g_sq, rho_grid))
            assert s_cf >= s_grid * (1 - 1e-9)


class TestPartialCsiClosedForm:
    def test_below_threshold_harvests(self, ref_params):
        assert partial_csi_rho(ref_params, 1.0e-5) == 1.0  # H0 = 1.4e-5

    def test_boundary_assigned_to_harvest(self, ref_params):
        h0 = h_threshold(ref_params)
        assert partial_csi_rho(ref_params, h0) == 1.0

    def test_reference_value(self, ref_params):
        assert float(partial_csi_rho(ref_params, 1.5)) == pytest.approx(
            PART_RHO_REF, rel=1e-10
        )

    def test_matches_fine_grid(self, ref_params):
        rho = float(partial_csi_rho(ref_params, 1.5))
        grid = oracle_grid_partial(ref_params, 1.5, step=1e-5)
        assert abs(rho - grid) <= 2e-5

    def test_inside_feasible_set(self, random_instances):
        rng = substream(24)
        for params, h_sq, _ in random_instances(rng, 500):
            rho = float(partial_csi_rho(params, h_sq))
            if rho == 1.0:
                assert h_sq <= h_threshold(params)
                continue
            r_max = float(textbook_rho_max(params, h_sq, GAMMA_0))
            assert 0.0 < rho < r_max

    def test_optimal_against_grid(self, random_instances):
        for params, h_sq, _ in random_instances(substream(25), 200):
            rho_cf = float(partial_csi_rho(params, h_sq))
            rho_grid = oracle_grid_partial(params, h_sq, step=1e-4)
            assert (rho_cf == 1.0) == (rho_grid == 1.0)
            if rho_grid == 1.0:
                continue
            assert abs(rho_cf - rho_grid) <= 2e-4
            w_cf = float(w_ratio(params, h_sq, rho_cf))
            w_grid = float(w_ratio(params, h_sq, rho_grid))
            assert w_cf >= w_grid * (1 - 1e-9)

    def test_argmin_invariant_in_lambda_g(self, ref_params):
        # the chosen rho minimizes the conditional outage for ANY lambda_g
        rho = float(partial_csi_rho(ref_params, 1.5))
        grid = np.linspace(1e-4, 1 - 1e-4, 9999)
        for lam_g in (0.1, 1.0, 10.0):
            outs = conditional_outage(ref_params, 1.5, grid, lam_g)
            best = grid[int(np.argmin(outs))]
            assert abs(best - rho) <= 2e-4


class TestFixedPolicy:
    @pytest.mark.parametrize("rho0", [0.4, 0.6, 0.8])
    def test_returns_rho0(self, ref_params, rho0):
        assert decide_rho(Fixed(rho0), ref_params, 1.5, 1.5) == rho0

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_rho0_strictly_interior(self, bad):
        with pytest.raises(ValueError):
            Fixed(bad)

    def test_decide_ignores_channel(self, ref_params):
        h = np.array([0.1, 1.0, 10.0])
        g = np.array([5.0, 0.2, 1.0])
        rho = decide_rho(Fixed(0.6), ref_params, h, g)
        np.testing.assert_array_equal(rho, [0.6, 0.6, 0.6])


class TestOracles:
    def test_grid_step_precondition(self, ref_params):
        for _ in range(2):  # a rejected step is not cached
            with pytest.raises(ValueError):
                oracle_grid_full(ref_params, 1.5, 1.5, step=1e-2)

    def test_grid_is_built_once_per_step_and_read_only(self):
        grid = policy._rho_grid(1e-4)
        assert policy._rho_grid(1e-4) is grid
        assert not grid.flags.writeable
        assert grid.size == 9999 and grid[0] == 1e-4 and grid[-1] == 1.0 - 1e-4

    def test_full_oracle_finds_half_when_a1_zero(self, ref_params):
        g_sq = ref_params.sigma_d_sq / ref_params.sigma_p_sq
        rho = oracle_grid_full(ref_params, 1.5, g_sq, step=1e-4)
        assert abs(rho - 0.5) <= 1e-4

    def test_partial_oracle_infeasible(self, ref_params):
        assert oracle_grid_partial(ref_params, 1.0e-5, step=1e-4) == 1.0

    def test_partial_oracle_reads_no_threshold(self, monkeypatch, ref_params):
        # feasibility comes from F(rho) > 0 on the grid, never from H0
        def fail(*args):
            raise AssertionError("the oracle read H0")
        h0 = h_threshold(ref_params)
        monkeypatch.setattr(policy, "h_threshold", fail)
        assert oracle_grid_partial(ref_params, h0, step=1e-4) == 1.0
        # just above H0 the feasible interval is (0, textbook_rho_max), about (0, 0.02)
        rho = oracle_grid_partial(ref_params, 1.01 * h0, step=1e-4)
        assert 0.0 < rho < textbook_rho_max(ref_params, 1.01 * h0, GAMMA_0)
        assert abs(oracle_grid_partial(ref_params, 1.5, step=1e-5) - PART_RHO_REF) <= 2e-5


    def test_partial_oracle_equals_its_masked_form(self, ref_params):
        # the verify battery's draws: |h|^2 log-uniform on [H0/10, 10], about a
        # sixth of them at or below H0
        params, h_sq = verify._draw_partial(substream(26), 2000)
        cases = list(zip(params, h_sq.tolist()))
        assert sum(h <= h_threshold(p) for p, h in cases) > 200
        # at and above H0 at the reference point: F > 0 on (0, rho_max) with
        # rho_max about 2*delta, so the first two deltas leave an interval
        # narrower than the step that holds no grid point
        h0 = h_threshold(ref_params)
        cases += [(ref_params, h0 * (1.0 + d)) for d in (0.0, 1e-6, 2e-5, 6e-5, 1e-4, 1e-3)]
        for p, h in cases:
            assert oracle_grid_partial(p, h, 1e-4) == masked_oracle_partial(p, h, 1e-4)
        narrow = h0 * (1.0 + 2e-5)
        assert 0.0 < textbook_rho_max(ref_params, narrow, GAMMA_0) < 1e-4
        assert oracle_grid_partial(ref_params, narrow, 1e-4) == 1.0


class TestPolicyNames:
    @pytest.mark.parametrize("name,cls", [
        ("full_csi", FullCSI), ("partial_csi", PartialCSI),
    ])
    def test_parse_round_trip(self, name, cls):
        p = parse_policy(name)
        assert isinstance(p, cls)
        assert policy_name(p) == name

    def test_parse_fixed(self):
        p = parse_policy("fixed:0.4")
        assert p == Fixed(0.4)
        assert policy_name(p) == "fixed:0.4"

    @pytest.mark.parametrize("bad", ["fixed", "fixed:x", "grid", ""])
    def test_parse_rejects_unknown(self, bad):
        with pytest.raises(ValueError):
            parse_policy(bad)

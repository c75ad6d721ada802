import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import textbook_rho_max
from swipt_relay.channel import substream
from swipt_relay.link import (
    f_of_rho,
    h_threshold,
    margin_terms,
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


def literal_oracle_full(params, h_sq, g_sq, step):
    """The full-CSI grid oracle as the literal argmax of snr() over the grid."""
    grid = policy._rho_grid(step)
    return float(grid[int(np.argmax(snr(params, h_sq, g_sq, grid)))])


def literal_oracle_partial(params, h_sq, step):
    """The partial-CSI grid oracle as the literal argmax of w_ratio over the grid,
    harvest-only (rho = 1) when W <= 0 there."""
    grid = policy._rho_grid(step)
    w = w_ratio(params, h_sq, grid)
    best = int(np.argmax(w))
    return float(grid[best]) if w[best] > 0.0 else 1.0


def assert_oracles_match_the_literal_argmax(seed, count, step=verify.STEP):
    """Both oracles, one array call each on the battery's draws, give the
    literal argmax on every instance; returns the share of harvest-only draws."""
    view, h_sq, g_sq = verify._draw_full(substream(seed), count)
    rho = oracle_grid_full(view, h_sq, g_sq, step)
    assert rho.shape == h_sq.shape
    assert rho.tolist() == [literal_oracle_full(p, h, g, step) for p, h, g
                            in zip(view, h_sq.tolist(), g_sq.tolist())]
    view, h_sq = verify._draw_partial(substream(seed), count)
    rho = oracle_grid_partial(view, h_sq, step)
    assert rho.shape == h_sq.shape
    assert rho.tolist() == [literal_oracle_partial(p, h, step)
                            for p, h in zip(view, h_sq.tolist())]
    return float(np.mean(rho == 1.0))


def params_at(p_s_dbm, noise_dbm, epsilon=1.0, rate=3.0):
    """SystemParams from P_s and the noises sigma_r^2, sigma_p^2, sigma_d^2 in dBm."""
    sr, sp, sd = (dbm_to_linear(x) for x in noise_dbm)
    return SystemParams(p_s=dbm_to_linear(p_s_dbm), sigma_r_sq=sr, sigma_p_sq=sp,
                        sigma_d_sq=sd, rate=rate, epsilon=epsilon)


# Operating points that push the optima toward rho = 0 (sp^2 far above sd^2)
# and toward rho = 1 (the reverse, at high power), and channels there, as
# (point, log10(|h|^2/H0), log10 |g|^2, grid index of the optimum), whose
# optimum is the grid's first or last point at both steps tested.
LOW_POINT = (20.0, (-30.0, -10.0, -30.0))
HIGH_POINT = (55.0, (-10.0, -30.0, -10.0))
FULL_EDGES = [(LOW_POINT, 0.0, 8.0, 0), (HIGH_POINT, 9.0, -12.0, -1)]
# partial CSI: just above H0 the feasible interval holds only the first point
PARTIAL_EDGES = {1e-4: [(LOW_POINT, 1e-4, 0.0, 0), (HIGH_POINT, 6.0, 0.0, -1)],
                 1e-3: [(LOW_POINT, 7e-4, 0.0, 0), (HIGH_POINT, 6.0, 0.0, -1)]}


def gains_at(params, h_exp, g_exp):
    """|h|^2 = H0 10^h_exp and |g|^2 = 10^g_exp; broadcasts."""
    return h_threshold(params) * 10.0 ** np.asarray(h_exp), 10.0 ** np.asarray(g_exp)


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

    @pytest.mark.parametrize("into_rows", [False, True], ids=["allocating", "out-scratch"])
    def test_one_path_at_the_feasibility_edges(self, ref_params, into_rows):
        """Above H0 each draw gets the closed form evaluated on it alone; at or
        below H0, with a < 0, a = 0 or a > 0, and at a NaN |h|^2, rho = 1. No
        draw warns, though the chain runs on all of them."""
        p = ref_params
        c, floor, h0 = p.gamma_0 * p.sigma_p_sq, p.gamma_0 * p.sigma_r_sq, h_threshold(p)
        a_zero = floor / p.p_s
        assert p.p_s * a_zero - floor == 0.0
        h = np.array([1.5, 10.0, 1e-4, np.nextafter(h0, np.inf),  # feasible
                      0.5 * a_zero, a_zero, 0.5 * (a_zero + h0), h0, np.nextafter(h0, -np.inf),
                      np.nan])

        def plain(h):  # the closed form on one draw, in Python floats
            a, q = p.p_s * h - floor, p.sigma_p_sq / (p.p_s * h + p.sigma_r_sq)
            return (1.0 + q) - math.sqrt((1.0 + q) * (q + c / a))

        expected = [plain(x) if x > h0 else 1.0 for x in h.tolist()]
        assert 1.0 not in expected[:4] and expected[4:] == [1.0] * 6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if into_rows:  # rows that hold stale values, as a reused workspace does
                a, q, r, f, rho = np.full((5, h.size), np.nan)
                rho = partial_csi_rho(p, h, terms=margin_terms(p, h, out=(a, q, r)), out=rho,
                                      scratch=(f, np.ones(h.size, bool)))
            else:
                rho = partial_csi_rho(p, h)
        assert rho.tolist() == expected

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


class TestDecideRho:
    def test_unknown_policy_type_raises(self, ref_params):
        with pytest.raises(TypeError, match="unknown policy type"):
            decide_rho(object(), ref_params, 1.5, 1.5)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(p_s_dbm=st.floats(20.0, 55.0), noise_dbm=st.tuples(*[st.floats(-30.0, -10.0)] * 3),
           epsilon=st.floats(0.1, 1.0), rate=st.floats(0.5, 4.0), lambda_g=st.floats(0.1, 10.0),
           channel=st.lists(st.tuples(st.floats(1e-10, 10.0), st.floats(1e-3, 10.0)),
                            min_size=1, max_size=32))
    def test_terms_keyword_changes_no_bit(self, p_s_dbm, noise_dbm, epsilon, rate,
                                          lambda_g, channel):
        # |h|^2 from 1e-10 reaches below H0 (at least 2.6e-9 here) at every operating point
        params = params_at(p_s_dbm, noise_dbm, epsilon, rate)
        h, g = np.array(channel).T
        terms = margin_terms(params, h)

        def assert_same_bits(fn, *args):
            with_terms = np.asarray(fn(*args, terms=terms))
            assert with_terms.tobytes() == np.asarray(fn(*args)).tobytes()

        assert_same_bits(full_csi_rho, params, h, g)
        assert_same_bits(partial_csi_rho, params, h)
        for pol in (FullCSI(), PartialCSI(), Fixed(0.5)):
            assert_same_bits(decide_rho, pol, params, h, g)
        for rho in (full_csi_rho(params, h, g), partial_csi_rho(params, h)):
            assert_same_bits(f_of_rho, params, h, rho)
            assert_same_bits(sigma0_sq, params, h, rho)
            assert_same_bits(conditional_outage, params, h, rho, lambda_g)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(p_s_dbm=st.floats(20.0, 55.0), noise_dbm=st.tuples(*[st.floats(-30.0, -10.0)] * 3),
           epsilon=st.floats(0.1, 1.0), rate=st.floats(0.5, 4.0), lambda_g=st.floats(0.1, 10.0),
           channel=st.lists(st.tuples(st.floats(0.0, 1e4), st.floats(0.0, 10.0)),
                            min_size=1, max_size=32),
           above_h0=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(p_s_dbm=40.0, noise_dbm=(-20.0, -20.0, -17.0), epsilon=1.0, rate=3.0, lambda_g=1.5,
             channel=[(0.0, 0.0), (1.0, 5e-324), (0.5, 1.0), (2.0, 1e-300)], above_h0=False,
             seed=0)
    def test_out_and_scratch_change_no_bit(self, p_s_dbm, noise_dbm, epsilon, rate, lambda_g,
                                           channel, above_h0, seed):
        """Each closed form called with out= returns out, bit-equal to the call
        without it, also when out and the scratch rows hold garbage from an
        earlier slice. |h|^2 = H0 x with x in [0, 1e4] takes in harvest-only draws,
        a <= 0 (x = 0) and |h|^2 = H0 exactly; above_h0 shifts x past 1, so that
        no draw harvests only. |g|^2 reaches 0."""
        params = params_at(p_s_dbm, noise_dbm, epsilon, rate)
        x, g = np.array(channel).T
        h = h_threshold(params) * (1.0 + x if above_h0 else x)
        n, rng = len(h), np.random.default_rng(seed)
        # the rows are longer than the slice and hold garbage: specials and
        # huge values, and over their first half what an earlier slice left
        rows = rng.choice([np.nan, np.inf, -np.inf, -1e308, 0.0, 1.0], size=(5, n + 3))
        mask = rng.random(n + 3) < 0.5
        half = (n + 3) // 2
        earlier = h_threshold(params) * 10.0 ** rng.uniform(-2.0, 2.0, half)
        conditional_outage(params, earlier, partial_csi_rho(params, earlier), lambda_g,
                           terms=margin_terms(params, earlier, out=tuple(rows[:3, :half])),
                           out=rows[3, :half], scratch=(rows[4, :half], mask[:half]))
        junk, junk_mask = rows.copy(), mask.copy()
        a, q, r, out, t = (row[:n] for row in rows)
        scratch = (t, mask[:n])

        def assert_writes_out(fn, *args, **kwargs):
            """fn(*args) into out, with out and scratch as the earlier slice left them."""
            rows[3:], mask[:] = junk[3:], junk_mask
            got = fn(*args, **kwargs, out=out)
            assert got is out
            assert got.tobytes() == np.asarray(fn(*args)).tobytes()

        terms = margin_terms(params, h, out=(a, q, r))
        assert terms[0] is a and terms[1] is q
        for got, expected in zip(terms, margin_terms(params, h)):
            assert got.tobytes() == np.asarray(expected).tobytes()
        rules = [(full_csi_rho, (params, h, g)), (partial_csi_rho, (params, h))]
        rules += [(decide_rho, (pol, params, h, g)) for pol in (FullCSI(), PartialCSI(), Fixed(0.5))]
        for fn, args in rules:
            assert_writes_out(fn, *args, scratch=scratch)
            assert_writes_out(fn, *args, terms=terms, scratch=scratch)
        # the kernels zero a harvest-only rho; conditional_outage sees F <= 0 there
        zeroed = np.where(partial_csi_rho(params, h) < 1.0, partial_csi_rho(params, h), 0.0)
        for rho in (full_csi_rho(params, h, g), zeroed, 0.5):
            assert_writes_out(f_of_rho, params, h, rho, terms=terms)
            assert_writes_out(sigma0_sq, params, h, rho, terms=terms)
            assert_writes_out(conditional_outage, params, h, rho, lambda_g, terms=terms,
                              scratch=scratch)


class TestOracles:
    def test_grid_step_precondition(self, ref_params):
        with pytest.raises(ValueError):
            oracle_grid_full(ref_params, 1.5, 1.5, step=1e-2)

    def test_grid_spans_the_open_interval_at_step(self):
        grid = policy._rho_grid(1e-4)
        assert grid.size == 9999 and grid[0] == 1e-4 and grid[-1] == 1.0 - 1e-4

    @pytest.mark.parametrize("step", [1e-4, 1e-3])
    def test_ties_go_to_the_smaller_rho(self, step):
        """A V-shaped loss |k - c| over the grid index k, with c halfway between
        two indices, ties exactly at both; the search must pick the lower one,
        at every position of the pair, the grid's ends included."""
        grid = policy._rho_grid(step)

        def loss(rho, c):
            return np.abs(np.round(rho / step) - 1.0 - c)  # rho_k = (k + 1) step

        lower = np.arange(grid.size - 1)
        rho, at = policy._grid_argmin(loss, step, lower + 0.5)
        assert rho.tolist() == grid[lower].tolist()
        assert np.all(at == 0.5)

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
        view, h_sq = verify._draw_partial(substream(26), 2000)
        cases = list(zip(view, h_sq.tolist()))
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


class TestOraclesEqualTheLiteralArgmax:
    """The bisection oracles against the argmax of snr() or w_ratio itself."""

    @pytest.mark.parametrize("battery,seed", [
        (verify.battery_full_csi, 2024), (verify.battery_partial_csi, 2025)])
    def test_on_the_draws_verify_runs(self, battery, seed):
        # run_all takes the default seeds, at 10,000 instances (1,000 with --quick,
        # the first 1,000 of the same draws)
        assert battery.__defaults__ == (10_000, seed)
        for count in (10_000, 1_000):
            harvest = assert_oracles_match_the_literal_argmax(seed, count)
            assert 0.1 < harvest < 0.25

    @pytest.mark.parametrize("seed", [2024, 2025, 4242])
    def test_on_the_scalar_loop_seeds(self, seed):
        assert_oracles_match_the_literal_argmax(seed, 1000)

    def test_at_the_bisection_edges(self):
        # one and two instances; optima at the grid's first and last index, at
        # the verify step and at a coarse one
        for count in (1, 2):
            assert_oracles_match_the_literal_argmax(31 + count, count)
        for step in (verify.STEP, 1e-3):
            grid = policy._rho_grid(step)
            for point, h_exp, g_exp, index in FULL_EDGES:
                p = params_at(*point)
                h, g = gains_at(p, h_exp, g_exp)
                assert literal_oracle_full(p, h, g, step) == grid[index]
                assert oracle_grid_full(p, h, g, step) == grid[index]
            for point, h_exp, g_exp, index in PARTIAL_EDGES[step]:
                p = params_at(*point)
                h, _ = gains_at(p, h_exp, g_exp)
                assert literal_oracle_partial(p, h, step) == grid[index]
                assert oracle_grid_partial(p, h, step) == grid[index]
        assert_oracles_match_the_literal_argmax(33, 1000, step=1e-3)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(p_s_dbm=st.floats(20.0, 55.0), noise_dbm=st.tuples(*[st.floats(-30.0, -10.0)] * 3),
           epsilon=st.floats(0.1, 1.0), rate=st.floats(0.5, 4.0),
           channel=st.lists(st.tuples(st.floats(-1.0, 6.0), st.floats(-3.0, 3.0)),
                            min_size=1, max_size=16))
    @example(p_s_dbm=LOW_POINT[0], noise_dbm=LOW_POINT[1], epsilon=1.0, rate=3.0,
             channel=[FULL_EDGES[0][1:3], PARTIAL_EDGES[1e-4][0][1:3]])
    @example(p_s_dbm=HIGH_POINT[0], noise_dbm=HIGH_POINT[1], epsilon=1.0, rate=3.0,
             channel=[FULL_EDGES[1][1:3], PARTIAL_EDGES[1e-4][1][1:3]])
    def test_on_wide_ranges(self, p_s_dbm, noise_dbm, epsilon, rate, channel):
        # |h|^2 from H0/10 to 10^6 H0, |g|^2 from 10^-3 to 10^3; the examples
        # hold optima at the grid's first and last points
        params = params_at(p_s_dbm, noise_dbm, epsilon, rate)
        h, g = gains_at(params, *np.array(channel).T)
        step = verify.STEP
        assert oracle_grid_full(params, h, g, step).tolist() == [
            literal_oracle_full(params, hh, gg, step) for hh, gg in zip(h.tolist(), g.tolist())]
        assert oracle_grid_partial(params, h, step).tolist() == [
            literal_oracle_partial(params, hh, step) for hh in h.tolist()]

    def test_at_a_finer_step(self):
        # 99,999 grid points: 17 bisection rounds
        assert_oracles_match_the_literal_argmax(32, 40, step=1e-5)

    def test_return_types(self, ref_params):
        h = np.array([[1e-5, 0.5, 1.5], [3.0, 1.0, 10.0]])
        g = np.array([0.2, 1.5, 4.0])
        assert type(oracle_grid_full(ref_params, 1.5, 1.5)) is float
        assert type(oracle_grid_partial(ref_params, 1.5)) is float
        full = oracle_grid_full(ref_params, h, g)
        partial = oracle_grid_partial(ref_params, h)
        assert full.shape == partial.shape == h.shape
        for i, j in np.ndindex(h.shape):
            assert full[i, j] == literal_oracle_full(ref_params, h[i, j], g[j], 1e-4)
            assert partial[i, j] == literal_oracle_partial(ref_params, h[i, j], 1e-4)
        assert partial[0, 0] == 1.0  # below H0 = 1.4e-5

    @pytest.mark.parametrize("oracle,draw,seed", [
        (oracle_grid_full, verify._draw_full, 2024),
        (oracle_grid_partial, verify._draw_partial, 2025)])
    def test_a_full_count_call_stays_small(self, oracle, draw, seed):
        # one (10^4, 9,999) matrix of objective values would take about 800 MB
        view, *gains = draw(substream(seed), 10_000)
        tracemalloc.start()
        try:
            oracle(view, *gains, verify.STEP)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


class TestPolicyNames:
    @pytest.mark.parametrize("name,cls", [
        ("full_csi", FullCSI), ("partial_csi", PartialCSI),
    ])
    def test_parse_round_trip(self, name, cls):
        p = parse_policy(name)
        assert isinstance(p, cls)
        assert policy_name(p) == name

    @pytest.mark.parametrize("rho0", [0.4, 0.6000001, 1.234567e-05])
    def test_parse_fixed(self, rho0):
        p = parse_policy(f"fixed:{rho0}")
        assert p == Fixed(rho0)
        assert policy_name(p) == f"fixed:{rho0}"  # every digit of rho0, not 6 of them
        assert parse_policy(policy_name(p)) == p
        assert policy_name(Fixed(np.float64(rho0))) == policy_name(p)

    @pytest.mark.parametrize("bad", ["fixed", "fixed:x", "grid", ""])
    def test_parse_rejects_unknown(self, bad):
        with pytest.raises(ValueError):
            parse_policy(bad)

    def test_unknown_name_lists_the_valid_ones(self):
        with pytest.raises(ValueError, match=r"^unknown policy 'grid'; "
                                             r"valid: full_csi, partial_csi, fixed:<rho0>$"):
            parse_policy("grid")

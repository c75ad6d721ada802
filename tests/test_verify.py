import math

import numpy as np
import pytest

from swipt_relay import policy, verify
from swipt_relay.link import f_of_rho
from swipt_relay.policy import oracle_grid_partial, partial_csi_rho
from swipt_relay.verify import STEP, battery_partial_csi


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

    class OneDraw:
        """Stands in for the battery's stream: every uniform draw is log |h|^2."""
        def uniform(self, low, high):
            return math.log(h_sq)

    monkeypatch.setattr(verify, "substream", lambda seed: OneDraw())
    monkeypatch.setattr(verify, "_random_params", lambda rng: params)
    result = battery_partial_csi(count=1)
    assert result.passed, result.detail
    assert "bad_infeasible=0" in result.detail

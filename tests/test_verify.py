import numpy as np
import pytest

from swipt_relay import policy
from swipt_relay.verify import battery_partial_csi


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_partial_csi_battery_sees_a_wrong_threshold(monkeypatch, factor):
    # the closed form reads H0 through policy.h_threshold; the grid oracle
    # tests F(rho) > 0 itself, so a scaled H0 shows up as a disagreement
    h_threshold = policy.h_threshold
    monkeypatch.setattr(policy, "h_threshold", lambda p, g0: factor * h_threshold(p, g0))
    with np.errstate(invalid="ignore"):  # a too-low H0 takes sqrt of negatives
        assert not battery_partial_csi(count=1000).passed

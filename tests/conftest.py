import pytest

from swipt_relay import verify
from swipt_relay.channel import FadingParams
from swipt_relay.params import SystemParams, dbm_to_linear


@pytest.fixture
def ref_params():
    """The headline operating point: P_s=40 dBm, noise -20/-20/-17 dBm, R=3."""
    return SystemParams(
        p_s=dbm_to_linear(40.0),
        sigma_r_sq=dbm_to_linear(-20.0),
        sigma_p_sq=dbm_to_linear(-20.0),
        sigma_d_sq=dbm_to_linear(-17.0),
        rate=3.0,
    )


@pytest.fixture
def ref_fading():
    return FadingParams(lambda_h=1.5, lambda_g=1.5)


@pytest.fixture
def random_instances():
    """random_instances(rng, count): random (params, h_sq, g_sq) instances from
    the full-CSI battery's own draw, covering a wide operating range: P_s
    uniform in [20, 50] dBm, noises in [-30, -10] dBm, epsilon in [0.2, 1),
    channel gains log-uniform in [0.01, 10]. Each row of the draw's record view
    becomes a validated SystemParams."""
    def draw(rng, count):
        view, h_sq, g_sq = verify._draw_full(rng, count)
        params = [SystemParams(*row[:4], rate=verify.DEFAULT_RATE, epsilon=row[4])
                  for row in view.tolist()]
        return list(zip(params, h_sq.tolist(), g_sq.tolist()))
    return draw

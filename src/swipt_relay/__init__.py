"""Power-splitting SWIPT amplify-and-forward relay: link math, policies, simulation."""

from .params import SystemParams, dbm_to_linear, validate
from .channel import FadingParams, substream
from .link import (
    conditional_outage,
    f_of_rho,
    h_threshold,
    harvested_power,
    sigma0_sq,
    snr,
    snr_via_beta,
    w_ratio,
)
from .policy import (
    Fixed,
    FullCSI,
    PartialCSI,
    full_csi_rho,
    oracle_grid_full,
    oracle_grid_partial,
    partial_csi_rho,
)
from .sim import (
    GainRow,
    OutageEstimate,
    SweepSpec,
    gain_eta,
    gains_from_sweep,
    horizontal_gain_db,
    outage_exact,
    outage_mc,
    outage_point,
    outage_semi_analytic,
    run_sweep,
)

__version__ = "0.1.0"

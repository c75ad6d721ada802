"""Power-splitting SWIPT amplify-and-forward relay: link math, policies, simulation.
Each name is imported from its module on first access (PEP 562), so
`from swipt_relay import SweepSpec` loads only the numpy-free config layer."""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "params": ("SystemParams", "dbm_to_linear", "validate", "FadingParams",
               "Fixed", "FullCSI", "PartialCSI", "SweepSpec"),
    "channel": ("substream",),
    "link": ("conditional_outage", "f_of_rho", "h_threshold", "harvested_power",
             "sigma0_sq", "snr", "snr_via_beta", "w_ratio"),
    "policy": ("full_csi_rho", "oracle_grid_full", "oracle_grid_partial", "partial_csi_rho"),
    "sim": ("GainRow", "OutageEstimate", "gain_eta", "gains_from_sweep", "horizontal_gain_db",
            "outage_exact", "outage_mc", "outage_point", "outage_semi_analytic", "run_sweep"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value

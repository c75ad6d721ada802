"""System-level parameters: transmit power, noise variances, rate threshold.

Internally every power and variance is stored in linear milliwatts; dBm
appears only at the config/CLI boundary. The outage SNR threshold gamma_0
is always recomputed from the rate, never stored, so it cannot drift out
of sync.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np


class ConfigError(ValueError):
    """A config value is missing, malformed, or out of range."""


def dbm_to_linear(x_dbm):
    """Convert dBm to linear milliwatts: 10^(x/10), for |x| <= 3000 dBm only. A float
    gives a float and an array an array of its shape, each value through the C pow
    as 10.0 ** (x / 10.0) takes it (np.power misses that last bit on 1 value in 20)."""
    x = np.asarray(x_dbm, dtype=float)
    outside = ~(np.abs(x) <= 3000.0)  # NaN too
    if outside.any():
        raise ConfigError(f"dBm value out of range [-3000, 3000]: {float(x[outside][0])!r}")
    linear = np.fromiter(map(math.pow, repeat(10.0), (x / 10.0).ravel().tolist()), float, x.size)
    return linear.reshape(x.shape) if x.ndim else float(linear[0])


@dataclass(frozen=True)
class SystemParams:
    p_s: float            # source transmit power, mW
    sigma_r_sq: float     # antenna noise variance at the relay, mW
    sigma_p_sq: float     # processing noise variance at the relay, mW
    sigma_d_sq: float     # noise variance at the destination, mW
    rate: float           # fixed transmission rate, bits/sec/Hz
    epsilon: float = 1.0  # energy conversion efficiency, in (0, 1]

    def __post_init__(self):
        for name in ("p_s", "sigma_r_sq", "sigma_p_sq", "sigma_d_sq"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ConfigError(f"{name} must be a positive finite power, got {v!r}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigError(f"epsilon out of range (0, 1]: {self.epsilon!r}")
        if not (self.rate < 1024.0 and self.gamma_0 > 0.0):  # 2.0 ** 1024 overflows, NaN fails
            raise ConfigError(f"rate must give 0 < gamma_0 = 2^rate - 1 < inf, got {self.rate!r}")

    @property
    def gamma_0(self) -> float:
        """Outage SNR threshold 2^rate - 1, recomputed per access; every layer reads it here."""
        return 2.0 ** self.rate - 1.0

    @property
    def sigma_d_eff(self) -> float:
        """Effective destination noise sigma_d^2/eps, mW.

        The relay forwards with eps times the power it harvests, so eps
        enters every SNR, outage and policy result only through this ratio.
        """
        return self.sigma_d_sq / self.epsilon


# Config keys carrying dBm values, mapped to their linear-mW field.
_DBM_KEYS = {
    "p_s_dbm": "p_s",
    "sigma_r_sq_dbm": "sigma_r_sq",
    "sigma_p_sq_dbm": "sigma_p_sq",
    "sigma_d_sq_dbm": "sigma_d_sq",
}


def require_number(v, name) -> float:
    """A config value as a float. None (a missing key) and anything that is not
    a finite JSON number (a string, a bool, NaN) are ConfigErrors naming it."""
    if v is None:
        raise ConfigError(f"missing {name}")
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"{name} must be a finite number, got {v!r}")
    return float(v)


def validate(raw) -> SystemParams:
    """Build a SystemParams from a flat config mapping.

    Expected keys: p_s_dbm, sigma_r_sq_dbm, sigma_p_sq_dbm, sigma_d_sq_dbm,
    rate_bps_hz, and optionally epsilon (default 1.0).
    """
    fields = {field: dbm_to_linear(require_number(raw.get(key), key))
              for key, field in _DBM_KEYS.items()}
    fields["rate"] = require_number(raw.get("rate_bps_hz"), "rate_bps_hz")
    fields["epsilon"] = require_number(raw.get("epsilon", 1.0), "epsilon")
    return SystemParams(**fields)

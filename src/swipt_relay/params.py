"""The config layer: system parameters (transmit power, noise variances, rate
threshold), fading means, policies and sweep specs, checked with the standard
library alone; every check raises ConfigError. Only dbm_to_linear's array
branch imports numpy, so the CLI refuses a config mistake, and answers --help,
before numpy loads.

Internally every power and variance is stored in linear milliwatts; dBm
appears only at the config/CLI boundary. The outage SNR threshold gamma_0
is always recomputed from the rate, never stored, so it cannot drift out
of sync.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from sys import float_info
from typing import Union

__all__ = ["ConfigError", "SystemParams", "dbm_to_linear", "require_number", "validate",
           "FadingParams", "Fixed", "FullCSI", "PartialCSI", "Policy", "parse_policy",
           "policy_name", "GAIN_BASELINE", "GAIN_POLICIES", "MAX_N", "SweepSpec"]


class ConfigError(ValueError):
    """A config value is missing, malformed, or out of range."""


_DBM_RANGE = "dBm value out of range [-3000, 3000]: {!r}"


def dbm_to_linear(x_dbm):
    """Convert dBm to linear milliwatts: 10^(x/10), for |x| <= 3000 dBm only. A float gives a
    float, an array an array of its shape by np.float_power: the C pow per value, as 10.0 **
    (x / 10.0) calls it, without the GIL (np.power misses the last bit on about 5.3 %)."""
    if isinstance(x_dbm, (int, float)):
        if not abs(x_dbm) <= 3000.0:  # NaN too
            raise ConfigError(_DBM_RANGE.format(float(x_dbm)))
        return math.pow(10.0, x_dbm / 10.0)
    import numpy as np
    x = np.asarray(x_dbm, dtype=float)
    outside = ~(np.abs(x) <= 3000.0)  # NaN too
    if outside.any():
        raise ConfigError(_DBM_RANGE.format(float(x[outside][0])))
    linear = np.float_power(10.0, x / 10.0)
    return linear if x.ndim else float(linear)


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
        if not (0.0 < self.epsilon <= 1.0 and math.isfinite(self.sigma_d_eff)):
            raise ConfigError(f"epsilon out of (0, 1] or overflows sigma_d^2/eps: {self.epsilon!r}")
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
    """A config value as a float. None (a missing key) and anything that is not a
    number finite as a float (a string, a bool, NaN, 10**400) are ConfigErrors naming it."""
    if v is None:
        raise ConfigError(f"missing {name}")
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= float_info.max:
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


@dataclass(frozen=True)
class FadingParams:
    lambda_h: float  # mean of |h|^2 (source -> relay)
    lambda_g: float  # mean of |g|^2 (relay -> destination)

    def __post_init__(self):
        for name in ("lambda_h", "lambda_g"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ConfigError(f"{name} must be positive and finite, got {v!r}")


@dataclass(frozen=True)
class Fixed:
    rho0: float

    def __post_init__(self):
        if not 0.0 < self.rho0 < 1.0:
            raise ConfigError(f"fixed rho0 must be strictly inside (0, 1), got {self.rho0!r}")


@dataclass(frozen=True)
class FullCSI:
    pass


@dataclass(frozen=True)
class PartialCSI:
    pass


Policy = Union[Fixed, FullCSI, PartialCSI]
_NAMED = {"full_csi": FullCSI(), "partial_csi": PartialCSI()}  # every policy without a parameter


def parse_policy(name: str) -> Policy:
    """Parse a policy spec string: 'full_csi', 'partial_csi', or 'fixed:<rho0>'."""
    if name in _NAMED:
        return _NAMED[name]
    if name.startswith("fixed:"):
        try:
            rho0 = float(name.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad fixed policy spec: {name!r}") from None
        return Fixed(rho0)
    raise ConfigError(f"unknown policy {name!r}; valid: {', '.join(_NAMED)}, fixed:<rho0>")


def policy_name(policy: Policy) -> str:
    if isinstance(policy, Fixed):
        return f"fixed:{float(policy.rho0)!r}"  # round-trips through parse_policy
    return {named: name for name, named in _NAMED.items()}[policy]


# Largest n: above 2^53 a float p_out no longer gives back the event count p_out*n.
MAX_N = 2 ** 53

# The gains table compares these policies, in column order, with its baseline.
GAIN_BASELINE = "fixed:0.4"
GAIN_POLICIES = ("full_csi", "partial_csi", "fixed:0.6", "fixed:0.8")


@dataclass(frozen=True)
class SweepSpec:
    variable: str                 # one of: p_s_dbm, lambda_g, lambda_h
    values: tuple                 # strictly increasing, nonempty
    params: SystemParams
    fading: FadingParams
    policies: tuple               # Policy instances
    n: int                        # realizations per (value, policy), in [1, MAX_N]
    seed: int                     # >= 0

    def __post_init__(self):
        if self.variable not in ("p_s_dbm", "lambda_g", "lambda_h"):
            raise ConfigError(f"unknown sweep variable {self.variable!r}")
        if len(self.values) == 0:
            raise ConfigError("sweep values must be nonempty")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ConfigError("sweep values must be strictly increasing")
        if len(self.policies) == 0:
            raise ConfigError("at least one policy required")
        twice = [p for i, p in enumerate(self.policies) if p in self.policies[:i]]
        if twice:  # its rows would repeat, and the gains table would keep only one
            raise ConfigError(f"policy {policy_name(twice[0])} is listed twice")
        for name, low, high in (("n", 1, MAX_N), ("seed", 0, math.inf)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or not low <= v <= high:
                raise ConfigError(f"{name} must be an integer in [{low}, {high}], got {v!r}")
        self.points  # builds, and so checks, every point's params up front

    @property
    def points(self) -> tuple:
        """(SystemParams, FadingParams) per value, in order: p_s_dbm sets p_s through
        dbm_to_linear, lambda_h or lambda_g the FadingParams field of that name."""
        p, f, var = self.params, self.fading, self.variable
        return tuple((replace(p, p_s=dbm_to_linear(float(v))), f) if var == "p_s_dbm"
                     else (p, replace(f, **{var: float(v)})) for v in self.values)

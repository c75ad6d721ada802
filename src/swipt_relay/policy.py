"""Power-splitting policies and the grid-search oracles that verify them.

Three policies map a channel realization to a splitting ratio rho:

* Fixed(rho0): ignores the channel.
* FullCSI: knows |h|^2 and |g|^2, picks the rho maximizing the instantaneous
  SNR (closed form, root of a quadratic).
* PartialCSI: knows |h|^2 and only the mean of |g|^2, picks the rho minimizing
  the g-averaged outage; below the gain threshold it sets rho = 1 and only
  harvests. The maximizer does not depend on lambda_g, so lambda_g never
  appears in the decision.

Every rule returns rho, a scalar or an array shaped like the channel;
rho = 1 means a harvest-only block.

The oracle_grid_* functions are deliberately brute force and call no closed
form, not even the threshold H0. They are the independent verification route
for the closed forms and must stay that way.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .link import h_threshold, margin_terms, snr, w_ratio

__all__ = [
    "Fixed",
    "FullCSI",
    "PartialCSI",
    "Policy",
    "parse_policy",
    "policy_name",
    "full_csi_rho",
    "partial_csi_rho",
    "decide_rho",
    "oracle_grid_full",
    "oracle_grid_partial",
]


@dataclass(frozen=True)
class Fixed:
    rho0: float

    def __post_init__(self):
        if not 0.0 < self.rho0 < 1.0:
            raise ValueError(f"fixed rho0 must be strictly inside (0, 1), got {self.rho0!r}")


@dataclass(frozen=True)
class FullCSI:
    pass


@dataclass(frozen=True)
class PartialCSI:
    pass


Policy = Union[Fixed, FullCSI, PartialCSI]


def parse_policy(name: str) -> Policy:
    """Parse a policy spec string: 'full_csi', 'partial_csi', or 'fixed:<rho0>'."""
    if name == "full_csi":
        return FullCSI()
    if name == "partial_csi":
        return PartialCSI()
    if name.startswith("fixed:"):
        try:
            rho0 = float(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad fixed policy spec: {name!r}") from None
        return Fixed(rho0)
    raise ValueError(
        f"unknown policy {name!r}; valid: full_csi, partial_csi, fixed:<rho0>"
    )


def policy_name(policy: Policy) -> str:
    if isinstance(policy, FullCSI):
        return "full_csi"
    if isinstance(policy, PartialCSI):
        return "partial_csi"
    return f"fixed:{policy.rho0:g}"


def full_csi_rho(params, h_sq, g_sq):
    """SNR-maximizing rho, closed form. Broadcasts over arrays.

    The stationarity quadratic a1*rho^2 - 2*c1*rho + c1 = 0 has
    c1 = sd^2*(1 + q) and c1 - a1 = sd^2*q + g^2*sp^2 > 0 (link's margin terms).
    It is solved in the rationalized form rho* = c1 / (c1 + sqrt(c1*(c1 - a1))),
    which is the in-(0,1) root for any sign of a1 and stays exact through
    a1 -> 0 (where the two-branch textbook form needs a special case and
    loses digits).
    """
    _, q = margin_terms(params, h_sq)
    return _full_csi_rho(params, q, g_sq)


def _full_csi_rho(params, q, g_sq):
    """full_csi_rho from the margin term q at |h|^2, for a caller that has it."""
    c1 = params.sigma_d_eff * (1.0 + q)
    return c1 / (c1 + np.sqrt(c1 * (params.sigma_d_eff * q + g_sq * params.sigma_p_sq)))


def partial_csi_rho(params, h_sq):
    """Outage-minimizing rho given |h|^2 only, the maximizer of
    F(rho)/sigma_0^2(rho): rho = (1 + q) - sqrt((1 + q)*(q + gamma_0 sp^2/a)),
    or 1 (harvest only) at or below the feasibility threshold H0. Broadcasts."""
    h_sq = np.asarray(h_sq, dtype=float)
    return _partial_csi_rho(params, h_sq, *margin_terms(params, h_sq))


def _partial_csi_rho(params, h_sq, a, q):
    """partial_csi_rho from the margin terms (a, q) at the array h_sq."""
    feasible = h_sq > h_threshold(params)
    a = np.where(feasible, a, 1.0)  # a > 0 whenever feasible; mask the rest
    rho = (1.0 + q) - np.sqrt((1.0 + q) * (q + params.gamma_0 * params.sigma_p_sq / a))
    return np.where(feasible, rho, 1.0)


def decide_rho(policy: Policy, params, h_sq, g_sq, *, terms=None):
    """Per-realization rho for any policy; broadcasts over channel arrays.
    terms, if given, is margin_terms(params, h_sq) for an array h_sq, which
    the dynamic rules then use instead of computing it again."""
    if isinstance(policy, Fixed):
        return np.broadcast_to(policy.rho0, np.shape(h_sq)).astype(float) \
            if np.ndim(h_sq) else policy.rho0
    if terms is None:
        h_sq = np.asarray(h_sq, dtype=float)
        terms = margin_terms(params, h_sq)
    if isinstance(policy, FullCSI):
        return _full_csi_rho(params, terms[1], g_sq)
    if isinstance(policy, PartialCSI):
        return _partial_csi_rho(params, h_sq, *terms)
    raise TypeError(f"unknown policy type: {policy!r}")


@lru_cache(maxsize=4)
def _rho_grid(step: float) -> np.ndarray:
    """The oracles' rho grid, built once per step; read-only, as it is shared."""
    if not 0.0 < step <= 1e-3:
        raise ValueError(f"grid step must be in (0, 1e-3], got {step!r}")
    grid = np.linspace(step, 1.0 - step, round(1.0 / step) - 1)
    grid.flags.writeable = False
    return grid


def oracle_grid_full(params, h_sq, g_sq, step: float = 1e-4) -> float:
    """Brute-force argmax of snr() over a uniform rho grid (ties to smaller rho)."""
    grid = _rho_grid(step)
    vals = snr(params, h_sq, g_sq, grid)
    return float(grid[int(np.argmax(vals))])


def oracle_grid_partial(params, h_sq, step: float = 1e-4) -> float:
    """Brute-force argmax of W(rho) = F/sigma_0^2 over the grid. sigma_0^2 > 0,
    so W has the sign of F: W <= 0 at the argmax means no grid point has
    F(rho) > 0, outage is certain and the decision is harvest-only (rho = 1)."""
    grid = _rho_grid(step)
    w = w_ratio(params, h_sq, grid)
    best = int(np.argmax(w))
    return float(grid[best]) if w[best] > 0.0 else 1.0

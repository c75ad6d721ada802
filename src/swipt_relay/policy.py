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
form, not even the threshold H0: they are the independent verification route
for the closed forms and must stay that way. Each scans a uniform rho grid,
ties going to the smaller rho, for a block of instances at a time: its
objective is one matrix product of per-instance coefficients with grid rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .link import h_threshold, margin_terms

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

BLOCK_VALUES = 2 ** 17  # values a grid oracle's block buffers hold: 1 MiB, in L2


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
_NAMED = {"full_csi": FullCSI(), "partial_csi": PartialCSI()}  # every policy without a parameter


def parse_policy(name: str) -> Policy:
    """Parse a policy spec string: 'full_csi', 'partial_csi', or 'fixed:<rho0>'."""
    if name in _NAMED:
        return _NAMED[name]
    if name.startswith("fixed:"):
        try:
            rho0 = float(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad fixed policy spec: {name!r}") from None
        return Fixed(rho0)
    raise ValueError(f"unknown policy {name!r}; valid: {', '.join(_NAMED)}, fixed:<rho0>")


def policy_name(policy: Policy) -> str:
    if isinstance(policy, Fixed):
        return f"fixed:{float(policy.rho0)!r}"  # round-trips through parse_policy
    return {named: name for name, named in _NAMED.items()}[policy]


def full_csi_rho(params, h_sq, g_sq, *, terms=None):
    """SNR-maximizing rho, closed form. Broadcasts over arrays.

    The stationarity quadratic a1*rho^2 - 2*c1*rho + c1 = 0 has
    c1 = sd^2*(1 + q) and c1 - a1 = sd^2*q + g^2*sp^2 > 0 (link's margin terms).
    It is solved in the rationalized form rho* = c1 / (c1 + sqrt(c1*(c1 - a1))),
    which is the in-(0,1) root for any sign of a1 and stays exact through
    a1 -> 0 (where the two-branch textbook form needs a special case and
    loses digits). terms, if given, is margin_terms(params, h_sq), as in link.
    """
    _, q = margin_terms(params, h_sq) if terms is None else terms
    c1 = params.sigma_d_eff * (1.0 + q)
    return c1 / (c1 + np.sqrt(c1 * (params.sigma_d_eff * q + g_sq * params.sigma_p_sq)))


def partial_csi_rho(params, h_sq, *, terms=None):
    """Outage-minimizing rho given |h|^2 only, the maximizer of
    F(rho)/sigma_0^2(rho): rho = (1 + q) - sqrt((1 + q)*(q + gamma_0 sp^2/a)),
    or 1 (harvest only) at or below the feasibility threshold H0. Broadcasts;
    terms as in full_csi_rho."""
    h_sq = np.asarray(h_sq, dtype=float)
    a, q = margin_terms(params, h_sq) if terms is None else terms
    feasible = h_sq > h_threshold(params)
    a = np.where(feasible, a, 1.0)  # a > 0 whenever feasible; mask the rest
    rho = (1.0 + q) - np.sqrt((1.0 + q) * (q + params.gamma_0 * params.sigma_p_sq / a))
    return np.where(feasible, rho, 1.0)


def decide_rho(policy: Policy, params, h_sq, g_sq, *, terms=None):
    """Per-realization rho for any policy; broadcasts over channel arrays.
    terms, if given, is margin_terms(params, h_sq), passed on to the rule."""
    if isinstance(policy, Fixed):
        return np.full(np.shape(h_sq), policy.rho0, dtype=float)
    if isinstance(policy, FullCSI):
        return full_csi_rho(params, h_sq, g_sq, terms=terms)
    if isinstance(policy, PartialCSI):
        return partial_csi_rho(params, h_sq, terms=terms)
    raise TypeError(f"unknown policy type: {policy!r}")


@lru_cache(maxsize=4)
def _grid_rows(step: float) -> np.ndarray:
    """The oracles' read-only grid table, built once per step: 1/(1-rho), 1/rho,
    1/(rho(1-rho)) for the full-CSI objective, rho(1-rho), rho, 1-rho for the
    partial-CSI one. Row 4 is the rho grid itself, which the picks index."""
    if not 0.0 < step <= 1e-3:
        raise ValueError(f"grid step must be in (0, 1e-3], got {step!r}")
    rho = np.linspace(step, 1.0 - step, round(1.0 / step) - 1)
    info = 1.0 - rho
    rows = np.array([1.0 / info, 1.0 / rho, 1.0 / (rho * info), rho * info, rho, info])
    rows.flags.writeable = False
    return rows


def _by_block(pick, held, step, *columns):
    """Each instance's rho, by pick(coef, rows, *buffers) on blocks of instances,
    rows being the grid table; the `held` (block, grid) buffers are allocated
    once per call and each block gets views of them. One column per coefficient."""
    columns = np.broadcast_arrays(*columns)
    coef = np.stack(columns, axis=-1).reshape(-1, len(columns))
    rows = _grid_rows(step)
    size = max(1, min(len(coef), BLOCK_VALUES // (held * rows.shape[1])))
    buffers = np.empty((held, size, rows.shape[1]))
    rho = np.empty(len(coef))
    for i in range(0, len(coef), size):
        block = coef[i:i + size]
        rho[i:i + size] = pick(block, rows, *buffers[:, :len(block)])
    return float(rho[0]) if columns[0].ndim == 0 else rho.reshape(columns[0].shape)


def oracle_grid_full(params, h_sq, g_sq, step: float = 1e-4):
    """Brute-force argmax of snr() over the grid, as the argmin of
    L = g^2 sp^2/(1-rho) + sd^2/rho + sd^2 sp^2/((P_s h^2 + sr^2) rho(1-rho)):
    snr()'s denominator terms over its numerator P_s h^2 g^2 rho(1-rho), less
    the rho-free g^2 sr^2. It shares no algebra with the closed form's c1."""
    sp, sd = params.sigma_p_sq, params.sigma_d_eff
    def pick(coef, rows, objective):
        return rows[4][np.argmin(np.matmul(coef, rows[:3], out=objective), axis=1)]
    return _by_block(pick, 1, step, g_sq * sp, sd, sd * sp / (params.p_s * h_sq + params.sigma_r_sq))


def oracle_grid_partial(params, h_sq, step: float = 1e-4):
    """Brute-force argmax of W(rho) = F/sigma_0^2 over the grid, as that of
    sd^2 W = (a rho(1-rho) - gamma_0 sp^2 rho)/((1 - rho) + q), with a and q
    from margin_terms. sigma_0^2 > 0, so W has the sign of F: W <= 0 at the
    argmax means no grid point has F(rho) > 0, outage is certain and the
    decision is harvest-only (rho = 1)."""
    def pick(coef, rows, w, den):
        np.matmul(coef[:, :2], rows[3:5], out=w)
        w /= np.add(coef[:, 2:], rows[5], out=den)
        best = np.argmax(w, axis=1)
        return np.where(w[np.arange(len(w)), best] > 0.0, rows[4][best], 1.0)
    a, q = margin_terms(params, h_sq)
    return _by_block(pick, 2, step, a, -params.gamma_0 * params.sigma_p_sq, q)

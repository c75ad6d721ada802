"""Power-splitting policies and the grid-search oracles that verify them.

Three policies, whose types live in params, map a channel realization to rho:

* Fixed(rho0): ignores the channel; its rho is the number rho0.
* FullCSI: knows |h|^2 and |g|^2, picks the rho maximizing the instantaneous
  SNR (closed form, root of a quadratic).
* PartialCSI: knows |h|^2 and only the mean of |g|^2, picks the rho minimizing
  the g-averaged outage; below the gain threshold it sets rho = 1 and only
  harvests. The maximizer does not depend on lambda_g, so lambda_g never
  appears in the decision.

Every dynamic rule returns rho, a scalar or an array shaped like the channel;
rho = 1 means a harvest-only block.

The oracle_grid_* functions are the independent verification route for the
closed forms and must stay that way: they call no closed form, not even the
threshold H0, and pick the best point of a uniform rho grid, ties going to the
smaller rho. Both objectives are unimodal in rho (each oracle says why), so
the grid optimum is the first index where the objective stops improving, and
a bisection over grid indices finds it for all instances at once.
"""
from __future__ import annotations

import numpy as np

from .link import h_threshold, margin_terms
from .params import Fixed, FullCSI, PartialCSI, Policy
from .params import parse_policy, policy_name  # noqa: F401 - re-exported

__all__ = [
    "full_csi_rho",
    "partial_csi_rho",
    "decide_rho",
    "oracle_grid_full",
    "oracle_grid_partial",
]


def full_csi_rho(params, h_sq, g_sq, *, terms=None, out=None, scratch=None):
    """SNR-maximizing rho, closed form. Broadcasts over arrays.

    The stationarity quadratic a1*rho^2 - 2*c1*rho + c1 = 0 has
    c1 = sd^2*(1 + q) and c1 - a1 = sd^2*q + g^2*sp^2 > 0 (link's margin terms).
    It is solved in the rationalized form rho* = c1 / (c1 + sqrt(c1*(c1 - a1))),
    which is the in-(0,1) root for any sign of a1 and stays exact through
    a1 -> 0 (where the two-branch textbook form needs a special case and
    loses digits). terms, if given, is margin_terms(params, h_sq), and out and
    scratch are as in link.
    """
    _, q, p1q = margin_terms(params, h_sq) if terms is None else terms
    sd, c1 = params.sigma_d_eff, None if scratch is None else scratch[0]
    rho = np.add(np.multiply(g_sq, params.sigma_p_sq, out=out), np.multiply(sd, q, out=c1), out=out)
    c1 = np.multiply(sd, p1q, out=c1)
    rho = np.sqrt(np.multiply(c1, rho, out=out), out=out)
    return np.divide(c1, np.add(c1, rho, out=out), out=out)


def partial_csi_rho(params, h_sq, *, terms=None, out=None, scratch=None):
    """Outage-minimizing rho given |h|^2 only, the maximizer of
    F(rho)/sigma_0^2(rho): rho = (1 + q) - sqrt((1 + q)*(q + gamma_0 sp^2/a)),
    or 1 (harvest only) at or below the feasibility threshold H0: the expression
    runs on every draw and 1 is written over those where |h|^2 > H0 is false
    (NaN too). Broadcasts; terms, out and scratch as in full_csi_rho."""
    h_sq = np.asarray(h_sq, dtype=float)
    a, q, p1q = margin_terms(params, h_sq) if terms is None else terms
    rho = np.empty(np.broadcast(a, q).shape) if out is None else out
    mask = np.empty(rho.shape, bool) if scratch is None else scratch[1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a <= 0, below H0
        np.divide(params.gamma_0 * params.sigma_p_sq, a, out=rho)
        np.multiply(p1q, np.add(q, rho, out=rho), out=rho)
        np.subtract(p1q, np.sqrt(rho, out=rho), out=rho)
    harvest = np.logical_not(np.greater(h_sq, h_threshold(params), out=mask), out=mask)  # NaN too
    if harvest.any():
        np.copyto(rho, 1.0, where=harvest)
    return rho


def decide_rho(policy: Policy, params, h_sq, g_sq, *, terms=None, out=None, scratch=None):
    """Per-realization rho for any policy; broadcasts over channel arrays. A Fixed
    policy's rho is the number rho0, which the caller broadcasts. terms, out and
    scratch, if given, are passed on to a dynamic rule, as in link."""
    if isinstance(policy, Fixed):
        return policy.rho0
    if isinstance(policy, FullCSI):
        return full_csi_rho(params, h_sq, g_sq, terms=terms, out=out, scratch=scratch)
    if isinstance(policy, PartialCSI):
        return partial_csi_rho(params, h_sq, terms=terms, out=out, scratch=scratch)
    raise TypeError(f"unknown policy type: {policy!r}")


def _rho_grid(step: float) -> np.ndarray:
    """The oracles' uniform rho grid, strictly inside (0, 1)."""
    if not 0.0 < step <= 1e-3:
        raise ValueError(f"grid step must be in (0, 1e-3], got {step!r}")
    return np.linspace(step, 1.0 - step, round(1.0 / step) - 1)


def _grid_argmin(loss, step, *coef):
    """Per instance, the grid rho at the first index k with loss(rho_{k+1}) >=
    loss(rho_k), else the last, and the loss there: for a loss that falls, then
    rises, the grid argmin, ties to the smaller rho. k grows by each power of
    two, largest first and capped at the last index, while the loss falls."""
    coef = np.broadcast_arrays(*coef)
    grid = _rho_grid(step)
    last = grid.size - 1
    k = np.zeros(coef[0].shape, dtype=np.intp)
    span = 1 << (last.bit_length() - 1)
    while span:
        t = np.minimum(k + span, last)
        k = np.where(loss(grid[t], *coef) < loss(grid[t - 1], *coef), t, k)
        span >>= 1
    return grid[k], loss(grid[k], *coef)


def oracle_grid_full(params, h_sq, g_sq, step: float = 1e-4):
    """Grid argmax of snr(), as the argmin of L = g^2 sp^2/(1-rho) + sd^2/rho
    + sd^2 sp^2/((P_s h^2 + sr^2) rho(1-rho)): snr()'s denominator terms over its
    numerator P_s h^2 g^2 rho(1-rho), less the rho-free g^2 sr^2. It shares no
    algebra with the closed form's c1. A sum of convex terms with nonnegative
    weights and sd^2 > 0, L is strictly convex on (0, 1)."""
    sp, sd = params.sigma_p_sq, params.sigma_d_eff
    def loss(rho, a, b, c):
        info = 1.0 - rho
        return a / info + b / rho + c / (rho * info)
    rho, _ = _grid_argmin(loss, step, g_sq * sp, sd, sd * sp / (params.p_s * h_sq + params.sigma_r_sq))
    return rho if rho.ndim else float(rho)


def oracle_grid_partial(params, h_sq, step: float = 1e-4):
    """Grid argmax of W(rho) = F/sigma_0^2, as that of sd^2 W = N/D with
    N = a rho(1-rho) - gamma_0 sp^2 rho, D = (1 - rho) + q > 0 (a, q from
    margin_terms). W' = (N'D + N)/D^2 and (N'D + N)' = N''D = -2aD < 0 for a > 0,
    so W' changes sign at most once; for a <= 0, N < 0 on the whole grid.
    W has the sign of F: W <= 0 at the argmax means no grid point has
    F(rho) > 0, outage is certain and the decision is harvest-only (rho = 1)."""
    def loss(rho, a, c, q):
        info = 1.0 - rho
        return -(a * (rho * info) + c * rho) / (info + q)
    a, q, _ = margin_terms(params, h_sq)
    rho, loss_there = _grid_argmin(loss, step, a, -params.gamma_0 * params.sigma_p_sq, q)
    rho = np.where(loss_there < 0.0, rho, 1.0)
    return rho if rho.ndim else float(rho)

"""Exact outage by 1-D quadrature over |h|^2, written apart from the package.

This is the benchmark's output check. It shares no code with the Monte Carlo
or semi-analytic estimators: the link algebra is restated here from the
model, and the integral is done by ``scipy.integrate.quad``.

Given |h|^2 = h and a splitting ratio rho, the link is in outage when
|g|^2 * F(rho) < gamma_0 * sigma_0^2(rho), with

    F(rho)         = rho * [(P_s h - gamma_0 sr^2)(1 - rho) - gamma_0 sp^2]
    sigma_0^2(rho) = (sd^2 / eps) * (1 - rho + sp^2 / (P_s h + sr^2))

so for an exponential |g|^2 the conditional outage is
P(out | h) = 1 - exp(-gamma_0 sigma_0^2 / (F lambda_g)) where F > 0, else 1.
Outage is certain below a threshold h_c, so

    p = (1 - exp(-h_c / lambda_h)) + int_{h_c}^inf P(out | h) e^{-h/lambda_h} / lambda_h dh.

Full CSI fails on exactly the draws where partial CSI fails (both reduce to
|g|^2 * max_rho W(rho) < gamma_0 with W = F / sigma_0^2), so it has the
partial-CSI value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad


@dataclass(frozen=True)
class Link:
    """Operating point in linear units (mW)."""
    p_s: float
    sr: float       # relay antenna noise
    sp: float       # relay processing noise
    sd: float       # destination noise, already divided by the efficiency
    gamma_0: float
    lambda_h: float
    lambda_g: float


def _threshold(link: Link, policy: str) -> float:
    """h below which no rho gives F(rho) > 0 (partial CSI) or F(rho0) > 0 (fixed)."""
    if policy in ("partial_csi", "full_csi"):
        return link.gamma_0 * (link.sr + link.sp) / link.p_s
    rho0 = float(policy.split(":", 1)[1])
    return link.gamma_0 * (link.sr + link.sp / (1.0 - rho0)) / link.p_s


def _rho(link: Link, policy: str, h: float) -> float:
    """Partial CSI maximises F/sigma_0^2. With A = P_s h - gamma_0 sr^2,
    B = gamma_0 sp^2, s = sp^2/(P_s h + sr^2), b = 1 + s and u = b - rho, the
    objective is b*A - b*(A*s + B)/u - A*u + const, so u* = sqrt(b*(A*s + B)/A)."""
    if policy.startswith("fixed:"):
        return float(policy.split(":", 1)[1])
    a = link.p_s * h - link.gamma_0 * link.sr
    b_noise = link.gamma_0 * link.sp
    s = link.sp / (link.p_s * h + link.sr)
    b = 1.0 + s
    return b - math.sqrt(b * (a * s + b_noise) / a)


def conditional(link: Link, policy: str, h: float) -> float:
    """P(out | |h|^2 = h), averaged over the exponential |g|^2."""
    rho = _rho(link, policy, h)
    f = rho * ((link.p_s * h - link.gamma_0 * link.sr) * (1.0 - rho) - link.gamma_0 * link.sp)
    if not f > 0.0:
        return 1.0
    s0 = link.sd * (1.0 - rho + link.sp / (link.p_s * h + link.sr))
    return -math.expm1(-link.gamma_0 * s0 / (f * link.lambda_g))


def outage(link: Link, policy: str):
    """(p_out, E[P(out|h)^2]) for one policy; the second moment gives the
    variance of the semi-analytic estimator, E[P^2] - p^2."""
    h_c = _threshold(link, policy)
    lam = link.lambda_h
    head = -math.expm1(-h_c / lam)
    # Geometric panels from just above h_c out to 40 mean gains: the
    # integrand changes on the scale of h_c near it and of lambda_h far out.
    edges = [h_c]
    x = max(h_c, 1e-12) * 1e-3
    while h_c + x < 40.0 * lam:
        edges.append(h_c + x)
        x *= 10.0
    edges.append(h_c + 40.0 * lam)

    def moment(k):
        total = head
        for a, b in zip(edges, edges[1:]):
            val, _ = quad(
                lambda h: conditional(link, policy, h) ** k * math.exp(-h / lam) / lam,
                a, b, epsabs=0.0, epsrel=1e-11, limit=200,
            )
            total += val
        return total

    return moment(1), moment(2)

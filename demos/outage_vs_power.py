"""Outage probability vs source power for all five policies.

Sweeps the source power and prints a small table of Monte Carlo outage
estimates for the two dynamic policies (full and partial CSI) and three
fixed splitting ratios. All policies at a given power share the same channel
draws, so the ordering between columns is not clouded by independent noise.

The dynamic policies track each other closely and beat every fixed ratio;
the gap versus the fixed curves widens as power grows.

Run:  python3 demos/outage_vs_power.py          (~30 s at n=200k per point)
"""
from swipt_relay.channel import FadingParams
from swipt_relay.params import SystemParams, dbm_to_linear
from swipt_relay.policy import Fixed, FullCSI, PartialCSI
from swipt_relay.sim import SweepSpec, run_sweep

params = SystemParams(
    p_s=dbm_to_linear(40.0),
    sigma_r_sq=dbm_to_linear(-20.0),
    sigma_p_sq=dbm_to_linear(-20.0),
    sigma_d_sq=dbm_to_linear(-17.0),
    rate=3.0,
)
policies = (FullCSI(), PartialCSI(), Fixed(0.4), Fixed(0.6), Fixed(0.8))

spec = SweepSpec(
    variable="p_s_dbm",
    values=tuple(float(p) for p in range(30, 52, 2)),
    params=params,
    fading=FadingParams(lambda_h=1.5, lambda_g=1.5),
    policies=policies,
    n=200_000,
    seed=7,
)
rows = run_sweep(spec, workers=1)

names = ["full_csi", "partial_csi", "fixed:0.4", "fixed:0.6", "fixed:0.8"]
print("outage probability (n = {:,} per point)\n".format(spec.n))
print(f"{'P_s dBm':>8} " + " ".join(f"{n:>12}" for n in names))
by_value = {}
for row in rows:
    by_value.setdefault(row.sweep_value, {})[row.policy] = row.estimate.p_out
for value in spec.values:
    cells = [by_value[value][p] for p in policies]
    print(f"{value:8.1f} " + " ".join(f"{c:12.2e}" for c in cells))

"""Outage probability vs source power for all five policies.

Sweeps the source power and prints a small table of Monte Carlo outage
estimates for the two dynamic policies (full and partial CSI) and three
fixed splitting ratios. All policies at a given power share the same channel
draws, so the ordering between columns is not clouded by independent noise.

The dynamic policies track each other closely and beat every fixed ratio;
the gap versus the fixed curves widens as power grows.

Run:  python3 demos/outage_vs_power.py          (~30 s at n=200k per point)
"""
import json
from pathlib import Path

from swipt_relay.params import FadingParams, SweepSpec, parse_policy, validate
from swipt_relay.sim import run_sweep

# the shipped operating point and policies
cfg = json.loads((Path(__file__).parent / "config.example.json").read_text())
names = cfg["policies"]
policies = tuple(map(parse_policy, names))

spec = SweepSpec(
    variable="p_s_dbm",
    values=tuple(float(p) for p in range(30, 52, 2)),
    params=validate(cfg),
    fading=FadingParams(cfg["lambda_h"], cfg["lambda_g"]),
    policies=policies,
    n=200_000,
    seed=7,
)
rows = run_sweep(spec, workers=1)

print("outage probability (n = {:,} per point)\n".format(spec.n))
print(f"{'P_s dBm':>8} " + " ".join(f"{n:>12}" for n in names))
by_value = {}
for row in rows:
    by_value.setdefault(row.sweep_value, {})[row.policy] = row.estimate.p_out
for value in spec.values:
    cells = [by_value[value][p] for p in policies]
    print(f"{value:8.1f} " + " ".join(f"{c:12.2e}" for c in cells))

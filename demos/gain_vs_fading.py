"""Outage gain of each policy over the fixed rho = 0.4 baseline vs fading mean.

Sweeps the relay-to-destination fading mean and prints the log-ratio gain
eta = -ln(p_policy / p_fixed04) for the dynamic policies and for the fixed
ratios 0.6 and 0.8. Positive eta means fewer outages than the baseline.
The fixed-ratio gains shrink as the second hop improves. Note that outage
events get scarce at large fading means, so the right end of the table is
noisy at this sample size; raise n for smoother numbers.

Run:  python3 demos/gain_vs_fading.py          (~30 s at n=300k per point)
"""
import json
from pathlib import Path

from swipt_relay.params import GAIN_POLICIES, FadingParams, SweepSpec, parse_policy, validate
from swipt_relay.sim import gains_from_sweep, run_sweep

# the shipped operating point and policies
cfg = json.loads((Path(__file__).parent / "config.example.json").read_text())

spec = SweepSpec(
    variable="lambda_g",
    values=(1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0),
    params=validate(cfg),
    fading=FadingParams(cfg["lambda_h"], cfg["lambda_g"]),
    policies=tuple(map(parse_policy, cfg["policies"])),
    n=300_000,
    seed=7,
)
gains = gains_from_sweep(run_sweep(spec, workers=1))

print("log-ratio gain over fixed rho=0.4 (n = {:,} per point)\n".format(spec.n))
print(f"{'lambda_g':>8} {'full_csi':>10} {'partial':>10} {'rho=0.6':>10} {'rho=0.8':>10}")
for g in gains:
    print(f"{g.sweep_value:8.1f}" + "".join(f" {g.eta[name][0]:10.3f}" for name in GAIN_POLICIES))

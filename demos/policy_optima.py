"""Closed-form power-splitting optima vs a brute-force grid search.

For a handful of random channel draws this script computes the optimal
splitting ratio two ways — the closed-form expressions used by the dynamic
policies, and a dense grid search over the objective — and prints them
side by side. The two should agree to within the grid resolution.

Run:  python3 demos/policy_optima.py
"""
import json
from pathlib import Path

from swipt_relay.channel import sample_channels, substream
from swipt_relay.link import snr
from swipt_relay.params import FadingParams, validate
from swipt_relay.policy import (
    full_csi_rho,
    oracle_grid_full,
    oracle_grid_partial,
    partial_csi_rho,
)

# the shipped operating point
cfg = json.loads((Path(__file__).parent / "config.example.json").read_text())
params = validate(cfg)
rng = substream(2024)
h_sqs, g_sqs = sample_channels(rng, FadingParams(cfg["lambda_h"], cfg["lambda_g"]), 6)

STEP = 1e-5
print(f"target SNR gamma_0 = {params.gamma_0:g}, grid step = {STEP:g}\n")
print(f"{'h^2':>8} {'g^2':>8} | {'full cf':>10} {'full grid':>10} "
      f"| {'partial cf':>10} {'part grid':>10}")
for h_sq, g_sq in zip(h_sqs, g_sqs):
    full_cf = full_csi_rho(params, h_sq, g_sq)
    full_gr = oracle_grid_full(params, h_sq, g_sq, step=STEP)
    par_cf = float(partial_csi_rho(params, h_sq))
    par_gr = oracle_grid_partial(params, h_sq, step=STEP)
    print(f"{h_sq:8.4f} {g_sq:8.4f} | {full_cf:10.6f} {full_gr:10.6f} "
          f"| {par_cf:10.6f} {par_gr:10.6f}")

h_sq, g_sq = h_sqs[0], g_sqs[0]
best = full_csi_rho(params, h_sq, g_sq)
print(f"\nSNR profile around the full-CSI optimum for the first draw "
      f"(rho* = {best:.6f}):")
for rho in (best - 0.05, best, best + 0.05):
    print(f"  rho = {rho:.6f}  ->  snr = {snr(params, h_sq, g_sq, rho):.1f}")

"""Command-line front end: point evaluations, sweeps, gains, verification.

All commands are driven by a JSON config file; a few flags (--seed, --n,
--out) override config values. Powers are given in dBm on this boundary and
converted once, on load. The default seed is a fixed constant so two runs of
the same command produce byte-identical CSV files.

Exit codes: 0 success, 1 config error, 2 verification failure, 3 runtime error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from .channel import FadingParams
from .params import ConfigError, require_number, validate
from .policy import parse_policy, policy_name
from .sim import GAIN_BASELINE, GAIN_POLICIES, SweepSpec, gains_from_sweep, outage_point, run_sweep
from . import verify as verify_mod

DEFAULT_SEED = 12345

# Largest n: above 2^53 a float p_out no longer gives back the event count p_out*n.
MAX_N = 2 ** 53

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_RUNTIME = 3

SWEEP_HEADER = "sweep_var,sweep_value,policy,p_out,std_err,mean_rho,harvest_only_fraction,n,seed"
GAINS_HEADER = "sweep_value,eta_full,eta_par,eta_rho06,eta_rho08"


def _fmt(x) -> str:
    return f"{x:.12g}"


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def _fading_from(cfg) -> FadingParams:
    return FadingParams(lambda_h=require_number(cfg.get("lambda_h"), "lambda_h"),
                        lambda_g=require_number(cfg.get("lambda_g"), "lambda_g"))


def _policies_from(cfg):
    names = cfg.get("policies")
    if not isinstance(names, list) or not names:
        raise ConfigError('missing "policies" list')
    return tuple(parse_policy(str(n)) for n in names)


def _int_from(cfg, args, key, minimum, default=None, maximum=math.inf):
    """A flag, else a config value, else the default: an integer in
    [minimum, maximum]. JSON writes 1e6 as a float, so integral floats count;
    bools do not."""
    v = getattr(args, key, None)
    if v is None:
        v = cfg.get(key, default)
    if v is None:
        raise ConfigError(f"missing {key}")
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, bool) or not isinstance(v, int) or not minimum <= v <= maximum:
        raise ConfigError(f"{key} must be an integer in [{minimum}, {maximum}], got {v!r}")
    return v


def _out_path(out):
    if not isinstance(out, str) or not out:
        raise ConfigError(f"output path must be a non-empty string, got {out!r}")
    directory = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(directory):
        raise ConfigError(f"output directory {directory} does not exist")
    return out


def _write_csv(path, provenance_lines, header, rows):
    """Write atomically: the file appears only if every row was produced."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            for line in provenance_lines:
                fh.write(f"# {line}\n")
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _provenance(cfg, seed, n):
    echo = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return [f"seed={seed}", f"n={n}", f"config={echo}"]


def _estimate_row(sweep_var, sweep_value, pol, est, seed):
    return (
        sweep_var,
        _fmt(sweep_value),
        policy_name(pol),
        _fmt(est.p_out),
        _fmt(est.std_err),
        _fmt(est.mean_rho),
        _fmt(est.harvest_only_fraction),
        str(est.n),
        str(seed),
    )


def _sweep_spec(cfg, args):
    """The SweepSpec of a config; `point` runs the one-value p_s_dbm sweep
    at the config's own power, so it shares every check."""
    if args.command == "point":
        sweep = {"variable": "p_s_dbm", "values": [require_number(cfg.get("p_s_dbm"), "p_s_dbm")]}
    else:
        sweep = cfg.get("sweep")
    if not isinstance(sweep, dict):
        raise ConfigError('missing "sweep" section with "variable" and "values"')
    variable = sweep.get("variable")
    values = sweep.get("values")
    if not variable:
        raise ConfigError('missing sweep "variable"')
    if not isinstance(values, list) or not values:
        raise ConfigError('missing or empty sweep "values" list')
    try:
        return SweepSpec(
            variable=str(variable),
            values=tuple(require_number(v, "a sweep value") for v in values),
            params=validate(cfg),
            fading=_fading_from(cfg),
            policies=_policies_from(cfg),
            n=_int_from(cfg, args, "n", 1, maximum=MAX_N),
            seed=_int_from(cfg, args, "seed", 0, DEFAULT_SEED),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _parse(args):
    """Check the whole config before any compute starts; every mistake is a
    ConfigError. Returns (cfg, spec, out, gains_out), where out is the
    estimates table and gains_out the gains table; either may be None."""
    if args.workers < 1:
        raise ConfigError(f"workers must be an integer >= 1, got {args.workers}")
    cfg = _load_config(args.config)
    spec = _sweep_spec(cfg, args)
    out = _out_path(args.out or cfg.get("out"))
    gains_out = None
    if args.command == "gains":
        out, gains_out = None, out
    elif args.command == "sweep" and cfg.get("gains_out") is not None:
        gains_out = _out_path(cfg["gains_out"])
    if gains_out is not None:
        names = {policy_name(p) for p in spec.policies}
        missing = [p for p in (GAIN_BASELINE,) + GAIN_POLICIES if p not in names]
        if missing:
            raise ConfigError(f"the gains table needs the policies {missing}")
    return cfg, spec, out, gains_out


def cmd_point(args) -> int:
    cfg, spec, out, _ = _parse(args)
    params = spec.params
    estimates = outage_point(
        params, spec.fading, spec.policies, params.gamma_0, spec.n, spec.seed,
        workers=args.workers,
    )
    rows = [
        _estimate_row(spec.variable, spec.values[0], pol, est, spec.seed)
        for pol, est in zip(spec.policies, estimates)
    ]
    _write_csv(out, _provenance(cfg, spec.seed, spec.n), SWEEP_HEADER, rows)
    for row in rows:
        print(f"{row[2]}: p_out={row[3]} (std_err={row[4]})")
    print(f"wrote {out}")
    return EXIT_OK


def _gain_rows(sweep_rows):
    return [
        (_fmt(g.sweep_value),) + tuple(_fmt(g.eta[name][0]) for name in GAIN_POLICIES)
        for g in gains_from_sweep(sweep_rows)
    ]


def cmd_sweep(args) -> int:
    """`sweep` and `gains`: run the sweep, then write the tables _parse named."""
    cfg, spec, out, gains_out = _parse(args)
    rows = run_sweep(spec, workers=args.workers)
    provenance = _provenance(cfg, spec.seed, spec.n)
    if out is not None:
        _write_csv(out, provenance, SWEEP_HEADER, [
            _estimate_row(spec.variable, r.sweep_value, r.policy, r.estimate, spec.seed)
            for r in rows
        ])
        print(f"wrote {out} ({len(rows)} rows)")
    if gains_out is not None:
        _write_csv(gains_out, provenance, GAINS_HEADER, _gain_rows(rows))
        print(f"wrote {gains_out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify_mod.run_all(quick=args.quick)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.detail}")
        print(f"time {r.name}: {r.seconds:.3f} s", file=sys.stderr)
        failed = failed or not r.passed
    return EXIT_VERIFY if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swipt-relay",
        description="Outage simulation and power-splitting policies for an "
                    "energy-harvesting AF relay link.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", help="output CSV path (overrides config)")
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (overrides config; default {DEFAULT_SEED})")
        p.add_argument("--n", type=int, default=None,
                       help="realizations per point, 1 to 2^53 (overrides config)")
        p.add_argument("--workers", type=int, default=1,
                       help="threads in this process, >= 1; results do not depend on this")

    p_point = sub.add_parser("point", help="outage at one operating point per policy")
    common(p_point)
    p_point.set_defaults(func=cmd_point)

    p_sweep = sub.add_parser("sweep", help="outage sweep over P_s or a fading mean")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_gains = sub.add_parser("gains", help=f"log-ratio gains vs the {GAIN_BASELINE} baseline")
    common(p_gains)
    p_gains.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run closed-form vs oracle batteries")
    p_verify.add_argument("--quick", action="store_true",
                          help="reduced instance counts, same batteries")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # noqa: BLE001 - boundary: map anything else to exit 3
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

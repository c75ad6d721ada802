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

from .params import (GAIN_BASELINE, GAIN_POLICIES, ConfigError, FadingParams, SweepSpec,
                     parse_policy, policy_name, require_number, validate)

DEFAULT_SEED = 12345

# An estimate from fewer outage events has a relative error above 10 %; it gets a warning.
MIN_EVENTS = 100

CONFIG_KEYS = ("p_s_dbm", "sigma_r_sq_dbm", "sigma_p_sq_dbm", "sigma_d_sq_dbm", "rate_bps_hz",
               "epsilon", "lambda_h", "lambda_g", "policies", "sweep", "n", "seed", "out",
               "gains_out")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_RUNTIME = 3

SWEEP_HEADER = "sweep_var,sweep_value,policy,p_out,std_err,mean_rho,harvest_only_fraction,n,seed"
GAINS_HEADER = "sweep_value,eta_full,eta_par,eta_rho06,eta_rho08"


def run_sweep(spec, workers=1):
    """sim.run_sweep, imported on the first call, as cmd_point imports outage_point. It stays
    a wrapper only for perfbench/spans.py's sim.run_sweep span; ROADMAP item 1 deletes it."""
    from .sim import run_sweep
    return run_sweep(spec, workers)


def _fmt(x) -> str:
    return f"{x:.12g}"


def _unique_keys(pairs):  # json.load's object_pairs_hook; json keeps a repeated key's last value
    if len(keys := [key for key, _ in pairs]) > len(set(keys)):
        raise ConfigError(f"key {next(k for k in keys if keys.count(k) > 1)!r} is given twice")
    return dict(pairs)


def _load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:  # JSON is UTF-8 (RFC 8259), whatever the locale
            cfg = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError, 4,301+ digits, a repeated key
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    if unknown := [key for key in cfg if key not in CONFIG_KEYS]:  # not dropped: it may be a typo
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    return cfg


def _int_from(cfg, args, key, default=None):
    """A flag, else a config value, else the default. JSON writes 1e6 as a float,
    so an integral float becomes its int; SweepSpec checks the value."""
    v = getattr(args, key, None)
    if v is None:
        v = cfg.get(key, default)
    if v is None:
        raise ConfigError(f"missing {key}")
    return int(v) if isinstance(v, float) and v.is_integer() else v


def _out_path(cfg, key, flag=None):
    """The path of the table under config key `key`, or the --out flag in its place."""
    name, out = (key, cfg.get(key)) if flag is None else ("--out", flag)
    if not isinstance(out, str) or not out:
        raise ConfigError(f"{name} must be a non-empty string path, got {out!r}")
    if os.path.isdir(out):
        raise ConfigError(f"{name} {out} is a directory")
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


def _estimate_row(sweep_var, row, seed):
    est = row.estimate
    return (
        sweep_var,
        _fmt(row.sweep_value),
        policy_name(row.policy),
        _fmt(est.p_out),
        _fmt(est.std_err),
        _fmt(est.mean_rho),
        _fmt(est.harvest_only_fraction),
        str(est.n),
        str(seed),
    )


def _warn_few_events(variable, rows):
    """Warn on stderr for each SweepRow with fewer than MIN_EVENTS outage
    events, round(p_out*n); the relative error is about 1/sqrt(events)."""
    for row in rows:
        events = round(row.estimate.p_out * row.estimate.n)
        if events < MIN_EVENTS:
            print(f"warning: {variable}={_fmt(row.sweep_value)} {policy_name(row.policy)}: "
                  f"{events} outage events, "
                  f"relative error {1 / math.sqrt(events) if events else math.inf:.2g}",
                  file=sys.stderr)


def _sweep_spec(cfg, args):
    """The SweepSpec of a config; `point` runs the one-value p_s_dbm sweep
    at the config's own power, so it shares every check."""
    if args.command == "point":
        sweep = {"variable": "p_s_dbm", "values": [require_number(cfg.get("p_s_dbm"), "p_s_dbm")]}
    else:
        sweep = cfg.get("sweep")
    if not isinstance(sweep, dict):
        raise ConfigError('missing "sweep" section with "variable" and "values"')
    if unknown := [key for key in sweep if key not in ("variable", "values")]:
        raise ConfigError(f"unknown sweep key {unknown[0]!r}")
    variable, values = sweep.get("variable"), sweep.get("values")
    if not variable:
        raise ConfigError('missing sweep "variable"')
    if not isinstance(values, list):
        raise ConfigError('missing sweep "values" list')
    names = cfg.get("policies")
    if not isinstance(names, list):
        raise ConfigError('missing "policies" list')
    return SweepSpec(
        variable=str(variable),
        values=tuple(require_number(v, "a sweep value") for v in values),
        params=validate(cfg),
        fading=FadingParams(*(require_number(cfg.get(k), k) for k in ("lambda_h", "lambda_g"))),
        policies=tuple(parse_policy(str(n)) for n in names),
        n=_int_from(cfg, args, "n"),
        seed=_int_from(cfg, args, "seed", DEFAULT_SEED),
    )


def _parse(args):
    """Check the whole config before any compute starts; every mistake is a ConfigError.
    Returns (cfg, spec, out, gains_out), each table's path or None. The command's own table
    is at --out, else, for sweep and gains only, at its config key (out names sweep's)."""
    if args.workers < 1:
        raise ConfigError(f"workers must be an integer >= 1, got {args.workers}")
    cfg = _load_config(args.config)
    spec = _sweep_spec(cfg, args)
    if args.command == "point" and args.out is None:
        raise ConfigError("point writes its table only where --out says, and --out is missing")
    own = "gains_out" if args.command == "gains" else "out"
    tables = {own: _out_path(cfg, own, args.out)}
    if args.command == "sweep" and cfg.get("gains_out") is not None:
        tables["gains_out"] = _out_path(cfg, "gains_out")
    files = [args.config, *tables.values()]
    if len({os.path.realpath(f) for f in files}) < len(files):
        raise ConfigError(f"the config and each table need their own file, got {', '.join(files)}")
    if "gains_out" in tables:
        names = {policy_name(p) for p in spec.policies}
        missing = [p for p in (GAIN_BASELINE,) + GAIN_POLICIES if p not in names]
        if missing:
            raise ConfigError(f"the gains table needs the policies {missing}")
    return cfg, spec, tables.get("out"), tables.get("gains_out")


def _write_tables(cfg, spec, rows, out, gains_out):
    """The post-run path of `point`, `sweep` and `gains`: warn on the SweepRows, then
    compute every table _parse named before writing any, so failed gains write none."""
    _warn_few_events(spec.variable, rows)
    tables = [] if out is None else [
        (out, SWEEP_HEADER, [_estimate_row(spec.variable, r, spec.seed) for r in rows])]
    if gains_out is not None:
        from .sim import gains_from_sweep
        tables.append((gains_out, GAINS_HEADER, [
            (_fmt(g.sweep_value),) + tuple(_fmt(g.eta[name][0]) for name in GAIN_POLICIES)
            for g in gains_from_sweep(rows)]))
    for path, header, table in tables:
        _write_csv(path, _provenance(cfg, spec.seed, spec.n), header, table)
        print(f"wrote {path} ({len(table)} rows)")
    return EXIT_OK


def cmd_point(args) -> int:
    """`point`: one SweepRow per policy at the config's own power, from the
    policies' shared draws on substream key ()."""
    cfg, spec, out, gains_out = _parse(args)
    from .sim import SweepRow, outage_point
    estimates = outage_point(spec.params, spec.fading, spec.policies, spec.params.gamma_0,
                             spec.n, spec.seed, workers=args.workers)
    rows = [SweepRow(spec.values[0], pol, est) for pol, est in zip(spec.policies, estimates)]
    for row in rows:
        print(f"{policy_name(row.policy)}: p_out={_fmt(row.estimate.p_out)} "
              f"(std_err={_fmt(row.estimate.std_err)})")
    return _write_tables(cfg, spec, rows, out, gains_out)


def cmd_sweep(args) -> int:
    """`sweep` and `gains`: run the sweep, then write the tables _parse named."""
    cfg, spec, out, gains_out = _parse(args)
    return _write_tables(cfg, spec, run_sweep(spec, workers=args.workers), out, gains_out)


def cmd_verify(args) -> int:
    from .verify import run_all  # only this command needs the batteries
    results = run_all(quick=args.quick)
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

    def common(p, out_help):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", help=out_help)
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (overrides config; default {DEFAULT_SEED})")
        p.add_argument("--n", type=int, default=None,
                       help="realizations per point, 1 to 2^53 (overrides config)")
        p.add_argument("--workers", type=int, default=1,
                       help="threads in this process, >= 1; results do not depend on this")

    p_point = sub.add_parser("point", help="outage at one operating point per policy")
    common(p_point, "estimates CSV path, required: point reads only --out, no config key")
    p_point.set_defaults(func=cmd_point)

    p_sweep = sub.add_parser("sweep", help="outage sweep over P_s or a fading mean")
    common(p_sweep, "estimates CSV path (replaces config out, not gains_out)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_gains = sub.add_parser("gains", help=f"log-ratio gains vs the {GAIN_BASELINE} baseline")
    common(p_gains, "gains CSV path (replaces config gains_out)")
    p_gains.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run closed-form vs oracle batteries")
    p_verify.add_argument("--quick", action="store_true",
                          help="reduced instance counts, same batteries")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read as numpy loads; no code calls BLAS
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # argparse printed why; a malformed flag is a config error
        return EXIT_CONFIG if e.code else EXIT_OK
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # noqa: BLE001 - boundary: map anything else to exit 3
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

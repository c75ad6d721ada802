"""swipt-relay benchmark: one workload, timed, with every output checked.

    python3 perfbench/run.py --workload NAME [--seed 12345] [--seconds 30] [--trace 0|1]

Run from the root of a checkout; the package is imported from ./src, so
there is nothing to build. With ``--trace 0`` the workload repeats for
``--seconds`` seconds and the end-to-end metrics are reported (timings are
medians over the repetitions; set-up time and peak memory come from fresh
processes). With ``--trace 1`` the workload repeats in pairs, untraced and
traced, with one worker, and the per-layer metrics are reported. Every
estimate is checked against exact quadrature (exact.py). The last line of
standard output is one JSON object; a readable summary goes to stderr.

Workloads, metrics and the layer each metric belongs to: README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "swipt_relay" / "__init__.py").is_file():
    sys.exit(f"error: no package at {SRC}; run from the root of a swipt-relay checkout")
sys.path.insert(0, str(HERE))

import exact  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3          # timed repetitions per run, even past --seconds
SETUP_RUNS = 9        # fewest fresh processes timed for setup_s
TOLERANCE_SE = 5.0    # an estimate fails beyond this many standard errors
TARGET_RSE = 0.10     # accuracy that time_to_rse10_s is scaled to
SUBPROCESS_TIMEOUT_S = 170


class Checker:
    """Checks estimates against exact.outage and counts what it checked.

    The allowed gap is TOLERANCE_SE times the larger of the estimate's own
    standard error and the standard error the estimator has at the exact
    value, so an estimate with few outage events (small own error) is not
    failed on chance alone.
    """

    def __init__(self):
        self._exact = {}
        self.attempted = 0
        self.failed = 0
        self.estimates = []   # those of the last checked repetition

    def exact(self, e):
        # full CSI is in outage on exactly the draws where partial CSI is
        policy = "partial_csi" if e.policy == "full_csi" else e.policy
        key = (e.point, policy)
        if key not in self._exact:
            self._exact[key] = exact.outage(exact.Link(*e.point), policy)
        return self._exact[key]

    def se_at_exact(self, e):
        p, m2 = self.exact(e)
        var = p * (1.0 - p) if e.kind == "mc" else max(m2 - p * p, 0.0)
        return math.sqrt(var / e.n)

    def rse_at_exact(self, e):
        return self.se_at_exact(e) / self.exact(e)[0]

    def check(self, outcome):
        for e in outcome.estimates:
            gap = abs(e.p_out - self.exact(e)[0])
            if not gap <= TOLERANCE_SE * max(e.std_err, self.se_at_exact(e)):
                self.failed += 1
                print(f"check failed: {e} exact={self.exact(e)[0]:.6g}", file=sys.stderr)
        self.attempted += len(outcome.estimates) + outcome.checks_passed + outcome.checks_failed
        self.failed += outcome.checks_failed
        self.estimates = outcome.estimates

    def fail(self, error):
        print(f"repetition failed: {error!r}", file=sys.stderr)
        self.attempted += 1
        self.failed += 1


def fresh_setup_s():
    """Wall time of a fresh CLI process that imports the package, loads and
    validates the whole sweep config, and stops at its last check (n = 0 is
    a config error, exit code 1) before any compute."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "swipt_relay.cli", "sweep", "--config",
         str(workloads.CONFIG), "--n", "0"],
        env=workloads.package_env(), capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 1:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def fresh_peak_rss_mb(name, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"memory probe exited {proc.returncode}: {proc.stderr.strip()}")
    rss = json.loads(proc.stdout.splitlines()[-1])
    return (rss["self_kb"] + rss["children_kb"]) / 1024.0


def repeat(checker, seconds, min_reps, body):
    """Call body() until `seconds` have passed and min_reps calls were made;
    a repetition that raises ends the loop."""
    deadline = time.perf_counter() + seconds
    done = 0
    while done < min_reps or time.perf_counter() < deadline:
        try:
            body()
        except Exception as e:  # noqa: BLE001 - a failed repetition is reported, not fatal
            checker.fail(e)
            return
        done += 1


def timed_run(w, checker, **kwargs):
    t0 = time.perf_counter()
    outcome = w.run(**kwargs)
    wall = time.perf_counter() - t0
    checker.check(outcome)
    return wall


def end_to_end(w, args, checker):
    peak_rss_mb = fresh_peak_rss_mb(w.name, args.seed)
    w.warm_up()
    walls, setup = [], []

    def rep():
        walls.append(timed_run(w, checker))
        # one set-up probe after each timed repetition, so that setup_s
        # samples the machine over the whole run, not over its first seconds
        setup.append(fresh_setup_s())

    repeat(checker, args.seconds, MIN_REPS, rep)
    while len(setup) < SETUP_RUNS:
        setup.append(fresh_setup_s())
    if not walls:
        raise RuntimeError("no repetition completed")
    wall = statistics.median(walls)
    rse_max = max(checker.rse_at_exact(e) for e in checker.estimates)
    print(f"{w.name}: {len(walls)} repetitions, wall_s {sorted(walls)}, "
          f"rse_max {rse_max:.4g}", file=sys.stderr)
    return {
        "wall_s": (wall, "s"),
        "time_to_rse10_s": (wall * (rse_max / TARGET_RSE) ** 2, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def layer_metrics(tracer, estimates, n_workers, pool):
    """Per-layer figures of one traced repetition (README.md has the map)."""
    s = tracer.summary()

    def self_ms(*names):
        return 1e3 * sum(s[n]["self_s"] for n in names if n in s)

    def total_s(name):
        return s[name]["total_s"] if name in s else 0.0

    def calls(*names):
        return sum(s[n]["calls"] for n in names if n in s)

    def work(*names):
        return sum(s[n]["work"] for n in names if n in s)

    def ratio(a, b):
        return a / b if b else 0.0

    sample = ("channel.sample_channels", "channel.sample_gains")
    dynamic = ("policy.full_csi", "policy.partial_csi", "policy.fixed")
    partial = [e for e in estimates if e.policy == "partial_csi"]
    by_point = {}
    for e in estimates:
        if e.kind == "mc":
            by_point.setdefault(e.point, {})[e.policy] = e.p_out
    mismatch = sum(
        1 for ps in by_point.values()
        if "full_csi" in ps and "partial_csi" in ps and ps["full_csi"] != ps["partial_csi"]
    )
    batches = tracer.children_of("sim.outage_point", "channel.substream")
    rounds = sum(math.ceil(b / n_workers) for b in batches)
    out = {
        "channel.sample_ms": (self_ms(*sample), "ms"),
        "channel.ns_per_draw": (ratio(1e6 * self_ms(*sample), work(*sample)), "ns"),
        "channel.draws": (work(*sample), "count"),
        "channel.substream_ms": (self_ms("channel.substream"), "ms"),
        "policy.full_csi_ms": (self_ms("policy.full_csi"), "ms"),
        "policy.partial_csi_ms": (self_ms("policy.partial_csi"), "ms"),
        "policy.fixed_ms": (self_ms("policy.fixed"), "ms"),
        "policy.calls": (calls(*dynamic), "count"),
        "policy.scalar_us_per_call": (ratio(1e3 * self_ms("policy.scalar"), calls("policy.scalar")), "us"),
        "policy.oracle_ms": (self_ms("policy.oracle"), "ms"),
        "policy.harvest_only_frac": (
            ratio(sum(e.harvest_only * e.n for e in partial), sum(e.n for e in partial)), "ratio"),
        "link.snr_ms": (self_ms("link.snr"), "ms"),
        "link.snr_calls": (calls("link.snr"), "count"),
        "link.ns_per_eval": (ratio(1e6 * self_ms("link.snr"), work("link.snr")), "ns"),
        "link.conditional_outage_ms": (self_ms("link.conditional_outage"), "ms"),
        "sim.self_ms": (self_ms(*(n for n in s if n.startswith("sim."))), "ms"),
        "sim.batches": (calls("channel.substream"), "count"),
        "sim.pool_starts": (pool.pool_starts, "count"),
        "sim.pool_overhead_ms": (pool.overhead_ms(batches, rounds), "ms"),
        "sim.worker_busy_frac": (ratio(sum(batches), n_workers * rounds) if batches else 1.0, "ratio"),
        "sim.full_partial_mismatch": (mismatch, "count"),
        "cli.parse_ms": (self_ms("cli.parse"), "ms"),
        "cli.csv_write_ms": (self_ms("cli.csv_write"), "ms"),
        "cli.csv_bytes": (work("cli.csv_write"), "bytes"),
        "verify.full_csi_s": (total_s("verify.full_csi"), "s"),
        "verify.partial_csi_s": (total_s("verify.partial_csi"), "s"),
        "verify.snr_identity_s": (total_s("verify.snr_identity"), "s"),
        "verify.cross_check_s": (total_s("verify.cross_check"), "s"),
        "verify.instances": (work("verify.full_csi", "verify.partial_csi", "verify.snr_identity"), "count"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    return out


class PoolTimes:
    """outage_point wall times of untraced repetitions at 1 and N workers."""

    def __init__(self):
        self.serial_s = []
        self.pooled_s = []
        self.pool_starts = 0

    def overhead_ms(self, batches, rounds):
        """Per point, the pooled time beyond ideal scaling of the serial time
        (rounds of batches over total batches); 0 without a pooled run."""
        if not self.pooled_s or not batches:
            return 0.0
        serial = statistics.median(self.serial_s)
        pooled = statistics.median(self.pooled_s)
        return 1e3 * (pooled - serial * rounds / sum(batches)) / len(batches)


def per_layer(w, args, checker):
    w.warm_up()
    untraced, traced, runs = [], [], []
    pool = PoolTimes()
    dump = workloads.WORK / f"spans-{w.name}.json"

    def pair():
        probe = spans.PoolProbe()
        with probe.installed():
            untraced.append(timed_run(w, checker, workers=1, in_process=True))
        pool.serial_s.append(sum(probe.point_s))
        tracer = spans.Tracer()
        with spans.traced(tracer), tracer.span("workload"):
            traced.append(timed_run(w, checker, workers=1, in_process=True))
        runs.append((tracer, checker.estimates))
        if w.workers > 1:
            probe = spans.PoolProbe()
            with probe.installed():
                timed_run(w, checker, workers=w.workers, in_process=True)
            pool.pooled_s.append(sum(probe.point_s))
            pool.pool_starts = probe.pool_starts

    repeat(checker, args.seconds, 1, pair)
    if not runs:
        raise RuntimeError("no traced repetition completed")
    workloads.WORK.mkdir(parents=True, exist_ok=True)
    runs[-1][0].dump(dump)
    per_run = [layer_metrics(t, e, w.workers, pool) for t, e in runs]
    out = {k: (statistics.median(r[k][0] for r in per_run), unit)
           for k, (_, unit) in per_run[0].items()}
    out["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced[:len(traced)]), "s")
    print(f"{w.name}: {len(runs)} traced repetitions, spans in {dump}", file=sys.stderr)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    checker = Checker()
    w = workloads.WORKLOADS[args.workload](args.seed)
    try:
        metrics = (per_layer if args.trace else end_to_end)(w, args, checker)
    finally:
        w.close()
    if checker.attempted == 0:
        print("error: nothing was checked", file=sys.stderr)
        return 3
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}", file=sys.stderr)
    print(f"  failed_frac = {checker.failed / checker.attempted:.6g} "
          f"({checker.failed} of {checker.attempted} checks)", file=sys.stderr)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

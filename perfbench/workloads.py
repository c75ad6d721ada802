"""The three benchmark workloads and the estimates each one returns.

Every workload is built from the benchmark seed and the reference operating
point in ``sweep_config.json`` (a byte copy of the shipped
``demos/config.example.json``), and hands the package only those inputs. Why
each workload is in the benchmark is written down in README.md.

This module imports the package but not scipy, so the fresh-process memory
probe (probe.py) measures the package's own footprint.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"  # scratch space inside the checkout; removed after each run
CONFIG = HERE / "sweep_config.json"
EXPECTED = HERE / "expected.json"  # sha256 of the sweep CSVs at the default seed
DEFAULT_SEED = 12345
POLICIES = ("full_csi", "partial_csi", "fixed:0.4", "fixed:0.6", "fixed:0.8")

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from swipt_relay import cli, sim, verify  # noqa: E402
from swipt_relay.channel import FadingParams  # noqa: E402
from swipt_relay.params import validate  # noqa: E402
from swipt_relay.policy import parse_policy, policy_name  # noqa: E402


@dataclass(frozen=True)
class Estimate:
    """One outage estimate as the package reported it."""
    point: tuple    # (p_s, sr, sp, sd/eps, gamma_0, lambda_h, lambda_g), linear
    policy: str
    kind: str       # "mc" (Bernoulli) or "sa" (semi-analytic)
    p_out: float
    std_err: float
    n: int
    harvest_only: float


@dataclass
class Outcome:
    """What one repetition produced: estimates plus any pass/fail checks
    that are not estimates (verify batteries, the CSV digest gate)."""
    estimates: list
    checks_passed: int = 0
    checks_failed: int = 0


def package_env():
    """Environment for a child process that imports the package from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def reference_config():
    with open(CONFIG) as fh:
        return json.load(fh)


def point_of(cfg, p_s_dbm):
    """The linear operating point of a dBm config at transmit power p_s_dbm."""
    def lin(dbm):
        return 10.0 ** (float(dbm) / 10.0)
    return (
        lin(p_s_dbm), lin(cfg["sigma_r_sq_dbm"]), lin(cfg["sigma_p_sq_dbm"]),
        lin(cfg["sigma_d_sq_dbm"]) / float(cfg.get("epsilon", 1.0)),
        2.0 ** float(cfg["rate_bps_hz"]) - 1.0,
        float(cfg["lambda_h"]), float(cfg["lambda_g"]),
    )


def point_of_params(params, fading):
    return (
        params.p_s, params.sigma_r_sq, params.sigma_p_sq,
        params.sigma_d_sq / getattr(params, "epsilon", 1.0), params.gamma_0,
        fading.lambda_h, fading.lambda_g,
    )


def _estimate(point, policy, kind, est):
    return Estimate(
        point=point, policy=policy, kind=kind,
        p_out=est.p_out, std_err=est.std_err, n=est.n,
        harvest_only=est.harvest_only_fraction,
    )


class Workload:
    """Interface of a workload.

    ``run(workers, in_process)`` does one repetition and returns an Outcome;
    ``workers=None`` means the workload's own worker count, and
    ``in_process`` matters only to a workload that normally starts a fresh
    process. ``warm_up`` runs once before timing, ``close`` removes what
    the workload wrote.
    """
    name = ""
    workers = 1

    def warm_up(self):
        pass

    def close(self):
        pass


class PointSerial(Workload):
    """One acceptance-sized outage_point at 50 dBm: 5 policies, n = 1e7, one process."""
    name = "point_serial"
    N = 10_000_000
    P_S_DBM = 50.0

    def __init__(self, seed):
        self.seed = seed
        cfg = dict(reference_config(), p_s_dbm=self.P_S_DBM)
        self.params = validate(cfg)
        self.fading = FadingParams(lambda_h=float(cfg["lambda_h"]), lambda_g=float(cfg["lambda_g"]))
        self.point = point_of(cfg, self.P_S_DBM)
        self.policies = tuple(parse_policy(p) for p in POLICIES)

    def warm_up(self):
        self._call(sim.BATCH_SIZE, 1)

    def _call(self, n, workers):
        return sim.outage_point(
            self.params, self.fading, self.policies, self.params.gamma_0,
            n, self.seed, workers=workers,
        )

    def run(self, workers=None, in_process=True):
        ests = self._call(self.N, workers or self.workers)
        return Outcome([
            _estimate(self.point, name, "mc", e) for name, e in zip(POLICIES, ests)
        ])


class SweepCli(Workload):
    """`swipt_relay.cli sweep` on the shipped config, in a temporary directory.

    The config names its outputs by relative paths, so every run gets a
    fresh directory under WORK; nothing is written next to the sources.
    """
    name = "sweep_cli"
    workers = 2

    def __init__(self, seed):
        self.seed = seed
        self.cfg = reference_config()
        self.expected = None
        if seed == DEFAULT_SEED:
            with open(EXPECTED) as fh:
                self.expected = json.load(fh)["sweep_cli"]
        WORK.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=WORK))
        shutil.copyfile(CONFIG, self.dir / "config.json")
        self.env = package_env()

    def argv(self, workers):
        return ["sweep", "--config", "config.json", "--seed", str(self.seed),
                "--workers", str(workers)]

    def run(self, workers=None, in_process=False):
        workers = workers or self.workers
        for name in (self.cfg["out"], self.cfg["gains_out"]):
            (self.dir / name).unlink(missing_ok=True)
        if in_process:
            cwd = os.getcwd()
            os.chdir(self.dir)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(self.argv(workers))
            finally:
                os.chdir(cwd)
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "swipt_relay.cli"] + self.argv(workers),
                cwd=self.dir, env=self.env, capture_output=True, text=True, timeout=170,
            )
            code = proc.returncode
        if code != 0:
            raise RuntimeError(f"sweep exited with code {code}")
        return self._read()

    def csv_digests(self):
        return {
            name: hashlib.sha256((self.dir / name).read_bytes()).hexdigest()
            for name in (self.cfg["out"], self.cfg["gains_out"])
        }

    def _read(self):
        values = self.cfg["sweep"]["values"]
        lines = (self.dir / self.cfg["out"]).read_text().splitlines()
        rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
        header, rows = rows[0], rows[1:]
        if len(rows) != len(values) * len(self.cfg["policies"]):
            raise RuntimeError(f"sweep CSV has {len(rows)} rows")
        col = {k: i for i, k in enumerate(header)}
        out = []
        for r in rows:
            if int(r[col["seed"]]) != self.seed or int(r[col["n"]]) != self.cfg["n"]:
                raise RuntimeError(f"sweep CSV row has wrong seed or n: {r}")
            out.append(Estimate(
                point=point_of(self.cfg, float(r[col["sweep_value"]])),
                policy=r[col["policy"]], kind="mc",
                p_out=float(r[col["p_out"]]), std_err=float(r[col["std_err"]]),
                n=int(r[col["n"]]), harvest_only=float(r[col["harvest_only_fraction"]]),
            ))
        outcome = Outcome(out)
        if self.expected is not None:
            if self.csv_digests() == self.expected:
                outcome.checks_passed += 1
            else:
                outcome.checks_failed += 1
        return outcome

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


class VerifyFull(Workload):
    """`cli.main(["verify"])` at full instance counts.

    Its inputs are the batteries' own fixed seeds, so the benchmark seed does
    not change them. The estimator cross-check's four estimates are captured
    on their way out and checked like every other estimate.
    """
    name = "verify_full"
    workers = 1
    BATTERIES = 4

    def __init__(self, seed):
        self.seed = seed

    def warm_up(self):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", "--quick"])

    def run(self, workers=None, in_process=True):
        captured = []

        def capture(fn, kind):
            def wrapper(params, fading, policy, *args, **kwargs):
                est = fn(params, fading, policy, *args, **kwargs)
                captured.append(_estimate(
                    point_of_params(params, fading), policy_name(policy), kind, est))
                return est
            return wrapper

        saved = verify.outage_mc, verify.outage_semi_analytic
        verify.outage_mc = capture(saved[0], "mc")
        verify.outage_semi_analytic = capture(saved[1], "sa")
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(["verify"])
        finally:
            verify.outage_mc, verify.outage_semi_analytic = saved
        passed = out.getvalue().count("[PASS]")
        if code != 0:
            passed = min(passed, self.BATTERIES - 1)
        return Outcome(captured, passed, self.BATTERIES - passed)


WORKLOADS = {w.name: w for w in (PointSerial, SweepCli, VerifyFull)}

import csv
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import ROOT, package_env
from swipt_relay import cli, policy, sim, verify
from swipt_relay.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VERIFY,
    main,
)

BASE_CONFIG = {
    "p_s_dbm": 40.0,
    "sigma_r_sq_dbm": -20.0,
    "sigma_p_sq_dbm": -20.0,
    "sigma_d_sq_dbm": -17.0,
    "rate_bps_hz": 3.0,
    "lambda_h": 1.5,
    "lambda_g": 1.5,
    "policies": ["full_csi", "partial_csi", "fixed:0.4", "fixed:0.6", "fixed:0.8"],
    "n": 20000,
    "seed": 99,
}


def write_config(tmp_path, overrides=None, name="config.json"):
    cfg = dict(BASE_CONFIG)
    if overrides:
        cfg.update(overrides)
        for k, v in list(cfg.items()):
            if v is None:
                del cfg[k]
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


NAN = float("nan")
LAMBDA_G_SWEEP = {"variable": "lambda_g", "values": [1.0, 2.0]}
NO_FIXED_08 = ["full_csi", "partial_csi", "fixed:0.4", "fixed:0.6"]
LOSSY_06 = ["full_csi", "partial_csi", "fixed:0.4", "fixed:0.6000001", "fixed:0.8"]


@pytest.mark.parametrize("command,overrides", [
    ("point", {"rate_bps_hz": "abc"}),
    ("point", {"seed": -1}),
    ("point", {"n": True}),
    ("point", {"n": 2.5}),
    ("sweep", {"sweep": {"variable": "lambda_g", "values": [1.0, NAN]}}),
    ("sweep", {"sweep": {"variable": "p_s_dbm", "values": [30.0, 40.0, NAN]}}),
    ("sweep", {"sweep": {"variable": "lambda_h", "values": [-1.0, 1.0]}}),
    ("sweep", {"sweep": {"variable": "lambda_g", "values": 5}}),
    ("sweep", {"sweep": {"variable": "lambda_g", "values": [True, 2.0]}}),
    ("gains", {"sweep": LAMBDA_G_SWEEP, "policies": NO_FIXED_08}),
    ("sweep", {"sweep": LAMBDA_G_SWEEP, "policies": NO_FIXED_08, "gains_out": "GAINS"}),
    ("sweep", {"sweep": LAMBDA_G_SWEEP, "gains_out": "no-such-dir/gains.csv"}),
    ("point", {"p_s_dbm": 4000}),
    ("sweep", {"sweep": {"variable": "p_s_dbm", "values": [30.0, 4000.0]}}),
    ("point", {"argv": ["--workers", "0"]}),
    ("sweep", {"sweep": LAMBDA_G_SWEEP, "argv": ["--workers", "-3"]}),
    ("point", {"argv": ["--n", "99999999999999999999"]}),
    ("point", {"argv": ["--n", str(2**53 + 1)]}),
    ("point", {"out": "OUT", "argv": ["--out", ""]}),
    ("point", '{"p_s_dbm": 40.0,'),
    ("point", "[1, 2]"),
    ("point", {"policies": None}),
    ("point", {"policies": []}),
    ("point", {"policies": "full_csi"}),
    ("sweep", {}),
    ("sweep", {"sweep": {"values": [1.0, 2.0]}}),
    ("sweep", {"sweep": {"variable": "rate_bps_hz", "values": [1.0, 2.0]}}),
    ("sweep", {"sweep": {"variable": "lambda_g", "values": [2.0, 1.0]}}),
    ("point", {"n": None}),
    ("gains", {"sweep": LAMBDA_G_SWEEP, "policies": LOSSY_06}),
    ("point", {"argv": ["--out", "."]}),
    ("sweep", {"sweep": LAMBDA_G_SWEEP, "gains_out": "."}),
    ("sweep", {"sweep": LAMBDA_G_SWEEP, "gains_out": "out.csv"}),
    ("sweep", {"sweep": LAMBDA_G_SWEEP, "gains_out": "no-such-dir/../out.csv"}),
    ("sweep", {"sweep": LAMBDA_G_SWEEP, "argv": ["--workers", "two"]}),
    ("point", {"argv": ["--n", "1e3"]}),
    ("point", {"rate_bps_hz": 1024}),
    ("point", {"rate_bps_hz": 1e-17}),
    ("point", {"lambda_h": 10**400}),
    ("point", {"policies": ["fixed:0.6", "fixed:0.60", "full_csi"]}),
    ("point", {"argv": ["--out", "config.json"]}),
    ("gains", {"sweep": LAMBDA_G_SWEEP, "argv": ["--out", "./config.json"]}),
    ("sweep", {"sweep": LAMBDA_G_SWEEP, "gains_out": "config.json"}),
    ("point", {"epsillon": 0.5}),
    ("sweep", {"sweep": dict(LAMBDA_G_SWEEP, value=[3.0])}),
    ("point", json.dumps(dict(BASE_CONFIG, out="OUT")).encode().replace(b"OUT", b"\xff.csv")),
    ("sweep", json.dumps(BASE_CONFIG).replace('"n": 20000', '"n": ' + "9" * 5000)),
], ids=[
    "rate-string", "seed-negative", "n-bool", "n-fraction", "lambda_g-nan",
    "p_s_dbm-nan", "lambda_h-negative", "values-not-list", "values-bool", "gains-incomplete",
    "gains_out-incomplete", "gains_out-missing-dir", "p_s_dbm-overflow", "p_s_dbm-overflow-sweep",
    "workers-zero", "workers-negative", "n-huge", "n-above-2^53", "out-flag-empty",
    "json-invalid", "json-array", "policies-missing", "policies-empty", "policies-not-list",
    "sweep-missing", "sweep-variable-missing", "sweep-variable-unknown", "values-decreasing",
    "n-missing", "gains-rho0-not-0.6", "out-flag-directory", "gains_out-directory",
    "gains_out-is-out", "gains_out-is-out-spelled-differently", "workers-not-int",
    "n-not-int", "rate-overflows-gamma_0", "rate-gives-gamma_0-zero",
    "lambda_h-integer-beyond-float", "policies-duplicate", "out-flag-is-config",
    "gains-out-flag-is-config-spelled-differently", "gains_out-is-config", "key-unknown",
    "sweep-key-unknown", "config-not-utf-8", "n-5000-digits",
])
def test_config_mistake_exits_1_before_compute(tmp_path, monkeypatch, command, overrides):
    # compute is patched to fail, so even the huge n cases allocate nothing; a
    # relative path resolves in tmp_path, beside the config
    monkeypatch.chdir(tmp_path)

    def no_compute(*args, **kwargs):
        pytest.fail("compute started on a bad config")

    monkeypatch.setattr(sim, "outage_point", no_compute)
    monkeypatch.setattr(cli, "run_sweep", no_compute)
    if isinstance(overrides, (str, bytes)):  # the config file's whole content
        cfg, flags = tmp_path / "config.json", []
        cfg.write_bytes(overrides.encode() if isinstance(overrides, str) else overrides)
    else:
        overrides = dict(overrides)
        flags = overrides.pop("argv", [])
        for key in ("out", "gains_out"):  # output paths in the config, inside tmp_path
            if overrides.get(key):
                overrides[key] = str(tmp_path / overrides[key])
        cfg = write_config(tmp_path, overrides)
    out, content = tmp_path / "out.csv", cfg.read_bytes()
    assert main([command, "--config", str(cfg), "--out", str(out)] + flags) == EXIT_CONFIG
    assert [p.name for p in tmp_path.iterdir()] == [cfg.name]
    assert cfg.read_bytes() == content


def test_a_config_that_is_not_utf8_is_named(tmp_path, capsys):
    # JSON is UTF-8 whatever the locale (the config-not-utf-8 case above); the error names the file
    cfg = tmp_path / "config.json"
    cfg.write_bytes(json.dumps(dict(BASE_CONFIG, out="OUT")).encode().replace(b"OUT", b"\xff"))
    assert main(["point", "--config", str(cfg), "--out", str(tmp_path / "p.csv")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: config {cfg} is not valid JSON: ")


def test_a_failed_csv_write_leaves_the_target_and_no_temporary(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    class RowFailed(Exception):
        pass

    def rows():
        yield ("1", "2")
        raise RowFailed

    with pytest.raises(RowFailed):
        cli._write_csv(str(target), ["seed=1"], "a,b", rows())
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_a_sweep_whose_gains_fail_writes_neither_table(tmp_path, monkeypatch, capsys):
    # at n = 1000 some fixed:0.4 estimate is 0, so gain_eta refuses it after the
    # sweep has run; the shipped config names sweep.csv and gains.csv
    monkeypatch.chdir(tmp_path)
    config = ROOT / "demos" / "config.example.json"
    assert main(["sweep", "--config", str(config), "--n", "1000"]) == EXIT_RUNTIME
    assert "insufficient resolution" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_runtime_error_names_its_type(tmp_path, monkeypatch, capsys):
    # an exception without a message must not print a bare "error: "
    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(sim, "outage_point", out_of_memory)
    cfg = write_config(tmp_path)
    assert main(["point", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == EXIT_RUNTIME
    assert capsys.readouterr().err == "error: MemoryError: \n"


# A fresh process runs each command line of its arguments. Every config check
# and --help run before compute, and only compute needs numpy and the modules
# built on it; only `verify` and `--workers` > 1 need a pool. So none is loaded.
FRESH_CLI = """
import contextlib, io, json, sys
from swipt_relay import cli
with contextlib.redirect_stdout(io.StringIO()):  # what --help prints
    codes = [cli.main(json.loads(argv)) for argv in sys.argv[1:]]
loaded = [m for m in ("numpy", "multiprocessing", "concurrent.futures", "swipt_relay.verify",
                      "swipt_relay.sim", "swipt_relay.channel", "swipt_relay.link",
                      "swipt_relay.policy") if m in sys.modules]
import concurrent.futures
from swipt_relay import sim
print(codes, loaded, sim.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor)
"""


def test_a_fresh_cli_imports_neither_pool_nor_verify(tmp_path):
    argvs = [["sweep", "--config", str(ROOT / "demos/config.example.json"), "--n", "0"]]
    for i, (command, overrides) in enumerate([
        ("point", {"p_s_dbm": 4000}),
        ("point", {"lambda_g": 0}),
        ("point", {"policies": ["full_csi", "fixed:1.5"]}),
        ("sweep", {"sweep": {"variable": "lambda_g", "values": [2.0, 1.0]}}),
    ]):
        cfg = write_config(tmp_path, overrides, name=f"config{i}.json")
        argvs.append([command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")])
    # `gains` on a config with `out` but neither gains_out nor --out: its table has no path;
    # `point` without --out on the same config: point's table goes only where --out says
    cfg = write_config(tmp_path, {"sweep": LAMBDA_G_SWEEP, "out": str(tmp_path / "out.csv")},
                       name="gains.json")
    argvs += [["gains", "--config", str(cfg)], ["point", "--config", str(cfg)]]
    for i, overrides in enumerate([{"epsillon": 0.5}, {"sweep": dict(LAMBDA_G_SWEEP, value=1)}]):
        cfg = write_config(tmp_path, overrides, name=f"unknown{i}.json")
        argvs.append(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out.csv")])
    argvs.append(["sweep", "--help"])
    proc = subprocess.run([sys.executable, "-c", FRESH_CLI] + [json.dumps(a) for a in argvs],
                          env=package_env(), capture_output=True, text=True, timeout=60)
    assert proc.stdout == f"{[EXIT_CONFIG] * 9 + [EXIT_OK]} [] True\n"
    assert proc.stderr.splitlines() == [
        "config error: n must be an integer in [1, 9007199254740992], got 0",
        "config error: dBm value out of range [-3000, 3000]: 4000.0",
        "config error: lambda_g must be positive and finite, got 0.0",
        "config error: fixed rho0 must be strictly inside (0, 1), got 1.5",
        "config error: sweep values must be strictly increasing",
        "config error: gains_out must be a non-empty string path, got None",
        "config error: point writes its table only where --out says, and --out is missing",
        "config error: unknown config key 'epsillon'",
        "config error: unknown sweep key 'value'",
    ]
    assert list(tmp_path.glob("*.csv")) == []


def test_point_without_out_exits_1_and_leaves_the_configs_sweep_table(tmp_path, monkeypatch):
    # the config's out names the sweep table, so point must not write its rows there
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sim, "outage_point", lambda *a, **k: pytest.fail("compute started"))
    sweep_csv = tmp_path / "sweep.csv"
    sweep_csv.write_bytes(b"# a sweep table\nsweep_var,sweep_value\n")
    cfg = write_config(tmp_path, {"out": "sweep.csv"})
    assert main(["point", "--config", str(cfg)]) == EXIT_CONFIG
    assert sweep_csv.read_bytes() == b"# a sweep table\nsweep_var,sweep_value\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "sweep.csv"]


def test_a_sweep_warns_on_stderr_for_each_row_with_fewer_than_100_events(
        tmp_path, monkeypatch, capsys):
    # every table command on the shipped config at its own n = 10^6: `sweep` writes
    # sweep.csv and gains.csv, `gains` warns on the same rows as `sweep`, and
    # `point` at 40 dBm warns on its own rows
    monkeypatch.chdir(tmp_path)
    config = str(ROOT / "demos" / "config.example.json")
    for argv, table in [(["sweep"], "sweep.csv"), (["gains", "--out", "g.csv"], "sweep.csv"),
                        (["point", "--out", "point.csv"], "point.csv")]:
        assert main(argv + ["--config", config]) == EXIT_OK
        lines = (tmp_path / table).read_text().splitlines()
        rows = list(csv.DictReader(l for l in lines if not l.startswith("#")))
        few = {(r["sweep_value"], r["policy"]): float(r["p_out"]) * int(r["n"]) for r in rows
               if float(r["p_out"]) * int(r["n"]) < 100}
        warned = re.findall(r"^warning: p_s_dbm=(\S+) (\S+): (\d+) outage events, "
                            r"relative error (\S+)$", capsys.readouterr().err, re.M)
        assert 0 < len(few) < len(rows)
        assert {(value, pol): int(count) for value, pol, count, _ in warned} == pytest.approx(few)
        assert all(rel == f"{1 / math.sqrt(int(count)):.2g}" for *_, count, rel in warned)
        assert not any(l.startswith("warning") for l in lines)


def test_both_routes_write_one_gains_table_and_each_table_prints_one_wrote_line(
        tmp_path, capsys):
    sweep_csv, gains_a, gains_b, point_csv = (
        str(tmp_path / name) for name in ("s.csv", "ga.csv", "gb.csv", "p.csv"))
    cfg = str(write_config(tmp_path, {"sweep": LAMBDA_G_SWEEP, "n": 10**5, "out": sweep_csv,
                                      "gains_out": gains_a}))
    assert main(["sweep", "--config", cfg]) == EXIT_OK
    assert capsys.readouterr().out == f"wrote {sweep_csv} (10 rows)\nwrote {gains_a} (2 rows)\n"
    sweep_bytes, gains_bytes = ((tmp_path / name).read_bytes() for name in ("s.csv", "ga.csv"))
    assert main(["gains", "--config", cfg, "--out", gains_b]) == EXIT_OK
    assert capsys.readouterr().out == f"wrote {gains_b} (2 rows)\n"
    assert (tmp_path / "gb.csv").read_bytes() == gains_bytes
    # `gains` without --out writes the config's gains_out, never its out
    (tmp_path / "ga.csv").unlink()
    assert main(["gains", "--config", cfg]) == EXIT_OK
    assert capsys.readouterr().out == f"wrote {gains_a} (2 rows)\n"
    assert (tmp_path / "ga.csv").read_bytes() == gains_bytes
    assert (tmp_path / "s.csv").read_bytes() == sweep_bytes
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "ga.csv", "gb.csv", "s.csv"]
    # `point` prints each policy's estimate as its CSV row gives it, then its wrote line
    assert main(["point", "--config", cfg, "--out", point_csv]) == EXIT_OK
    lines = (tmp_path / "p.csv").read_text().splitlines()
    rows = csv.DictReader(l for l in lines if not l.startswith("#"))
    assert capsys.readouterr().out.splitlines() == [
        f"{r['policy']}: p_out={r['p_out']} (std_err={r['std_err']})" for r in rows
    ] + [f"wrote {point_csv} (5 rows)"]


class TestPoint:
    def test_writes_one_row_per_policy(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "point.csv"
        assert main(["point", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert any("seed=99" in c for c in comments)
        assert data[0].startswith("sweep_var,sweep_value,policy,p_out")
        assert len(data) == 1 + 5
        assert data[1].split(",")[2] == "full_csi"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["point", "--config", str(cfg), "--out", str(out1)])
        main(["point", "--config", str(cfg), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_n_zero_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 0})
        out = tmp_path / "x.csv"
        assert main(["point", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_unknown_policy_lists_valid_names(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"policies": ["grid_search"]})
        code = main(["point", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "full_csi" in err and "partial_csi" in err

    def test_missing_system_field(self, tmp_path):
        cfg = write_config(tmp_path, {"sigma_d_sq_dbm": None})
        assert main(["point", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["point", "--config", str(missing), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG

    def test_integral_float_n_counts_as_an_integer(self, tmp_path):
        # JSON writers may spell 20000 as 20000.0; the rows must not change
        rows = []
        for n in (20000, 20000.0):
            out = tmp_path / f"{n!r}.csv"
            cfg = write_config(tmp_path, {"n": n})
            assert main(["point", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            rows.append([l for l in out.read_text().splitlines() if not l.startswith("#")])
        assert rows[0] == rows[1]

    def test_flag_overrides_config_seed(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["point", "--config", str(cfg), "--out", str(out1), "--seed", "1234"])
        main(["point", "--config", str(cfg), "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()


class TestSweep:
    def sweep_config(self, tmp_path, **overrides):
        return write_config(tmp_path, {
            "sweep": {"variable": "lambda_g", "values": [1.0, 2.0, 3.0]},
            "n": 20000,
            **overrides,
        })

    def test_sweep_csv_rows(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(data) == 1 + 3 * 5

    def test_empty_values_is_config_error(self, tmp_path):
        cfg = self.sweep_config(tmp_path, sweep={"variable": "lambda_g", "values": []})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG

    def test_gains_emitted_when_requested(self, tmp_path):
        gains_path = tmp_path / "gains.csv"
        cfg = self.sweep_config(tmp_path, gains_out=str(gains_path), n=10**5)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == EXIT_OK
        data = [l for l in gains_path.read_text().splitlines() if not l.startswith("#")]
        assert data[0] == "sweep_value,eta_full,eta_par,eta_rho06,eta_rho08"
        assert len(data) == 1 + 3

    def test_byte_identical_and_worker_independent(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        outs = [tmp_path / f"{i}.csv" for i in range(3)]
        main(["sweep", "--config", str(cfg), "--out", str(outs[0])])
        main(["sweep", "--config", str(cfg), "--out", str(outs[1])])
        main(["sweep", "--config", str(cfg), "--out", str(outs[2]), "--workers", "3"])
        blobs = [o.read_bytes() for o in outs]
        assert blobs[0] == blobs[1] == blobs[2]


class TestGainsCommand:
    def test_gains_csv(self, tmp_path):
        cfg = write_config(tmp_path, {
            "sweep": {"variable": "lambda_h", "values": [1.0, 2.0]},
            "n": 10**5,
        })
        out = tmp_path / "gains.csv"
        assert main(["gains", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert data[0] == "sweep_value,eta_full,eta_par,eta_rho06,eta_rho08"
        assert len(data) == 1 + 2


# `swipt-relay verify --quick` stdout as the per-instance batteries printed it;
# the array batteries must reproduce it byte for byte. The snr_identity line
# was recorded when that battery moved to one operating point per 100 draws.
VERIFY_QUICK_STDOUT = """\
[PASS] full_csi_vs_grid: count=1000 max|drho|=4.99e-05 max_rel_snr_deficit=0
[PASS] partial_csi_vs_grid: count=1000 max|drho|=5.06e-05 max_rel_w_deficit=0 bad_infeasible=0
[PASS] snr_identity: count=10000 max_rel_err=7.56e-16
[PASS] mc_vs_semi_analytic: PartialCSI: gap=0.000135 limit=0.000359; Fixed: gap=0.00015 limit=0.000393
"""

# `swipt-relay verify` stdout at full counts; its mc_vs_semi_analytic line reads
# the Monte Carlo kernel's outage counts at n = 200,000.
VERIFY_STDOUT = """\
[PASS] full_csi_vs_grid: count=10000 max|drho|=5e-05 max_rel_snr_deficit=0
[PASS] partial_csi_vs_grid: count=10000 max|drho|=5.12e-05 max_rel_w_deficit=0 bad_infeasible=0
[PASS] snr_identity: count=100000 max_rel_err=8.14e-16
[PASS] mc_vs_semi_analytic: PartialCSI: gap=1.41e-05 limit=7.19e-05; Fixed: gap=6.6e-06 limit=7.53e-05
"""


class TestVerify:
    def test_quick_passes(self, capsys):
        assert main(["verify", "--quick"]) == EXIT_OK
        assert capsys.readouterr().out == VERIFY_QUICK_STDOUT

    def test_full_passes(self, capsys):
        assert main(["verify"]) == EXIT_OK
        assert capsys.readouterr().out == VERIFY_STDOUT

    def test_battery_wall_times_go_to_stderr(self, capsys):
        assert main(["verify", "--quick"]) == EXIT_OK
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        names = ["full_csi_vs_grid", "partial_csi_vs_grid", "snr_identity",
                 "mc_vs_semi_analytic"]
        assert [ln.split(":")[0] for ln in lines] == [f"time {n}" for n in names]
        for ln in lines:
            value, unit = ln.split(": ")[1].split()
            assert float(value) >= 0.0 and unit == "s"
        assert "time " not in captured.out

    @pytest.mark.parametrize("before,after", [(None, "1"), ("3", "3")])
    def test_openblas_gets_one_thread_unless_set(self, monkeypatch, before, after):
        # numpy's OpenBLAS reads this as it loads, after main starts in a fresh CLI
        if before is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", before)
        assert main(["verify", "--quick"]) == EXIT_OK
        assert os.environ["OPENBLAS_NUM_THREADS"] == after

    def test_a_battery_that_raises_exits_3(self, monkeypatch, capsys):
        # the batteries run on pool threads; the error still reaches main
        monkeypatch.setattr(os, "cpu_count", lambda: 8)

        def broken(**kwargs):
            raise RuntimeError("battery broke")

        monkeypatch.setattr(verify, "battery_snr_identity", broken)
        assert main(["verify", "--quick"]) == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: RuntimeError: battery broke\n"

    def test_fault_injection_fails(self, monkeypatch, capsys):
        # a full-CSI rule 0.05 off the optimum must fail its battery; the
        # battery hands the closed form whole arrays, hence np.minimum
        optimum = verify.full_csi_rho

        def off_optimum(params, h_sq, g_sq):
            return np.minimum(optimum(params, h_sq, g_sq) + 0.05, 0.999999)

        monkeypatch.setattr(verify, "full_csi_rho", off_optimum)
        assert main(["verify", "--quick"]) == EXIT_VERIFY
        assert "[FAIL] full_csi_vs_grid" in capsys.readouterr().out

    @pytest.mark.parametrize("fault", ["offset", "detuned", "threshold"])
    def test_partial_csi_fault_injection_fails(self, monkeypatch, capsys, fault):
        # a partial-CSI rule 0.05 off, or 1e-3 relative below, its optimum where
        # it transmits, or one that harvests up to 1.5 H0, must fail its battery
        if fault == "threshold":
            threshold = policy.h_threshold
            monkeypatch.setattr(policy, "h_threshold", lambda p: 1.5 * threshold(p))
        else:
            optimum = verify.partial_csi_rho
            moved = {"offset": lambda rho: np.minimum(rho + 0.05, 0.999999),
                     "detuned": lambda rho: rho * (1.0 - 1e-3)}[fault]

            def off_optimum(params, h_sq):
                rho = optimum(params, h_sq)
                return np.where(rho < 1.0, moved(rho), 1.0)

            monkeypatch.setattr(verify, "partial_csi_rho", off_optimum)
        assert main(["verify", "--quick"]) == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "[FAIL] partial_csi_vs_grid" in out
        assert "[PASS] full_csi_vs_grid" in out

"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 12345,1,2] [--trace 0|1]
                                [--record perfbench/baseline.json]

For every workload and metric it prints the median over the seeds and the
spread, (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, next to the metric's bound from
BENCHMARK.json. ``--record`` stores the machine description and every run
in a JSON file, under ``trace_0`` or ``trace_1``; baseline.json in this
directory was written that way.
Runs go one at a time, so they never compete for the cores.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="12345,1,2,3,4,5,6,7,8,9")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, help="write machine info and all runs here")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    report = {"machine": machine(), "seconds": args.seconds, "trace": args.trace,
              "seeds": seeds, "workloads": {}}
    ok = True
    for name in args.workloads.split(","):
        runs = []
        for seed in seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            took = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            result["seed"], result["run_s"] = seed, took
            runs.append(result)
            ok = ok and result["correct"]
            print(f"{name} seed {seed}: {took:.1f} s, correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        summary = {}
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            med, q1, q3, sp = spread(values)
            summary[metric] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                               "spread": sp, "bound": bounds.get(metric)}
            bound = bounds.get(metric)
            flag = "" if bound is None else f"bound {bound:<5}{'  OVER 1/3' if sp > bound / 3 else ''}"
            print(f"{name:14s} {metric:28s} median {med:12.6g} {first['unit']:6s} "
                  f"spread {sp:7.4f}  {flag}")
        report["workloads"][name] = {"summary": summary, "runs": runs}
    if args.record:
        # one file holds both kinds of run, keyed by the trace flag
        recorded = json.loads(args.record.read_text()) if args.record.exists() else {}
        recorded[f"trace_{args.trace}"] = report
        args.record.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

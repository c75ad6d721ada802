"""Peak resident memory of one repetition of a workload, in a fresh process.

    python3 perfbench/probe.py --workload NAME --seed N

Prints one JSON object: this process's peak (``self_kb``) and the largest
peak among the pool workers it started and waited for (``children_kb``,
from RUSAGE_CHILDREN). Work moved into import time or into memory shows up
here; run.py adds the two into ``peak_rss_mb``.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = ap.parse_args(argv)
    w = workloads.WORKLOADS[args.workload](args.seed)
    try:
        w.run(in_process=True)
    finally:
        w.close()
    print(json.dumps({
        "self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

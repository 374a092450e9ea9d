"""Check that the traced run's counts repeat exactly.

Runs the traced benchmark twice per workload, once with PYTHONHASHSEED=0 and
once with PYTHONHASHSEED=1, and compares every per-layer metric that is not a
time (calls, cells, regions, entries and ratios).  Prints each difference and
exits 1 if there is one.  Run from the repository root:

    python3 perfbench/check_counts.py [--workload NAME ...] [--seed N]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import jobs  # noqa: E402


def traced_counts(workload: str, seed: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] != "s"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="*", choices=jobs.WORKLOADS, default=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    differ = 0
    for workload in args.workload:
        first = traced_counts(workload, args.seed, "0")
        second = traced_counts(workload, args.seed, "1")
        bad = sorted(k for k in first if first[k] != second[k])
        for name in bad:
            print(f"{workload}: {name} {first[name]} != {second[name]}")
        print(f"{workload}: {len(first)} counts, {len(bad)} differ")
        differ += len(bad)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

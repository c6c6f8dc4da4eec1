"""Run every workload once on one seed and print one row per workload.

    python3 perfbench/all.py --seed 0

Each row gives run_rel, peak_rss_mb and setup_s with their units, and the
failed and attempted operations.  --seconds defaults to BENCHMARK.json's
run_seconds.  Exits 1 when an operation fails or a run does not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        cells = [f"{name} {m['value']:.4g} {m['unit']}" for name, m in result["metrics"].items()]
        print(f"{workload:12s} " + ", ".join(cells)
              + f", failed {result['failed']} of {result['attempted']}")
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

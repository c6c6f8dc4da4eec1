"""qsproc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload battery --seed 0 --seconds 20 --trace 0

Workloads: battery, chain, table-io, diagnostics (see perfbench/README.md).
Each run is a closed loop: one worker process, one operation at a time, BLAS
pinned to one thread.  With --trace 0 it prints the end-to-end metrics
(run_rel, peak_rss_mb, setup_s); with --trace 1 the per-layer self times, calls
and counts of a traced run, with the tracing overhead.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Earlier lines summarize the environment and any failed operation.  The full
record (environment, every pass, every failure and, when traced, every span)
goes to .perfbench_out/<workload>-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("battery", "chain", "table-io", "diagnostics")  # as in workloads.py, which needs numpy
SETUP_SAMPLES = 7  # set-ups per run, each in a fresh process; the median is reported
DEADLINE_S = 170.0  # a run ends within this, workers included


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs the same operations at small sizes (self-test)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def spawn(args, mode: str, workdir: str, deadline: float) -> dict:
    """Run one worker to completion and return the result it wrote."""
    out = os.path.join(workdir, f"{mode}-{time.monotonic_ns()}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        "--mode", mode, "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir, "--out", out,
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: dict, setups: list[float]) -> dict:
    return {
        "run_rel": metric(run["run_rel"], "ratio"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }


def per_layer(run: dict) -> dict:
    """Medians over the traced passes, plus the tracing overhead."""
    from spans import TRACE_METRICS, metric_units

    layers, traced = run["layers"], run["traced"]
    out = {}
    for name, unit in metric_units().items():
        if name not in TRACE_METRICS:
            values = [p[name] for p in layers]
            median = statistics.median if unit == "s" else statistics.median_low
            out[name] = metric(median(values), unit)
    traced_s = statistics.median(p["run_s"] for p in traced)
    coverage = statistics.median(l["trace.self_s"] / p["run_s"] for l, p in zip(layers, traced))
    out["trace.coverage"] = metric(coverage, "ratio")
    out["trace.run_s"] = metric(traced_s, "s")
    out["trace.plain_run_s"] = metric(run["run_s"], "s")
    out["trace.overhead_s"] = metric(traced_s - run["run_s"], "s")
    out["trace.ref_s"] = metric(run["ref_s"], "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isdir(os.path.join(ROOT, "src", "qsproc")):
        print(f"no qsproc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        # Half the extra set-ups run before the measured run and half after,
        # so that a slow spell of the host at one end does not set the median.
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [spawn(args, "setup", workdir, deadline)["setup_s"]
                  for _ in range(extra // 2)]
        run = spawn(args, "run", workdir, deadline)
        setups += [spawn(args, "setup", workdir, deadline)["setup_s"]
                   for _ in range(extra - extra // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(run["setup_s"])

    passes = run["warmup"] + run["plain"] + run["traced"]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    metrics = per_layer(run) if args.trace else end_to_end(run, setups)
    record = {"args": vars(args), "env": run["env"], "setup_samples": setups,
              "digest": run["digest"], "ops": run["ops"], "metrics": metrics,
              "run_s": run["run_s"], "ref_s": run["ref_s"],
              "passes": {"warmup": run["warmup"], "plain": run["plain"],
                         "traced": run["traced"]},
              "spans": run["spans"]}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    env = run["env"]
    print(f"env: python {env['python']}, numpy {env['numpy']}, {env['blas']} "
          f"{env['blas_version']} ({env['blas_threads']} thread), nproc {env['nproc']}, "
          f"commit {env['commit'][:12]}, seed {args.seed}")
    print(f"{args.workload}: a warm-up, {len(run['plain'])} plain and {len(run['traced'])} "
          f"traced passes of {len(run['ops'])} operations; median plain pass "
          f"{run['run_s']:.3f} s, reference loop {1000 * run['ref_s']:.2f} ms; "
          f"record in {os.path.relpath(path, ROOT)}")
    for f in failures:
        print(f"FAILED op {f['op']} {f['name']}: {f['reason']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

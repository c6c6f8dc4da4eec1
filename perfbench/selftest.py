"""Fast self-test of the benchmark at tiny sizes, well under a minute.

    python3 perfbench/selftest.py

It checks that:
- every metric BENCHMARK.json names is printed by name with its unit, for
  each workload, untraced and traced, and every operation passes;
- a corrupted output counts as a failed operation: one perturbed entry in a
  table-io kernel table, and a wrong expected rank;
- the same seed produces the same inputs, and another seed other inputs;
- without the library's sources the benchmark exits nonzero and prints no
  result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True

import worker  # noqa: E402  (pins BLAS and puts the sources on sys.path)
from workloads import WORKLOADS, Op, build  # noqa: E402

HERE = worker.HERE
ROOT = worker.ROOT
WORK = os.path.join(ROOT, ".perfbench_out", "selftest")
FAILED = []


def report(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        FAILED.append(what)


def run_benchmark(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_metrics_printed() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            proc = run_benchmark(["--workload", name, "--seed", "0", "--seconds", "1",
                                  "--trace", str(trace), "--size", "tiny"])
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                report(False, f"{name} trace {trace}: no result line\n{proc.stderr[-2000:]}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            numbers = all(
                isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                for v in result["metrics"].values()
            )
            report(
                proc.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
                and got == expected and numbers,
                f"{name} trace {trace}: {len(expected)} {key} metrics printed with their units",
            )
            report(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace {trace}: every operation passes "
                   f"({result['failed']} of {result['attempted']} failed)")


def check_corruption_counted() -> None:
    workdir = os.path.join(WORK, "corrupt")
    os.makedirs(workdir, exist_ok=True)
    table_io = build("table-io", 0, "tiny", workdir)
    table = table_io.ops[0].expect["table"]

    def perturb_one_entry():
        with open(table, encoding="utf-8") as fh:
            data = json.load(fh)
        data["values"]["1,2"][0][0][0] += 1e-3
        with open(table, "w", encoding="utf-8") as fh:
            json.dump(data, fh)

    table_io.ops.insert(1, Op("perturb one table entry", perturb_one_entry, lambda out, e: None))
    failures = worker.run_pass(table_io)["failures"]
    report([f["name"] for f in failures] == [table_io.ops[2].name],
           f"a perturbed table-io entry fails the reconstruct operation: {failures}")

    battery = build("battery", 0, "tiny", workdir)
    battery.ops[0].expect["rank"] += 1
    failures = worker.run_pass(battery)["failures"]
    report([f["op"] for f in failures] == [0] and "rank" in failures[0]["reason"],
           f"a wrong expected rank fails its operation: {failures}")


def check_seeded_inputs() -> None:
    for name in WORKLOADS:
        digests = []
        for seed in (3, 3, 4):
            workdir = os.path.join(WORK, f"seed{len(digests)}")
            os.makedirs(workdir, exist_ok=True)
            digests.append(build(name, seed, "tiny", workdir).digest)
        report(digests[0] == digests[1] and digests[1] != digests[2],
               f"{name}: the same seed gives the same inputs, another seed other inputs")


def check_bare_directory() -> None:
    bare = os.path.join(WORK, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_benchmark(["--workload", "chain", "--seed", "0", "--seconds", "1",
                          "--trace", "0"], cwd=bare)
    report(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without the sources the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        check_corruption_counted()
        check_seeded_inputs()
        check_bare_directory()
        check_metrics_printed()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(FAILED)} check(s) failed" if FAILED else "all checks passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())

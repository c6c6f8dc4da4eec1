"""One benchmark process: set up a workload, then run it pass after pass.

run.py starts a fresh worker for every set-up sample and for every measured
run.  The worker writes its result as JSON to --out and prints nothing.

    python3 perfbench/worker.py --workload chain --seed 0 --size full \
        --mode run --seconds 30 --trace 0 --workdir DIR --out FILE

Set-up time runs from the first statement, before numpy is imported, to the
moment the inputs, references and input files are ready.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# Pin BLAS to one thread before numpy loads: the single-threaded baseline,
# steadier on a shared machine, and the thread count changes the last digits
# of the library's results.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    return p.parse_args(argv)


def reference_loop():
    """A timer for one run of a fixed loop that does not touch qsproc.

    The loop mixes what the workloads spend their time on: dictionary and
    tuple work in the interpreter, numpy calls on 4 x 4 matrices, a dense
    192 x 192 Hermitian eigensolve, and a stream through an 8 MB array, for
    the memory traffic of the large kernel tables.  Its inputs are fixed,
    whatever the seed.  It takes about 15 ms.
    """
    import numpy as np

    rng = np.random.default_rng(2718)
    a = rng.standard_normal((192, 192)) + 1j * rng.standard_normal((192, 192))
    herm = a + a.conj().T
    small = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(8)]
    stream = rng.standard_normal(1 << 20)

    def timed() -> float:
        start = time.perf_counter()
        table = {}
        for i in range(3000):
            key = (i % 7, (i * 31) % 11, str(i % 5))
            table[key] = table.get(key, 0) + i
        sorted(table.items())
        acc = small[0]
        for k in range(400):
            acc = small[k % 8] @ acc
            acc = acc / np.abs(acc).max()
        np.linalg.eigh(herm)
        for _ in range(4):
            np.multiply(stream, 1.0, out=stream)
            stream.sum()
        return time.perf_counter() - start

    return timed


def run_pass(workload, tracer=None, reference=None) -> dict:
    """Run every operation once, then gate every output.

    The timed regions hold only the operations; the gates run after the
    pass.  With a `reference` timer, the reference loop runs before the first
    operation and after each one, outside the timed regions.
    """
    outputs, op_s, ref_s = [], [], []
    if reference is not None:
        ref_s.append(reference())
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for i, op in enumerate(workload.ops):
            if tracer is not None:
                tracer.op = i
            start = time.perf_counter()
            try:
                outputs.append((op.run(), None))
            except Exception as exc:  # a crashing operation is a failed one
                outputs.append((None, f"{type(exc).__name__}: {exc}"))
            op_s.append(time.perf_counter() - start)
            if reference is not None:
                ref_s.append(reference())
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures = []
    for i, (op, (out, error)) in enumerate(zip(workload.ops, outputs)):
        if error is None:
            try:
                error = op.check(out)
            except Exception as exc:  # an unreadable output fails its gate
                error = f"gate raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append({"op": i, "name": op.name, "reason": error})
    return {"run_s": sum(op_s), "op_s": op_s, "ref_s": ref_s,
            "attempted": len(workload.ops), "failures": failures}


def relative_run(passes: list[dict]) -> float:
    """The workload's time in units of the reference loop.

    Each operation's time is divided by the mean of the two reference loops
    around it, and the median of that ratio over the passes is summed over
    the operations.  On a shared host other tenants change the speed of the
    CPU by up to half, for seconds to minutes; the loop beside an operation
    slows with it, so the ratio holds where wall time does not.
    """
    ratios = (
        [t / ((p["ref_s"][i] + p["ref_s"][i + 1]) / 2) for i, t in enumerate(p["op_s"])]
        for p in passes
    )
    return sum(statistics.median(per_op) for per_op in zip(*ratios))


def run_passes(workload, seconds: float, trace: bool) -> dict:
    """A warm-up pass, then whole passes until another would overrun
    `seconds`; at least one.

    With tracing, plain and traced passes alternate, at least one of each.
    """
    from spans import Tracer, layer_metrics

    tracer = Tracer() if trace else None
    reference = reference_loop()
    warmup = [run_pass(workload, reference=reference)]
    plain, traced, layers, spans = [], [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(workload, reference=reference))
        if tracer is not None:
            traced.append(run_pass(workload, tracer, reference))
            layers.append(layer_metrics(tracer.spans))
            spans.append([vars(s) for s in tracer.spans])
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            break
    return {"warmup": warmup, "plain": plain, "traced": traced, "layers": layers,
            "spans": spans}


def blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, or None."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git only."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import qsproc

    if os.path.dirname(os.path.abspath(qsproc.__file__)) != os.path.join(SRC, "qsproc"):
        raise SystemExit(f"qsproc was imported from {qsproc.__file__}, not from {SRC}")
    from workloads import build

    workload = build(args.workload, args.seed, args.size, args.workdir)
    result = {"setup_s": time.perf_counter() - T0, "digest": workload.digest,
              "ops": [op.name for op in workload.ops]}
    if args.mode == "run":
        result.update(run_passes(workload, args.seconds, bool(args.trace)))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["env"] = environment(args)
        result["run_rel"] = relative_run(result["plain"])
        result["run_s"] = statistics.median(p["run_s"] for p in result["plain"])
        result["ref_s"] = statistics.median(r for p in result["plain"] for r in p["ref_s"])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

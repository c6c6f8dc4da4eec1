#!/usr/bin/env python3
"""Run every CLI command over the fixture files and digest what it prints.

The sweep writes the `make_fixture_files.py` files and the Galilean,
`controlled_kdim2`, `random_valid_model(4)` and `tensor_chain(3,
canonical=False)` model and site files into a scratch directory, and a
malformed copy of the Galilean model whose symmetry `v` is 1x1 (every
command on it exits 2).  It runs
`check`, `kernels`, `reconstruct --site [--verify]`, `roundtrip`,
`equiv check|unitary M M S`, `markov check` and `classical` on each model,
and `lift` on the field file, once per flag set (none, `--format text`,
`--policy atoms`, `--cap 3`).  Each table `kernels` prints is fed back to
`reconstruct` and `reconstruct --verify` with the same flags.

Two more malformed inputs are swept after all of those, so that the records
of the inputs above keep their positions: the qubit model with a `units`
block at a point outside its site (every model command exits 2), and the
Galilean kernel table with a 2x2 symmetry `u` for its 1-dimensional initial
space (`reconstruct` and `reconstruct --verify` exit 2).

Every run records its arguments (file names relative to the scratch
directory), its exit code and the sha256 of its stdout and stderr.  A run
that raises records the exception's type and message as its stderr and
`"traceback"` as its exit code.  Two sweeps of the same sources give equal
records; comparing the output of two source trees shows every byte of CLI
behaviour that differs between them.

Usage: PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/cli_sweep.py OUT.json
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

from qsproc import cli, fixtures, serialize
from qsproc.words import enumerate_words

SCRIPTS = pathlib.Path(__file__).resolve().parent
FLAG_SETS = ([], ["--format", "text"], ["--policy", "atoms"], ["--cap", "3"])
FIXTURE_FILES = ("qubit", "chain", "commuting")
EXTRA_MODELS = {
    "galilean": fixtures.galilean_shift_fixture,
    "controlled_kdim2": lambda: fixtures.controlled_kdim2() + (None,),
    "random4": lambda: fixtures.random_valid_model(4) + (None,),
    "tensor_chain3": lambda: fixtures.tensor_chain(3, canonical=False) + (None,),
}
MALFORMED = "galilean_bad_v"
STRAY_UNITS, BAD_TABLE = "qubit_stray_units", "galilean_bad_u"
LATE = (STRAY_UNITS, BAD_TABLE)  # swept after every other input
INPUTS = FIXTURE_FILES + tuple(EXTRA_MODELS) + (MALFORMED, "field") + LATE


def write_inputs(workdir: pathlib.Path, names) -> None:
    """The model, site and field files of `names`, in `workdir`."""
    if set(names) & set(FIXTURE_FILES + ("field",)):
        subprocess.run(
            [sys.executable, str(SCRIPTS / "make_fixture_files.py"), str(workdir)],
            check=True, capture_output=True,
        )
    for name in names:
        base = "galilean" if name == MALFORMED else name
        if base in EXTRA_MODELS:
            model, site, sym = EXTRA_MODELS[base]()
            data = serialize.model_to_json(model)
            if name == MALFORMED:
                data["symmetry"]["s1"]["v"] = [[[1.0, 0.0]]]
            (workdir / f"{name}_model.json").write_text(serialize.dumps(data))
            (workdir / f"{name}_site.json").write_text(
                serialize.dumps(serialize.site_to_json(site, sym)))
    if STRAY_UNITS in names:
        model, site = fixtures.qubit_zx()
        data = serialize.model_to_json(model)
        data["units"] = {"p": {}, "i": {"zz": serialize.matrix_to_json(np.eye(2))}}
        (workdir / f"{STRAY_UNITS}_model.json").write_text(serialize.dumps(data))
        (workdir / f"{STRAY_UNITS}_site.json").write_text(
            serialize.dumps(serialize.site_to_json(site)))
    if BAD_TABLE in names:
        model, site, sym = fixtures.galilean_shift_fixture()
        words = enumerate_words(site, model.spaces)
        data = serialize.oracle_to_json(model.kernel_table(site, words, site_sym=sym))
        data["symmetry"]["s1"]["u"] = serialize.matrix_to_json(np.eye(2))
        (workdir / f"{BAD_TABLE}_table.json").write_text(serialize.dumps(data))


def run(argv: list[str]) -> tuple[dict, str]:
    """One `cli.main` call: its record, and its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
        except Exception as exc:  # noqa: BLE001 -- a traceback is a finding
            code = "traceback"
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    record = {
        "argv": argv,
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }
    return record, out.getvalue()


def sweep(names) -> list[dict]:
    """Every run over the inputs `names`, in the current directory."""
    records = []
    for flags in FLAG_SETS:
        for name in names:
            if name == "field":
                records.append(run(["lift", "field.json", *flags])[0])
                continue
            if name == BAD_TABLE:
                path = f"{name}_table.json"
                for verify in ([], ["--verify"]):
                    records.append(run(["reconstruct", path, *verify, *flags])[0])
                continue
            model, site = f"{name}_model.json", f"{name}_site.json"
            for argv in (
                ["check", model, site],
                ["reconstruct", model, "--site", site],
                ["reconstruct", model, "--site", site, "--verify"],
                ["roundtrip", model, site],
                ["equiv", "check", model, model, site],
                ["equiv", "unitary", model, model, site],
                ["markov", "check", model, site],
                ["classical", model, site],
            ):
                records.append(run([*argv, *flags])[0])
            record, table = run(["kernels", model, site, *flags])
            records.append(record)
            if record["exit"] == 0:
                path = f"{name}_table{FLAG_SETS.index(flags)}.json"
                pathlib.Path(path).write_text(table)
                records.append(run(["reconstruct", path, *flags])[0])
                records.append(run(["reconstruct", path, "--verify", *flags])[0])
    return records


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="JSON file for the run records")
    parser.add_argument(
        "--inputs", nargs="+", choices=INPUTS, default=list(INPUTS),
        help="inputs to sweep (default: all)",
    )
    args = parser.parse_args()
    out = pathlib.Path(args.out).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(pathlib.Path(tmp), args.inputs)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            records = sweep([n for n in args.inputs if n not in LATE])
            records += sweep([n for n in args.inputs if n in LATE])
        finally:
            os.chdir(cwd)
    out.write_text(json.dumps({"runs": records}, indent=1) + "\n")
    print(f"{len(records)} runs written to {out}")


if __name__ == "__main__":
    main()

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

The `REFUSED` inputs come after those two: copies of the qubit or
Galilean model, the qubit kernel table or the field file with one field
replaced by a string where an object belongs, by an integer field that is
not a JSON integer in range, or by a table site point without an outcome
space.  Four of them go in `LAST`, swept after the others: the qubit
site with a string `"leq"` cell, the qubit model with a string where the
outcome labels of `t1` belong, the qubit site with a string where its list
of points belongs, and the qubit kernel table with its entry key `"1,0"`
spelled `"+1,0"`.  Every command on them exits 2; a model copy
runs the nine model commands, a table copy `reconstruct [--verify]`, a field
copy `lift`.  `LAST` ends with two valid models under the nine model
commands: a two-point chain whose first point has one outcome (`--policy
atoms` lists each word once), and the Galilean model with a site file that
declares no symmetry (`check`, `kernels`, `reconstruct`, `roundtrip` and
`equiv unitary` exit 2: the model's symmetry has no site action).

`FINAL` is swept after those: `tensor_chain(4, canonical=False)`, whose
256 words give a 5.9 MB `kernels` table with 3-digit entry keys, under the
nine model commands and the table runs.

`PAIRS` is swept after `FINAL`: `equiv check|unitary A B S` on
three pairs of models on one site.  `controlled_kdim2` against a copy with
its embedding rotated is not equivalent (exit 1, a `pair (word i, word j)`
witness); the Galilean model against its `with_untouched_ancilla` copy is
(exit 0 for both actions); `controlled_kdim2` against a copy with a
one-dimensional initial space exits 2.

`OUTCOME_MAPS` is swept after `PAIRS`: the Galilean kernel table with the
outcome map g of its element `s1` made no injection, in four ways (an
outcome missing at `g0`, the map at `g1` missing, an outcome of `g0` sent
to `"zz"`, outside the outcomes of `g1`, and both outcomes of `g0` sent to
`"0"`).  `reconstruct [--verify]` exits 2 on each.

`UNREAD_MAPS` is swept after `OUTCOME_MAPS`: two Galilean kernel tables
whose `"site"` declares a `"symmetries"` block, one with a new element `q`
(`g0` to `g2`) and one with an `s1` (`g0` to `g2`) that contradicts the
table's own map of `s1`, under `reconstruct [--verify]`; and the Galilean
model with the map at `g0` removed from the outcome maps of `s1`, under
the nine model commands.  Every command on them exits 2.

`PAIR_LISTS` is swept after `UNREAD_MAPS`: a JSON pair list where a symmetry map
object belongs, as the map of `s1` in the Galilean site file and as the
outcome map of `s1` at `g0` in the Galilean model file, each under the nine
model commands, and as that outcome map in the Galilean kernel table,
under `reconstruct [--verify]`.  Every command on them exits 2.

`WRITER` is swept after `PAIR_LISTS`: `kernels` alone on
`tensor_chain(5, canonical=False)`, whose 1,024 words give a 94 MB table
that the writer renders in 16 chunks of 64 rows, so that a comparison of
sweeps covers the bytes of a table written in many chunks.  (The canonical
chain's model file is not used: its minimal modification rounds
differently at one and two BLAS threads.)

`HASHED` is swept after `WRITER`: `random_valid_model(0)`, whose two
points have three outcomes each, under the nine model commands and the
table runs, so that a comparison of sweeps under two string-hash seeds
covers events of three outcomes, whose atom sums round by the order they
are added in.

`FAMILYLESS` is swept after `HASHED`: the qubit model with the projector
family of its site point `t2` removed, under the nine model commands.  Every
command on it exits 2.

Every run records its arguments (file names relative to the scratch
directory), its exit code and the sha256 of its stdout and stderr.  A run
that raises records the exception's type and message as its stderr and
`"traceback"` as its exit code.  Two sweeps of the same sources give equal
records; comparing the output of two source trees shows every byte of CLI
behaviour that differs between them.

With `--against OLD.json` (the records of an earlier sweep, read before
OUT.json is written, so OLD.json may be OUT.json itself) the sweep then
lists every run, matched by its arguments, whose exit code or stdout or
stderr digest differs from OLD.json, or that only one of the two has, and
exits 1 if there is any.

Usage: PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/cli_sweep.py OUT.json
       [--against OLD.json]
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

from qsproc import cli, fixtures, linalg, serialize
from qsproc.models import HilbertModel
from qsproc.sites import chain_site
from qsproc.words import OutcomeSpaces, enumerate_words

SCRIPTS = pathlib.Path(__file__).resolve().parent
FLAG_SETS = ([], ["--format", "text"], ["--policy", "atoms"], ["--cap", "3"])
FIXTURE_FILES = ("qubit", "chain", "commuting")
EXTRA_MODELS = {
    "galilean": fixtures.galilean_shift_fixture,
    "controlled_kdim2": fixtures.controlled_kdim2,
    "random4": lambda: fixtures.random_valid_model(4),
    "tensor_chain3": lambda: fixtures.tensor_chain(3, canonical=False),
    "tensor_chain4": lambda: fixtures.tensor_chain(4, canonical=False),
    "tensor_chain5": lambda: fixtures.tensor_chain(5, canonical=False),
    "random0": lambda: fixtures.random_valid_model(0),
}
MALFORMED = "galilean_bad_v"
STRAY_UNITS, BAD_TABLE = "qubit_stray_units", "galilean_bad_u"
LATE = (STRAY_UNITS, BAD_TABLE)  # swept after every other input
# swept after LATE: name -> (valid source, path to the replaced field, value)
REFUSED = {
    "qubit_projectors_str": ("qubit", ("projectors",), "x"),
    "qubit_family_str": ("qubit", ("projectors", "t1"), "x"),
    "galilean_g_str": ("galilean", ("symmetry", "s1", "g"), "x"),
    "qubit_kdim_float": ("qubit", ("kdim",), 1.5),
    "qubit_kdim_bool": ("qubit", ("kdim",), True),
    "qubit_dim_float": ("qubit", ("dim",), 2.5),
    "qubit_word_str": ("table", ("words", 0), "x"),
    "qubit_spaceless_point": ("table", ("site",), {
        "points": ["t1", "t2", "a"],
        "leq": [[True, True, False], [False, True, False], [False, False, True]],
    }),
    "qubit_table_kdim_float": ("table", ("kdim",), 1.5),
    "qubit_table_kdim_bool": ("table", ("kdim",), True),
    "qubit_count_negative": ("table", ("site",), {"kind": "chain", "count": -1}),
    "field_devices_str": ("field", ("devices",), "x"),
    "field_spaces_str": ("field", ("spaces",), "x"),
    "field_depth_float": ("field", ("depth",), 2.5),
    "field_depth_bool": ("field", ("depth",), True),
    # swept after the inputs above (`LAST`), so that their records keep their
    # positions; a path that starts at "site" replaces a field of the site file
    "qubit_leq_str": ("qubit", ("site", "leq", 1, 0), "false"),
    "qubit_spaces_str": ("qubit", ("spaces", "t1"), "01"),
    "qubit_points_str": ("qubit", ("site", "points"), "ab"),
    # a callable value maps the field: here the key "1,0" becomes "+1,0"
    "qubit_key_signed": ("table", ("values",), lambda values: {
        ("+1,0" if k == "1,0" else k): v for k, v in values.items()
    }),
    # swept last of all (`OUTCOME_MAPS`): outcome maps that are not injections
    "galilean_table_g_short": ("galilean_table", ("symmetry", "s1", "g", "g0"),
                               {"0": "0"}),
    "galilean_table_g_pointless": ("galilean_table", ("symmetry", "s1", "g"), lambda g: {
        t: m for t, m in g.items() if t != "g1"
    }),
    "galilean_table_g_outside": ("galilean_table", ("symmetry", "s1", "g", "g0", "1"), "zz"),
    "galilean_table_g_merged": ("galilean_table", ("symmetry", "s1", "g", "g0", "1"), "0"),
    # swept after those (`UNREAD_MAPS`): maps a table site or a model command
    # did not read
    "galilean_table_site_q": ("galilean_table", ("site", "symmetries"),
                              {"q": {"map": {"g0": "g2"}}}),
    "galilean_table_site_s1": ("galilean_table", ("site", "symmetries"),
                               {"s1": {"map": {"g0": "g2"}}}),
    "galilean_g0_unmapped": ("galilean", ("symmetry", "s1", "g"), lambda g: {
        t: m for t, m in g.items() if t != "g0"
    }),
    # swept after those (`PAIR_LISTS`): pair lists where a map object belongs
    "galilean_site_map_pairs": ("galilean", ("site", "symmetries", "s1", "map"),
                                [["g0", "g1"], ["g1", "g2"]]),
    "galilean_g_pairs": ("galilean", ("symmetry", "s1", "g", "g0"), [["0", "0"], ["1", "1"]]),
    "galilean_table_g_pairs": ("galilean_table", ("symmetry", "s1", "g", "g0"),
                               [["0", "0"], ["1", "1"]]),
    # swept after HASHED (`FAMILYLESS`): a model with no projector family at t2
    "qubit_t2_familyless": ("qubit", ("projectors",), lambda families: {
        t: fam for t, fam in families.items() if t != "t2"
    }),
}
ONE_OUTCOME, UNACTED = "one_outcome", "galilean_unacted"
LAST = ("qubit_leq_str", "qubit_spaces_str", "qubit_points_str", "qubit_key_signed",
        ONE_OUTCOME, UNACTED)
FINAL = ("tensor_chain4",)  # swept after LAST
PAIRS = ("pair_rotated", "pair_ancilla", "pair_kdim")  # swept after FINAL
OUTCOME_MAPS = ("galilean_table_g_short", "galilean_table_g_pointless",
                "galilean_table_g_outside", "galilean_table_g_merged")  # after PAIRS
UNREAD_MAPS = ("galilean_table_site_q", "galilean_table_site_s1",
               "galilean_g0_unmapped")  # after OUTCOME_MAPS
PAIR_LISTS = ("galilean_site_map_pairs", "galilean_g_pairs",
              "galilean_table_g_pairs")  # after UNREAD_MAPS
WRITER = ("tensor_chain5",)  # after PAIR_LISTS, under `kernels` alone
HASHED = ("random0",)  # after WRITER
FAMILYLESS = ("qubit_t2_familyless",)  # after HASHED
INPUTS = (FIXTURE_FILES + tuple(EXTRA_MODELS) + (MALFORMED, "field") + LATE
          + tuple(REFUSED) + (ONE_OUTCOME, UNACTED) + PAIRS)


def kind(name: str) -> str:
    """Which files `name` has, and so which commands read it: "field",
    "table", "pair", "model", or "kernels" (a model and site that only
    `kernels` reads)."""
    if name in PAIRS:
        return "pair"
    if name in WRITER:
        return "kernels"
    source = REFUSED.get(name, (name,))[0]
    if source == "field":
        return "field"
    return "table" if source in ("table", "galilean_table", BAD_TABLE) else "model"


def pair_models(name: str):
    """The two models and the site of a `PAIRS` input."""
    if name == "pair_ancilla":
        model, site = fixtures.galilean_shift_fixture()
        return model, fixtures.with_untouched_ancilla(model, 3), site
    model, site = fixtures.controlled_kdim2()
    if name == "pair_rotated":
        embedding = model.embedding @ linalg.random_unitary(np.random.default_rng(5), 2)
    else:
        embedding = model.embedding[:, :1]
    return model, dataclasses.replace(model, embedding=embedding), site


def refused_files(name: str) -> dict[str, dict]:
    """The files of a `REFUSED` input: its source's, the first with one field
    replaced."""
    source, path, value = REFUSED[name]
    if source == "field":
        atoms, xi, spaces = fixtures.two_point_field()
        files = {f"{name}.json": {
            "depth": 2,
            "initial": serialize.matrix_to_json(xi[:, None]),
            "devices": {x: {o: serialize.matrix_to_json(m) for o, m in fam.items()}
                        for x, fam in atoms.items()},
            "spaces": {x: list(v) for x, v in spaces.items()},
        }}
    elif source in ("table", "galilean_table"):
        model, site = (fixtures.qubit_zx() if source == "table"
                       else fixtures.galilean_shift_fixture())
        oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
        files = {f"{name}_table.json": serialize.oracle_to_json(oracle)}
    else:
        model, site = (fixtures.qubit_zx() if source == "qubit"
                       else fixtures.galilean_shift_fixture())
        files = {f"{name}_model.json": serialize.model_to_json(model),
                 f"{name}_site.json": serialize.site_to_json(site)}
    node = next(iter(files.values()))
    if path[0] == "site" and source in ("qubit", "galilean"):
        node, path = files[f"{name}_site.json"], path[1:]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return files


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
            model, site = EXTRA_MODELS[base]()
            data = serialize.model_to_json(model)
            if name == MALFORMED:
                data["symmetry"]["s1"]["v"] = [[[1.0, 0.0]]]
            (workdir / f"{name}_model.json").write_text(serialize.dumps(data))
            (workdir / f"{name}_site.json").write_text(
                serialize.dumps(serialize.site_to_json(site)))
    if STRAY_UNITS in names:
        model, site = fixtures.qubit_zx()
        data = serialize.model_to_json(model)
        data["units"] = {"p": {}, "i": {"zz": serialize.matrix_to_json(np.eye(2))}}
        (workdir / f"{STRAY_UNITS}_model.json").write_text(serialize.dumps(data))
        (workdir / f"{STRAY_UNITS}_site.json").write_text(
            serialize.dumps(serialize.site_to_json(site)))
    if BAD_TABLE in names:
        model, site = fixtures.galilean_shift_fixture()
        words = enumerate_words(site, model.spaces)
        data = serialize.oracle_to_json(model.kernel_table(site, words))
        data["symmetry"]["s1"]["u"] = serialize.matrix_to_json(np.eye(2))
        (workdir / f"{BAD_TABLE}_table.json").write_text(serialize.dumps(data))
    if ONE_OUTCOME in names:
        site = chain_site(("t1", "t2"))
        spaces = OutcomeSpaces({"t1": ("x",), "t2": ("+", "-")})
        atoms = {"t1": {"x": np.eye(2)}, "t2": dict(fixtures.X_ATOMS)}
        model = HilbertModel(dim=2, embedding=fixtures.KET0, atoms=atoms, spaces=spaces)
        (workdir / f"{ONE_OUTCOME}_model.json").write_text(
            serialize.dumps(serialize.model_to_json(model)))
        (workdir / f"{ONE_OUTCOME}_site.json").write_text(
            serialize.dumps(serialize.site_to_json(site)))
    if UNACTED in names:
        model, site = fixtures.galilean_shift_fixture()
        (workdir / f"{UNACTED}_model.json").write_text(
            serialize.dumps(serialize.model_to_json(model)))
        (workdir / f"{UNACTED}_site.json").write_text(
            serialize.dumps(serialize.site_to_json(site, symmetry=False)))
    for name in set(names) & set(REFUSED):
        for file, data in refused_files(name).items():
            (workdir / file).write_text(serialize.dumps(data))
    for name in set(names) & set(PAIRS):
        model, other, site = pair_models(name)
        for part, data in (("model", serialize.model_to_json(model)),
                           ("other", serialize.model_to_json(other)),
                           ("site", serialize.site_to_json(site))):
            (workdir / f"{name}_{part}.json").write_text(serialize.dumps(data))


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
            if kind(name) == "field":
                records.append(run(["lift", f"{name}.json", *flags])[0])
                continue
            if kind(name) == "table":
                path = f"{name}_table.json"
                for verify in ([], ["--verify"]):
                    records.append(run(["reconstruct", path, *verify, *flags])[0])
                continue
            if kind(name) == "kernels":
                records.append(run(["kernels", f"{name}_model.json", f"{name}_site.json",
                                    *flags])[0])
                continue
            if kind(name) == "pair":
                files = [f"{name}_{part}.json" for part in ("model", "other", "site")]
                for action in ("check", "unitary"):
                    records.append(run(["equiv", action, *files, *flags])[0])
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


def differences(old: list[dict], new: list[dict]) -> list[str]:
    """One line per run, matched by its arguments, whose exit code or
    output digests differ between two sweeps, or that only one of them
    has; in the order of `old`, then of `new`."""
    before = {tuple(r["argv"]): r for r in old}
    after = {tuple(r["argv"]): r for r in new}
    lines = []
    for argv in list(before) + [a for a in after if a not in before]:
        a, b = before.get(argv), after.get(argv)
        if a is None or b is None:
            lines.append(f"{' '.join(argv)}: only in the {'new' if a is None else 'old'} sweep")
            continue
        changed = [k for k in ("exit", "stdout", "stderr") if a[k] != b[k]]
        if changed:
            lines.append(f"{' '.join(argv)}: {', '.join(changed)} differ"
                         + (f" (exit {a['exit']} -> {b['exit']})" if a["exit"] != b["exit"] else ""))
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="JSON file for the run records")
    parser.add_argument(
        "--inputs", nargs="+", choices=INPUTS, default=list(INPUTS),
        help="inputs to sweep (default: all)",
    )
    parser.add_argument(
        "--against", metavar="OLD.json",
        help="records of an earlier sweep: list the runs that differ, exit 1 if any do",
    )
    args = parser.parse_args()
    old = json.loads(pathlib.Path(args.against).read_text())["runs"] if args.against else None
    out = pathlib.Path(args.out).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(pathlib.Path(tmp), args.inputs)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            last = LATE + tuple(REFUSED) + LAST + FINAL + PAIRS + WRITER + HASHED
            records = sweep([n for n in args.inputs if n not in last])
            refused = [n for n in REFUSED if n not in
                       LAST + OUTCOME_MAPS + UNREAD_MAPS + PAIR_LISTS + FAMILYLESS]
            for group in (LATE, refused, LAST, FINAL, PAIRS, OUTCOME_MAPS, UNREAD_MAPS,
                          PAIR_LISTS, WRITER, HASHED, FAMILYLESS):
                records += sweep([n for n in args.inputs if n in group])
        finally:
            os.chdir(cwd)
    out.write_text(json.dumps({"runs": records}, indent=1) + "\n")
    print(f"{len(records)} runs written to {out}")
    if old is not None:
        lines = differences(old, records)
        print("\n".join(lines + [f"{len(lines)} runs differ from {args.against}"]))
        sys.exit(1 if lines else 0)


if __name__ == "__main__":
    main()

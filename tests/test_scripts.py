"""The scripts under `scripts/` run end to end against the library."""

import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

from qsproc import cli

REPO = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(REPO / "src"), env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def sweep_module():
    spec = importlib.util.spec_from_file_location(
        "cli_sweep", REPO / "scripts" / "cli_sweep.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_and_their_fixture_files(tmp_path, capsys):
    for script in (
        ("make_fixture_files.py", str(tmp_path)),
        ("run_roundtrip_survey.py", "--seeds", "2"),
        ("run_interference_demo.py",),
    ):
        done = run_script(*script)
        assert done.returncode == 0, (script, done.stderr)
    for name in ("qubit", "chain", "commuting"):
        model, site = (str(tmp_path / f"{name}_{part}.json") for part in ("model", "site"))
        for argv in (
            ["check", model, site],
            ["reconstruct", model, "--site", site, "--verify"],
            ["equiv", "unitary", model, model, site],
        ):
            assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
    capsys.readouterr()


def test_cli_sweep_is_deterministic(tmp_path):
    runs = []
    for k in range(2):
        out = tmp_path / f"sweep{k}.json"
        done = run_script("cli_sweep.py", str(out), "--inputs", "qubit", "galilean", "field")
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(out.read_text())["runs"])
    # four flag sets of nine model commands on two models and one lift, and
    # two table runs per model under the three flag sets `kernels` passes
    assert len(runs[0]) == 4 * (2 * 9 + 1) + 3 * 2 * 2
    assert runs[0] == runs[1]
    assert all(run["exit"] in (0, 1, 2) for run in runs[0])


def test_cli_sweep_against_an_earlier_sweep(tmp_path):
    out = tmp_path / "sweep.json"
    args = ("--inputs", "qubit", "field")
    assert run_script("cli_sweep.py", str(out), *args).returncode == 0
    # against itself (read before it is rewritten): no run differs
    done = run_script("cli_sweep.py", str(out), *args, "--against", str(out))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"0 runs differ from {out}"
    # against a copy with one stdout digest and one exit code edited, and one
    # run left out: each is named by its arguments
    runs = json.loads(out.read_text())["runs"]
    runs[3]["stdout"] = "0" * 64
    runs[5]["exit"] = 7
    gone = runs.pop(8)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps({"runs": runs}))
    done = run_script("cli_sweep.py", str(tmp_path / "again.json"), *args,
                      "--against", str(edited))
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines()[1:] == [
        f"{' '.join(runs[3]['argv'])}: stdout differ",
        f"{' '.join(runs[5]['argv'])}: exit differ (exit 7 -> 0)",
        f"{' '.join(gone['argv'])}: only in the new sweep",
        f"3 runs differ from {edited}",
    ]


def test_cli_sweep_raises_nothing(tmp_path):
    # every input, the malformed ones among them: each run ends in an exit
    # code, never in an exception
    out = tmp_path / "sweep.json"
    done = run_script("cli_sweep.py", str(out))
    assert done.returncode == 0, done.stderr
    runs = json.loads(out.read_text())["runs"]
    assert [r["argv"] for r in runs if r["exit"] == "traceback"] == []
    module = sweep_module()
    # `FAMILYLESS` comes after every other input: the qubit model with no
    # projector family at 't2' under the nine model commands and four flag
    # sets, each an input error that names the point
    familyless = [r for r in runs
                  if any(a.startswith(n) for a in r["argv"] for n in module.FAMILYLESS)]
    assert len(familyless) == 4 * 9 and runs[-len(familyless):] == familyless
    line = "input error: no projector family declared at point 't2'\n"
    assert {(r["exit"], r["stderr"]) for r in familyless} == {
        (2, hashlib.sha256(line.encode()).hexdigest())}
    runs = runs[:-len(familyless)]
    # `HASHED` comes before it: the nine model commands on a
    # model with three outcomes per point, and the table runs of the three
    # flag sets whose `kernels` prints a table; `--cap 3` an input error
    hashed = [r for r in runs if any(a.startswith(n) for a in r["argv"] for n in module.HASHED)]
    assert len(hashed) == 3 * (9 + 2) + 9 and runs[-len(hashed):] == hashed
    assert [r["exit"] for r in hashed[-9:]] == [2] * 9
    runs = runs[:-len(hashed)]
    # `WRITER` comes before it: `kernels` on a 1,024-word model under four
    # flag sets, `--cap 3` an input error
    writer = [r for r in runs if any(a.startswith(n) for a in r["argv"] for n in module.WRITER)]
    assert [r["argv"][0] for r in writer] == ["kernels"] * 4 and runs[-4:] == writer
    assert [r["exit"] for r in writer] == [0, 0, 0, 2]
    runs = runs[:-4]
    # `PAIR_LISTS` comes before it: a pair list as the map of 's1' in the
    # Galilean site file and as its outcome map at 'g0' in the model file,
    # under the nine model commands, and in the table, under reconstruct
    # [--verify], four flag sets each, each an input error
    pair_lists = [r for r in runs
                  if any(a.startswith(n) for a in r["argv"] for n in module.PAIR_LISTS)]
    assert len(pair_lists) == 4 * (2 * 9 + 2) and runs[-len(pair_lists):] == pair_lists
    assert all(r["exit"] == 2 for r in pair_lists)
    runs = runs[:-len(pair_lists)]
    # `UNREAD_MAPS` comes before it: two Galilean tables whose
    # site declares "symmetries" under reconstruct [--verify], and the
    # Galilean model with no outcome map of 's1' at 'g0' under the nine model
    # commands, four flag sets each, each an input error
    unread = [r for r in runs
              if any(a.startswith(n) for a in r["argv"] for n in module.UNREAD_MAPS)]
    assert len(unread) == 4 * (2 * 2 + 9) and runs[-len(unread):] == unread
    assert all(r["exit"] == 2 for r in unread)
    runs = runs[:-len(unread)]
    # `OUTCOME_MAPS` comes next to last: four Galilean tables
    # whose outcome map of 's1' is not an injection, under reconstruct
    # [--verify] and four flag sets, each an input error
    maps = [r for r in runs
            if any(a.startswith(n) for a in r["argv"] for n in module.OUTCOME_MAPS)]
    assert len(maps) == 4 * 4 * 2 and runs[-len(maps):] == maps
    assert all(r["exit"] == 2 for r in maps)
    runs = runs[:-len(maps)]
    # `PAIRS` comes before it: `equiv check|unitary` on three pairs under
    # four flag sets.  The rotated pair is not equivalent (exit 1), the
    # padded one is (exit 0), the kdim mismatch is an input error, as is
    # `--cap 3` on all three
    pairs = [r for r in runs if any(a.startswith(n) for a in r["argv"] for n in module.PAIRS)]
    assert len(pairs) == 4 * 3 * 2 and runs[-len(pairs):] == pairs
    expected = {"pair_rotated": 1, "pair_ancilla": 0, "pair_kdim": 2}
    assert [r["exit"] for r in pairs] == [
        2 if "--cap" in r["argv"] else expected[r["argv"][2][:-len("_model.json")]]
        for r in pairs
    ]
    runs = runs[:-len(pairs)]
    # `FINAL`, the 256-word tensor chain, comes before `PAIRS`: nine model
    # commands under four flag sets, and its table under the three flag sets
    # `kernels` passes; the checks below read the runs before it
    final = [r for r in runs if any(a.startswith(n) for a in r["argv"] for n in module.FINAL)]
    assert len(final) == 4 * 9 + 3 * 2 and runs[-len(final):] == final
    runs = runs[:-len(final)]
    malformed = [r for r in runs if "galilean_bad_v_model.json" in r["argv"]]
    assert malformed and all(r["exit"] == 2 for r in malformed)
    # the two inputs swept last: a units block at a point outside the site
    # under nine model commands, a 2x2 table symmetry u for kdim 1 under
    # reconstruct [--verify], four flag sets each
    stray = [r for r in runs if "qubit_stray_units_model.json" in r["argv"]]
    bad_u = [r for r in runs if "galilean_bad_u_table.json" in r["argv"]]
    assert (len(stray), len(bad_u)) == (4 * 9, 4 * 2)
    # then the refused copies: nine models under nine model commands, six
    # tables under reconstruct [--verify], four fields under lift; four
    # `LAST` inputs (a string "leq" cell, a string label list, a string point
    # list, a signed entry key) come after the other copies
    refused = [r for r in runs
               if any(a.startswith(n) for a in r["argv"] for n in module.REFUSED)]
    assert len(refused) == 4 * (9 * 9 + 6 * 2 + 4)
    # `LAST` ends with two valid models under nine model commands: the
    # one-outcome chain, whose table `kernels` prints under the three flag
    # sets but `--cap 3`, and the Galilean model on a site without its
    # symmetry, whose table it never prints
    valid = [r for r in runs if any(a.startswith(n) for a in r["argv"]
                                    for n in (module.ONE_OUTCOME, module.UNACTED))]
    assert len(valid) == 4 * 9 + 3 * 2 + 4 * 9
    tail = len(refused) + len(valid)
    assert runs[-tail:] == [r for r in runs if r in refused or r in valid]
    last = [r for r in runs if any(a.startswith(n) for a in r["argv"] for n in module.LAST)]
    assert len(last) == 4 * (3 * 9 + 2) + len(valid) and runs[-len(last):] == last
    assert runs[-tail - len(stray) - len(bad_u):-tail] == [
        r for r in runs if r in stray or r in bad_u
    ]
    assert all(r["exit"] == 2 for r in stray + bad_u + refused)
    # each word of `--policy atoms` is listed once; a symmetry without a site
    # action is an input error of `equiv unitary` as of `check`
    exits = {tuple(r["argv"]): r["exit"] for r in valid}
    model, site = (f"{module.ONE_OUTCOME}_{part}.json" for part in ("model", "site"))
    assert exits["check", model, site, "--policy", "atoms"] == 0
    model, site = (f"{module.UNACTED}_{part}.json" for part in ("model", "site"))
    for flags in module.FLAG_SETS:
        assert exits[("equiv", "unitary", model, model, site, *flags)] == 2
        assert exits[("check", model, site, *flags)] == 2

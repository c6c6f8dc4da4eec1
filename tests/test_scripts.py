"""The scripts under `scripts/` run end to end against the library."""

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

"""Command-line surface: exit codes, report shape, determinism."""

import ast
import contextlib
import dataclasses
import io
import itertools
import json
import pathlib
import re
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsproc import cli, equivalence, fixtures, linalg, models, reconstruct, serialize
from qsproc.config import RunConfig
from qsproc.kernels import check_axioms
from qsproc.models import HilbertModel, ProductPlan
from qsproc.sites import chain_site, discrete_site
from qsproc.words import OutcomeSpaces, enumerate_words

from kernel_tables import oracle_from_values, with_table


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(serialize.dumps(data) if isinstance(data, dict) else data)
    return str(path)


def kdim2_table() -> dict:
    model, site = fixtures.controlled_kdim2()
    oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
    assert (oracle.kdim, len(oracle.words)) == (2, 16)
    return serialize.oracle_to_json(oracle)


def qubit_table():
    model, site = fixtures.qubit_zx()
    return model.kernel_table(site, enumerate_words(site, model.spaces))


def trajectory_hits(oracle, trajectories) -> np.ndarray:
    """Which words of a (t1, t2) table contain each outcome pair."""
    return np.array([
        [x in w.factor("t1", oracle.spaces) and y in w.factor("t2", oracle.spaces)
         for x, y in trajectories]
        for w in oracle.words
    ], dtype=float)


@pytest.fixture
def qubit_files(tmp_path):
    model, site = fixtures.qubit_zx()
    return (
        write(tmp_path, "model.json", serialize.model_to_json(model)),
        write(tmp_path, "site.json", serialize.site_to_json(site)),
    )


class TestCheck:
    def test_valid_model_exits_zero(self, qubit_files, capsys):
        model_file, site_file = qubit_files
        assert cli.main(["check", model_file, site_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert "config" in report and "version" in report

    def test_corrupted_json_exits_two(self, tmp_path, qubit_files):
        bad = write(tmp_path, "bad.json", "{ not json")
        assert cli.main(["check", bad, qubit_files[1]]) == 2

    def test_non_utf8_file_exits_two(self, tmp_path, qubit_files, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert cli.main(["check", str(bad), qubit_files[1]]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {bad}: 'utf-8' codec")

    def test_missing_file_exits_two(self, qubit_files):
        assert cli.main(["check", "/nonexistent.json", qubit_files[1]]) == 2

    def test_projector_defect_exits_one(self, tmp_path, qubit_files, capsys):
        model, site = fixtures.qubit_zx()
        data = serialize.model_to_json(model)
        data["projectors"]["t2"]["+"] = [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        bad_model = write(tmp_path, "bad_model.json", data)
        assert cli.main(["check", bad_model, qubit_files[1]]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False

    def test_resolution_defect_exits_one(self, tmp_path, qubit_files, capsys):
        # a declared point unit that is not the sum of the point's atoms
        model, _ = fixtures.qubit_zx()
        data = serialize.model_to_json(model)
        data["units"] = {"p": {"t1": serialize.matrix_to_json(np.diag([1.0, 0.0]))}, "i": {}}
        bad_model = write(tmp_path, "bad_model.json", data)
        assert cli.main(["check", bad_model, qubit_files[1]]) == 1
        report = json.loads(capsys.readouterr().out)
        [entry] = [v for v in report["model"]["violations"] if v["condition"] == "resolution"]
        assert entry["residual"] == pytest.approx(1.0)
        assert entry["witness"] == "sum of the atoms at 't1'"

    def test_one_outcome_point_under_atoms(self, tmp_path, capsys):
        # the atom of a one-outcome point is its unit, listed once
        site = chain_site(("t1", "t2"))
        spaces = OutcomeSpaces({"t1": ("x",), "t2": ("+", "-")})
        atoms = {"t1": {"x": np.eye(2)}, "t2": dict(fixtures.X_ATOMS)}
        model = HilbertModel(dim=2, embedding=fixtures.KET0, atoms=atoms, spaces=spaces)
        model_file = write(tmp_path, "model.json", serialize.model_to_json(model))
        site_file = write(tmp_path, "site.json", serialize.site_to_json(site))
        assert cli.main(["check", model_file, site_file, "--policy", "atoms"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True and report["words"] == 3

    def test_text_format(self, qubit_files, capsys):
        model_file, site_file = qubit_files
        assert cli.main(["--format", "text", "check", model_file, site_file]) == 0
        out = capsys.readouterr().out
        assert "ok: True" in out


class TestPipeline:
    def test_handlers_return_the_report_that_main_alone_prints(self, qubit_files, capsys):
        # a handler prints nothing and returns (report, ok); main emits the
        # report and maps ok to exit 0 or 1
        model_file, site_file = qubit_files
        for argv in (["check", model_file, site_file],
                     ["reconstruct", model_file, "--site", site_file, "--verify"],
                     ["roundtrip", model_file, site_file],
                     ["markov", "check", model_file, site_file]):
            args = cli.build_parser().parse_args(argv)
            report, ok = args.handler(args, RunConfig())
            assert capsys.readouterr() == ("", "")
            assert cli.main(argv) == (0 if ok else 1)
            header = {"version": cli.__version__, "config": RunConfig().to_dict()}
            assert capsys.readouterr().out == serialize.dumps({**header, **report}) + "\n"

    def test_cli_names_no_private_library_name(self):
        # neither `from .x import _name` nor `module._name` of a qsproc module
        tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
        modules = {k for k, v in vars(cli).items()
                   if isinstance(v, types.ModuleType) and v.__name__.startswith("qsproc")}

        def private(name):
            return name.startswith("_") and not name.endswith("__")

        named = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 and (node.level or (node.module or "").startswith("qsproc"))
                 for a in node.names if private(a.name)]
        named += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and private(node.attr)]
        assert named == []

    def test_kernels_prints_its_table_and_reports_nothing(self, qubit_files, capsys):
        args = cli.build_parser().parse_args(["kernels", *qubit_files])
        assert args.handler(args, RunConfig()) == (None, True)
        assert json.loads(capsys.readouterr().out)["kdim"] == 1


class TestStageCounts:
    """How often each stage of the pipeline runs per command, each stage
    function counted wherever a qsproc module holds it, as perfbench's
    tracer rebinds it; `ProductPlan.walk` records its word counts."""

    @pytest.fixture(scope="class")
    def chain_files(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("chain")
        model, site = fixtures.tensor_chain(4, canonical=False)[:2]
        oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
        return (write(tmp_path, "model.json", serialize.model_to_json(model)),
                write(tmp_path, "site.json", serialize.site_to_json(site)),
                write(tmp_path, "table.json", serialize.oracle_to_json(oracle)))

    @staticmethod
    def run(monkeypatch, capsys, argv) -> dict:
        calls = {}

        def counted(name, fn, record=lambda args: None):
            calls[name] = []

            def call(*args, **kwargs):
                calls[name].append(record(args))
                return fn(*args, **kwargs)
            return call

        for fn in (reconstruct.reconstruct, models.check_model, equivalence.intertwine):
            wrapper = counted(fn.__name__, fn)
            for name, module in list(sys.modules.items()):
                if name.startswith("qsproc."):
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            monkeypatch.setattr(module, key, wrapper)
        monkeypatch.setattr(HilbertModel, "kernel_oracle",
                            counted("kernel_oracle", HilbertModel.kernel_oracle))
        monkeypatch.setattr(ProductPlan, "walk", staticmethod(
            counted("walk", ProductPlan.walk, lambda args: len(args[1]))))
        cli.main(argv)
        assert "error" not in capsys.readouterr().err
        return {name: len(c) if name != "walk" else c for name, c in calls.items()}

    def test_check_reconstructs_nothing(self, chain_files, monkeypatch, capsys):
        model_file, site_file, _ = chain_files
        counts = self.run(monkeypatch, capsys, ["check", model_file, site_file])
        assert (counts["reconstruct"], counts["walk"]) == (0, [256])

    def test_roundtrip_builds_one_oracle_and_no_unitary(self, chain_files, monkeypatch,
                                                        capsys):
        model_file, site_file, _ = chain_files
        counts = self.run(monkeypatch, capsys, ["roundtrip", model_file, site_file])
        assert counts["intertwine"] == 0
        assert (counts["kernel_oracle"], counts["walk"]) == (1, [256])

    def test_table_verify_runs_two_reconstructions(self, chain_files, monkeypatch, capsys):
        table_file = chain_files[2]
        counts = self.run(monkeypatch, capsys, ["reconstruct", table_file, "--verify"])
        assert counts == {"reconstruct": 2, "check_model": 0, "intertwine": 1,
                          "kernel_oracle": 1, "walk": [256]}

    def test_model_verify_checks_the_emitted_model_once(self, chain_files, monkeypatch,
                                                        capsys):
        model_file, site_file, _ = chain_files
        argv = ["reconstruct", model_file, "--site", site_file, "--verify"]
        counts = self.run(monkeypatch, capsys, argv)
        assert (counts["check_model"], counts["walk"]) == (1, [256])


class TestKernels:
    def test_emits_table(self, qubit_files, capsys):
        model_file, site_file = qubit_files
        assert cli.main(["--policy", "atoms", "kernels", model_file, site_file]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["words"]) == 9
        assert "0,0" in data["values"]


class TestReconstruct:
    def test_from_model(self, qubit_files, capsys):
        model_file, site_file = qubit_files
        code = cli.main(
            ["reconstruct", model_file, "--site", site_file, "--verify"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["model"]["dim"] == 2
        assert report["provenance"]["rank"] == 2
        assert report["provenance"]["factor"] == "product_stack"
        assert report["verification"]["ok"] is True

    def test_from_table_file(self, tmp_path, capsys):
        model, site = fixtures.qubit_zx()
        words = enumerate_words(site, model.spaces)
        oracle = model.kernel_table(site, words)
        table_file = write(tmp_path, "table.json", serialize.oracle_to_json(oracle))
        assert cli.main(["reconstruct", table_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["model"]["dim"] == 2
        # a table read from JSON has no product stack to factor
        assert report["provenance"]["factor"] == "gram_cholesky"

    def test_unit_only_table(self, tmp_path, capsys):
        from qsproc.sites import chain_site
        from qsproc.words import OutcomeSpaces, unit_word

        site = chain_site(("t",))
        spaces = OutcomeSpaces({"t": ("0",)})
        oracle = oracle_from_values(site, spaces, [unit_word()], {(0, 0): 1.0})
        table_file = write(tmp_path, "unit.json", serialize.oracle_to_json(oracle))
        assert cli.main(["reconstruct", table_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["model"]["dim"] == 1

    def test_non_psd_table_exits_one(self, tmp_path, capsys):
        model, site = fixtures.qubit_zx()
        words = enumerate_words(site, model.spaces, policy="atoms_plus_unit")
        oracle = model.kernel_table(site, words)

        def negative(table):
            table[3, 3] = -1.0

        oracle = with_table(oracle, negative)
        table_file = write(tmp_path, "bad.json", serialize.oracle_to_json(oracle))
        assert cli.main(["reconstruct", table_file]) == 1

    def test_non_hermitian_table_exits_one(self, tmp_path, capsys):
        model, site = fixtures.qubit_zx()
        oracle = model.kernel_table(site, enumerate_words(site, model.spaces))

        def anti_hermitian(table):
            table[6, 5] += 0.05
            table[5, 6] -= 0.05

        oracle = with_table(oracle, anti_hermitian)
        table_file = write(tmp_path, "table.json", serialize.oracle_to_json(oracle))
        assert cli.main(["reconstruct", table_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "reconstruction refused: positivity fails (Hermiticity defect 1.000e-01 "
            "of the kernel table, residual 3.333e-02)\n"
        )

    @pytest.mark.parametrize("defect", ["missing", "negative", "past_end", "repeated"])
    def test_malformed_table_exits_two(self, tmp_path, capsys, defect):
        model, site = fixtures.qubit_zx()
        oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
        data = serialize.oracle_to_json(oracle)
        values = data["values"] = dict(data["values"])
        n = len(oracle.words)
        if defect == "missing":
            del values["0,1"]
        elif defect == "negative":
            values["-1,1"] = values.pop(f"{n - 1},1")
        elif defect == "past_end":
            values[f"{n},0"] = values["0,0"]
        else:
            values["00,1"] = values["0,1"]
        table_file = write(tmp_path, "table.json", data)
        assert cli.main(["reconstruct", table_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: kernel entry")

    @pytest.mark.parametrize("key", ["5,5", "1,1"])
    def test_misshapen_entry_exits_two(self, tmp_path, capsys, key):
        # a one-row entry must not broadcast over its 2x2 slot, whether the
        # entry is nonzero ("5,5") or zero ("1,1")
        data = kdim2_table()
        data["values"] = dict(data["values"])
        data["values"][key] = data["values"][key][:1]
        table_file = write(tmp_path, "table.json", data)
        assert cli.main(["reconstruct", table_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: kernel entry {key} is not a 2x2 matrix")

    def test_non_finite_entry_exits_two(self, tmp_path, capsys):
        data = kdim2_table()
        data["values"] = dict(data["values"])
        entry = data["values"]["5,5"].copy()
        entry[0, 0] = float("nan")
        data["values"]["5,5"] = entry
        table_file = write(tmp_path, "table.json", data)
        assert cli.main(["reconstruct", table_file]) == 2
        assert capsys.readouterr().err == "input error: kernel entry 5,5 is not finite\n"

    def test_sigma_additivity_failure_exits_one(self, tmp_path, capsys):
        # a nonzero kernel on the word with an empty factor at t1: the quotient
        # would hold a vector the emitted model's products cannot reach
        data = kdim2_table()
        data["values"] = dict(data["values"])
        data["values"]["1,1"] = [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]
        table_file = write(tmp_path, "table.json", data)
        for argv in (["reconstruct", table_file], ["reconstruct", table_file, "--verify"]):
            assert cli.main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "reconstruction refused: sigma additivity fails (diagonal additivity "
                "of {[]@t1} split at 't2', residual 1.000e+00)\n"
            )

    def test_idempotence_refusal_exits_one(self, tmp_path, capsys, monkeypatch):
        # sigma additive but not factorizable: the Gram table of the vectors
        # w(0,+) = w(1,-) = (1/2, 0) and w(0,-) = -w(1,+) = (0, 1/2), summed
        # over the trajectories of each word; no model reproduces it, so the
        # reconstruction refuses it
        oracle = qubit_table()
        hits = trajectory_hits(oracle, [("0", "+"), ("1", "-"), ("0", "-"), ("1", "+")])
        vecs = hits @ np.array([[0.5, 0.0], [0.5, 0.0], [0.0, 0.5], [0.0, -0.5]])

        def gram_of_vecs(table):
            table[:, :, 0, 0] = vecs @ vecs.T

        oracle = with_table(oracle, gram_of_vecs)
        table_file = write(tmp_path, "table.json", serialize.oracle_to_json(oracle))
        for verify in ([], ["--verify"]):
            assert cli.main(["reconstruct", table_file, *verify]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(
                "reconstruction refused: factorizability fails"
            )
        # a refused idempotence step on an accepted table exits 1 too

        def refuse(*args, **kwargs):
            raise equivalence.EquivalenceRefused("models are not equivalent")

        monkeypatch.setattr(equivalence, "intertwine", refuse)
        good = write(tmp_path, "good.json", serialize.oracle_to_json(qubit_table()))
        assert cli.main(["reconstruct", good, "--verify"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "idempotence refused: models are not equivalent\n"

    def test_word_off_the_site_exits_two(self, tmp_path, capsys):
        # the qubit table with its site cut to t1: its words still name t2
        data = serialize.oracle_to_json(qubit_table())
        data["site"] = {"points": ["t1"], "leq": [[True]]}
        table_file = write(tmp_path, "table.json", data)
        for verify in ([], ["--verify"]):
            assert cli.main(["reconstruct", table_file, *verify]) == 2
            assert capsys.readouterr() == ("", "input error: word {[]@t1, []@t2} names "
                                               "point 't2', which is not in the site\n")

    def test_positivity_tol_from_config(self, tmp_path, capsys):
        # a signed classical measure, +1e-8 on the trajectory (0,+) and -1e-8
        # on (1,-): every linear axiom holds, and the least Gram eigenvalue is
        # -3e-8, 1e-8 relative
        oracle = qubit_table()
        hits = trajectory_hits(oracle, [("0", "+"), ("1", "-")])

        def signed(table):
            table[:, :, 0, 0] += hits @ np.diag([1e-8, -1e-8]) @ hits.T

        oracle = with_table(oracle, signed)
        table_file = write(tmp_path, "table.json", serialize.oracle_to_json(oracle))
        assert cli.main(["reconstruct", table_file]) == 1
        assert "positivity fails" in capsys.readouterr().err
        loose = write(tmp_path, "loose.json", {"positivity_tol": 1e-6})
        assert cli.main(["--config", loose, "reconstruct", table_file]) == 0
        assert json.loads(capsys.readouterr().out)["provenance"]["rank"] == 2

    def test_text_format_report(self, qubit_files, capsys):
        model_file, site_file = qubit_files
        code = cli.main(
            ["--format", "text", "reconstruct", model_file, "--site", site_file]
        )
        assert code == 0
        assert "rank: 2" in capsys.readouterr().out

    def test_byte_identical_reports(self, qubit_files, capsys):
        model_file, site_file = qubit_files
        cli.main(["reconstruct", model_file, "--site", site_file])
        first = capsys.readouterr().out
        cli.main(["reconstruct", model_file, "--site", site_file])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("from_table", [False, True])
    def test_verify_with_symmetry(self, tmp_path, capsys, from_table):
        # the idempotence table of a model with a symmetry reads the
        # oracle's point maps
        model, site = fixtures.galilean_shift_fixture()
        model_file = write(tmp_path, "model.json", serialize.model_to_json(model))
        site_file = write(tmp_path, "site.json", serialize.site_to_json(site))
        argv = ["reconstruct", model_file, "--site", site_file, "--verify"]
        if from_table:
            oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
            argv = ["reconstruct", write(tmp_path, "table.json",
                    serialize.oracle_to_json(oracle)), "--verify"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verification"]["ok"] and report["idempotence"]["ok"]
        assert set(report["model"]["symmetry"]) == {"s0", "s1", "s2"}


class TestRoundtrip:
    def test_qubit(self, qubit_files, capsys):
        model_file, site_file = qubit_files
        assert cli.main(["roundtrip", model_file, site_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["roundtrip"]["ok"] is True
        assert report["dimensions"]["minimal_dimension"] == 2
        assert report["emitted_model"] == {"ok": True, "violations": []}

    def test_an_emitted_model_that_is_no_model_exits_one(self, tmp_path, capsys):
        # at the defaults the 4,096-word chain reconstructs at rank 63: the
        # emitted model reproduces the table, but its atoms are no projectors
        model, site = fixtures.tensor_chain(6, canonical=False)[:2]
        model_file = write(tmp_path, "model.json", serialize.model_to_json(model))
        site_file = write(tmp_path, "site.json", serialize.site_to_json(site))
        assert cli.main(["roundtrip", model_file, site_file]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["roundtrip"]["ok"] is True
        assert report["dimensions"]["minimal_dimension"] == 63
        emitted = report["emitted_model"]
        assert emitted["ok"] is False
        assert {v["condition"] for v in emitted["violations"]} == {
            "projector", "orthogonality"}
        assert max(v["residual"] for v in emitted["violations"]) > 0.1
        # `reconstruct --verify` refuses the idempotence table of that
        # non-model: it reports the failed model check in place of the step
        argv = ["reconstruct", model_file, "--site", site_file, "--verify"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["verification"]["ok"] is True
        assert report["emitted_model"] == emitted
        assert "idempotence" not in report

    def test_reconstruct_verify_checks_the_emitted_model(self, tmp_path, qubit_files,
                                                         capsys):
        model_file, site_file = qubit_files
        argv = ["reconstruct", model_file, "--site", site_file, "--verify"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["emitted_model"] == {"ok": True, "violations": []}
        # a rounded emitted model fails a projector_tol below its rounding
        model, site = fixtures.tensor_chain(3, canonical=False)[:2]
        argv[1] = write(tmp_path, "chain.json", serialize.model_to_json(model))
        argv[3] = write(tmp_path, "chain_site.json", serialize.site_to_json(site))
        config = write(tmp_path, "config.json", '{"projector_tol": 1e-300}')
        assert cli.main([*argv, "--config", config]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verification"]["ok"] and report["idempotence"]["ok"]
        assert report["emitted_model"]["ok"] is False

    def test_a_table_input_is_not_gated(self, tmp_path, capsys):
        table_file = write(tmp_path, "table.json", serialize.oracle_to_json(qubit_table()))
        assert cli.main(["reconstruct", table_file, "--verify"]) == 0
        assert "emitted_model" not in json.loads(capsys.readouterr().out)


class TestEquiv:
    def test_padded_model_pair(self, tmp_path, qubit_files, capsys):
        model, site = fixtures.qubit_zx()
        padded = fixtures.with_untouched_ancilla(model, 3)
        padded_file = write(tmp_path, "padded.json", serialize.model_to_json(padded))
        model_file, site_file = qubit_files
        assert cli.main(["equiv", "check", model_file, padded_file, site_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["equivalence"]["equivalent"] is True

        assert cli.main(["equiv", "unitary", model_file, padded_file, site_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["morphism"]["ok"] is True
        assert report["dimensions"] == {"first_minimal": 2, "second_minimal": 2}

    def test_symmetry_without_site_action_exits_two(self, tmp_path, capsys):
        # the minimal models carry the symmetry only with its site action,
        # as `check` reads it
        model, site = fixtures.galilean_shift_fixture()
        model_file = write(tmp_path, "model.json", serialize.model_to_json(model))
        site_file = write(tmp_path, "site.json", serialize.site_to_json(site, symmetry=False))
        for argv in (["equiv", "unitary", model_file, model_file, site_file],
                     ["check", model_file, site_file]):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "input error: model symmetry 's0' has no site action\n"

    def test_refused_reconstruction_exits_one(self, tmp_path, capsys):
        # Z and X devices at two unordered points: the table is not sigma
        # additive, so the model has no minimal modification
        site = discrete_site(("a", "b"))
        spaces = OutcomeSpaces({"a": ("0", "1"), "b": ("+", "-")})
        atoms = {"a": dict(fixtures.Z_ATOMS), "b": dict(fixtures.X_ATOMS)}
        model = HilbertModel(dim=2, embedding=fixtures.KET0, atoms=atoms, spaces=spaces)
        model_file = write(tmp_path, "model.json", serialize.model_to_json(model))
        site_file = write(tmp_path, "site.json", serialize.site_to_json(site))
        assert cli.main(["equiv", "unitary", model_file, model_file, site_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("reconstruction refused: sigma additivity fails")

    def test_inequivalent_pair(self, tmp_path, qubit_files, capsys):
        model, site = fixtures.qubit_zx()
        other = fixtures.commuting_diagonal(trivial_order=False)[0]
        data = serialize.model_to_json(model)
        data["projectors"]["t1"] = {
            "0": serialize.matrix_to_json(fixtures.X_ATOMS["+"]),
            "1": serialize.matrix_to_json(fixtures.X_ATOMS["-"]),
        }
        other_file = write(tmp_path, "other.json", data)
        model_file, site_file = qubit_files
        assert cli.main(["equiv", "check", model_file, other_file, site_file]) == 1

    def test_inequivalent_unitary_refused_on_one_line(self, tmp_path, capsys):
        # controlled_kdim2 against a copy with its embedding rotated
        model, site = fixtures.controlled_kdim2()
        u = linalg.random_unitary(np.random.default_rng(5), 2)
        rotated = dataclasses.replace(model, embedding=model.embedding @ u)
        files = [write(tmp_path, f"{name}.json", serialize.model_to_json(m))
                 for name, m in (("model", model), ("rotated", rotated))]
        site_file = write(tmp_path, "site.json", serialize.site_to_json(site))
        assert cli.main(["equiv", "unitary", *files, site_file]) == 1
        assert capsys.readouterr() == ("", (
            "unitary construction refused: models are not equivalent in the wide "
            "sense (residual 2.396e-01 at pair (word 5, word 5))\n"))


class TestMarkov:
    def test_qubit_fails_dynamicity(self, qubit_files, capsys):
        model_file, site_file = qubit_files
        assert cli.main(["markov", "check", model_file, site_file]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["dynamicity"]["ok"] is False

    def test_tensor_chain_passes(self, tmp_path, capsys):
        model, site = fixtures.tensor_chain(2)
        model_file = write(tmp_path, "chain.json", serialize.model_to_json(model))
        site_file = write(tmp_path, "chain_site.json", serialize.site_to_json(site))
        assert cli.main(["markov", "check", model_file, site_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dynamicity"]["ok"] is True
        assert report["regression"]["ok"] is True

    def test_cap_reaches_the_library(self, tmp_path, capsys):
        # regression and commutativity enumerate words inside the library
        model, site = fixtures.tensor_chain(2)
        model_file = write(tmp_path, "chain.json", serialize.model_to_json(model))
        site_file = write(tmp_path, "chain_site.json", serialize.site_to_json(site))
        assert cli.main(["--cap", "3", "markov", "check", model_file, site_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: word enumeration would produce")


class TestLift:
    @pytest.fixture
    def field_file(self, tmp_path):
        atoms, xi, spaces = fixtures.two_point_field()
        data = {
            "depth": 2,
            "initial": serialize.matrix_to_json(xi[:, None]),
            "devices": {
                x: {o: serialize.matrix_to_json(m) for o, m in fam.items()}
                for x, fam in atoms.items()
            },
            "spaces": {x: list(v) for x, v in spaces.items()},
        }
        return write(tmp_path, "field.json", data)

    def test_two_point_field(self, field_file, capsys):
        assert cli.main(["lift", field_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lift"]["ok"] is True

    def test_decomposition_tol_from_config(self, tmp_path, field_file, capsys):
        cfg = write(
            tmp_path, "cfg.json",
            {"decomposition_tol": 1e-6, "ultrastationarity_tol": 1e-7},
        )
        assert cli.main(["--config", cfg, "lift", field_file]) == 0
        checks = json.loads(capsys.readouterr().out)["lift"]["checks"]
        assert {c["condition"]: c["tolerance"] for c in checks} == {
            "ultrastationarity": 1e-7,
            "constant_slice_units": 1e-6,
            "level_independent_events": 1e-6,
            "narrow_units_on_minimal_space": 1e-6,
            "decomposition": 1e-6,
        }

    def test_malformed_field_exits_two(self, tmp_path):
        field_file = write(tmp_path, "field.json", {"depth": 2})
        assert cli.main(["lift", field_file]) == 2


class TestClassical:
    def test_commuting_model(self, tmp_path, capsys):
        model, site = fixtures.commuting_diagonal()
        model_file = write(tmp_path, "cm.json", serialize.model_to_json(model))
        site_file = write(tmp_path, "cs.json", serialize.site_to_json(site))
        assert cli.main(["classical", model_file, site_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["classical"]["total_mass"] == pytest.approx(1.0)

    def test_noncommuting_refused(self, tmp_path, qubit_files, capsys):
        model_file, site_file = qubit_files
        assert cli.main(["classical", model_file, site_file]) == 1
        assert capsys.readouterr() == ("", (
            "classical reduction refused: the model does not commute, so its "
            "distribution is not additive: commutator ['0'@'t1', '+'@'t2'] has norm "
            "0.5\n"))

    def test_cap_reaches_the_library(self, tmp_path, capsys):
        model, site = fixtures.commuting_diagonal()
        model_file = write(tmp_path, "cm.json", serialize.model_to_json(model))
        site_file = write(tmp_path, "cs.json", serialize.site_to_json(site))
        assert cli.main(["--cap", "3", "classical", model_file, site_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: word enumeration would produce")


class TestConfig:
    def test_config_file_override(self, tmp_path, qubit_files, capsys):
        cfg = write(tmp_path, "cfg.json", {"cap": 50, "policy": "atoms_plus_unit"})
        model_file, site_file = qubit_files
        assert cli.main(["--config", cfg, "check", model_file, site_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["cap"] == 50
        assert report["words"] == 9

    def test_unknown_config_key_exits_two(self, tmp_path, qubit_files):
        cfg = write(tmp_path, "cfg.json", {"zzz": 1})
        assert cli.main(["--config", cfg, "check", *qubit_files]) == 2

    def test_cap_enforced(self, qubit_files):
        assert cli.main(["--cap", "3", "check", *qubit_files]) == 2

    @pytest.mark.parametrize("flags, text", [
        (["--cap", "0"], None),
        ([], '{"cap": "10"}'),
        ([], '{"cap": 2.5}'),
        ([], '{"cap": true}'),
        ([], '{"axiom_tol": "1e-9"}'),
        ([], '{"axiom_tol": NaN}'),
        ([], '{"axiom_tol": Infinity}'),
        ([], '{"axiom_tol": 0}'),
        ([], '{"rank_tol": true}'),
        ([], '5'),
    ])
    def test_invalid_value_exits_two(self, tmp_path, qubit_files, capsys, flags, text):
        if text is not None:
            flags = ["--config", write(tmp_path, "cfg.json", text)]
        assert cli.main([*flags, "check", *qubit_files]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error:")


class TestDuplicateKeys:
    """Every input file goes through one reader, which refuses an object that
    spells a key twice instead of keeping the last value."""

    def test_table_entry_spelled_twice_exits_two(self, tmp_path, capsys):
        # the first "0,1" holds a wrong value; a reader keeping the last
        # one would reconstruct the true table and exit 0
        text = serialize.dumps(serialize.oracle_to_json(qubit_table()))
        assert text.count('"0,1": ') == 1
        table_file = write(tmp_path, "table.json", text.replace(
            '"0,1": ', '"0,1": [[[0.123, 0.0]]], "0,1": '))
        for argv in (["reconstruct", table_file], ["reconstruct", table_file, "--verify"]):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"input error: {table_file}: duplicate key '0,1'\n"

    def test_model_site_and_field_keys_spelled_twice_exit_two(self, tmp_path, capsys,
                                                             qubit_files):
        model_file, site_file = qubit_files
        for name, key in (("model.json", "dim"), ("site.json", "points")):
            path = tmp_path / name
            text = path.read_text()
            path.write_text(text.replace(f'"{key}": ', f'"{key}": 5, "{key}": ', 1))
            assert cli.main(["check", model_file, site_file]) == 2
            assert capsys.readouterr().err == f"input error: {path}: duplicate key {key!r}\n"
            path.write_text(text)
        field = write(tmp_path, "field.json", '{"depth": 1, "devices": {}, "depth": 2}')
        assert cli.main(["lift", field]) == 2
        assert capsys.readouterr().err == f"input error: {field}: duplicate key 'depth'\n"

    def test_config_key_spelled_twice_exits_two(self, tmp_path, qubit_files, capsys):
        cfg = write(tmp_path, "cfg.json", '{"cap": 50, "policy": "all_subsets", "cap": 3}')
        assert cli.main(["--config", cfg, "check", *qubit_files]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "configuration error: duplicate key 'cap'\n"

    def test_nested_key_spelled_twice_is_named(self):
        with pytest.raises(ValueError, match="duplicate key 'b'"):
            json.loads('{"a": [{"b": 1, "c": 2, "b": 3}]}',
                       object_pairs_hook=cli._unique_keys)
        assert json.loads('{"a": {"b": 1}, "b": 2}',
                          object_pairs_hook=cli._unique_keys) == {"a": {"b": 1}, "b": 2}


class TestConfigKeys:
    """Each config key a command reads changes that command's verdict or
    output (`positivity_tol`, `decomposition_tol`, `ultrastationarity_tol`,
    `cap`, `policy` and `format` are shown above)."""

    def run(self, tmp_path, capsys, overrides, argv):
        if overrides:
            argv = ["--config", write(tmp_path, "cfg.json", overrides), *argv]
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_axiom_tol(self, tmp_path, capsys):
        # 1e-8 on the word with an empty factor: additivity and
        # factorizability fail at 1e-9 and hold at 1e-6, in `check` and
        # `reconstruct` alike
        data = serialize.oracle_to_json(qubit_table())
        data["values"] = dict(data["values"])
        data["values"]["1,1"] = data["values"]["1,1"] + 1e-8
        table_file = write(tmp_path, "table.json", data)
        code, out, err = self.run(tmp_path, capsys, None, ["reconstruct", table_file])
        assert (code, out) == (1, "")
        assert err.startswith("reconstruction refused: sigma additivity fails")
        code, out, _ = self.run(
            tmp_path, capsys, {"axiom_tol": 1e-6}, ["reconstruct", table_file]
        )
        assert code == 0
        assert json.loads(out)["provenance"]["rank"] == 3

    def test_normalization_tol(self, tmp_path, capsys):
        oracle = qubit_table()
        e = oracle.unit_index()

        def scale_unit(table):
            table[e, e] *= 1 + 1e-11

        oracle = with_table(oracle, scale_unit)
        table_file = write(tmp_path, "table.json", serialize.oracle_to_json(oracle))
        code, _, err = self.run(tmp_path, capsys, None, ["reconstruct", table_file])
        assert code == 1
        assert err == (
            "reconstruction refused: normalization fails (kernel at the unit pair, "
            "residual 1.000e-11)\n"
        )
        code, _, _ = self.run(
            tmp_path, capsys, {"normalization_tol": 1e-10}, ["reconstruct", table_file]
        )
        assert code == 0

    def test_rank_tol(self, tmp_path, qubit_files, capsys):
        # a cut at half the largest eigenvalue drops a genuine dimension, and
        # the round trip sees it
        argv = ["reconstruct", qubit_files[0], "--site", qubit_files[1]]
        for overrides, rank in ((None, 2), ({"rank_tol": 0.5}, 1)):
            code, out, _ = self.run(tmp_path, capsys, overrides, argv)
            assert (code, json.loads(out)["provenance"]["rank"]) == (0, rank)
        argv = ["roundtrip", *qubit_files]
        assert self.run(tmp_path, capsys, None, argv)[0] == 0
        assert self.run(tmp_path, capsys, {"rank_tol": 0.5}, argv)[0] == 1

    def test_projector_tol(self, tmp_path, qubit_files, capsys):
        # atoms off by 3e-10 from projectors that still resolve the unit
        model, _ = fixtures.qubit_zx()
        delta = 3e-10
        atoms = dict(model.atoms)
        atoms["t1"] = {
            "0": (1 + delta) * fixtures.Z_ATOMS["0"],
            "1": fixtures.Z_ATOMS["1"] - delta * fixtures.Z_ATOMS["0"],
        }
        bad = HilbertModel(
            dim=2, embedding=model.embedding, atoms=atoms, spaces=model.spaces
        )
        model_file = write(tmp_path, "bad.json", serialize.model_to_json(bad))
        argv = ["check", model_file, qubit_files[1]]
        code, out, _ = self.run(tmp_path, capsys, None, argv)
        assert code == 1
        assert json.loads(out)["model"]["ok"] is False
        code, out, _ = self.run(tmp_path, capsys, {"projector_tol": 1e-9}, argv)
        assert (code, json.loads(out)["ok"]) == (0, True)

    def test_equivalence_tol(self, tmp_path, qubit_files, capsys):
        # the second basis turned by a further 1e-7: tables 1e-7 apart
        model, _ = fixtures.qubit_zx()
        turned = fixtures.rotated_atoms(np.pi / 4 + 1e-7)
        atoms = {**model.atoms, "t2": {"+": turned["0"], "-": turned["1"]}}
        other = HilbertModel(
            dim=2, embedding=model.embedding, atoms=atoms, spaces=model.spaces
        )
        other_file = write(tmp_path, "other.json", serialize.model_to_json(other))
        model_file, site_file = qubit_files
        for action in ("check", "unitary"):
            argv = ["equiv", action, model_file, other_file, site_file]
            assert self.run(tmp_path, capsys, None, argv)[0] == 1
            assert self.run(tmp_path, capsys, {"equivalence_tol": 1e-6}, argv)[0] == 0

    def test_membership_tol(self, qubit_files, tmp_path, capsys):
        argv = ["markov", "check", *qubit_files]
        code, out, _ = self.run(tmp_path, capsys, None, argv)
        assert (code, json.loads(out)["dynamicity"]["ok"]) == (1, False)
        code, out, _ = self.run(tmp_path, capsys, {"membership_tol": 1.0}, argv)
        report = json.loads(out)
        assert code == 0
        assert report["dynamicity"]["ok"] and report["regression"]["ok"]

    def test_membership_tol_algebra(self, tmp_path, capsys):
        # a controlling-algebra generator 1e-6 off commuting with the kernel
        # values (commutator 6.4e-8) is refused at 1e-8 and kept at 1e-5
        model, site = fixtures.controlled_kdim2()
        x = np.kron(np.array([[0, 1], [1, 0]], dtype=complex), np.eye(2))
        algebra = {k: tuple(g + 1e-6 * x for g in gens) for k, gens in model.algebra.items()}
        skewed = HilbertModel(
            dim=model.dim, embedding=model.embedding, atoms=model.atoms,
            spaces=model.spaces, algebra=algebra,
        )
        argv = [
            "reconstruct",
            write(tmp_path, "skewed.json", serialize.model_to_json(skewed)),
            "--site",
            write(tmp_path, "site.json", serialize.site_to_json(site)),
        ]
        code, out, err = self.run(tmp_path, capsys, None, argv)
        assert (code, out) == (1, "")
        assert err.startswith("reconstruction refused: generator 0 of block ['t1'] "
                              "does not commute with the kernel values")
        code, out, _ = self.run(tmp_path, capsys, {"membership_tol": 1e-5}, argv)
        assert code == 0
        assert len(json.loads(out)["model"]["algebra"]) == 2

    def test_commutativity_tol(self, qubit_files, tmp_path, capsys):
        argv = ["markov", "check", *qubit_files]
        _, out, _ = self.run(tmp_path, capsys, None, argv)
        assert json.loads(out)["narrow_commutativity"]["ok"] is False
        _, out, _ = self.run(tmp_path, capsys, {"commutativity_tol": 1.0}, argv)
        assert json.loads(out)["narrow_commutativity"]["ok"] is True

    def test_classical_tol(self, tmp_path, capsys):
        # the interference defect 1/2 names the obstruction only above the
        # tolerance; otherwise the commutator does
        model, site = fixtures.qubit_xz()
        argv = [
            "classical",
            write(tmp_path, "xz.json", serialize.model_to_json(model)),
            write(tmp_path, "xz_site.json", serialize.site_to_json(site)),
        ]
        code, _, err = self.run(tmp_path, capsys, None, argv)
        assert code == 1 and "marginalizing 't1' changes later statistics" in err
        code, _, err = self.run(tmp_path, capsys, {"classical_tol": 1.0}, argv)
        assert code == 1 and "commutator" in err and "marginalizing" not in err


class TestInputErrors:
    @pytest.fixture
    def files(self, tmp_path):
        model, site = fixtures.qubit_zx()
        site_t9 = serialize.site_to_json(site)
        site_t9["points"] = ["t1", "t9"]
        relabeled = serialize.model_to_json(model)
        relabeled["spaces"]["t2"] = ["p", "m"]
        plus, minus = (relabeled["projectors"]["t2"].pop(o) for o in ("+", "-"))
        relabeled["projectors"]["t2"] = {"p": plus, "m": minus}
        no_unit = model.kernel_table(
            site, [w for w in enumerate_words(site, model.spaces) if not w.is_unit()]
        )
        atoms, xi, spaces = fixtures.two_point_field()
        field = {
            "depth": 2,
            "initial": serialize.matrix_to_json(xi[:, None]),
            "devices": {
                x: {o: serialize.matrix_to_json(m) for o, m in fam.items()}
                for x, fam in atoms.items()
            },
            "spaces": {x: list(v) for x, v in spaces.items()},
        }
        misshapen = json.loads(json.dumps(field))
        misshapen["devices"]["x"]["+"] = misshapen["devices"]["x"]["+"][:1]
        return {
            "model": write(tmp_path, "model.json", serialize.model_to_json(model)),
            "site": write(tmp_path, "site.json", serialize.site_to_json(site)),
            "site_t9": write(tmp_path, "site_t9.json", site_t9),
            "kdim2": write(
                tmp_path, "kdim2.json",
                serialize.model_to_json(fixtures.controlled_kdim2()[0]),
            ),
            "relabeled": write(tmp_path, "relabeled.json", relabeled),
            "no_unit": write(
                tmp_path, "no_unit.json", serialize.oracle_to_json(no_unit)
            ),
            "misshapen": write(tmp_path, "misshapen.json", misshapen),
            "depth0": write(tmp_path, "depth0.json", {**field, "depth": 0}),
            "spaces": write(
                tmp_path, "spaces.json", {**field, "spaces": {"x": ["+"], "z": ["0"]}}
            ),
            "other_point": write(
                tmp_path, "other_point.json", {**field, "spaces": {"y": ["0", "1"]}}
            ),
            "field": write(tmp_path, "field.json", field),
        }

    @pytest.mark.parametrize("argv", [
        ["check", "model", "site_t9"],
        ["kernels", "model", "site_t9"],
        ["reconstruct", "model", "--site", "site_t9"],
        ["markov", "check", "model", "site_t9"],
        ["equiv", "check", "model", "kdim2", "site"],
        ["equiv", "unitary", "model", "kdim2", "site"],
        ["equiv", "check", "model", "relabeled", "site"],
        ["equiv", "unitary", "model", "relabeled", "site"],
        ["reconstruct", "no_unit"],
        ["lift", "misshapen"],
        ["lift", "depth0"],
        ["lift", "spaces"],
        ["lift", "other_point"],
        ["--cap", "5", "lift", "field"],
    ])
    def test_mismatched_input_exits_two(self, files, capsys, argv):
        assert cli.main([files.get(a, a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


class TestMalformedSymmetry:
    """Symmetry maps that leave the site or break its order are input errors,
    from a site file and from a kernel table alike."""

    BAD_MAPS = {
        "outside": ({"g0": "g1", "g1": "zz"}, "'s1' maps 'g1' to 'zz', outside"),
        "swap": ({"g0": "g1", "g1": "g0"}, "'s1' does not preserve the order"),
        "list": ({"g0": ["g1"]}, "'s1' maps 'g0' to ['g1'], outside"),
    }

    @pytest.fixture
    def galilean(self):
        model, site = fixtures.galilean_shift_fixture()
        oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
        return (
            serialize.model_to_json(model),
            json.loads(serialize.dumps(serialize.site_to_json(site))),
            json.loads(serialize.dumps(serialize.oracle_to_json(oracle))),
        )

    def expect_input_error(self, argv, message, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: symmetry element ")
        assert message in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("case", sorted(BAD_MAPS))
    @pytest.mark.parametrize("command", [
        ["check"], ["kernels"], ["reconstruct", "--site"], ["roundtrip"],
    ])
    def test_site_file(self, tmp_path, capsys, galilean, case, command):
        model, site, _ = galilean
        bad_map, message = self.BAD_MAPS[case]
        site["symmetries"]["s1"]["map"] = bad_map
        model_file = write(tmp_path, "model.json", model)
        site_file = write(tmp_path, "site.json", site)
        argv = [command[0], model_file, *command[1:], site_file]
        self.expect_input_error(argv, message, capsys)

    @pytest.mark.parametrize("case", sorted(BAD_MAPS))
    @pytest.mark.parametrize("verify", [[], ["--verify"]])
    def test_kernel_table(self, tmp_path, capsys, galilean, case, verify):
        _, _, table = galilean
        bad_map, message = self.BAD_MAPS[case]
        table["symmetry"]["s1"]["map"] = bad_map
        argv = ["reconstruct", write(tmp_path, "table.json", table), *verify]
        self.expect_input_error(argv, message, capsys)

    def test_site_composition_table(self, tmp_path, capsys, galilean):
        model, site, _ = galilean
        site["symmetries"]["compose"]["s1"]["s1"] = "s3"  # s1 s1 is s2
        argv = ["check", write(tmp_path, "model.json", model),
                write(tmp_path, "site.json", site)]
        self.expect_input_error(argv, "'s1' after 's1' is not 's3' at 'g0'", capsys)

    def test_valid_maps_accepted(self, tmp_path, capsys, galilean):
        model, site, _ = galilean
        argv = ["check", write(tmp_path, "model.json", model),
                write(tmp_path, "site.json", site)]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True


class TestMalformedMatrix:
    """A matrix cell that is not a finite [re, im] pair is an input error,
    named on one line, in every file that holds matrices."""

    CELLS = {
        "nan": [float("nan"), 0.0],
        "inf": [float("inf"), 0.0],
        "short": [1.0],
        "long": [1.0, 0.0, 3.0],
        "text": "1.0",
    }
    MODEL_COMMANDS = [  # M the model file, S the site file
        ["check", "M", "S"], ["kernels", "M", "S"], ["reconstruct", "M", "--site", "S"],
        ["roundtrip", "M", "S"], ["equiv", "check", "M", "M", "S"],
        ["equiv", "unitary", "M", "M", "S"], ["markov", "check", "M", "S"],
        ["classical", "M", "S"],
    ]

    def runs(self, tmp_path, location, cell):
        """The command lines reading the matrix at `location` with `cell`
        as its first entry, and the name the refusal gives it."""
        model, site = fixtures.galilean_shift_fixture()
        model_json = json.loads(serialize.dumps(serialize.model_to_json(model)))
        site_file = write(tmp_path, "site.json", serialize.site_to_json(site))
        if location == "symmetry u":
            oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
            table = json.loads(serialize.dumps(serialize.oracle_to_json(oracle)))
            table["symmetry"]["s1"]["u"][0][0] = cell
            path = write(tmp_path, "table.json", table)
            return [["reconstruct", path], ["reconstruct", path, "--verify"]], "symmetry 's1' u"
        if location == "device":
            atoms, xi, spaces = fixtures.two_point_field()
            field = {
                "depth": 2,
                "initial": serialize.matrix_to_json(xi[:, None]),
                "devices": {x: {o: serialize.matrix_to_json(m) for o, m in fam.items()}
                            for x, fam in atoms.items()},
                "spaces": {x: list(v) for x, v in spaces.items()},
            }
            field["devices"]["x"]["+"][0][0] = cell
            return [["lift", write(tmp_path, "field.json", field)]], "device 'x'/'+'"
        if location == "projector":
            model_json["projectors"]["g1"]["0"][0][0] = cell
            name = "projector 'g1'/'0'"
        else:
            model_json["embedding"][0][0] = cell
            name = "embedding"
        files = {"M": write(tmp_path, "model.json", model_json), "S": site_file}
        return [[files.get(a, a) for a in cmd] for cmd in self.MODEL_COMMANDS], name

    @pytest.mark.parametrize("cell", sorted(CELLS))
    @pytest.mark.parametrize("location", ["projector", "embedding", "device", "symmetry u"])
    def test_exits_two_on_one_line(self, tmp_path, capsys, location, cell):
        runs, name = self.runs(tmp_path, location, self.CELLS[cell])
        problem = "is not finite" if cell in ("nan", "inf") else "is not a matrix"
        for argv in runs:
            assert cli.main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"input error: {name} {problem}")
            assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


class TestMapNotAnObject:
    """A pair list or a string where a symmetry's point map or outcome map
    belongs, or a JSON container of the wrong kind where a symmetry entry, a
    table's site or words, a site's relation or a whole table belongs, is an
    input error naming the node on one line, in a site, a model and a kernel
    table file alike."""

    ENTRY = "symmetry 's1' is not a JSON object"
    GALILEAN = {"kind": "galilean", "labels": ["g0", "g1", "g2"]}
    MINKOWSKI = {"kind": "minkowski", "labels": ["g0", "g1", "g2"],
                 "coords": [[0], [1], [2]]}
    NOT_A_COORDINATE = " is not a finite number or a fraction string: "
    VALUES = {  # the path to the node, its value, and the refusal
        "site map": (("site", "symmetries", "s1", "map"), [["g0", "g1"], ["g1", "g2"]],
                     "symmetry 's1' map is not a JSON object"),
        "site map string": (("site", "symmetries", "s1", "map"), "ab",
                            "symmetry 's1' map is not a JSON object"),
        "model g": (("model", "symmetry", "s1", "g", "g0"), [["0", "0"], ["1", "1"]],
                    "symmetry 's1' g at 'g0' is not a JSON object"),
        "table map": (("table", "symmetry", "s1", "map"), [["g0", "g1"], ["g1", "g2"]],
                      "symmetry 's1' map is not a JSON object"),
        "table g": (("table", "symmetry", "s1", "g", "g0"), [["0", "0"], ["1", "1"]],
                    "symmetry 's1' g at 'g0' is not a JSON object"),
        "site entry": (("site", "symmetries", "s1"), [["map", {"g0": "g1"}]], ENTRY),
        "model entry": (("model", "symmetry", "s1"), [["g", {}], ["v", [[[1.0, 0.0]]]]],
                        ENTRY),
        "table entry": (("table", "symmetry", "s1"), [["map", {"g0": "g1"}]], ENTRY),
        "table site": (("table", "site"), [["points", ["g0"]]], '"site" is not a JSON object'),
        "table root": (("table",), [["kdim", 1]], "the kernel table is not a JSON object"),
        "table words": (("table", "words"), 3, '"words" is not a list'),
        "site leq": (("site", "leq"), 3, '"leq" is not a list of rows'),
        # a geometric site's coordinates and speed
        "site coords zero denominator": (("site",), {**GALILEAN, "coords": ["1/0", 1, 2]},
                                         '"coords" entry 0' + NOT_A_COORDINATE + "'1/0'"),
        "site coords bool": (("site",), {**GALILEAN, "coords": [True, 2, 3]},
                             '"coords" entry 0' + NOT_A_COORDINATE + "True"),
        "site coords nan": (("site",), {**GALILEAN, "coords": [0, float("nan"), 2]},
                            '"coords" entry 1' + NOT_A_COORDINATE + "nan"),
        "site coords number": (("site",), {**GALILEAN, "coords": 3}, '"coords" is not a list'),
        "site minkowski point": (("site",), {**MINKOWSKI, "coords": [[0], 3, [2]]},
                                 '"coords" point 1 is not a list'),
        "site minkowski speed": (("site",), {**MINKOWSKI, "c": "x"},
                                 '"c"' + NOT_A_COORDINATE + "'x'"),
    }

    def runs(self, tmp_path, case):
        """The command lines reading the file with the replaced node."""
        model, site = fixtures.galilean_shift_fixture()
        oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
        files = {"model": serialize.model_to_json(model),
                 "site": serialize.site_to_json(site),
                 "table": serialize.oracle_to_json(oracle)}
        (name, *path), value, _ = self.VALUES[case]
        if path:
            node = files[name]
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        else:
            files[name] = value
        paths = {kind[0].upper(): write(tmp_path, f"{kind}.json", serialize.dumps(data))
                 for kind, data in files.items()}
        if name == "table":
            return [["reconstruct", paths["T"]], ["reconstruct", paths["T"], "--verify"]]
        return [[paths.get(a, a) for a in cmd] for cmd in TestMalformedMatrix.MODEL_COMMANDS]

    @pytest.mark.parametrize("case", sorted(VALUES))
    def test_exits_two_naming_the_node(self, tmp_path, capsys, case):
        message = self.VALUES[case][2]
        for argv in self.runs(tmp_path, case):
            assert cli.main(argv) == 2, argv
            assert capsys.readouterr() == ("", f"input error: {message}\n")


class TestMisshapenModel:
    """A model matrix that is not dim x dim, or a `kdim` that is not the
    embedding's column count, is an input error named on one line by every
    command that reads the model."""

    COMMANDS = TestMalformedMatrix.MODEL_COMMANDS

    def runs(self, tmp_path, location):
        """The command lines reading a model whose `location` is misshapen,
        and the refusal's message."""
        one = [[[1.0, 0.0]]]  # a 1x1 matrix
        if location == "symmetry v":
            model, site = fixtures.galilean_shift_fixture()
        else:
            model, site = fixtures.qubit_zx()
        data = json.loads(serialize.dumps(serialize.model_to_json(model)))
        if location == "symmetry v":
            data["symmetry"]["s1"]["v"] = one
            message = "symmetry 's1' v has shape (1, 1), not 2x2"
        elif location == "algebra generator":
            data["algebra"] = {"t1": [serialize.matrix_to_json(np.eye(2)), one]}
            message = "algebra generator 1 of ['t1'] has shape (1, 1), not 2x2"
        elif location == "kdim":
            data["kdim"] = 3
            message = '"kdim" 3 differs from the embedding\'s 1 columns'
        else:
            kind = location[-1]
            data["units"] = {"p": {}, "i": {}, kind: {"t1": one}}
            message = f"unit {kind!r} of ['t1'] has shape (1, 1), not 2x2"
        files = {
            "M": write(tmp_path, "model.json", data),
            "S": write(tmp_path, "site.json", serialize.site_to_json(site)),
        }
        return [[files.get(a, a) for a in cmd] for cmd in self.COMMANDS], message

    @pytest.mark.parametrize(
        "location", ["unit p", "unit i", "algebra generator", "symmetry v", "kdim"]
    )
    def test_exits_two_on_one_line(self, tmp_path, capsys, location):
        runs, message = self.runs(tmp_path, location)
        for argv in runs:
            assert cli.main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"input error: {message}\n", argv


class TestBlockOutsideSite:
    """A `units` or `algebra` block naming a point outside the site is an
    input error named on one line by every command that reads the model."""

    COMMANDS = TestMalformedMatrix.MODEL_COMMANDS + [
        ["reconstruct", "M", "--site", "S", "--verify"]
    ]

    @pytest.mark.parametrize("key", ["zz", "t1,zz"])
    @pytest.mark.parametrize("kind", ["unit 'p'", "unit 'i'", "algebra"])
    def test_exits_two_on_one_line(self, tmp_path, capsys, kind, key):
        model, site = fixtures.qubit_zx()
        data = json.loads(serialize.dumps(serialize.model_to_json(model)))
        eye = serialize.matrix_to_json(np.eye(2))
        if kind == "algebra":
            data["algebra"] = {key: [eye]}
        else:
            data["units"] = {"p": {}, "i": {}, kind[-2]: {key: eye}}
        files = {
            "M": write(tmp_path, "model.json", data),
            "S": write(tmp_path, "site.json", serialize.site_to_json(site)),
        }
        message = (
            f"input error: {kind} block {sorted(key.split(','))} names point 'zz', "
            "which is not in the site\n"
        )
        for cmd in self.COMMANDS:
            argv = [files.get(a, a) for a in cmd]
            assert cli.main(argv) == 2, argv
            assert capsys.readouterr() == ("", message), argv


class TestPointWithoutProjectors:
    """A model with no projector family at a point of its site is an input
    error named on one line by every command that reads the model, as
    either model of `equiv`."""

    COMMANDS = TestBlockOutsideSite.COMMANDS + [
        ["equiv", "check", "V", "M", "S"], ["equiv", "unitary", "V", "M", "S"],
    ]

    def test_exits_two_on_one_line(self, tmp_path, capsys):
        model, site = fixtures.qubit_zx()
        data = serialize.model_to_json(model)
        files = {
            "V": write(tmp_path, "valid.json", data),
            "S": write(tmp_path, "site.json", serialize.site_to_json(site)),
        }
        del data["projectors"]["t2"]
        files["M"] = write(tmp_path, "model.json", data)
        message = "input error: no projector family declared at point 't2'\n"
        for cmd in self.COMMANDS:
            argv = [files.get(a, a) for a in cmd]
            assert cli.main(argv) == 2, argv
            assert capsys.readouterr() == ("", message), argv


class TestReaderRefusals:
    """Refusals of the site, outcome-space and word-list readers, each an
    input error on one line through `cli.main`."""

    SITES = {  # a site file the qubit model is read with
        "ragged leq": ({"points": ["t1", "t2"], "leq": [[True, True], [True]]},
                       "relation matrix shape does not match the point list"),
        "minkowski dimensions": ({"kind": "minkowski", "coords": [[0, 0], [1]]},
                                 "coordinates must share a common dimension >= 1"),
        "minkowski labels": ({"kind": "minkowski", "coords": [[0, 0], [1, 0]],
                              "labels": ["t1"]}, "labels and coordinates differ in length"),
        "galilean labels": ({"kind": "galilean", "coords": [0, 1], "labels": ["t1"]},
                            "labels and times differ in length"),
    }
    SPACES = {  # the outcome labels of 't1' in the qubit model
        "repeated labels": (["0", "0"], "outcome labels at 't1' are not distinct"),
        "empty labels": ([], "outcome space at 't1' is empty"),
    }

    @pytest.mark.parametrize("case", sorted(SITES) + sorted(SPACES))
    def test_model_command_exits_two(self, tmp_path, capsys, case):
        model, site = fixtures.qubit_zx()
        model_json, site_json = serialize.model_to_json(model), serialize.site_to_json(site)
        if case in self.SITES:
            site_json, message = self.SITES[case]
        else:
            model_json["spaces"]["t1"], message = self.SPACES[case]
        argv = ["check", write(tmp_path, "model.json", model_json),
                write(tmp_path, "site.json", site_json)]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"input error: {message}\n")

    def test_a_word_listed_twice_exits_two(self, tmp_path, capsys):
        data = serialize.oracle_to_json(qubit_table())
        n = len(data["words"])
        data["words"].append(data["words"][0])  # word n is word 0 again
        values = data["values"] = dict(data["values"])
        for i, j in itertools.product(range(n + 1), repeat=2):
            values.setdefault(f"{i},{j}", values[f"{i % n},{j % n}"])
        assert cli.main(["reconstruct", write(tmp_path, "table.json", data)]) == 2
        assert capsys.readouterr() == ("", "input error: word list contains duplicates\n")

    def test_points_that_spell_entry_keys(self, tmp_path, capsys):
        # the table's "spaces" object, keyed by the points "0,1" and "1,0",
        # is read as a `serialize.EntryPairs` mapping, and the table is read
        # as any other
        points = ("0,1", "1,0")
        site = chain_site(points)
        spaces = OutcomeSpaces({points[0]: ("0", "1"), points[1]: ("+", "-")})
        atoms = {points[0]: dict(fixtures.Z_ATOMS), points[1]: dict(fixtures.X_ATOMS)}
        model = HilbertModel(dim=2, embedding=fixtures.KET0, atoms=atoms, spaces=spaces)
        oracle = model.kernel_table(site, enumerate_words(site, spaces))
        path = write(tmp_path, "table.json", serialize.oracle_to_json(oracle))
        read = cli._read_json(path, table=True)
        assert isinstance(read["spaces"], serialize.EntryPairs)
        assert serialize.spaces_from_json(read["spaces"]) == spaces
        assert cli.main(["reconstruct", path, "--verify"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verification"]["ok"] and report["idempotence"]["ok"]


class TestMisshapenTableSymmetry:
    """A table symmetry whose `u` is not kdim x kdim is refused when the
    table is read, naming the element."""

    def table(self):
        model, site = fixtures.galilean_shift_fixture()
        oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
        data = json.loads(serialize.dumps(serialize.oracle_to_json(oracle)))
        assert data["kdim"] == 1
        data["symmetry"]["s1"]["u"] = serialize.matrix_to_json(np.eye(2))
        return data

    def test_reader_refuses(self):
        with pytest.raises(ValueError, match=r"symmetry 's1' u has shape \(2, 2\), not 1x1"):
            serialize.oracle_from_json(self.table())

    def test_reconstruct_exits_two(self, tmp_path, capsys):
        path = write(tmp_path, "table.json", self.table())
        for argv in (["reconstruct", path], ["reconstruct", path, "--verify"]):
            assert cli.main(argv) == 2, argv
            assert capsys.readouterr() == (
                "", "input error: symmetry 's1' u has shape (2, 2), not 1x1\n"
            )


class TestMalformedOutcomeMaps:
    """A table symmetry whose outcome map g at a mapped point t is not an
    injection of the outcomes at t into those at its image is refused on one
    line when the table is read (it raised `KeyError` or ended in a
    covariance verdict)."""

    CASES = {
        "missing outcome": (lambda g: g.update(g0={"0": "0"}), "g0", "g1"),
        "missing point": (lambda g: g.pop("g1"), "g1", "g2"),
        "outside target": (lambda g: g["g0"].update({"1": "zz"}), "g0", "g1"),
        "not injective": (lambda g: g["g0"].update({"1": "0"}), "g0", "g1"),
    }

    @pytest.mark.parametrize("verify", [[], ["--verify"]])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reconstruct_exits_two(self, tmp_path, capsys, case, verify):
        model, site = fixtures.galilean_shift_fixture()
        oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
        data = json.loads(serialize.dumps(serialize.oracle_to_json(oracle)))
        edit, t, image = self.CASES[case]
        edit(data["symmetry"]["s1"]["g"])
        argv = ["reconstruct", write(tmp_path, "table.json", data), *verify]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", (
            f"input error: symmetry 's1' outcome map at {t!r} is not an injection "
            f"of the outcomes at {t!r} into those at {image!r}\n"
        ))


class TestTableSiteSymmetries:
    """A kernel table's site with a "symmetries" block is refused on one
    line: the table declares its symmetry in its "symmetry" block only (the
    site block was validated, then never read)."""

    @pytest.mark.parametrize("verify", [[], ["--verify"]])
    @pytest.mark.parametrize("entry", [{"q": {"map": {"g0": "g2"}}},
                                       {"s1": {"map": {"g0": "g2"}}}])
    def test_reconstruct_exits_two(self, tmp_path, capsys, entry, verify):
        model, site = fixtures.galilean_shift_fixture()
        oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
        data = json.loads(serialize.dumps(serialize.oracle_to_json(oracle)))
        data["site"]["symmetries"] = entry
        argv = ["reconstruct", write(tmp_path, "table.json", data), *verify]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", (
            'input error: a kernel table declares its symmetry in "symmetry" only, '
            'not in a "symmetries" block of its "site"\n'
        ))


class TestMalformedModelOutcomeMaps:
    """A model outcome map at a point the site maps that is not an injection
    is refused on one line by every command that reads the model, whether
    or not it builds a kernel table (markov check, classical and equiv check
    build none)."""

    @pytest.mark.parametrize("command", TestMalformedMatrix.MODEL_COMMANDS)
    def test_exits_two_on_one_line(self, tmp_path, capsys, command):
        model, site = fixtures.galilean_shift_fixture()
        data = json.loads(serialize.dumps(serialize.model_to_json(model)))
        del data["symmetry"]["s1"]["g"]["g0"]
        files = {"M": write(tmp_path, "model.json", data),
                 "S": write(tmp_path, "site.json", serialize.site_to_json(site))}
        argv = [files.get(a, a) for a in command]
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr() == ("", (
            "input error: symmetry 's1' outcome map at 'g0' is not an injection "
            "of the outcomes at 'g0' into those at 'g1'\n"
        ))

    def test_element_without_site_action_left_to_the_command(self, tmp_path, capsys):
        # on a site that does not act by 's1', its outcome maps are not read:
        # `check` refuses the element itself, `markov check` runs
        model, site = fixtures.galilean_shift_fixture()
        data = json.loads(serialize.dumps(serialize.model_to_json(model)))
        del data["symmetry"]["s1"]["g"]["g0"]
        model_file = write(tmp_path, "model.json", data)
        site_file = write(tmp_path, "site.json", serialize.site_to_json(site, symmetry=False))
        assert cli.main(["check", model_file, site_file]) == 2
        assert capsys.readouterr() == (
            "", "input error: model symmetry 's0' has no site action\n")
        assert cli.main(["markov", "check", model_file, site_file]) == 0
        assert capsys.readouterr().err == ""


def _field_json() -> dict:
    atoms, xi, spaces = fixtures.two_point_field()
    return {
        "depth": 2,
        "initial": serialize.matrix_to_json(xi[:, None]),
        "devices": {
            x: {o: serialize.matrix_to_json(m) for o, m in fam.items()}
            for x, fam in atoms.items()
        },
        "spaces": {x: list(v) for x, v in spaces.items()},
    }


def _set(key, value):
    return lambda data: data.update({key: value})


# the table's site with a third point "a" that has no outcome space
SITE_WITHOUT_SPACE = {
    "points": ["t1", "t2", "a"],
    "leq": [[True, True, False], [False, True, False], [False, False, True]],
}
NOT_AN_OBJECT = "is not a JSON object"
# (id, input, mutation, command line, message)
def _rename(values: dict, key: str, new: str) -> None:
    """Rename `key` of `values` in place, keeping the order of the keys."""
    items = [(new if k == key else k, v) for k, v in values.items()]
    values.clear()
    values.update(items)


MALFORMED_FIELDS = [
    ("projectors", "model", _set("projectors", "x"), ["check", "model", "site"],
     f'"projectors" {NOT_AN_OBJECT}'),
    ("point family", "model", lambda d: d["projectors"].update(t1="x"),
     ["check", "model", "site"], f"projectors 't1' {NOT_AN_OBJECT}"),
    *[(f"symmetry g {cmd}", "galilean", lambda d: d["symmetry"]["s1"].update(g="x"),
       [cmd, "galilean", "galilean_site"], f"symmetry 's1' g {NOT_AN_OBJECT}")
      for cmd in ("check", "roundtrip", "classical")],
    ("table word", "table", lambda d: d["words"].__setitem__(0, "x"),
     ["reconstruct", "table"], f"word 'x' {NOT_AN_OBJECT}"),
    ("devices", "field", _set("devices", "x"), ["lift", "field"],
     f'"devices" {NOT_AN_OBJECT}'),
    ("spaces", "field", _set("spaces", "x"), ["lift", "field"],
     f'"spaces" {NOT_AN_OBJECT}'),
    ("site point without space", "table", _set("site", SITE_WITHOUT_SPACE),
     ["reconstruct", "table"], "no outcome space declared at point 'a'"),
    *[(f"{where} kdim {v}", where, _set("kdim", v), argv,
       f'"kdim" must be an integer of at least 1, not {v}')
      for where, argv in (("table", ["reconstruct", "table"]),
                          ("model", ["check", "model", "site"]))
      for v in (1.5, True)],
    ("model dim", "model", _set("dim", 2.5), ["check", "model", "site"],
     '"dim" must be an integer of at least 1, not 2.5'),
    *[(f"depth {v}", "field", _set("depth", v), ["lift", "field"],
       f'"depth" must be an integer of at least 1, not {v}') for v in (2.5, True)],
    ("site count", "table", _set("site", {"kind": "chain", "count": -1}),
     ["reconstruct", "table"], '"count" must be an integer of at least 0, not -1'),
    # a "leq" cell is read as a JSON boolean, never by its truth value
    *[(f"leq cell {v!r}", "site", lambda d, v=v: d["leq"][1].__setitem__(0, v),
       ["check", "model", "site"], '"leq" holds a cell that is not true or false')
      for v in ("false", 0, None)],
    # a label list is a JSON list of strings, never a string split into its
    # characters
    *[(f"{where} spaces {v!r}", where, lambda d, v=v: d["spaces"].update(t1=v), argv,
       "outcome labels at 't1' are not a list of strings")
      for where, argv in (("model", ["check", "model", "site"]),
                          ("table", ["reconstruct", "table"]))
      for v in ("01", [0, 1])],
    ("word factor string", "table", lambda d: d["words"][-1].update(t1="0"),
     ["reconstruct", "table"], "outcome labels at 't1' are not a list of strings"),
    # the site's points are a JSON list of strings, never a string split into
    # its characters
    ("site points string", "site", _set("points", "ab"), ["check", "model", "site"],
     '"points" is not a list of strings'),
    # a kernel-entry key is "i,j" in plain decimal, so each pair has one
    # spelling; any other spelling of the pair 1,0 is refused, never read as it
    *[(f"entry key {k!r}", "table", lambda d, k=k: _rename(d["values"], "1,0", k),
       ["reconstruct", "table"], f"kernel entry {k!r} is not 'i,j' in plain decimal")
      for k in (" 1,0", "+1,0", "01,0", "1, 0", "1_0,0")],
]


@pytest.mark.parametrize(
    "case", MALFORMED_FIELDS, ids=[case[0] for case in MALFORMED_FIELDS]
)
def test_malformed_field_exits_two_on_one_line(tmp_path, capsys, case):
    # a node that is not an object, an integer field that is not a JSON
    # integer in range, or a table point without outcomes: named, never a
    # traceback and never read as something else
    _, key, mutate, argv, message = case
    model, site = fixtures.qubit_zx()
    galilean, gsite = fixtures.galilean_shift_fixture()
    data = {
        "model": serialize.model_to_json(model),
        "site": serialize.site_to_json(site),
        "galilean": serialize.model_to_json(galilean),
        "galilean_site": serialize.site_to_json(gsite),
        "table": json.loads(serialize.dumps(serialize.oracle_to_json(qubit_table()))),
        "field": _field_json(),
    }
    mutate(data[key])
    files = {name: write(tmp_path, f"{name}.json", d) for name, d in data.items()}
    assert cli.main([files.get(a, a) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"input error: {message}\n")


# -- adversarial tables ---------------------------------------------------------

QUBIT_TABLE = json.loads(serialize.dumps(serialize.oracle_to_json(qubit_table())))
N_WORDS = len(QUBIT_TABLE["words"])
finite = st.floats(-1e3, 1e3, allow_nan=False)
pair = st.lists(finite, min_size=2, max_size=2)
index = st.integers(-2, N_WORDS + 1)
entry_key = st.builds("{},{}".format, index, index)
# a 1x1 kernel entry is [[[re, im]]]; most of these are not
misshapen = st.one_of(
    st.none(), st.text(max_size=3),
    st.recursive(st.one_of(finite, pair), lambda inner: st.lists(inner, max_size=3),
                 max_leaves=6),
)
mutation = st.one_of(
    st.tuples(st.just("entry"), entry_key, pair),
    st.tuples(st.just("drop"), st.sampled_from(sorted(QUBIT_TABLE["values"]))),
    st.tuples(st.just("drop_top"), st.sampled_from(sorted(QUBIT_TABLE))),
    st.tuples(st.just("extra"), st.one_of(entry_key, st.text(max_size=4)), pair),
    st.tuples(st.just("duplicate"), st.sampled_from(sorted(QUBIT_TABLE["values"])),
              st.sampled_from(["0{}", " {}", "+{}", "{}\n"])),
    st.tuples(st.just("shape"), st.sampled_from(sorted(QUBIT_TABLE["values"])), misshapen),
    st.tuples(st.just("asymmetric"), index, index, pair, pair),
)


def mutate(table: dict, mutations) -> dict:
    data = json.loads(json.dumps(table))
    values = data["values"]
    for kind, *args in mutations:
        if kind == "drop_top":
            data.pop(args[0], None)
        elif kind == "drop":
            values.pop(args[0], None)
        elif kind in ("entry", "extra"):
            values[args[0]] = [[args[1]]]
        elif kind == "duplicate":
            key, alias = args
            values[alias.format(key)] = values.get(key, [[[0.0, 0.0]]])
        elif kind == "shape":
            values[args[0]] = args[1]
        else:
            i, j, x, y = args
            values[f"{i},{j}"], values[f"{j},{i}"] = [[x]], [[y]]
    return data


GATED = ("positivity", "normalization", "sigma_additivity", "factorizability")


@settings(max_examples=50, deadline=None)
@given(st.lists(mutation, min_size=1, max_size=4), st.sampled_from([1e-9, 1e-6]))
def test_mutated_table_exits_cleanly(tmp_path_factory, mutations, axiom_tol):
    # reconstruct refuses a table exactly when `check_axioms`, at the same
    # config, reports one of the gated axioms as failed, and names it
    config = RunConfig(axiom_tol=axiom_tol)
    workdir = tmp_path_factory.mktemp("mutated")
    data = mutate(QUBIT_TABLE, mutations)
    table_file, config_file = workdir / "table.json", workdir / "config.json"
    table_file.write_text(json.dumps(data))
    config_file.write_text(json.dumps(config.to_dict()))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["--config", str(config_file), "reconstruct", str(table_file)])
    assert code in (0, 1, 2)
    if code == 2:
        return
    report = check_axioms(serialize.oracle_from_json(data), config)
    failed = [name for name in GATED if report[name].status == "fail"]
    refused = re.match(r"reconstruction refused: ([a-z ]+) fails", err.getvalue())
    assert (code == 1) == bool(failed)
    if code == 1:
        assert refused and refused.group(1).replace(" ", "_") == failed[0]

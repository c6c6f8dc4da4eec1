"""The one verdict record: `Check` and `Report`, and their three JSON forms."""

import math
from unittest.mock import ANY

import numpy as np
import pytest

from qsproc import Check, Report, bridges, fixtures, kernels, markov, models
from qsproc.models import FAIL, INCONCLUSIVE, PASS
from qsproc.words import enumerate_words

TOL = 1e-9


class TestCheck:
    @pytest.mark.parametrize("residual, status", [
        (0.0, PASS), (TOL, PASS), (2 * TOL, FAIL), (math.nan, FAIL), (math.inf, FAIL),
    ])
    def test_status_from_residual(self, residual, status):
        check = Check("c", residual, "w", TOL)
        assert check.status == status
        assert check.ok is (status == PASS)

    def test_missing_note_is_inconclusive_and_is_the_witness(self):
        check = Check("c", 5.0, "worst pair", TOL, missing="a word is not listed")
        assert check.status == INCONCLUSIVE and not check.ok
        assert check.witness == "a word is not listed"
        report = Report((check,))
        assert not report.ok and not report.failed
        assert report.violations() == (check,)

    def test_residual_is_a_python_float(self):
        check = Check("c", np.float64(0.25), "w", TOL)
        assert type(check.residual) is float and check.residual == 0.25

    def test_condition_is_the_name(self):
        assert Check("projector", 0.0, "", TOL).condition == "projector"


class TestReport:
    def report(self):
        return Report((
            Check("a", 0.5, "first", TOL),
            Check("b", 0.0, "", TOL),
            Check("a", 0.5, "second", TOL),
            Check("a", 0.25, "third", TOL),
            Check("c", 0.0, "", TOL, missing="note"),
        ))

    def test_worst_keeps_the_first_of_tied_maxima(self):
        report = self.report()
        assert report.worst("a").witness == "first"
        assert report.worst("b").residual == 0.0
        assert report.worst("zzz") is None

    def test_violations_ok_and_failed(self):
        report = self.report()
        assert [c.witness for c in report.violations()] == ["first", "second", "third", "note"]
        assert not report.ok and report.failed
        passing = Report((Check("b", 0.0, "", TOL),))
        assert passing.ok and not passing.failed and passing.violations() == ()

    def test_getitem_reads_the_first_check_of_a_name(self):
        report = self.report()
        assert report["a"].witness == "first"
        with pytest.raises(KeyError):
            report["zzz"]

    def test_entries_are_the_checks(self):
        report = self.report()
        assert report.entries == report.checks

    def test_the_three_forms(self):
        checks = (Check("a", 0.5, "w", TOL), Check("b", 0.0, "", TOL),
                  Check("c", 0.0, "x", TOL, missing="note"))
        short = [
            {"condition": "a", "residual": 0.5, "witness": "w", "tolerance": TOL},
            {"condition": "b", "residual": 0.0, "witness": "", "tolerance": TOL},
            {"condition": "c", "residual": 0.0, "witness": "note", "tolerance": TOL},
        ]
        assert Report(checks).to_dict() == {"ok": False, "violations": [short[0], short[2]]}
        assert Report(checks, "checks").to_dict() == {"ok": False, "checks": short}
        assert Report(checks, "axioms").to_dict() == {"ok": False, "failed": True, "checks": [
            {"name": "a", "status": "fail", "residual": 0.5, "witness": "w", "tolerance": TOL},
            {"name": "b", "status": "pass", "residual": 0.0, "witness": "", "tolerance": TOL},
            {"name": "c", "status": "inconclusive", "residual": 0.0, "witness": "note",
             "tolerance": TOL},
        ]}


# -- the forms on the fixtures, pinned ---------------------------------------------


def noise(residual=0.0):
    """A residual that is rounding: its size, up to 1e-12, and so the witness
    attaining it, are the floating-point library's."""
    return pytest.approx(residual, abs=1e-12)


def test_model_and_markov_forms_on_qubit_zx():
    model, site = fixtures.qubit_zx()
    assert models.check_model(model, site).to_dict() == {"ok": True, "violations": []}
    assert markov.check_dynamicity(model, site).to_dict() == {"ok": False, "violations": [
        {"condition": "dynamicity", "residual": noise(0.7071067811865476),
         "witness": "event {['+']@t2} compressed to slice ['t1']", "tolerance": 1e-08},
        {"condition": "weak_commutativity", "residual": noise(0.5),
         "witness": "[{['+']@t2} compressed, atom '0'@'t1']", "tolerance": 1e-08},
    ]}


def test_axioms_form_on_qubit_zx():
    model, site = fixtures.qubit_zx()
    oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
    assert kernels.check_axioms(oracle).to_dict() == {"ok": True, "failed": False, "checks": [
        {"name": "positivity", "status": "pass", "residual": noise(), "witness": ANY,
         "tolerance": 1e-09},
        {"name": "normalization", "status": "pass", "residual": 0.0,
         "witness": "kernel at the unit pair", "tolerance": 1e-12},
        {"name": "sigma_additivity", "status": "pass", "residual": noise(), "witness": ANY,
         "tolerance": 1e-09},
        {"name": "factorizability", "status": "pass", "residual": noise(), "witness": ANY,
         "tolerance": 1e-09},
        {"name": "covariance", "status": "pass", "residual": 0.0,
         "witness": "no symmetry declared (trivial action)", "tolerance": 1e-09},
        {"name": "projectivity", "status": "pass", "residual": 0.0, "witness": "",
         "tolerance": 1e-09},
    ]}


def test_lift_form_at_depth_one():
    atoms, initial, spaces = fixtures.two_point_field()
    report = bridges.verify_lift(atoms, initial, 1, spaces)
    assert report.to_dict() == {"ok": True, "checks": [
        {"condition": "ultrastationarity", "residual": 0.0, "witness": "",
         "tolerance": 1e-12},
        {"condition": "constant_slice_units", "residual": 0.0, "witness": "",
         "tolerance": 1e-08},
        {"condition": "level_independent_events", "residual": 0.0, "witness": "",
         "tolerance": 1e-08},
        {"condition": "narrow_units_on_minimal_space", "residual": 0.0, "witness": "",
         "tolerance": 1e-08},
        {"condition": "decomposition", "residual": noise(), "witness": ANY,
         "tolerance": 1e-08},
    ]}
    assert [report.ultrastationarity, report.constant_units,
            report.level_independent_events, report.narrow_units,
            report.decomposition] == list(report.checks)

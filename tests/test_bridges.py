"""Level lifts, classical reduction, interference."""

import numpy as np
import pytest

from qsproc import fixtures
from qsproc.bridges import (
    ReductionRefused,
    _probabilities,
    check_ultrastationarity,
    classical_reduce,
    enumerate_level_words,
    interference_witness,
    lexicographic_site,
    lift_process,
    shift_word,
    verify_lift,
)
from qsproc.models import HilbertModel
from qsproc.sites import check_symmetry, derive_classes
from qsproc.words import EventWord


class TestLexicographicSite:
    def test_depth_one_all_equivalent(self):
        site, _ = lexicographic_site(["a", "b"], 1)
        for s in site.points:
            for t in site.points:
                assert site.equivalent(s, t)

    def test_level_sets_are_the_slices(self):
        site, _ = lexicographic_site(["a", "b"], 2)
        classes = derive_classes(site)
        assert set(classes.maximal_antichains) == {
            frozenset({"0:a", "0:b"}),
            frozenset({"1:a", "1:b"}),
        }

    def test_shift_symmetry_monotone(self):
        site, sym = lexicographic_site(["a", "b"], 3)
        report = check_symmetry(site, sym)
        assert report.ok

    def test_top_level_leaves_shift_domain(self):
        _, sym = lexicographic_site(["a"], 3)
        assert "2:a" not in sym.maps["shift1"]
        assert sym.maps["shift1"]["1:a"] == "2:a"

    def test_total_order_variant_has_singleton_classes(self):
        site, _ = lexicographic_site(["a", "b"], 2, total_order=True)
        classes = derive_classes(site)
        assert all(len(c) == 1 for c in classes.equivalence_classes)

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            lexicographic_site(["a"], 0)


class TestLiftProcess:
    def test_depth_one_single_device(self):
        atoms, xi, spaces = fixtures.two_point_field()
        model, site, sym = lift_process(
            {"z": atoms["z"]}, xi, 1, {"z": spaces["z"]}
        )
        w = EventWord.from_dict({"0:z": {"0"}}, model.spaces)
        assert _probabilities(model, site, [w])[0] == pytest.approx(1.0)

    def test_word_realizes_reversed_device_order(self):
        # device x at the lower level acts first even though the devices are
        # indexed the other way round
        atoms, xi, spaces = fixtures.two_point_field()
        model, site, _ = lift_process(atoms, xi, 2, spaces)
        w = EventWord.from_dict({"0:x": {"+"}, "1:z": {"1"}}, model.spaces)
        expected = fixtures.Z_ATOMS["1"] @ fixtures.X_ATOMS["+"] @ xi[:, None]
        assert np.allclose(model.products(site, [w])[0], expected)

    def test_quasiconstant_along_levels(self):
        atoms, xi, spaces = fixtures.two_point_field()
        model, site, _ = lift_process(atoms, xi, 3, spaces)
        for l in range(3):
            assert np.allclose(model.atoms[f"{l}:z"]["0"], atoms["z"]["0"])

    def test_ultrastationarity_exhaustive(self):
        atoms, xi, spaces = fixtures.two_point_field()
        model, site, _ = lift_process(atoms, xi, 3, spaces)
        words = enumerate_level_words(model, site)
        report = check_ultrastationarity(model, site, words)
        assert report.ok
        assert report.worst("ultrastationarity").residual <= 1e-12

    def test_shift_word_leaving_stack(self):
        atoms, xi, spaces = fixtures.two_point_field()
        model, site, _ = lift_process(atoms, xi, 2, spaces)
        w = EventWord.from_dict({"1:z": {"0"}}, model.spaces)
        assert shift_word(w, 1, 2, model.spaces) is None


class TestVerifyLift:
    def test_two_point_field_depth_three(self):
        atoms, xi, spaces = fixtures.two_point_field()
        report = verify_lift(atoms, xi, 3, spaces)
        assert report.ok, report.to_dict()
        assert report.ultrastationarity.residual <= 1e-12
        assert report.constant_units.residual <= 1e-8
        assert report.level_independent_events.residual <= 1e-8
        assert report.narrow_units.residual <= 1e-8

    def test_depth_one_degenerate(self):
        atoms, xi, spaces = fixtures.two_point_field()
        report = verify_lift(
            {"z": atoms["z"]}, xi, 1, {"z": spaces["z"]}
        )
        assert report.ok

    def test_level_dependent_devices_flagged(self):
        atoms, xi, spaces = fixtures.two_point_field()
        model, site, sym = lift_process(atoms, xi, 3, spaces)
        bad_atoms = {t: dict(f) for t, f in model.atoms.items()}
        bad_atoms["1:z"] = fixtures.rotated_atoms(0.9)
        bad = HilbertModel(
            dim=2,
            embedding=model.embedding,
            atoms=bad_atoms,
            spaces=model.spaces,
            symmetry=model.symmetry,
        )
        words = enumerate_level_words(bad, site)
        report = check_ultrastationarity(bad, site, words)
        assert not report.ok


class TestClassicalReduce:
    def test_commuting_trivial_site(self):
        model, site = fixtures.commuting_diagonal()
        red = classical_reduce(model, site)
        assert red.ok
        assert red.total_mass == pytest.approx(1.0, abs=1e-12)
        assert red.additivity_residual <= 1e-12
        assert red.marginal_residual <= 1e-12

    def test_commuting_chain_site(self):
        model, site = fixtures.commuting_diagonal(trivial_order=False)
        red = classical_reduce(model, site)
        assert red.ok
        assert red.factorization_residual <= 1e-12

    def test_single_point_measure_is_diagonal(self):
        from qsproc.sites import discrete_site
        from qsproc.words import OutcomeSpaces

        site = discrete_site(("t",))
        spaces = OutcomeSpaces({"t": ("0", "1")})
        xi = np.array([np.cos(0.4), np.sin(0.4)], dtype=complex)
        model = HilbertModel(
            dim=2, embedding=xi, atoms={"t": dict(fixtures.Z_ATOMS)}, spaces=spaces
        )
        red = classical_reduce(model, site)
        assert red.measure[("0",)] == pytest.approx(np.cos(0.4) ** 2)
        assert red.measure[("1",)] == pytest.approx(np.sin(0.4) ** 2)

    def test_noncommuting_refused_with_witness(self):
        model, site = fixtures.qubit_xz()
        with pytest.raises(ReductionRefused) as err:
            classical_reduce(model, site)
        assert err.value.witness is not None
        assert "0.5" in err.value.witness

    def test_measure_keys_cover_trajectory_space(self):
        model, site = fixtures.commuting_diagonal()
        red = classical_reduce(model, site)
        assert len(red.measure) == 4


class TestInterference:
    def test_early_slot_defect_half(self):
        model, site = fixtures.qubit_xz()
        assert interference_witness(model, site, "t1") == pytest.approx(
            0.5, abs=1e-12
        )

    def test_maximal_slot_defect_zero(self):
        model, site = fixtures.qubit_xz()
        assert interference_witness(model, site, "t2") == pytest.approx(
            0.0, abs=1e-12
        )

    def test_commuting_model_no_interference(self):
        model, site = fixtures.commuting_diagonal(trivial_order=False)
        for t in site.points:
            assert interference_witness(model, site, t) <= 1e-12

    def test_middle_slot_of_three_chain(self):
        # marginalizing a middle slot compares against all later words and
        # picks up the same disturbance as an early slot would
        from qsproc.sites import chain_site
        from qsproc.words import OutcomeSpaces

        site = chain_site(("t1", "t2", "t3"))
        spaces = OutcomeSpaces({t: ("0", "1") for t in site.points})
        atoms = {
            "t1": fixtures.rotated_atoms(0.0),
            "t2": fixtures.rotated_atoms(np.pi / 4),  # maximally slanted
            "t3": fixtures.rotated_atoms(0.0),
        }
        model = HilbertModel(
            dim=2, embedding=fixtures.KET0, atoms=atoms, spaces=spaces
        )
        assert interference_witness(model, site, "t2") == pytest.approx(0.5, abs=1e-12)
        assert interference_witness(model, site, "t3") == pytest.approx(0.0, abs=1e-12)

    def test_defect_matches_commutativity_verdict(self):
        # zero defect at every slot exactly when the model commutes
        from qsproc.markov import check_narrow_commutativity

        for builder in (
            lambda: fixtures.commuting_diagonal(trivial_order=False),
            fixtures.qubit_xz,
        ):
            model, site = builder()
            defects = max(
                interference_witness(model, site, t) for t in site.points
            )
            commuting = check_narrow_commutativity(model, site).worst(
                "narrow_commutativity"
            ).ok
            assert (defects <= 1e-12) == commuting

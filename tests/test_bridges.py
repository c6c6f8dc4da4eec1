"""Level lifts, classical reduction, interference."""

import numpy as np
import pytest

from qsproc import fixtures, linalg
from qsproc.bridges import (
    ReductionRefused,
    _probabilities,
    check_ultrastationarity,
    classical_reduce,
    enumerate_level_words,
    interference_witness,
    level_point,
    lexicographic_site,
    lift_process,
    verify_lift,
)
from qsproc.kernels import check_covariance
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


def shifted_product_residual(model, site, words):
    """Reference: the largest kernel gap between every word pair and the pair
    shifted k levels up, the shifted words' products formed directly, over
    the pairs whose shift stays in the stack."""
    depth = site.meta["depth"]
    feyn = model.products(site, words)
    worst = 0.0
    for k in range(1, depth):
        kept, moved = [], []
        for i, w in enumerate(words):
            levels = [(int(l), x) for l, x in (t.split(":", 1) for t, _ in w.factors)]
            if all(l + k < depth for l, _ in levels):
                kept.append(i)
                moved.append(EventWord.from_dict(
                    {level_point(l + k, x): b
                     for (l, x), (_, b) in zip(levels, w.factors)},
                    model.spaces,
                ))
        diff = linalg.pair_blocks(feyn[kept]) - linalg.pair_blocks(
            model.products(site, moved))
        worst = max(worst, linalg.worst_block(diff)[0])
    return worst


class TestUltrastationarity:
    """Ultrastationarity is the covariance of the lifted table under the
    level shifts, pinned against the shifted-word product comparison."""

    ROTATED = fixtures.rotated_atoms(0.9)

    def level_dependent(self, point, declare_symmetry):
        """The depth-3 lift of the two-point field with the atoms at `point`
        rotated (relabelled to the outcomes there)."""
        atoms, xi, spaces = fixtures.two_point_field()
        model, site, _ = lift_process(atoms, xi, 3, spaces)
        bad_atoms = {t: dict(f) for t, f in model.atoms.items()}
        outs = model.spaces.outcomes(point)
        bad_atoms[point] = dict(zip(outs, self.ROTATED.values()))
        bad = HilbertModel(
            dim=2,
            embedding=model.embedding,
            atoms=bad_atoms,
            spaces=model.spaces,
            symmetry=model.symmetry if declare_symmetry else {},
        )
        return bad, site

    @pytest.mark.parametrize("declare_symmetry", [True, False])
    @pytest.mark.parametrize("point, residual", [
        ("1:z", 0.7937243391123694), ("2:x", 0.11360104734654358),
    ])
    def test_pinned_residual_on_level_dependent_lift(self, point, residual, declare_symmetry):
        bad, site = self.level_dependent(point, declare_symmetry)
        words = enumerate_level_words(bad, site)
        entry = check_ultrastationarity(bad, site, words).checks[0]
        assert not entry.ok
        assert entry.residual == pytest.approx(residual, rel=1e-12)
        assert entry.residual == pytest.approx(
            shifted_product_residual(bad, site, words), rel=1e-12)
        assert entry.witness.startswith("'shift1' on pair (")

    def test_undeclared_symmetry_is_vacuous_covariance(self):
        # the model's own (empty) symmetry makes covariance pass; the level
        # shifts come from the site
        bad, site = self.level_dependent("1:z", declare_symmetry=False)
        oracle = bad.kernel_table(site, enumerate_level_words(bad, site))
        check = check_covariance(oracle)
        assert check.ok and check.witness == "no symmetry declared (trivial action)"

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_matches_reference_on_the_lift(self, depth):
        atoms, xi, spaces = fixtures.two_point_field()
        model, site, _ = lift_process(atoms, xi, depth, spaces)
        words = enumerate_level_words(model, site)
        entry = check_ultrastationarity(model, site, words).checks[0]
        assert entry.residual == shifted_product_residual(model, site, words) == 0.0
        assert entry.witness == ""

    @pytest.mark.parametrize("drop, direction", [
        ({"0:z": {"0"}}, "transported word"),  # its shift up is listed
        ({"2:z": {"0"}}, "shifted by 'shift1'"),  # its pull-back is listed
    ])
    def test_word_list_not_closed_refused(self, drop, direction):
        atoms, xi, spaces = fixtures.two_point_field()
        model, site, _ = lift_process(atoms, xi, 3, spaces)
        gone = EventWord.from_dict(drop, model.spaces)
        words = [w for w in enumerate_level_words(model, site) if w != gone]
        with pytest.raises(ValueError, match=direction):
            check_ultrastationarity(model, site, words)
        with pytest.raises(ValueError, match=direction):
            verify_lift(atoms, xi, 3, spaces, words)


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

    def test_unequal_outcome_counts(self):
        # three outcomes at one point, two at the other: the measure's axes
        # differ in length, and every cylinder and marginal still sums
        from qsproc.sites import discrete_site
        from qsproc.words import OutcomeSpaces

        site = discrete_site(("a", "b"))
        spaces = OutcomeSpaces({"a": ("0", "1", "2"), "b": ("u", "v")})
        e = [np.diag(np.eye(3)[i]).astype(complex) for i in range(3)]
        atoms = {"a": dict(zip("012", e)), "b": {"u": e[0] + e[1], "v": e[2]}}
        xi = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
        model = HilbertModel(dim=3, embedding=xi, atoms=atoms, spaces=spaces)
        red = classical_reduce(model, site)
        assert red.ok
        for (x, y), p in red.measure.items():
            i = int(x)
            assert p == pytest.approx(xi[i] ** 2 if (i < 2) == (y == "u") else 0.0)
        assert red.additivity_residual <= 1e-15
        assert red.marginal_residual <= 1e-15

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

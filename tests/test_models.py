"""Measurement models: chronological products, kernels, validation."""

import dataclasses
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qsproc
from qsproc import fixtures, linalg, serialize
from qsproc.bridges import _probabilities, classical_reduce, interference_witness
from qsproc.models import HilbertModel, check_model
from qsproc.sites import CausalSite, SiteSymmetry, chain_site
from qsproc.words import EventWord, OutcomeSpaces, enumerate_words, unit_word


@pytest.fixture
def qubit():
    return fixtures.qubit_zx()


def w(model, d):
    return EventWord.from_dict(d, model.spaces)


def product(model, site, word):
    return model.products(site, [word])[0]


def probability(model, site, word):
    return _probabilities(model, site, [word])[0]


def kernel(model, site, a, b):
    """The kernel value of a pair: the first product's adjoint times the
    second."""
    fa, fb = model.products(site, [a, b])
    return linalg.dagger(fa) @ fb


class TestFeynman:
    def test_unit_word_is_embedding(self, qubit):
        model, site = qubit
        assert np.allclose(product(model, site, unit_word()), model.embedding)

    def test_two_time_product(self, qubit):
        model, site = qubit
        f = product(model, site, w(model, {"t1": {"0"}, "t2": {"+"}}))
        assert np.allclose(f.ravel(), [0.5, 0.5])

    def test_annihilated_branch(self, qubit):
        model, site = qubit
        f = product(model, site, w(model, {"t1": {"1"}, "t2": {"+"}}))
        assert np.allclose(f, 0.0)

    def test_unknown_outcome(self, qubit):
        model, site = qubit
        with pytest.raises(KeyError):
            model.point_projector("t1", {"zz"})


class TestProbability:
    def test_two_time(self, qubit):
        model, site = qubit
        assert probability(model, site, w(model, {"t1": {"0"}, "t2": {"+"}})) == pytest.approx(0.5)

    def test_unit_is_normalized(self, qubit):
        model, site = qubit
        assert probability(model, site, unit_word()) == pytest.approx(1.0)

    def test_orthogonal_start(self, qubit):
        model, site = qubit
        assert probability(model, site, w(model, {"t1": {"1"}})) == pytest.approx(0.0)

    def test_needs_scalar_initial_space(self):
        # the checks that read scalar probabilities refuse a wider initial space
        model, site = fixtures.diagonal_kdim2()
        with pytest.raises(ValueError, match="scalar initial space"):
            classical_reduce(model, site)
        with pytest.raises(ValueError, match="scalar initial space"):
            interference_witness(model, site, site.points[0])

    def test_additivity_at_last_slot(self, qubit):
        model, site = qubit
        total = sum(
            probability(model, site, w(model, {"t1": {"0"}, "t2": {m}}))
            for m in ("+", "-")
        )
        assert total == pytest.approx(
            probability(model, site, w(model, {"t1": {"0"}}))
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_probabilities_within_unit_interval(self, seed):
        model, site = fixtures.random_valid_model(seed)
        words = enumerate_words(site, model.spaces)
        for word, p in zip(words, _probabilities(model, site, words)):
            assert -1e-12 <= p <= 1.0 + 1e-12
            assert p == pytest.approx(
                float(np.real(kernel(model, site, word, word)[0, 0]))
            )


class TestKernel:
    def test_orthogonal_words(self, qubit):
        model, site = qubit
        a = w(model, {"t1": {"0"}, "t2": {"+"}})
        b = w(model, {"t1": {"1"}, "t2": {"+"}})
        assert abs(kernel(model, site, a, b)[0, 0]) == 0.0

    def test_unit_pair_is_identity(self, qubit):
        model, site = qubit
        assert np.allclose(kernel(model, site, unit_word(), unit_word()), np.eye(1))

    def test_cross_value(self, qubit):
        model, site = qubit
        a = w(model, {"t1": {"0"}})
        b = w(model, {"t1": {"0"}, "t2": {"+"}})
        assert kernel(model, site, a, b)[0, 0] == pytest.approx(0.5)

    def test_extension_invariance(self, qubit):
        # projective consistency: unit factors never change the kernel
        model, site = qubit
        a = w(model, {"t1": {"0"}})
        a_ext = w(model, {"t1": {"0"}, "t2": {"+", "-"}})
        assert a == a_ext
        b = w(model, {"t2": {"-"}})
        assert np.allclose(kernel(model, site, a, b), kernel(model, site, a_ext, b))


class TestKernelTable:
    def test_unit_only(self, qubit):
        model, site = qubit
        oracle = model.kernel_table(site, [unit_word()])
        assert oracle.table.shape == (1, 1, 1, 1)
        assert oracle.table[0, 0, 0, 0] == pytest.approx(1.0)

    def test_matches_pointwise_kernel(self, qubit):
        model, site = qubit
        words = enumerate_words(site, model.spaces, policy="atoms_plus_unit")
        oracle = model.kernel_table(site, words)
        assert len(words) == 9
        for i, a in enumerate(words):
            for j, b in enumerate(words):
                assert np.allclose(oracle.table[i, j], kernel(model, site, a, b))

    def test_hermitian_symmetry(self, qubit):
        model, site = qubit
        words = enumerate_words(site, model.spaces)
        oracle = model.kernel_table(site, words)
        assert linalg.pivoted_cholesky(oracle.gram()).hermitian_defect < 1e-12

    @pytest.mark.parametrize("seed", [1, 2])
    def test_table_c_contiguous(self, seed):
        # stored in C order, with the bytes of the pair-block product
        model, site = fixtures.random_valid_model(seed)
        words = enumerate_words(site, model.spaces)
        oracle = model.kernel_table(site, words)
        assert oracle.table.flags.c_contiguous
        expected = linalg.pair_blocks(model.products(site, words))
        assert oracle.table.tobytes() == expected.tobytes()  # C-order bytes

    def test_empty_site_unit_table(self):
        from qsproc.sites import CausalSite

        site = CausalSite(points=(), leq=())
        spaces = OutcomeSpaces({})
        model = HilbertModel(
            dim=1, embedding=np.array([[1.0]]), atoms={}, spaces=spaces
        )
        words = enumerate_words(site, spaces)
        assert words == [unit_word()]
        oracle = model.kernel_table(site, words)
        assert oracle.table[0, 0, 0, 0] == pytest.approx(1.0)

    def test_symmetry_leaving_the_site_refused(self):
        # the library refuses the map itself, before any word filter reads it
        model, site = fixtures.galilean_shift_fixture()
        words = enumerate_words(site, model.spaces)
        oracle = model.kernel_table(site, words)
        sym = site.symmetry
        bad_maps = {**sym.maps, "s1": {"g0": "g1", "g1": "zz"}}
        bad = SiteSymmetry(sym.elements, bad_maps, sym.compose)
        message = "symmetry element 's1' maps 'g1' to 'zz', outside the site's points"
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(site, symmetry=bad)
        # a table's maps act on its site, so the table reader refuses them too
        table = serialize.oracle_to_json(oracle)
        table["symmetry"]["s1"]["map"] = bad_maps["s1"]
        with pytest.raises(ValueError, match=message):
            serialize.oracle_from_json(table)


class TestCheckModel:
    def test_qubit_valid(self, qubit):
        model, site = qubit
        assert check_model(model, site).ok

    def test_random_models_valid(self):
        for seed in (0, 1, 2):
            model, site = fixtures.random_valid_model(seed)
            report = check_model(model, site)
            assert report.ok, report.to_dict()

    def test_each_point_projector_is_formed_once(self, monkeypatch):
        # the resolution, compatibility, algebra and covariance sections and
        # the unit methods (`unit_p`, `slice_projector`) all read the one
        # projector the model formed per (point, event): each point's unit
        # is formed once per model, however many sections read it
        handed = {}  # (point, event) -> every projector handed out for it
        point_projector = HilbertModel.point_projector

        def spy(model, t, b):
            out = point_projector(model, t, b)
            handed.setdefault((t, frozenset(b)), []).append(out)
            return out

        monkeypatch.setattr(HilbertModel, "point_projector", spy)
        for model, site in (fixtures.controlled_kdim2(), fixtures.galilean_shift_fixture(),
                            fixtures.random_valid_model(0)[:2]):
            handed.clear()
            check_model(model, site)
            assert all(len({id(p) for p in ps}) == 1 for ps in handed.values())
            units = [handed[t, model.spaces.full(t)] for t in site.points]
            assert all(len(ps) > 1 for ps in units)  # read again, not formed again
            assert not units[0][0].flags.writeable

    def test_broken_projector_flagged(self, qubit):
        model, site = qubit
        atoms = {t: dict(f) for t, f in model.atoms.items()}
        atoms["t2"] = dict(atoms["t2"])
        atoms["t2"]["+"] = np.array([[1, 1], [0, 0]], dtype=complex)  # idempotent, not Hermitian
        bad = HilbertModel(
            dim=2, embedding=model.embedding, atoms=atoms, spaces=model.spaces
        )
        report = check_model(bad, site)
        assert not report.ok
        assert any(e.name == "projector" for e in report.violations())

    def test_noncommuting_independent_pair_flagged(self):
        site = CausalSite(points=("a", "b"), leq=((True, False), (False, True)))
        spaces = OutcomeSpaces({"a": ("0", "1"), "b": ("+", "-")})
        atoms = {"a": dict(fixtures.Z_ATOMS), "b": dict(fixtures.X_ATOMS)}
        model = HilbertModel(
            dim=2, embedding=fixtures.KET0, atoms=atoms, spaces=spaces
        )
        report = check_model(model, site)
        assert not report.ok
        assert any(
            e.name == "independent_compatibility" for e in report.violations()
        )

    def test_noncommuting_equivalent_pair_flagged(self):
        from qsproc.sites import discrete_site

        site = discrete_site(("a", "b"))
        spaces = OutcomeSpaces({"a": ("0", "1"), "b": ("+", "-")})
        atoms = {"a": dict(fixtures.Z_ATOMS), "b": dict(fixtures.X_ATOMS)}
        model = HilbertModel(
            dim=2, embedding=fixtures.KET0, atoms=atoms, spaces=spaces
        )
        report = check_model(model, site)
        assert any(
            e.name == "equivalent_compatibility" for e in report.violations()
        )

    def test_narrow_unit_balance(self, qubit):
        model, site = qubit
        report = check_model(model, site)
        entry = report.worst("unit_balance")
        assert entry is not None and entry.ok

    def test_unit_balance_defect_flagged(self, qubit):
        # an essential unit larger than the slice's event units breaks the
        # balance between the two families
        model, site = qubit
        from qsproc.equivalence import minimal_modification

        small = minimal_modification(fixtures.ancilla_correlated()[0], site)
        units_i = dict(small.units_i)
        units_i[frozenset({"t1"})] = np.eye(small.dim, dtype=complex)
        bad = HilbertModel(
            dim=small.dim,
            embedding=small.embedding,
            atoms=small.atoms,
            spaces=small.spaces,
            units_p=small.units_p,
            units_i=units_i,
        )
        report = check_model(bad, site)
        assert any(e.name == "unit_balance" for e in report.violations())

    def test_wide_units_accepted(self, qubit):
        # canonical compression keeps the model valid with nontrivial units
        from qsproc.equivalence import minimal_modification

        model, site = fixtures.ancilla_correlated()
        small = minimal_modification(model, site)
        report = check_model(small, site)
        assert report.ok, report.to_dict()
        assert not small.is_narrow(site)

    def test_resolution_of_three_outcomes(self):
        site = chain_site(("t1", "t2"))
        spaces = OutcomeSpaces({t: ("a", "b", "c") for t in site.points})
        u = linalg.random_unitary(np.random.default_rng(3), 3)
        basis = [np.diag(np.eye(3)[i]).astype(complex) for i in range(3)]
        atoms = {
            "t1": dict(zip("abc", basis)),
            "t2": {x: u @ p @ linalg.dagger(u) for x, p in zip("abc", basis)},
        }
        model = HilbertModel(dim=3, embedding=np.eye(3)[:, :1], atoms=atoms, spaces=spaces)
        report = check_model(model, site)
        assert report.ok, report.to_dict()
        assert report.worst("resolution").residual <= 1e-15

    def test_resolution_defect_flagged(self, qubit):
        # a declared point unit that the atoms do not sum to
        model, site = qubit
        bad = dataclasses.replace(
            model, units_p={frozenset({"t2"}): np.diag([0.0, 1.0]).astype(complex)}
        )
        entry = check_model(bad, site).worst("resolution")
        assert not entry.ok
        assert entry.residual == pytest.approx(1.0)
        assert entry.witness == "sum of the atoms at 't2'"

    def test_symmetry_covariance_entry(self):
        model, site = fixtures.galilean_shift_fixture()
        report = check_model(model, site)
        assert report.ok
        broken, siteb = fixtures.galilean_shift_fixture(broken=True)
        report_b = check_model(broken, siteb)
        assert any(e.name == "covariance" for e in report_b.violations())

    @staticmethod
    def swapped_v():
        """The Galilean model with the Pauli X, which does not intertwine
        the shifted devices, as the isometry of 's1'."""
        model, site = fixtures.galilean_shift_fixture()
        symmetry = dict(model.symmetry)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        symmetry["s1"] = dataclasses.replace(symmetry["s1"], op=x)
        return dataclasses.replace(model, symmetry=symmetry), site

    def test_covariance_fails_at_the_site_action(self):
        bad, site = self.swapped_v()
        entry = check_model(bad, site)["covariance"]
        assert entry.status == "fail"
        assert entry.residual == pytest.approx(0.6967067093471655, rel=1e-9)
        assert entry.witness == "'s1' at 'g0' with event ['0']"

    @pytest.mark.parametrize("acted, missing", [((), "s0"), (("s0",), "s1")])
    def test_covariance_without_a_site_action_is_inconclusive(self, acted, missing):
        # an element the site does not act by leaves its intertwining
        # unchecked, so the verdict cannot be a pass
        bad, site = self.swapped_v()
        maps = {s: site.symmetry.maps[s] for s in acted}
        unacted = dataclasses.replace(
            site, symmetry=SiteSymmetry(tuple(maps), maps, {}) if acted else None)
        report = check_model(bad, unacted)
        entry = report["covariance"]
        assert entry.status == "inconclusive"
        assert entry.witness == f"model symmetry {missing!r} has no site action"
        assert not report.ok and not report.failed
        with pytest.raises(ValueError, match=f"^model symmetry {missing!r} has no site"):
            bad.kernel_table(unacted, enumerate_words(unacted, bad.spaces))

    @pytest.mark.parametrize("element, image", [("s1", "g1"), ("s2", "g2")])
    def test_covariance_with_a_partial_outcome_map_is_inconclusive(self, element, image):
        # an element whose outcome maps miss a point the site maps leaves its
        # relations unchecked; the other elements' are still checked
        bad, site = self.swapped_v()
        symmetry = dict(bad.symmetry)
        g = {t: m for t, m in symmetry[element].outcome_maps.items() if t != "g0"}
        symmetry[element] = dataclasses.replace(symmetry[element], outcome_maps=g)
        report = check_model(dataclasses.replace(bad, symmetry=symmetry), site)
        entry = report["covariance"]
        assert entry.status == "inconclusive"
        assert entry.witness == (f"symmetry {element!r} outcome map at 'g0' is not an "
                                 f"injection of the outcomes at 'g0' into those at {image!r}")
        assert not report.ok and not report.failed
        # the swapped v of s1 breaks its relations, checked unless s1 is skipped
        assert (entry.residual > 0.5) == (element == "s2")

    def test_unit_monotone_witness_independent_of_hash_seed(self):
        # the compared unit blocks are frozensets, whose set order follows
        # the string-hash seed; the residuals of ['g0'] <= ['g1'] and
        # ['g1'] <= ['g1'] tie below the initial projector's
        script = (
            "from qsproc import fixtures\n"
            "from qsproc.equivalence import minimal_modification\n"
            "from qsproc.models import check_model\n"
            "model, site = fixtures.galilean_shift_fixture()\n"
            "small = minimal_modification(model, site)\n"
            "entry = check_model(small, site)"
            ".worst('unit_monotone')\n"
            "print(repr(entry.residual), entry.witness)\n"
        )
        src = str(pathlib.Path(qsproc.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        seen = {
            subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True,
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
                check=True, timeout=300,
            ).stdout
            for seed in ("1", "2")
        }
        assert len(seen) == 1
        assert seen.pop().split(" ", 1)[1] == "[] <= []\n"

    def test_unit_below_the_initial_projector_flagged(self, qubit):
        # I_t1 = 1 - P0 nests under the later identity unit and is a
        # projector; only the empty base shows that it misses P0
        model, site = qubit
        bad = dataclasses.replace(
            model, units_i={frozenset({"t1"}): np.diag([0.0, 1.0]).astype(complex)}
        )
        entry = check_model(bad, site).worst("unit_monotone")
        assert not entry.ok
        assert entry.residual == pytest.approx(1.0)
        assert entry.witness == "[] <= ['t1']"

    def test_non_hermitian_idempotent_unit_flagged(self, qubit):
        # I_t1 = [[1, 1], [0, 0]] is idempotent and contains P0; only the
        # I_k* term on the diagonal pair shows that it is not a projector
        model, site = qubit
        unit = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        bad = dataclasses.replace(model, units_i={frozenset({"t1"}): unit})
        entry = check_model(bad, site).worst("unit_monotone")
        assert not entry.ok
        assert entry.residual == pytest.approx(np.sqrt(2.0))
        assert entry.witness == "['t1'] <= ['t1']"


class TestNarrowFlag:
    def test_qubit_is_narrow(self, qubit):
        model, site = qubit
        assert model.is_narrow(site)

    def test_compressed_ancilla_is_wide(self):
        from qsproc.equivalence import minimal_modification

        model, site = fixtures.ancilla_correlated()
        assert model.is_narrow(site)
        small = minimal_modification(model, site)
        assert not small.is_narrow(site)

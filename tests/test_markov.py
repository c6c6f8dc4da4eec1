"""Conditional Markov structure: algebras, dynamicity, regression, relaxation."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qsproc
from qsproc import fixtures, serialize
from qsproc.config import RunConfig
from qsproc.equivalence import minimal_modification
from qsproc.markov import (
    check_dynamicity,
    check_narrow_commutativity,
    check_regression,
    _ordered_slices,
    check_relaxation,
    generate_algebra,
)
from qsproc.models import HilbertModel
from qsproc.sites import CausalSite, chain_site, galilean_site
from qsproc.words import OutcomeSpaces


class TestGenerateAlgebra:
    def test_identity_alone(self):
        alg = generate_algebra([np.eye(2)], np.eye(2))
        assert alg.dimension == 1

    def test_two_slanted_projectors_generate_everything(self):
        p0 = fixtures.Z_ATOMS["0"]
        pp = fixtures.X_ATOMS["+"]
        alg = generate_algebra([p0, pp], np.eye(2))
        assert alg.dimension == 4

    def test_commuting_diagonal_projectors(self):
        p0 = fixtures.Z_ATOMS["0"]
        p1 = fixtures.Z_ATOMS["1"]
        alg = generate_algebra([p0, p1], np.eye(2))
        assert alg.dimension == 2

    def test_membership_distance(self):
        p0 = fixtures.Z_ATOMS["0"]
        alg = generate_algebra([p0], np.eye(2))
        assert alg.membership_distance(fixtures.Z_ATOMS["1"]) < 1e-12
        assert alg.membership_distance(fixtures.X_ATOMS["+"]) > 0.1


@pytest.fixture(scope="module")
def chain3():
    return fixtures.tensor_chain(3)


class TestDynamicity:
    def test_tensor_chain_passes(self, chain3):
        model, site = chain3
        report = check_dynamicity(model, site)
        assert report.ok, report.to_dict()

    def test_qubit_scalar_algebra_fails_with_witness(self):
        model, site = fixtures.qubit_zx()
        report = check_dynamicity(model, site)
        assert not report.ok
        worst = report.worst("dynamicity")
        assert "'+'" in worst.witness or "+" in worst.witness
        assert worst.witness.endswith("slice ['t1']")

    def test_weak_commutativity_consequence(self, chain3):
        model, site = chain3
        report = check_dynamicity(model, site)
        assert report.worst("weak_commutativity").residual <= 1e-8

    def test_commuting_chain_passes(self):
        # outright commutativity with trivial controlling algebra implies
        # the conditional Markov property
        model, site = fixtures.commuting_diagonal(trivial_order=False)
        small = minimal_modification(model, site)
        assert check_narrow_commutativity(model, site).ok
        assert check_dynamicity(small, site).ok

    def test_reconstruction_inherits_markov_property(self, chain3):
        # a table satisfying the regression form reconstructs to a process
        # that is itself conditionally Markov
        from qsproc.reconstruct import reconstruct
        from qsproc.words import enumerate_words

        model, site = chain3
        words = enumerate_words(site, model.spaces)
        recon = reconstruct(model.kernel_table(site, words))
        assert check_dynamicity(recon.model, site).ok


class TestRegression:
    def test_tensor_chain_reproduces_kernel(self, chain3):
        model, site = chain3
        report = check_regression(model, site)
        assert report.ok, report.to_dict()
        assert report.worst("regression").residual <= 1e-8

    def test_composition_identities(self, chain3):
        model, site = chain3
        report = check_regression(model, site)
        assert report.worst("regression_composition").residual <= 1e-10

    @pytest.mark.parametrize("site", [
        chain_site(("t1", "t2", "t3", "t4")),
        galilean_site([0, 0, 1, 2], ["a", "b", "c", "d"]),
    ])
    def test_slices_ordered_by_down_sets(self, site):
        # the same site with its points listed latest first lists its
        # slices backwards
        backwards = CausalSite(points=site.points[::-1],
                               leq=tuple(row[::-1] for row in site.leq[::-1]))
        assert backwards.maximal_antichains == site.maximal_antichains[::-1]
        slices = _ordered_slices(backwards)
        assert slices == list(site.maximal_antichains)
        for a, b in zip(slices, slices[1:]):
            assert site.subset_le(a, b) and not site.subset_le(b, a)

    def test_unit_pair_normalized(self):
        model, site = fixtures.tensor_chain(2)
        from qsproc.words import unit_word

        report = check_regression(model, site, words=[unit_word()])
        assert report.ok

    def test_incomparable_slices_inconclusive(self):
        # two spacelike-separated timelike chains: the slices {a, d} and
        # {b, c} are incomparable, so the nested form is undefined
        from qsproc.sites import minkowski_site

        site = minkowski_site(
            [(0, 0), (1, 0), (0, 10), (1, 10)], c=1, labels=("a", "b", "c", "d")
        )
        spaces = OutcomeSpaces({t: ("0", "1") for t in site.points})
        basis = fixtures.rotated_atoms(0.2)
        model = HilbertModel(
            dim=2,
            embedding=fixtures.KET0,
            atoms={t: dict(basis) for t in site.points},
            spaces=spaces,
        )
        report = check_regression(model, site)
        entry = report.worst("regression")
        assert not entry.ok
        assert "not totally ordered" in entry.witness


class TestNarrowCommutativity:
    def test_commuting_model_passes_and_factorizes(self):
        model, site = fixtures.commuting_diagonal(trivial_order=False)
        report = check_narrow_commutativity(model, site)
        assert report.ok
        fact = report.worst("complete_factorization")
        assert fact is not None and fact.residual <= 1e-9

    def test_qubit_fails_with_half_commutator(self):
        model, site = fixtures.qubit_zx()
        report = check_narrow_commutativity(model, site)
        worst = report.worst("narrow_commutativity")
        assert not worst.ok
        assert worst.residual == pytest.approx(0.5, abs=1e-12)

    def test_single_time_vacuous(self):
        site = chain_site(("t",))
        spaces = OutcomeSpaces({"t": ("0", "1")})
        model = HilbertModel(
            dim=2,
            embedding=fixtures.KET0,
            atoms={"t": dict(fixtures.Z_ATOMS)},
            spaces=spaces,
        )
        assert check_narrow_commutativity(model, site).ok

    def test_wide_model_rejected(self):
        model, site = fixtures.ancilla_correlated()
        small = minimal_modification(model, site)
        with pytest.raises(ValueError, match="narrow"):
            check_narrow_commutativity(small, site)


class TestRelaxation:
    def test_regular_chain_passes(self):
        model, site = fixtures.tensor_chain(2, eigen_aligned_first=True)
        report = check_relaxation(model, site)
        assert report.ok, report.to_dict()

    def test_ancilla_fails_independence(self):
        model, site = fixtures.ancilla_correlated()
        report = check_relaxation(model, site)
        assert not report.ok
        assert report.worst("relaxation").residual > 0.1
        assert report.worst("limit_state_independence").residual > 0.1

    def test_independence_is_reported_as_one_seeded_sample(self):
        # one rotation per smallest slice: the residual is that draw's, so the
        # witness names the draw and its seed and does not read as a supremum
        model, site = fixtures.ancilla_correlated()
        for seed, residual in ((0, 0.252), (1, 0.410), (7, 0.701)):
            report = check_relaxation(model, site, RunConfig(seed=seed))
            check = report["limit_state_independence"]
            assert check.residual == pytest.approx(residual, abs=1e-3)
            assert check.witness == (
                "limit state on slice ['t1'] after replacing the measurements on "
                f"['t1'] by random rotation 0 of seed {seed}: one sample, not a supremum")

    def test_trivial_device_trivially_relaxes(self):
        site = chain_site(("t1", "t2"))
        spaces = OutcomeSpaces({"t1": ("x",), "t2": ("0", "1")})
        atoms = {
            "t1": {"x": np.eye(2, dtype=complex)},
            "t2": dict(fixtures.Z_ATOMS),
        }
        model = HilbertModel(
            dim=2,
            embedding=np.array([np.cos(0.3), np.sin(0.3)], dtype=complex),
            atoms=atoms,
            spaces=spaces,
        )
        report = check_relaxation(model, site)
        assert report.ok, report.to_dict()


@pytest.mark.parametrize("seed", [0, 3])
def test_markov_check_independent_of_hash_seed(tmp_path, seed):
    # an event of three or more outcomes sums its atoms; summed in set order,
    # which follows the string-hash seed, the rounding moved from run to run
    model, site = fixtures.random_valid_model(seed)
    assert max(len(model.spaces.outcomes(t)) for t in site.points) >= 3
    files = {"model.json": serialize.model_to_json(model),
             "site.json": serialize.site_to_json(site)}
    for name, data in files.items():
        (tmp_path / name).write_text(serialize.dumps(data))
    script = "import sys\nfrom qsproc import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
    src = str(pathlib.Path(qsproc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    runs = {
        (done.returncode, done.stdout, done.stderr)
        for hash_seed in ("1", "2")
        for done in [subprocess.run(
            [sys.executable, "-c", script, "markov", "check", *files],
            capture_output=True, text=True, cwd=tmp_path, timeout=300,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path),
        )]
    }
    assert len(runs) == 1
    code, stdout, _ = runs.pop()
    assert code in (0, 1) and stdout

"""Wide-sense equivalence, minimal compression, intertwining unitaries."""

import dataclasses
import json

import numpy as np
import pytest

from qsproc import cli, fixtures, linalg, serialize
from qsproc.equivalence import (
    EquivalenceRefused,
    build_unitary,
    check_model_relation,
    check_wide_equivalence,
    minimal_modification,
)
from qsproc.linalg import dagger, opnorm
from qsproc.models import HilbertModel, ProductPlan
from qsproc.reconstruct import reconstruct
from qsproc.sites import chain_site
from qsproc.words import OutcomeSpaces, enumerate_words


def is_minimal(model, site, words) -> bool:
    """Compressing a minimal model to the span of its products keeps its
    dimension."""
    return minimal_modification(model, site, words).dim == model.dim


def random_isometry(rng, n: int, m: int) -> np.ndarray:
    return linalg.random_unitary(rng, n)[:, :m]


def eps_model(eps: float):
    """One-point qubit with Z atoms and initial vector along (1, eps): the
    second direction carries a Gram eigenvalue of about eps^2 times the
    largest, below the default rank cut for eps <= 1e-5, and a singular
    value above it."""
    site = chain_site(("t1",))
    xi = np.array([1.0, eps], dtype=complex) / np.hypot(1.0, eps)
    model = HilbertModel(
        dim=2, embedding=xi, atoms={"t1": dict(fixtures.Z_ATOMS)},
        spaces=OutcomeSpaces({"t1": ("0", "1")}),
    )
    return model, site


@pytest.fixture(scope="module")
def qubit():
    model, site = fixtures.qubit_zx()
    words = enumerate_words(site, model.spaces)
    return model, site, words


class TestMinimalModification:
    def test_already_minimal_keeps_dimension(self, qubit):
        model, site, words = qubit
        small = minimal_modification(model, site, words)
        assert small.dim == model.dim
        verdict = check_wide_equivalence(model, small, site, words)
        assert verdict.ok

    def test_padded_model_shrinks(self, qubit):
        model, site, words = qubit
        padded = fixtures.with_untouched_ancilla(model, 3)
        small = minimal_modification(padded, site, words)
        assert small.dim == padded.dim - 3
        assert check_wide_equivalence(padded, small, site, words).ok

    def test_kernel_table_preserved(self, qubit):
        model, site, words = qubit
        small = minimal_modification(model, site, words)
        verdict = check_wide_equivalence(model, small, site, words)
        assert verdict.residual < 1e-12

    def test_minimality_flag(self, qubit):
        model, site, words = qubit
        padded = fixtures.with_untouched_ancilla(model, 2)
        assert is_minimal(model, site, words)
        assert not is_minimal(padded, site, words)
        assert is_minimal(minimal_modification(padded, site, words), site, words)


class TestRankAgreement:
    """Minimal models, the reconstruction and the unitary share one rank
    cut, on Gram eigenvalues."""

    @pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-8])
    def test_minimal_dimension_is_reconstructed_rank(self, eps):
        model, site = eps_model(eps)
        words = enumerate_words(site, model.spaces)
        recon = reconstruct(model.kernel_table(site, words))
        assert minimal_modification(model, site, words).dim == recon.rank == 1

    @pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-8])
    def test_cli_unitary_of_model_with_itself(self, tmp_path, capsys, eps):
        model, site = eps_model(eps)
        model_file = tmp_path / "model.json"
        site_file = tmp_path / "site.json"
        model_file.write_text(serialize.dumps(serialize.model_to_json(model)))
        site_file.write_text(serialize.dumps(serialize.site_to_json(site)))
        argv = ["equiv", "unitary", str(model_file), str(model_file), str(site_file)]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["morphism"]["ok"] is True
        assert report["dimensions"] == {"first_minimal": 1, "second_minimal": 1}


class TestWideEquivalence:
    def test_model_vs_itself(self, qubit):
        model, site, words = qubit
        assert check_wide_equivalence(model, model, site, words).ok

    def test_different_second_basis_not_equivalent(self, qubit):
        model, site, words = qubit
        atoms = {
            "t1": dict(fixtures.Z_ATOMS),
            "t2": {"+": fixtures.Z_ATOMS["0"], "-": fixtures.Z_ATOMS["1"]},
        }
        other = HilbertModel(
            dim=2, embedding=model.embedding, atoms=atoms, spaces=model.spaces
        )
        verdict = check_wide_equivalence(model, other, site, words)
        assert not verdict.ok
        assert verdict.witness

    def test_mismatched_initial_spaces_rejected(self, qubit):
        model, site, words = qubit
        other, _ = fixtures.diagonal_kdim2()
        with pytest.raises(ValueError, match="initial spaces"):
            check_wide_equivalence(model, other, site, words)

    @pytest.mark.parametrize("builder", [fixtures.controlled_kdim2, fixtures.diagonal_kdim2])
    def test_gram_blocks_are_the_pair_blocks(self, builder):
        # the verdict reads the Gram matrices, pinned to the kernel tables'
        # pair blocks bit for bit
        model, site = builder()
        words = enumerate_words(site, model.spaces)
        rotation = linalg.random_unitary(np.random.default_rng(5), 2)
        other = dataclasses.replace(model, embedding=model.embedding @ rotation)
        ref, at = linalg.worst_block(
            linalg.pair_blocks(model.products(site, words))
            - linalg.pair_blocks(other.products(site, words))
        )
        verdict = check_wide_equivalence(model, other, site, words)
        assert verdict.residual == ref > 0.0
        assert verdict.witness == f"pair (word {at[0]}, word {at[1]})"


class TestBuildUnitary:
    def test_reconstruction_vs_minimal_modification(self, qubit):
        model, site, words = qubit
        recon = reconstruct(model.kernel_table(site, words))
        small = minimal_modification(model, site, words)
        morphism = build_unitary(small, recon.model, site, words)
        assert morphism.ok
        assert morphism.event_residual <= 1e-8

    def test_same_model_gives_identity(self, qubit):
        model, site, words = qubit
        small = minimal_modification(model, site, words)
        morphism = build_unitary(small, small, site, words)
        assert np.abs(morphism.u - np.eye(small.dim)).max() < 1e-10

    def test_initial_space_phase_fixed(self, qubit):
        model, site, words = qubit
        padded = fixtures.with_untouched_ancilla(model, 3)
        m1 = minimal_modification(model, site, words)
        m2 = minimal_modification(padded, site, words)
        morphism = build_unitary(m1, m2, site, words)
        assert opnorm(morphism.u @ m1.embedding - m2.embedding) < 1e-10

    def test_different_ambient_dimensions(self, qubit):
        model, site, words = qubit
        padded = fixtures.with_untouched_ancilla(model, 3)
        m1 = minimal_modification(model, site, words)
        m2 = minimal_modification(padded, site, words)
        morphism = build_unitary(m1, m2, site, words)
        assert morphism.ok
        assert opnorm(dagger(morphism.u) @ morphism.u - np.eye(m1.dim)) < 1e-10

    def test_inequivalent_models_refused(self, qubit):
        model, site, words = qubit
        atoms = {
            "t1": dict(fixtures.Z_ATOMS),
            "t2": {"+": fixtures.Z_ATOMS["0"], "-": fixtures.Z_ATOMS["1"]},
        }
        other = HilbertModel(
            dim=2, embedding=model.embedding, atoms=atoms, spaces=model.spaces
        )
        with pytest.raises(EquivalenceRefused, match="not equivalent"):
            build_unitary(model, other, site, words)

    def test_non_minimal_refused(self, qubit):
        model, site, words = qubit
        padded = fixtures.with_untouched_ancilla(model, 3)
        with pytest.raises(EquivalenceRefused, match="the second model is not minimal"):
            build_unitary(model, padded, site, words)

    def test_mismatched_initial_spaces_rejected(self, qubit):
        model, site, words = qubit
        other, _ = fixtures.diagonal_kdim2()
        with pytest.raises(ValueError, match="initial spaces differ"):
            build_unitary(model, other, site, words)

    def test_one_product_stack_per_model(self, qubit, monkeypatch):
        model, site, words = qubit
        padded = fixtures.with_untouched_ancilla(model, 3)
        m1 = minimal_modification(model, site, words)
        m2 = minimal_modification(padded, site, words)
        calls, walks = [], []

        def counted(self, *args, _orig=HilbertModel.evaluate, **kwargs):
            calls.append(self)
            return _orig(self, *args, **kwargs)

        def walked(*args, _orig=ProductPlan.walk, **kwargs):
            walks.append(args)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(HilbertModel, "evaluate", counted)
        monkeypatch.setattr(ProductPlan, "walk", walked)
        build_unitary(m1, m2, site, words)
        # one plan of the word list, evaluated once per model
        assert calls == [m1, m2] and len(walks) == 1

    @pytest.mark.parametrize("seed", [0, 4, 7])
    def test_matches_separate_stack_formula(self, seed):
        # the formula that built each product stack separately and factored
        # the first by its SVD, kept as the reference: the unitary and its
        # residuals agree bit for bit
        model, site = fixtures.random_valid_model(seed)
        words = enumerate_words(site, model.spaces)
        m1 = minimal_modification(model, site, words)
        m2 = minimal_modification(fixtures.with_untouched_ancilla(model, 2), site, words)
        assert check_wide_equivalence(m1, m2, site, words).ok
        assert is_minimal(m1, site, words) and is_minimal(m2, site, words)
        x = linalg.side_by_side(m1.products(site, words))
        y = linalg.side_by_side(m2.products(site, words))
        factor = linalg.eigencut(linalg.stack_factor(x, dagger(x) @ x), 1e-9)
        z = factor.vectors / np.sqrt(factor.values)[None, :]
        u = (y @ z) @ dagger(x @ z)
        expected = check_model_relation(m1, m2, u, site)
        morphism = build_unitary(m1, m2, site, words)
        assert np.array_equal(morphism.u, u)
        assert morphism.to_dict() == expected.to_dict()

    def test_declared_symmetry_is_set_aside(self):
        # the first model's oracle is built from its copy without symmetry,
        # so a model that declares one gives what that copy gives, bit for bit
        model, site = fixtures.galilean_shift_fixture()
        words = enumerate_words(site, model.spaces)
        padded = fixtures.with_untouched_ancilla(model, 3)

        def plain(m):
            return dataclasses.replace(m, symmetry={})

        got, ref = (check_wide_equivalence(m, padded, site, words) for m in (model, plain(model)))
        assert got.ok and got.to_dict() == ref.to_dict()
        m1, m2 = (minimal_modification(m, site, words) for m in (model, padded))
        assert m1.symmetry and m2.symmetry
        # the second model declares none, so neither morphism compares one
        got, ref = (build_unitary(m, plain(m2), site, words) for m in (m1, plain(m1)))
        assert got.ok and got.to_dict() == ref.to_dict()
        assert np.array_equal(got.u, ref.u)

    @pytest.mark.parametrize("n", [4, 5])
    def test_ill_conditioned_minimal_model_onto_itself(self, n):
        # the product stack of this minimal model is ill conditioned: a
        # unitary from a factor of its Gram matrix, whose small directions
        # carry eps * cond(G), missed the isometry tolerance (1.1e-8 at
        # n = 4, 2.1e-7 at n = 5); the stack's SVD sees only cond(X)
        model, site = fixtures.tensor_chain(n, canonical=False)
        words = enumerate_words(site, model.spaces)
        m = minimal_modification(model, site, words)
        morphism = build_unitary(m, m, site, words)
        assert morphism.ok
        assert morphism.isometry_residual < 1e-9

    def test_verify_on_the_canonical_chain_table(self, tmp_path, capsys):
        # the idempotence check of `reconstruct --verify` builds this
        # unitary; on this table it read 1.3e-8 against 1e-8 and exited 1
        model, site = fixtures.tensor_chain(4)
        oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
        table = tmp_path / "table.json"
        table.write_text(serialize.dumps(serialize.oracle_to_json(oracle)))
        assert cli.main(["reconstruct", str(table), "--verify"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verification"]["ok"] is True


class TestModelRelation:
    def test_unitary_from_construction_passes(self, qubit):
        model, site, words = qubit
        small = minimal_modification(model, site, words)
        recon = reconstruct(model.kernel_table(site, words))
        morphism = build_unitary(small, recon.model, site, words)
        report = check_model_relation(small, recon.model, morphism.u, site)
        assert report.ok

    def test_subrepresentation_embedding_passes(self, qubit):
        # the inclusion of the minimal summand realizes the small model
        # inside the padded one
        model, site, words = qubit
        padded = fixtures.with_untouched_ancilla(model, 3)
        inclusion = np.zeros((padded.dim, model.dim), dtype=complex)
        inclusion[: model.dim, :] = np.eye(model.dim)
        report = check_model_relation(model, padded, inclusion, site)
        assert report.ok

    def test_relation_implies_table_equality(self, qubit):
        # whenever the intertwining relations hold, the kernels agree
        model, site, words = qubit
        padded = fixtures.with_untouched_ancilla(model, 3)
        inclusion = np.zeros((padded.dim, model.dim), dtype=complex)
        inclusion[: model.dim, :] = np.eye(model.dim)
        assert check_model_relation(model, padded, inclusion, site).ok
        assert check_wide_equivalence(model, padded, site, words).ok

    def test_random_isometry_fails(self, qubit):
        model, site, words = qubit
        padded = fixtures.with_untouched_ancilla(model, 3)
        rng = np.random.default_rng(5)
        u = random_isometry(rng, padded.dim, model.dim)
        report = check_model_relation(model, padded, u, site)
        assert not report.ok

    def test_symmetry_transport_relations(self):
        # the shift isometries must carry each block's units into the
        # shifted block's units
        model, site = fixtures.galilean_shift_fixture()
        words = enumerate_words(site, model.spaces)
        small = minimal_modification(model, site, words)
        report = check_model_relation(small, small, np.eye(small.dim), site)
        assert report.ok
        assert report.symmetry_residual <= 1e-9

    def test_morphism_composition_residual_bounded(self, qubit):
        model, site, words = qubit
        padded = fixtures.with_untouched_ancilla(model, 3)
        m1 = minimal_modification(model, site, words)
        m2 = minimal_modification(padded, site, words)
        recon = reconstruct(model.kernel_table(site, words))
        ab = build_unitary(m1, m2, site, words)
        bc = build_unitary(m2, recon.model, site, words)
        composed = check_model_relation(m1, recon.model, bc.u @ ab.u, site)
        budget = (
            ab.event_residual + bc.event_residual + 1e-12
        )
        assert composed.event_residual <= max(budget * 10, 1e-9)

"""The axiom battery on kernel oracles."""

import types

import numpy as np
import pytest

from qsproc import fixtures, linalg
from qsproc.kernels import (
    KernelOracle,
    check_axioms,
    check_covariance,
    check_factorizability,
    check_normalization,
    check_positivity,
    check_projectivity,
    check_regularity,
    check_sigma_additivity,
)
from qsproc.models import FAIL, INCONCLUSIVE, PASS
from qsproc.sites import chain_site
from qsproc.words import EventWord, OutcomeSpaces, enumerate_words, event_label, unit_word

from kernel_tables import oracle_from_values, with_table


@pytest.fixture(scope="module")
def qubit_oracle():
    model, site = fixtures.qubit_zx()
    words = enumerate_words(site, model.spaces)
    return model.kernel_table(site, words)


def scalar_oracle(site, spaces, words, values, symmetry=None):
    return oracle_from_values(site, spaces, words, values, 1, symmetry)


class TestPositivity:
    def test_model_table_psd(self, qubit_oracle):
        assert check_positivity(qubit_oracle).status == PASS

    def test_unit_only(self):
        site = chain_site(("t",))
        spaces = OutcomeSpaces({"t": ("0",)})
        oracle = scalar_oracle(site, spaces, [unit_word()], {(0, 0): 1.0})
        assert check_positivity(oracle).status == PASS

    def test_negative_diagonal_fails(self):
        site = chain_site(("t",))
        spaces = OutcomeSpaces({"t": ("0", "1")})
        words = [unit_word(), EventWord.from_dict({"t": {"0"}}, spaces)]
        values = {(0, 0): 1.0, (1, 1): -1.0, (0, 1): 0.0, (1, 0): 0.0}
        oracle = scalar_oracle(site, spaces, words, values)
        assert check_positivity(oracle).status == FAIL

    def test_empty_words_rejected(self):
        site = chain_site(("t",))
        spaces = OutcomeSpaces({"t": ("0",)})
        oracle = scalar_oracle(site, spaces, [], {})
        with pytest.raises(ValueError):
            check_positivity(oracle)

    def test_hermiticity_defect_fails(self):
        # an anti-Hermitian pair of entries leaves the hermitized Gram matrix,
        # and so its spectrum, unchanged
        model, site = fixtures.qubit_zx()
        oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
        i, j = 6, 5  # {['0']@t1, ['-']@t2}, {['0']@t1, ['+']@t2}

        def anti_hermitian(table):
            table[i, j] += 0.05
            table[j, i] -= 0.05

        oracle = with_table(oracle, anti_hermitian)
        factor = linalg.eigencut(linalg.pivoted_cholesky(oracle.gram()), 1e-9)
        assert factor.hermitian_defect == pytest.approx(0.1)
        check = check_positivity(oracle)
        assert check.status == FAIL
        assert check.witness == "Hermiticity defect 1.000e-01 of the kernel table"
        assert check.residual == pytest.approx(0.1 / 3.0)  # Gram scale 3

    def test_psd_stable_under_restriction(self, qubit_oracle):
        # principal submatrices of a PSD table stay PSD
        rng = np.random.default_rng(3)
        n = len(qubit_oracle.words)
        for _ in range(5):
            sub = sorted(rng.choice(n, size=6, replace=False))
            g = qubit_oracle.gram(sub)
            assert np.linalg.eigvalsh((g + g.conj().T) / 2).min() > -1e-12


class TestNormalization:
    def test_model_table(self, qubit_oracle):
        assert check_normalization(qubit_oracle).status == PASS

    def test_scaled_table_fails(self, qubit_oracle):
        doubled = KernelOracle(
            site=qubit_oracle.site,
            classes=qubit_oracle.classes,
            spaces=qubit_oracle.spaces,
            kdim=1,
            words=qubit_oracle.words,
            table=2 * qubit_oracle.table,
        )
        assert check_normalization(doubled).status == FAIL

    def test_degenerate_identity_fails(self):
        model, site = fixtures.diagonal_kdim2()
        words = enumerate_words(site, model.spaces, policy="atoms_plus_unit")
        oracle = model.kernel_table(site, words)
        e = oracle.unit_index()

        def degenerate(table):
            table[e, e] = np.diag([1.0, 0.0])

        oracle = with_table(oracle, degenerate)
        assert check_normalization(oracle).status == FAIL

    def test_missing_unit_word(self):
        site = chain_site(("t",))
        spaces = OutcomeSpaces({"t": ("0", "1")})
        words = [EventWord.from_dict({"t": {"0"}}, spaces)]
        oracle = scalar_oracle(site, spaces, words, {(0, 0): 1.0})
        with pytest.raises(ValueError):
            check_normalization(oracle)


class TestSigmaAdditivity:
    def test_model_table(self, qubit_oracle):
        assert check_sigma_additivity(qubit_oracle).status == PASS

    def test_unit_partition_sums_to_one(self, qubit_oracle):
        # mass balance at the latest slice is part of the sweep
        e = qubit_oracle.unit_index()
        idx = [
            qubit_oracle.index(EventWord.from_dict({"t2": {m}}, qubit_oracle.spaces))
            for m in ("+", "-")
        ]
        total = sum(qubit_oracle.table[i, i, 0, 0] for i in idx)
        assert total == pytest.approx(qubit_oracle.table[e, e, 0, 0])

    def test_perturbed_entry_fails(self):
        model, site = fixtures.qubit_zx()
        words = enumerate_words(site, model.spaces)
        oracle = model.kernel_table(site, words)
        idx = oracle.index(EventWord.from_dict({"t2": {"+"}}, model.spaces))

        def perturb(table):
            table[idx, idx] += 1e-3

        oracle = with_table(oracle, perturb)
        assert check_sigma_additivity(oracle).status == FAIL

    def test_atoms_policy_is_conclusive_for_two_outcomes(self):
        # every partition of a factor stays inside the atoms-plus-unit list
        model, site = fixtures.qubit_zx()
        words = enumerate_words(site, model.spaces, policy="atoms_plus_unit")
        oracle = model.kernel_table(site, words)
        assert check_sigma_additivity(oracle).status == PASS


class TestFactorizability:
    def test_model_table(self, qubit_oracle):
        assert check_factorizability(qubit_oracle).status == PASS

    def test_full_event_trivial(self, qubit_oracle):
        # multiplying by the unit event changes nothing, exercised in the sweep
        assert check_factorizability(qubit_oracle).residual < 1e-12

    def test_non_hermitian_idempotent_fails(self):
        # a slanted (non-normal) idempotent breaks the adjoint symmetry
        model, site = fixtures.qubit_zx()
        slant = np.array([[1, 1], [0, 0]], dtype=complex)
        words = enumerate_words(site, model.spaces)
        xi = model.embedding

        def feyn(wrd):
            out = xi
            for t in ("t1", "t2"):
                b = wrd.factor(t, model.spaces)
                if b == model.spaces.full(t):
                    continue
                if t == "t2" and b == frozenset({"+"}):
                    out = slant @ out
                else:
                    out = model.point_projector(t, b) @ out
            return out

        values = {}
        for i, a in enumerate(words):
            for j, b in enumerate(words):
                values[(i, j)] = (feyn(a).conj().T @ feyn(b))[0, 0]
        oracle = scalar_oracle(site, model.spaces, words, values)
        assert check_factorizability(oracle).status == FAIL

    def test_atoms_policy_inconclusive(self):
        # zero-factor products leave the atoms-plus-unit list
        model, site = fixtures.qubit_zx()
        words = enumerate_words(site, model.spaces, policy="atoms_plus_unit")
        oracle = model.kernel_table(site, words)
        assert check_factorizability(oracle).status == INCONCLUSIVE


class TestCovariance:
    def test_no_symmetry_trivially_passes(self, qubit_oracle):
        assert check_covariance(qubit_oracle).status == PASS

    def test_shift_covariant_fixture(self):
        model, site, sym = fixtures.galilean_shift_fixture()
        words = enumerate_words(site, model.spaces)
        oracle = model.kernel_table(site, words, site_sym=sym)
        assert check_covariance(oracle).status == PASS

    def test_broken_fixture_fails(self):
        model, site, sym = fixtures.galilean_shift_fixture(broken=True)
        words = enumerate_words(site, model.spaces)
        oracle = model.kernel_table(site, words, site_sym=sym)
        assert check_covariance(oracle).status == FAIL


class TestProjectivity:
    def test_encoding_invariance_without_model(self):
        site = chain_site(("t",))
        spaces = OutcomeSpaces({"t": ("0",)})
        oracle = scalar_oracle(site, spaces, [unit_word()], {(0, 0): 1.0})
        assert check_projectivity(oracle).status == PASS

    def test_compression_consistency_with_model(self, qubit_oracle):
        check = check_projectivity(qubit_oracle)
        assert check.status == PASS
        assert check.residual < 1e-10

    def test_model_comparison_reads_no_word(self, qubit_oracle):
        # the nesting identity reads the model, the site and its classes
        # alone: no word list, so no sample and no cost in the word count
        bare = types.SimpleNamespace(
            model=qubit_oracle.model, site=qubit_oracle.site,
            classes=qubit_oracle.classes,
        )
        check = check_projectivity(qubit_oracle)
        assert check_projectivity(bare) == check
        assert check.status == PASS and "sampled" not in check.witness

    def test_wide_model_compressions(self):
        from qsproc.equivalence import minimal_modification

        model, site = fixtures.ancilla_correlated()
        small = minimal_modification(model, site)
        words = enumerate_words(site, small.spaces)
        oracle = small.kernel_table(site, words)
        assert check_projectivity(oracle).status == PASS


def regularity_per_word(oracle, rank_tol=1e-9):
    """Reference: the regularity defect word by word, one `eigvalsh` each;
    the best minimal slice's worst defect and word."""
    site, e, k = oracle.site, oracle.unit_index(), oracle.kdim
    per_slice = []
    for l in oracle.classes.minimal_antichains():
        idx_l = oracle.words_within(site.down_set(l))
        g_pinv = linalg.pinv(oracle.gram(idx_l), rank_tol)
        worst_b, wit = 0.0, None
        for i in range(len(oracle.words)):
            cross = oracle.table[np.ix_(idx_l, [i])][:, 0]
            correction = np.einsum(
                "mab,bc->mac", oracle.table[np.ix_(idx_l, [e])][:, 0], oracle.table[e, i]
            )
            c = (cross - correction).reshape(len(idx_l) * k, k)
            q = linalg.dagger(c) @ g_pinv @ c
            lam = float(np.max(np.linalg.eigvalsh(linalg.hermitize(q))))
            defect = float(np.sqrt(max(lam, 0.0)))
            if defect > worst_b:
                worst_b, wit = defect, i
        per_slice.append((worst_b, wit))
    return min(per_slice, key=lambda p: p[0])


REGULARITY_FIXTURES = {
    "qubit_zx": fixtures.qubit_zx,
    "qubit_xz": fixtures.qubit_xz,
    "ancilla_correlated": fixtures.ancilla_correlated,
    "controlled_kdim2": fixtures.controlled_kdim2,
    "diagonal_kdim2": fixtures.diagonal_kdim2,
    "commuting_chain": lambda: fixtures.commuting_diagonal(trivial_order=False),
    "galilean": fixtures.galilean_shift_fixture,  # with its site symmetry
    "random_valid_model(0)": lambda: fixtures.random_valid_model(0),
    "random_valid_model(3)": lambda: fixtures.random_valid_model(3),
    "tensor_chain(3)": lambda: fixtures.tensor_chain(3, canonical=False),
    "tensor_chain(4)": lambda: fixtures.tensor_chain(4, canonical=False),
}


class TestRegularity:
    @pytest.mark.parametrize("name", sorted(REGULARITY_FIXTURES))
    def test_batched_matches_per_word_reference(self, name):
        model, site, *sym = REGULARITY_FIXTURES[name]()
        oracle = model.kernel_table(
            site, enumerate_words(site, model.spaces), site_sym=next(iter(sym), None)
        )
        check = check_regularity(oracle)
        residual, word = regularity_per_word(oracle)
        assert check.residual == pytest.approx(residual, rel=1e-12, abs=1e-15)
        if residual > 1e-12:  # a clear worst word is named
            label = "e" if oracle.words[word].is_unit() else event_label(oracle.words[word])
            assert check.witness.startswith(f"word {label} against slice")

    def test_aligned_qubit_regular(self, qubit_oracle):
        # a zero limit names no worst word (the witness read "word  against
        # slice ['t1']", with an empty word label)
        check = check_regularity(qubit_oracle)
        assert (check.status, check.residual, check.witness) == (PASS, 0.0, "")

    def test_ancilla_fails(self):
        model, site = fixtures.ancilla_correlated()
        words = enumerate_words(site, model.spaces)
        oracle = model.kernel_table(site, words)
        check = check_regularity(oracle)
        assert check.status == FAIL
        assert check.residual == pytest.approx(0.5, abs=1e-9)
        assert check.witness == "word {['0']@t1} against slice ['t1']"

    def test_single_point_trivial_device(self):
        site = chain_site(("t",))
        spaces = OutcomeSpaces({"t": ("x",)})
        from qsproc.models import HilbertModel

        model = HilbertModel(
            dim=1,
            embedding=np.array([[1.0]]),
            atoms={"t": {"x": np.array([[1.0]])}},
            spaces=spaces,
        )
        oracle = model.kernel_table(site, enumerate_words(site, spaces))
        assert check_regularity(oracle).status == PASS


class TestTheoremProperties:
    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_valid_models_pass_everything(self, seed):
        model, site = fixtures.random_valid_model(seed)
        words = enumerate_words(site, model.spaces)
        oracle = model.kernel_table(site, words)
        report = check_axioms(oracle)
        assert report.ok, report.to_dict()
        for name in (
            "positivity",
            "normalization",
            "sigma_additivity",
            "factorizability",
        ):
            assert report[name].residual <= 1e-10

    def test_operator_valued_table_passes(self):
        model, site = fixtures.controlled_kdim2()
        words = enumerate_words(site, model.spaces)
        oracle = model.kernel_table(site, words)
        report = check_axioms(oracle)
        assert report.ok, report.to_dict()

    def test_conditioned_first_slice_is_not_regular(self):
        # the devices at the earliest slice depend on the initial-space
        # component, so the slice span strictly exceeds the initial space
        model, site = fixtures.controlled_kdim2()
        words = enumerate_words(site, model.spaces)
        oracle = model.kernel_table(site, words)
        assert check_regularity(oracle).status == FAIL

    def test_polarization_recovers_off_diagonals(self, qubit_oracle):
        # scalar case: four diagonal evaluations of formal combinations give
        # back the off-diagonal kernel values
        g = qubit_oracle.gram()
        vals, vecs = np.linalg.eigh((g + g.conj().T) / 2)
        vals = np.clip(vals, 0, None)
        coords = np.sqrt(vals)[:, None] * vecs.conj().T
        rng = np.random.default_rng(0)
        for _ in range(10):
            i, j = rng.integers(0, coords.shape[1], size=2)
            u, v = coords[:, i], coords[:, j]
            recovered = sum(
                (1j**k) * np.vdot(u + (1j**k) * v, u + (1j**k) * v) / 4
                for k in range(4)
            )
            assert np.conjugate(recovered) == pytest.approx(np.vdot(u, v), abs=1e-10)

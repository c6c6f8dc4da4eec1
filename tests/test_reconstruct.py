"""Quotient-space reconstruction of kernel oracles."""

import dataclasses
import sys

import numpy as np
import pytest

from qsproc import fixtures, kernels, linalg
from qsproc.equivalence import build_unitary, minimal_modification
from qsproc.kernels import (
    check_axioms,
    check_factorizability,
    check_positivity,
    check_sigma_additivity,
)
from qsproc.config import RunConfig
from qsproc.linalg import dagger, opnorm
from qsproc.models import check_model
from qsproc.reconstruct import (
    ReconstructionRefused,
    build_space,
    compute_subspace_lattice,
    reconstruct,
    represent_algebra,
    represent_event,
    represent_events,
    verify_decomposition,
)
from qsproc.sites import chain_site
from qsproc.words import Event, EventWord, OutcomeSpaces, enumerate_words, unit_word

from kernel_tables import oracle_from_values, origin_unit, origin_unit_rank, with_table


def record_solves(monkeypatch) -> list:
    """Record the name, matrix shape and calling module of every `eigh`,
    `eigvalsh` and `svd` call made through `np.linalg`."""
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        def counted(a, *args, _orig=getattr(np.linalg, name), _name=name, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__")
            calls.append((_name, np.shape(a), caller))
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def regular_at_origin(recon) -> bool:
    """The origin's essential unit is the initial projector."""
    origin = origin_unit(recon)
    return opnorm(origin - recon.model.initial_projector()) <= 1e-8


@pytest.fixture(scope="module")
def qubit_recon():
    model, site = fixtures.qubit_zx()
    words = enumerate_words(site, model.spaces)
    oracle = model.kernel_table(site, words)
    return model, site, oracle, reconstruct(oracle)


class TestBuildSpace:
    def test_unit_only(self):
        site = chain_site(("t",))
        spaces = OutcomeSpaces({"t": ("0",)})
        oracle = oracle_from_values(
            site, spaces, [unit_word()], {(0, 0): 1.0}
        )
        gns = build_space(oracle)
        assert gns.rank == 1
        assert np.allclose(np.abs(gns.coords), [[1.0]])

    def test_rank_two_gram(self):
        site = chain_site(("t",))
        spaces = OutcomeSpaces({"t": ("0", "1")})
        words = [unit_word(), EventWord.from_dict({"t": {"0"}}, spaces)]
        values = {(0, 0): 1.0, (0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.5}
        # independent oracle: both eigenvalues of [[1,.5],[.5,.5]] are positive
        eigs = np.linalg.eigvalsh(np.array([[1.0, 0.5], [0.5, 0.5]]))
        assert (eigs > 0).all()
        oracle = oracle_from_values(site, spaces, words, values)
        # the unit word's split at t needs the missing word {1}@t
        assert check_sigma_additivity(oracle).status == "inconclusive"
        gns = build_space(oracle)
        assert gns.rank == 2
        assert gns.gram_defect() < 1e-12

    def test_qubit_rank(self, qubit_recon):
        model, site, oracle, recon = qubit_recon
        # independent rank oracle on the Gram matrix
        g = oracle.gram()
        eigs = np.linalg.eigvalsh((g + g.conj().T) / 2)
        assert int((eigs > 1e-9 * eigs.max()).sum()) == 2
        assert recon.rank == 2

    def test_refuses_negative_table(self):
        site = chain_site(("t",))
        spaces = OutcomeSpaces({"t": ("0", "1")})
        words = [unit_word(), EventWord.from_dict({"t": {"0"}}, spaces)]
        values = {(0, 0): 1.0, (1, 1): -1.0}
        oracle = oracle_from_values(site, spaces, words, values)
        with pytest.raises(ReconstructionRefused, match="positivity"):
            build_space(oracle)

    def test_refuses_unnormalized_table(self):
        site = chain_site(("t",))
        spaces = OutcomeSpaces({"t": ("0",)})
        oracle = oracle_from_values(
            site, spaces, [unit_word()], {(0, 0): 2.0}
        )
        with pytest.raises(ReconstructionRefused, match="normalization"):
            build_space(oracle)

    def test_refuses_sigma_additivity_failure(self):
        model, site = fixtures.controlled_kdim2()
        oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
        assert not oracle.table[1].any()  # the word has an empty factor at t1

        def fill(table):
            table[1, 1] = 0.5

        oracle = with_table(oracle, fill)
        with pytest.raises(ReconstructionRefused, match="sigma additivity fails"):
            build_space(oracle)

    def test_one_eigendecomposition(self, monkeypatch):
        # a table without a product stack (read from JSON, or edited) gets
        # the pivoted Cholesky factor: its one eigendecomposition is
        # rank x rank, and no dense solve of the N x N Gram matrix runs
        model, site = fixtures.random_valid_model(4)
        oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
        table = dataclasses.replace(oracle, table=oracle.table)
        assert table.product_stack is None
        calls = record_solves(monkeypatch)
        gns = build_space(table)
        assert calls == [("eigh", (gns.rank, gns.rank), "qsproc.linalg")]

    def test_one_svd_of_the_product_stack(self, monkeypatch):
        # a model's table is factored from its dim x N k product stack: one
        # thin SVD, no eigensolve of any order
        model, site = fixtures.random_valid_model(4)
        words = enumerate_words(site, model.spaces)
        oracle = model.kernel_table(site, words)
        assert oracle.product_stack.shape == (model.dim, len(words) * model.kdim)
        calls = record_solves(monkeypatch)
        build_space(oracle)
        assert calls == [("svd", oracle.product_stack.shape, "qsproc.linalg")]

    def test_one_factor_and_one_slice_pass_per_oracle(self, monkeypatch):
        # the axiom battery and the reconstruction gates read the oracle's
        # memos: one factorization per table, whatever the rank_tol, one
        # slice screen, and at most one exact slice pass, which runs only
        # when the screen does not certify a pass
        model, site = fixtures.random_valid_model(4)
        oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
        calls = []
        for module, name in ((linalg, "pivoted_cholesky"), (linalg, "stack_factor"),
                             (kernels, "_slice_screen"), (kernels, "_slice_pass")):
            def counted(*args, _orig=getattr(module, name), _name=name):
                calls.append(_name)
                return _orig(*args)

            monkeypatch.setattr(module, name, counted)
        assert check_axioms(oracle).ok
        reconstruct(oracle)
        assert calls == ["stack_factor", "_slice_screen"]
        fresh = model.kernel_table(site, enumerate_words(site, model.spaces))
        calls.clear()
        assert check_sigma_additivity(fresh).ok and check_factorizability(fresh).ok
        assert calls == ["_slice_screen", "stack_factor"]
        tight = RunConfig(rank_tol=RunConfig.rank_tol / 10)
        assert check_positivity(fresh).ok and check_positivity(fresh, tight).ok
        build_space(fresh, tight)
        assert calls == ["_slice_screen", "stack_factor"]

        def perturb(table):
            table[1, 1] += 1e-7  # a word with an empty factor

        perturbed = with_table(fresh, perturb)
        calls.clear()
        assert not check_sigma_additivity(perturbed).ok
        assert check_axioms(perturbed).failed
        assert calls == ["_slice_screen", "pivoted_cholesky", "_slice_pass"]

    def test_axiom_tol_applies_to_the_memoised_residual(self):
        # two configs on one oracle get their own verdicts on the same bits
        model, site = fixtures.qubit_zx()
        oracle = model.kernel_table(site, enumerate_words(site, model.spaces))

        def perturb(table):
            table[1, 1] += 1e-7  # a word with an empty factor

        oracle = with_table(oracle, perturb)
        residual = check_sigma_additivity(oracle).residual
        loose, tight = RunConfig(axiom_tol=2 * residual), RunConfig(axiom_tol=residual / 2)
        assert check_sigma_additivity(oracle, loose).ok
        assert build_space(oracle, loose).rank
        failed = check_sigma_additivity(oracle, tight)
        assert failed.status == "fail" and failed.residual == residual
        with pytest.raises(ReconstructionRefused, match="sigma additivity fails"):
            build_space(oracle, tight)
        assert check_sigma_additivity(oracle, loose).residual == residual

    def test_the_oracle_owns_a_read_only_table(self):
        model, site = fixtures.qubit_zx()
        words = enumerate_words(site, model.spaces)
        values = model.kernel_table(site, words).table.copy()
        oracle = dataclasses.replace(model.kernel_table(site, words), table=values)
        assert values.flags.writeable and not oracle.table.flags.writeable
        before = oracle.table.copy()
        assert check_positivity(oracle).ok
        values[:] = 0.0  # the caller's array is its own
        assert (oracle.table == before).all()
        assert check_positivity(oracle).ok
        with pytest.raises(ValueError, match="read-only"):
            oracle.table[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            oracle.gram_factor(RunConfig.rank_tol).values[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            oracle.table = values

    def test_no_dense_gram_solve(self, monkeypatch):
        model, site = fixtures.random_valid_model(4)
        words = enumerate_words(site, model.spaces)
        oracle = model.kernel_table(site, words)
        small = minimal_modification(model, site, words)
        big = minimal_modification(fixtures.with_untouched_ancilla(model, 2), site, words)
        n = len(words) * model.kdim
        calls = record_solves(monkeypatch)
        assert check_positivity(oracle).ok
        build_space(oracle)
        build_unitary(small, big, site, words)
        assert calls and all(shape != (n, n) for _, shape, _ in calls)

    def test_minimal_models_take_no_svd_of_their_own(self, monkeypatch):
        # a minimal model is the reconstruction of the model's own table:
        # its one factor is the SVD of the model's product stack, its spans
        # come from the quotient coordinates, and no solve runs in
        # `equivalence`, nor any eigensolve of an uncompressed order
        model, site = fixtures.random_valid_model(4)
        words = enumerate_words(site, model.spaces)
        padded = fixtures.with_untouched_ancilla(model, 2)
        calls = record_solves(monkeypatch)
        small = minimal_modification(model, site, words)
        big = minimal_modification(padded, site, words)
        build_unitary(small, big, site, words)
        assert small.dim == big.dim < padded.dim
        assert not [c for c in calls if c[2] == "qsproc.equivalence"]
        assert all(shape == (small.dim, small.dim)
                   for name, shape, _ in calls if name != "svd")
        # every SVD has the minimal number of rows (the unpadded model's
        # stack too) but the padded model's stack factor
        svds = [shape for name, shape, _ in calls if name == "svd"]
        assert model.dim == small.dim
        n = len(words) * model.kdim
        assert [s for s in svds if s[0] != small.dim] == [(padded.dim, n)]

    def test_empty_word_list_rejected(self):
        site = chain_site(("t",))
        spaces = OutcomeSpaces({"t": ("0",)})
        oracle = oracle_from_values(site, spaces, [], {})
        with pytest.raises(ValueError, match="word list is empty"):
            build_space(oracle)

    def test_embedded_initial_space_isometric(self, qubit_recon):
        _, _, _, recon = qubit_recon
        emb = recon.gns.initial_embedding()
        assert opnorm(dagger(emb) @ emb - np.eye(1)) < 1e-10


class TestRepresentedEvents:
    def test_unit_event_is_block_unit(self, qubit_recon):
        model, site, oracle, recon = qubit_recon
        gns = recon.gns
        full = represent_event(
            gns, frozenset({"t2"}), Event.from_dict({"t2": {"+", "-"}})
        )
        assert opnorm(full - recon.model.units_p[frozenset({"t2"})]) < 1e-9

    def test_zero_event_is_zero(self, qubit_recon):
        model, site, oracle, recon = qubit_recon
        zero = represent_event(
            recon.gns, frozenset({"t2"}), Event.from_dict({"t2": set()})
        )
        assert opnorm(zero) < 1e-10

    def test_atoms_are_projectors(self, qubit_recon):
        _, _, _, recon = qubit_recon
        for t, fam in recon.model.atoms.items():
            for x, m in fam.items():
                assert opnorm(m @ m - m) < 1e-9
                assert opnorm(m - dagger(m)) < 1e-9

    def test_reconstructed_model_passes_validation(self, qubit_recon):
        model, site, oracle, recon = qubit_recon
        assert check_model(recon.model, site).ok

    @pytest.mark.parametrize("n, canonical, rank_tol", [
        (4, True, RunConfig.rank_tol), (4, False, RunConfig.rank_tol),
        (5, True, RunConfig.rank_tol), (5, False, RunConfig.rank_tol),
        (6, False, 1e-12),
    ])
    def test_chain_model_from_its_product_stack_passes_validation(
        self, n, canonical, rank_tol
    ):
        # the coordinates of a model's table come from its product stack, so
        # the emitted model meets the default projector tolerance; the rank
        # is the chain's full 2^n (the least n = 6 Gram eigenvalue is 5.4e-10
        # of the largest, below the default cut, hence the lower rank_tol)
        model, site = fixtures.tensor_chain(n, canonical=canonical)
        oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
        config = RunConfig(rank_tol=rank_tol)
        recon = reconstruct(oracle, config)
        assert recon.provenance()["factor"] == "product_stack"
        assert recon.rank == 2**n
        report = check_model(recon.model, site, config=config)
        assert report.ok, report.violations()
        assert verify_decomposition(recon, oracle, config).residual <= 1e-13

    def test_non_closed_word_list_refused(self):
        model, site = fixtures.qubit_zx()
        words = enumerate_words(site, model.spaces, policy="atoms_plus_unit")
        oracle = model.kernel_table(site, words)
        gns = build_space(oracle)
        with pytest.raises(ReconstructionRefused, match="closed"):
            represent_events(gns)


class TestRepresentedAlgebra:
    def test_scalar_case_trivial(self, qubit_recon):
        model, site, oracle, recon = qubit_recon
        scalar = dataclasses.replace(oracle, algebra={frozenset({"t1"}): (np.eye(1),)})
        out = represent_algebra(build_space(scalar))
        e1 = recon.model.unit_i(frozenset({"t1"}))
        assert opnorm(out[frozenset({"t1"})][0] - e1) < 1e-9

    def test_diagonal_generators(self):
        model, site = fixtures.diagonal_kdim2()
        words = enumerate_words(site, model.spaces)
        oracle = model.kernel_table(site, words)
        recon = reconstruct(oracle)
        for k, gens in recon.model.algebra.items():
            for g in gens:
                # multiplicative and self-adjoint on the block space
                assert opnorm(g @ g - _square_on_block(recon, k, g)) < 1e-8
                assert opnorm(g - dagger(g)) < 1e-8
        # commutes with the reconstructed events inside the block
        for t in site.points:
            k = frozenset({t})
            if k not in recon.model.algebra:
                continue
            for g in recon.model.algebra[k]:
                for m in recon.model.atoms[t].values():
                    assert opnorm(g @ m - m @ g) < 1e-8

    def test_noncommuting_generator_refused(self):
        model2, site2 = fixtures.diagonal_kdim2()
        words2 = enumerate_words(site2, model2.spaces)
        oracle2 = model2.kernel_table(site2, words2)
        gns2 = build_space(oracle2)
        offdiag = np.array([[0.0, 1.0], [1.0, 0.0]])
        # make a kernel value between words of the block's past genuinely
        # non-scalar, so it stops commuting with the off-diagonal generator
        eligible = oracle2.words_within(site2.down_set({"t1"}))
        i, j = eligible[1], eligible[2]

        def non_scalar(table):
            table[i, j] = np.diag([0.3, -0.1])

        oracle2 = dataclasses.replace(
            with_table(oracle2, non_scalar), algebra={frozenset({"t1"}): (offdiag,)}
        )
        gns2 = dataclasses.replace(gns2, oracle=oracle2)
        with pytest.raises(ReconstructionRefused, match="commute"):
            represent_algebra(gns2)


def _square_on_block(recon, k, g):
    e = recon.model.unit_i(k)
    return e @ (g @ g) @ e


class TestSubspaceLattice:
    def test_full_slice_is_identity(self, qubit_recon):
        _, _, _, recon = qubit_recon
        top = recon.lattice.slices[frozenset({"t2"})]
        assert opnorm(top - np.eye(recon.rank)) < 1e-9

    def test_monotone_in_slice_order(self, qubit_recon):
        model, site, oracle, recon = qubit_recon
        e1 = recon.lattice.slices[frozenset({"t1"})]
        e2 = recon.lattice.slices[frozenset({"t2"})]
        assert opnorm(e1 @ e2 - e1) < 1e-9

    def test_event_unit_matches_join(self, qubit_recon):
        model, site, oracle, recon = qubit_recon
        for t in site.points:
            k = frozenset({t})
            assembled = recon.model.point_projector(
                t, recon.model.spaces.full(t)
            ) @ recon.model.unit_p(k)
            assert opnorm(assembled - recon.lattice.joins[k]) < 1e-8

    def test_equivalent_blocks_share_units(self):
        model, site = fixtures.random_valid_model(2)  # has an equivalent pair
        words = enumerate_words(site, model.spaces)
        recon = reconstruct(model.kernel_table(site, words))
        pairs = [
            (a, b)
            for cls in site.equivalence_classes
            if len(cls) > 1
            for a, b in [(cls[0], cls[1])]
        ]
        assert pairs
        for a, b in pairs:
            pa = recon.model.units_p[frozenset({a})]
            pb = recon.model.units_p[frozenset({b})]
            assert opnorm(pa - pb) < 1e-9

    def test_independent_blocks_meet(self):
        model, site = fixtures.random_valid_model(1)  # light-cone diamond
        words = enumerate_words(site, model.spaces)
        recon = reconstruct(model.kernel_table(site, words))
        ind_pairs = [
            (a, b)
            for a in site.points
            for b in site.points
            if a < b and site.independent(a, b)
        ]
        assert ind_pairs
        from qsproc.linalg import meet_projectors

        for a, b in ind_pairs:
            units = recon.model.units_p
            met = meet_projectors([units[frozenset({a})], units[frozenset({b})]], 1e-9)
            assert opnorm(met - units[frozenset({a, b})]) < 1e-8

    def test_ancilla_origin_unit_exceeds_initial_space(self):
        model, site = fixtures.ancilla_correlated()
        words = enumerate_words(site, model.spaces)
        recon = reconstruct(model.kernel_table(site, words))
        assert origin_unit_rank(recon) == 2
        assert not regular_at_origin(recon)

    def test_regular_fixture_origin_unit(self, qubit_recon):
        _, _, _, recon = qubit_recon
        assert origin_unit_rank(recon) == 1
        assert regular_at_origin(recon)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_reconstruction_reproduces_table(self, seed):
        model, site = fixtures.random_valid_model(seed)
        words = enumerate_words(site, model.spaces)
        oracle = model.kernel_table(site, words)
        recon = reconstruct(oracle)
        report = verify_decomposition(recon, oracle)
        assert report.ok, report.to_dict()
        assert recon.rank <= model.dim

    def test_minimality_strict_for_padded_model(self):
        model, site = fixtures.qubit_zx()
        padded = fixtures.with_untouched_ancilla(model, 3)
        words = enumerate_words(site, model.spaces)
        recon = reconstruct(padded.kernel_table(site, words))
        assert recon.rank == 2 < padded.dim

    def test_perturbed_reconstruction_fails(self, qubit_recon):
        model, site, oracle, recon = qubit_recon
        atoms = {t: dict(f) for t, f in recon.model.atoms.items()}
        atoms["t2"] = dict(atoms["t2"])
        atoms["t2"]["+"] = atoms["t2"]["+"] + 1e-3
        from qsproc.models import HilbertModel
        from qsproc.reconstruct import ReconstructedProcess

        bad_model = HilbertModel(
            dim=recon.model.dim,
            embedding=recon.model.embedding,
            atoms=atoms,
            spaces=recon.model.spaces,
            units_p=recon.model.units_p,
            units_i=recon.model.units_i,
        )
        bad = ReconstructedProcess(gns=recon.gns, model=bad_model, lattice=recon.lattice)
        assert not verify_decomposition(bad, oracle).ok

    def test_operator_valued_kernels_roundtrip(self):
        # conditioned devices make the kernels diagonal but not scalar; the
        # whole pipeline must carry the operator values faithfully
        model, site = fixtures.controlled_kdim2()
        words = enumerate_words(site, model.spaces)
        oracle = model.kernel_table(site, words)
        w = EventWord.from_dict({"t1": {"0"}}, model.spaces)
        diag = np.real(np.diagonal(oracle.table[oracle.index(w), oracle.index(w)]))
        assert abs(diag[0] - diag[1]) > 0.01
        recon = reconstruct(oracle)
        assert recon.rank == 4
        assert verify_decomposition(recon, oracle).ok
        # the represented generator squares to the block unit and commutes
        # with the represented events
        for k, gens in recon.model.algebra.items():
            g = gens[0]
            e = recon.model.unit_i(k)
            assert opnorm(g @ g - e) < 1e-8  # the generator is an involution
            for t in k:
                for m in recon.model.atoms[t].values():
                    assert opnorm(g @ m - m @ g) < 1e-8

    def test_wide_model_table_reconstructs(self):
        # the canonical compression of the correlated-ancilla model is a
        # wide-sense model; its own table must still reconstruct and match
        from qsproc.equivalence import build_unitary, minimal_modification

        model, site = fixtures.ancilla_correlated()
        words = enumerate_words(site, model.spaces)
        small = minimal_modification(model, site, words)
        assert not small.is_narrow(site)
        oracle = small.kernel_table(site, words)
        recon = reconstruct(oracle)
        assert verify_decomposition(recon, oracle).ok
        morphism = build_unitary(small, recon.model, site, words)
        assert morphism.ok

    def test_reconstructed_process_stays_covariant(self):
        # the reconstructed model, with its own isometries, produces a table
        # that passes the covariance check again
        from qsproc.kernels import check_covariance

        model, site = fixtures.galilean_shift_fixture()
        words = enumerate_words(site, model.spaces)
        oracle = model.kernel_table(site, words)
        recon = reconstruct(oracle)
        again = recon.model.kernel_table(site, words)
        assert check_covariance(again).status == "pass"

    @pytest.mark.parametrize(
        "builder,regular",
        [
            (fixtures.qubit_zx, True),
            (fixtures.ancilla_correlated, False),
            (fixtures.controlled_kdim2, False),
        ],
    )
    def test_regularity_verdict_matches_origin_unit(self, builder, regular):
        from qsproc.kernels import check_regularity

        model, site = builder()
        words = enumerate_words(site, model.spaces)
        oracle = model.kernel_table(site, words)
        verdict = check_regularity(oracle).status == "pass"
        recon = reconstruct(oracle)
        assert verdict == regular
        assert regular_at_origin(recon) == regular

    def test_determinism_bit_for_bit(self):
        model, site = fixtures.qubit_zx()
        words = enumerate_words(site, model.spaces)
        oracle = model.kernel_table(site, words)
        a = reconstruct(oracle)
        b = reconstruct(oracle)
        assert np.array_equal(a.gns.coords, b.gns.coords)
        for t in site.points:
            for x in model.spaces.outcomes(t):
                assert np.array_equal(a.model.atoms[t][x], b.model.atoms[t][x])


def test_package_attribute_is_the_module():
    import types

    import qsproc
    import qsproc.reconstruct as bound

    assert isinstance(qsproc.reconstruct, types.ModuleType)
    assert bound is sys.modules["qsproc.reconstruct"]
    assert "reconstruct" not in qsproc.__all__
    for name in qsproc.__all__:
        assert getattr(qsproc, name) is not None, name

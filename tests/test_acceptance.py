"""Acceptance suite: the exit criteria of the package, one line per criterion.

Every tolerance below is pinned; nothing is calibrated at run time.  The
random-model battery is fully seeded.
"""

import json

import numpy as np
import pytest

from qsproc import cli, fixtures, serialize
from qsproc.equivalence import build_unitary, minimal_modification
from qsproc.kernels import check_axioms, check_covariance, check_regularity
from qsproc.linalg import dagger, opnorm
from qsproc.markov import (
    check_dynamicity,
    check_regression,
    check_relaxation,
)
from qsproc.reconstruct import reconstruct, verify_decomposition
from qsproc.bridges import classical_reduce, interference_witness, verify_lift
from qsproc.config import RunConfig
from qsproc.words import enumerate_words

from kernel_tables import origin_unit_rank

SEEDS = range(20)


def line(number: int, name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {number}: {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


@pytest.fixture(scope="module")
def random_battery():
    results = []
    for seed in SEEDS:
        model, site = fixtures.random_valid_model(seed)
        words = enumerate_words(site, model.spaces)
        oracle = model.kernel_table(site, words)
        axioms = check_axioms(oracle)
        recon = reconstruct(oracle)
        decomp = verify_decomposition(recon, oracle)
        results.append((seed, model, site, oracle, axioms, recon, decomp))
    return results


def test_criterion_1_axioms_on_random_models(random_battery):
    worst = 0.0
    all_pass = True
    has_independent_pair = False
    for seed, model, site, oracle, axioms, recon, decomp in random_battery:
        if any(
            site.independent(a, b)
            for a in site.points
            for b in site.points
        ):
            has_independent_pair = True
        for name in (
            "positivity",
            "normalization",
            "sigma_additivity",
            "factorizability",
            "projectivity",
        ):
            check = axioms[name]
            all_pass = all_pass and check.status == "pass"
            worst = max(worst, check.residual)
    ok = all_pass and worst <= 1e-9 and has_independent_pair
    line(
        1,
        "random valid models satisfy the kernel axioms",
        ok,
        f"20 models, worst residual {worst:.2e}",
    )


def test_criterion_2_roundtrip_on_random_models(random_battery):
    worst = 0.0
    ok = True
    for seed, model, site, oracle, axioms, recon, decomp in random_battery:
        worst = max(worst, decomp.residual)
        ok = ok and decomp.residual <= 1e-8 and recon.rank <= model.dim
    line(
        2,
        "reconstruction reproduces every table at most at ambient dimension",
        ok,
        f"worst residual {worst:.2e}",
    )


def test_criterion_3_minimal_modifications_unitarily_equivalent():
    cases = [fixtures.qubit_zx(), fixtures.diagonal_kdim2()]
    cases += [fixtures.random_valid_model(s) for s in (0, 1)]
    worst_ev, worst_alg, worst_phase = 0.0, 0.0, 0.0
    ok = True
    for model, site in cases:
        words = enumerate_words(site, model.spaces)
        padded = fixtures.with_untouched_ancilla(model, 3)
        m1 = minimal_modification(model, site, words)
        m2 = minimal_modification(padded, site, words)
        morphism = build_unitary(m1, m2, site, words)
        worst_ev = max(worst_ev, morphism.event_residual, morphism.isometry_residual)
        worst_alg = max(worst_alg, morphism.algebra_residual)
        worst_phase = max(
            worst_phase, opnorm(morphism.u @ m1.embedding - m2.embedding)
        )
        ok = ok and morphism.event_residual <= 1e-8
        ok = ok and morphism.algebra_residual <= 1e-8
    ok = ok and worst_phase <= 1e-8
    line(
        3,
        "padded models compress onto unitarily equivalent minimal models",
        ok,
        f"event {worst_ev:.2e}, algebra {worst_alg:.2e}, phase {worst_phase:.2e}",
    )


def test_criterion_4_interference_defect():
    model, site = fixtures.qubit_xz()
    early = interference_witness(model, site, "t1")
    late = interference_witness(model, site, "t2")
    ok = abs(early - 0.5) <= 1e-12 and abs(late) <= 1e-12
    line(
        4,
        "marginalization defect is exactly one half early, zero at the top",
        ok,
        f"early {early!r}, top {late!r}",
    )


def test_criterion_5_classical_bridge():
    ok = True
    details = []
    for trivial in (True, False):
        model, site = fixtures.commuting_diagonal(trivial_order=trivial)
        red = classical_reduce(model, site, RunConfig(classical_tol=1e-12))
        ok = ok and red.ok
        ok = ok and abs(red.total_mass - 1.0) <= 1e-12
        ok = ok and red.additivity_residual <= 1e-12
        ok = ok and red.marginal_residual <= 1e-12
        details.append(f"mass defect {abs(red.total_mass - 1.0):.1e}")
    line(
        5,
        "commuting fixtures reduce to consistent probability measures",
        ok,
        "; ".join(details),
    )


def test_criterion_6_shift_covariance():
    model, site = fixtures.galilean_shift_fixture()
    words = enumerate_words(site, model.spaces)
    oracle = model.kernel_table(site, words)
    cov = check_covariance(oracle, RunConfig(axiom_tol=1e-9))
    recon = reconstruct(oracle)
    worst = cov.residual
    ok = cov.status == "pass"
    eye = np.eye(recon.rank)
    for ms in recon.model.symmetry.values():
        iso = opnorm(dagger(ms.op) @ ms.op - eye)
        worst = max(worst, iso)
        ok = ok and iso <= 1e-9
    inter = _intertwining_residual(recon, site.symmetry)
    worst = max(worst, inter)
    ok = ok and inter <= 1e-9

    broken, siteb = fixtures.galilean_shift_fixture(broken=True)
    oracleb = broken.kernel_table(siteb, enumerate_words(siteb, broken.spaces))
    flagged = check_covariance(oracleb).status == "fail"
    ok = ok and flagged
    line(
        6,
        "shift-covariant fixture passes covariance; broken variant is flagged",
        ok,
        f"worst residual {worst:.2e}, broken flagged {flagged}",
    )


def _intertwining_residual(recon, sym):
    worst = 0.0
    for s, ms in recon.model.symmetry.items():
        v = ms.op
        for t, st in dict(sym.maps[s]).items():
            for o in recon.model.spaces.outcomes(st):
                lhs = v @ recon.model.point_projector(t, {o})
                rhs = (
                    recon.model.point_projector(st, {o})
                    @ v
                    @ recon.model.unit_p({t})
                )
                worst = max(worst, opnorm(lhs - rhs))
    return worst


def test_criterion_7_markov_suite():
    chain, chain_site_ = fixtures.tensor_chain(3)
    dyn = check_dynamicity(chain, chain_site_, config=RunConfig(membership_tol=1e-8))
    reg = check_regression(chain, chain_site_, config=RunConfig(membership_tol=1e-8))
    ok = dyn.ok and reg.ok
    detail = (
        f"dynamicity {dyn.worst('dynamicity').residual:.2e}, "
        f"regression {reg.worst('regression').residual:.2e}, "
        f"weak commutativity {dyn.worst('weak_commutativity').residual:.2e}"
    )
    qubit, qsite = fixtures.qubit_zx()
    qdyn = check_dynamicity(qubit, qsite)
    witness = qdyn.worst("dynamicity").witness
    flagged = (not qdyn.ok) and "+" in witness and "t1" in witness
    ok = ok and flagged
    line(7, "tensor chain is Markov; the two-basis qubit is not", ok, detail)


def test_criterion_8_level_lift():
    atoms, xi, spaces = fixtures.two_point_field()
    report = verify_lift(atoms, xi, 3, spaces)
    ok = (
        report.ultrastationarity.residual <= 1e-12
        and report.constant_units.residual <= 1e-8
        and report.level_independent_events.residual <= 1e-8
        and report.narrow_units.residual <= 1e-8
        and report.decomposition.residual <= 1e-8
    )
    line(
        8,
        "depth-three level lift is ultrastationary with level-free reconstruction",
        ok,
        f"ultrastationarity {report.ultrastationarity.residual:.2e}, "
        f"units {report.constant_units.residual:.2e}",
    )


def test_criterion_9_regularity_and_relaxation():
    regular, rsite = fixtures.tensor_chain(2, eigen_aligned_first=True)
    words = enumerate_words(rsite, regular.spaces)
    r_reg = check_regularity(
        regular.kernel_table(rsite, words), RunConfig(regularity_tol=1e-9)
    )
    r_rel = check_relaxation(regular, rsite, config=RunConfig(membership_tol=1e-8))

    ancilla, asite = fixtures.ancilla_correlated()
    awords = enumerate_words(asite, ancilla.spaces)
    a_oracle = ancilla.kernel_table(asite, awords)
    a_reg = check_regularity(a_oracle)
    a_rel = check_relaxation(ancilla, asite)
    recon = reconstruct(a_oracle)
    rank_excess = origin_unit_rank(recon) > recon.gns.kdim

    ok = (
        r_reg.status == "pass"
        and r_rel.ok
        and a_reg.status == "fail"
        and not a_rel.ok
        and rank_excess
    )
    line(
        9,
        "regular fixture relaxes; the correlated ancilla is caught",
        ok,
        f"regular residual {r_reg.residual:.2e}, ancilla origin rank "
        f"{origin_unit_rank(recon)} > {recon.gns.kdim}",
    )


def test_criterion_10_deterministic_reconstruction(tmp_path, capsys):
    model, site = fixtures.qubit_zx()
    model_file = tmp_path / "model.json"
    site_file = tmp_path / "site.json"
    model_file.write_text(serialize.dumps(serialize.model_to_json(model)))
    site_file.write_text(serialize.dumps(serialize.site_to_json(site)))
    outputs = []
    for _ in range(2):
        code = cli.main(
            ["reconstruct", str(model_file), "--site", str(site_file), "--verify"]
        )
        assert code == 0
        outputs.append(capsys.readouterr().out.encode())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    with capsys.disabled():
        line(10, "repeated reconstruction is byte-identical", ok,
             f"{len(outputs[0])} bytes")

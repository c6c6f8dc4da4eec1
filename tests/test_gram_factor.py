"""The pivoted Cholesky Gram factor against the dense eigensolve it replaced.

`reference_eigencut` is the dense `eigh` formula the Gram eigencut used
before the factor; it is kept here so that ranks, eigenvalues and quotient
coordinates are held to it.  Coordinates are unique only up to a unitary
inside an eigenspace, so within a cluster of equal eigenvalues the tests
compare the cluster's share of the Gram matrix instead of its columns.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qsproc
from qsproc import fixtures, linalg, serialize
from qsproc.config import RunConfig
from qsproc.kernels import KernelOracle, check_positivity
from qsproc.reconstruct import build_space
from qsproc.words import enumerate_words


def reference_eigencut(gram, rel_tol):
    """Kept eigenvalues and phase-fixed eigenvectors of the hermitized Gram
    matrix, and the dropped eigenvalues, from one dense `eigh`."""
    vals, vecs = np.linalg.eigh(linalg.hermitize(gram))
    vals, vecs = vals[::-1], vecs[:, ::-1]
    keep = vals > rel_tol * max(float(vals[0]), 0.0)
    kept_vecs = np.ascontiguousarray(vecs[:, keep])
    for j in range(kept_vecs.shape[1]):
        kept_vecs[:, j] = linalg._phase_fix(kept_vecs[:, j])
    return vals[keep], kept_vecs, vals[~keep]


CASES = {f"random_valid_model({s})": lambda s=s: fixtures.random_valid_model(s)
         for s in range(12)}
CASES.update({name: getattr(fixtures, name) for name in (
    "qubit_zx", "qubit_xz", "ancilla_correlated", "diagonal_kdim2", "controlled_kdim2",
)})
CASES["galilean_shift_fixture"] = fixtures.galilean_shift_fixture
CASES.update({f"tensor_chain({n})": lambda n=n: fixtures.tensor_chain(n, canonical=False)
              for n in (3, 4, 5)})


def case_oracle(name):
    model, site = CASES[name]()
    words = enumerate_words(site, model.spaces)
    return model.kernel_table(site, words)


def eigen_clusters(vals, rel_gap=1e-10):
    """Index ranges of the runs of a descending spectrum whose neighbours lie
    within ``rel_gap`` of the largest value."""
    cuts = np.flatnonzero(-np.diff(vals) > rel_gap * vals[0]) + 1
    return np.split(np.arange(vals.size), cuts)


@pytest.mark.parametrize("name", list(CASES))
def test_matches_dense_reference(name):
    gram = case_oracle(name).gram()
    vals, vecs, _ = reference_eigencut(gram, 1e-9)
    factor = linalg.eigencut(linalg.pivoted_cholesky(gram), 1e-9)
    top = vals[0]
    assert factor.values.size == vals.size
    assert np.max(np.abs(factor.values - vals)) <= 1e-12 * top
    ref = np.sqrt(vals)[:, None] * linalg.dagger(vecs)
    got = np.sqrt(factor.values)[:, None] * linalg.dagger(factor.vectors)
    for c in eigen_clusters(vals):
        if c.size == 1:
            assert np.max(np.abs(got[c] - ref[c])) <= 1e-10
        else:
            share = linalg.dagger(got[c]) @ got[c] - linalg.dagger(ref[c]) @ ref[c]
            assert np.max(np.abs(share)) <= 1e-10 * top
    # the factor is exact to rounding: nothing dropped but the residual
    assert factor.dropped.tolist() == [0.0 - factor.residual]
    assert factor.residual <= 1e-13 * top


@pytest.mark.parametrize("name", list(CASES))
def test_adjoint_gives_the_same_factor(name):
    # the factor reads only the Hermitian part, which G and G* share bit for
    # bit; `build_unitary` certifies its stack factor against the C-ordered
    # adjoint of a transposed view
    gram = case_oracle(name).gram()
    factor, adjoint = (
        linalg.eigencut(linalg.pivoted_cholesky(g), 1e-9) for g in (gram, linalg.dagger(gram))
    )
    for got, expected in zip(adjoint, factor):
        assert np.array_equal(got, expected)


def test_vectors_orthonormal_and_phase_fixed():
    gram = case_oracle("random_valid_model(2)").gram()
    factor = linalg.eigencut(linalg.pivoted_cholesky(gram), 1e-9)
    v = factor.vectors
    assert np.max(np.abs(linalg.dagger(v) @ v - np.eye(v.shape[1]))) < 1e-12
    for j in range(v.shape[1]):
        lead = v[np.flatnonzero(np.abs(v[:, j]) > 1e-12 * np.abs(v[:, j]).max())[0], j]
        assert abs(lead.imag) <= 1e-15 * lead.real


def test_rank_cut_drops_factored_eigenvalues():
    # a cut above the second eigenvalue keeps one, and `dropped` lists the
    # factored eigenvalues below it, then minus the residual bound
    gram = np.diag([4.0, 1.0, 0.25]).astype(complex)
    factor = linalg.eigencut(linalg.pivoted_cholesky(gram), 0.5)
    assert factor.values.tolist() == [4.0]
    assert factor.dropped.tolist() == [1.0, 0.25, 0.0]
    assert factor.residual == 0.0


def test_residual_bounds_an_indefinite_matrix():
    # the negative direction stays in the residual: -residual <= lambda_min
    gram = np.array([[2.0, 1.0], [1.0, -1.0]], dtype=complex)
    factor = linalg.eigencut(linalg.pivoted_cholesky(gram), 1e-9)
    assert factor.dropped[-1] <= np.linalg.eigvalsh(gram).min()


def test_zero_matrix():
    factor = linalg.eigencut(linalg.pivoted_cholesky(np.zeros((3, 3), dtype=complex)), 1e-9)
    assert factor.values.size == 0 and factor.vectors.shape == (3, 0)
    assert factor.dropped.tolist() == [0.0] and factor.residual == 0.0


# -- soundness: positivity never passes a table the dense spectrum fails ------

_WORDS_MODEL, _WORDS_SITE = fixtures.qubit_zx()
_WORDS = tuple(enumerate_words(_WORDS_SITE, _WORDS_MODEL.spaces))


def oracle_of_gram(gram, kdim):
    """An oracle whose block Gram matrix is `gram`, on the first words of the
    `qubit_zx` list."""
    n = gram.shape[0] // kdim
    table = gram.reshape(n, kdim, n, kdim).transpose(0, 2, 1, 3)
    return KernelOracle(
        site=_WORDS_SITE,
        spaces=_WORDS_MODEL.spaces,
        kdim=kdim,
        words=_WORDS[:n],
        table=table,
    )


def _gaussian(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


tables = st.tuples(
    st.integers(0, 2**32 - 1),  # seed
    st.integers(1, 2),  # kdim
    st.integers(2, len(_WORDS)),  # words
    st.integers(1, 6),  # rank of the positive part
)


@settings(max_examples=150, deadline=None)
@given(tables, st.integers(1, 4), st.floats(-14.0, 1.0))
def test_indefinite_tables_fail(shape, neg_rank, log_size):
    seed, kdim, n, rank = shape
    rng = np.random.default_rng(seed)
    a = _gaussian(rng, rank, n * kdim)
    b = _gaussian(rng, neg_rank, n * kdim) * 10.0**log_size
    gram = linalg.dagger(a) @ a - linalg.dagger(b) @ b
    gram = linalg.hermitize(gram)
    eigs = np.linalg.eigvalsh(gram)
    tol = RunConfig().positivity_tol
    if eigs.min() < -2 * tol * np.abs(eigs).max():
        assert check_positivity(oracle_of_gram(gram, kdim)).status == "fail"


@settings(max_examples=150, deadline=None)
@given(tables, st.floats(-3.0, 3.0))
def test_low_rank_psd_tables_pass(shape, log_spread):
    seed, kdim, n, rank = shape
    rng = np.random.default_rng(seed)
    a = _gaussian(rng, rank, n * kdim) * 10.0 ** (log_spread * rng.random(n * kdim))
    gram = linalg.hermitize(linalg.dagger(a) @ a)
    assert check_positivity(oracle_of_gram(gram, kdim)).ok


# -- scale and BLAS thread count ----------------------------------------------


def test_tensor_chain_five_at_scale():
    # 1,024 words: the factor reaches the full rank 2^5 with a residual at
    # rounding level
    model, site = fixtures.tensor_chain(5, canonical=False)
    oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
    assert len(oracle.words) == 1024
    assert check_positivity(oracle).ok
    gns = build_space(oracle)
    assert gns.rank == 32
    assert gns.gram_defect() < 1e-12


def test_verdicts_independent_of_blas_threads(tmp_path):
    # the pivot order is read off floating-point diagonals, so it is the one
    # piece that a BLAS thread count could move
    model, site = fixtures.tensor_chain(4, canonical=False)
    oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
    table = tmp_path / "table.json"
    table.write_text(serialize.dumps(serialize.oracle_to_json(oracle)))
    src = str(pathlib.Path(qsproc.__file__).resolve().parents[1])
    script = "import sys; from qsproc.cli import main; sys.exit(main(sys.argv[1:]))"
    seen = []
    for threads in ("1", "2"):
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        run = subprocess.run(
            [sys.executable, "-c", script, "reconstruct", str(table), "--verify"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        report = json.loads(run.stdout) if run.stdout else {}
        seen.append((
            run.returncode,
            report.get("provenance", {}).get("rank"),
            report.get("verification", {}).get("ok"),
        ))
    assert seen == [(0, 16, True)] * 2

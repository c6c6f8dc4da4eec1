"""The certified Gram-gap 2-norm (`linalg.gram_gap`) and the comparisons
that read it: the stack factor's certificate and `reconstruct._stack_gap`.

A bound must sit at or above what it bounds: the worst k x k block of the
two tables' difference (`linalg.worst_gap`), its dense 2-norm, and the
factor residual measured on the table (`linalg._residual_bound`).  Above
the tolerance the block search decides, with the residual and the witness
it gave before the bound existed.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from qsproc import equivalence, fixtures, linalg
from qsproc.config import RunConfig
from qsproc.equivalence import check_wide_equivalence
from qsproc.kernels import _word_label, check_axioms
from qsproc.reconstruct import (
    _BOUND_WITNESS,
    _stack_gap,
    reconstruct,
    verify_decomposition,
)
from qsproc.words import enumerate_words

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

CASES = ([f"tensor_chain({n})" for n in (3, 4, 5)]
         + [f"random_valid_model({s})" for s in range(40)]
         + ["controlled_kdim2", "diagonal_kdim2"])


def build(name):
    if name.startswith("tensor_chain"):
        return fixtures.tensor_chain(int(name[13:-1]), canonical=False)[:2]
    if name.startswith("random"):
        return fixtures.random_valid_model(int(name[19:-1]))[:2]
    return getattr(fixtures, name)()[:2]


def dense_gap(a, b):
    """The 2-norm of the difference of two (n, n, k, k) tables' Gram
    matrices, from one dense eigensolve."""
    n, _, k, _ = a.shape
    d = (a - b).transpose(0, 2, 1, 3).reshape(n * k, n * k)
    return float(np.abs(np.linalg.eigvalsh((d + linalg.dagger(d)) / 2)).max())


def certified(oracle, columns):
    """The bound `_stack_gap` reads, whatever the tolerance."""
    return _stack_gap(oracle, columns, np.inf, None)[0]


@pytest.fixture(scope="module", params=CASES)
def pair(request):
    """A model's oracle and the products of its reconstruction on its plan."""
    model, site = build(request.param)
    oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
    products = reconstruct(oracle).model.evaluate(oracle.plan)
    return oracle, products


def test_the_bound_is_at_least_the_worst_block_and_the_dense_norm(pair):
    oracle, products = pair
    other = linalg.pair_blocks(products)
    bound = certified(oracle, linalg.side_by_side(products))
    reference, _ = linalg.worst_gap(oracle.table, other)
    assert reference <= bound and dense_gap(oracle.table, other) <= bound
    assert bound <= RunConfig.decomposition_tol


def test_the_stack_certificate_is_at_least_the_measured_residual(pair):
    oracle, _ = pair
    factor = oracle.cholesky
    residual, defect = linalg._residual_bound(oracle.table, factor.rows)
    assert residual <= factor.residual and defect <= factor.hermitian_defect


@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_bound_follows_a_gap_to_its_allowance(n):
    # the last angle moved by 1e-6: the gap is real, and the bound is its
    # dense 2-norm up to the rounding allowance
    model, site = fixtures.tensor_chain(n, canonical=False)[:2]
    oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
    angles = tuple(0.3 + 0.4 * i for i in range(n))
    moved = fixtures.tensor_chain(n, canonical=False, angles=angles[:-1] + (angles[-1] + 1e-6,))
    products = moved[0].evaluate(oracle.plan)
    dense = dense_gap(oracle.table, linalg.pair_blocks(products))
    bound = certified(oracle, linalg.side_by_side(products))
    assert dense <= bound <= dense + 1e-11


def test_bit_identical_stacks_are_an_exact_match():
    model, site = fixtures.controlled_kdim2()
    words = enumerate_words(site, model.spaces)
    oracle = model.kernel_table(site, words)
    assert linalg.gram_gap(oracle.product_stack, oracle.product_stack.copy()) == 0.0
    worst, at = _stack_gap(oracle, oracle.product_stack.copy(), 0.0, None)
    assert (worst, at) == (0.0, None)
    # the source model in place of the emitted one: its products are the stack
    own = dataclasses.replace(reconstruct(oracle), model=model)
    assert verify_decomposition(own, oracle).to_dict() == {
        "name": "decomposition", "status": "pass", "residual": 0.0,
        "witness": "exact match", "tolerance": RunConfig().decomposition_tol}
    verdict = check_wide_equivalence(model, model, site, words)
    assert (verdict.residual, verdict.witness) == (0.0, "")


def test_a_non_finite_stack_falls_back_to_the_blocks():
    model, site = fixtures.controlled_kdim2()
    oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
    for bad in (np.nan, np.inf):
        columns = oracle.product_stack.copy()
        columns[0, 3] = bad
        assert not linalg.gram_gap(oracle.product_stack, columns) <= 1.0
        blocks = np.ones_like(oracle.table)
        assert _stack_gap(oracle, columns, 1.0, lambda: blocks) == linalg.worst_gap(
            oracle.table, blocks)


def moved_chain(n, by):
    model, site = fixtures.tensor_chain(n, canonical=False)[:2]
    angles = tuple(0.3 + 0.4 * i for i in range(n))
    moved = fixtures.tensor_chain(n, canonical=False, angles=angles[:-1] + (angles[-1] + by,))
    return model, moved[0], site


def rotated_controlled():
    model, site = fixtures.controlled_kdim2()
    rotation = linalg.random_unitary(np.random.default_rng(5), 2)
    return model, dataclasses.replace(model, embedding=model.embedding @ rotation), site


@pytest.mark.parametrize("case", ["angle 1e-6", "angle 1e-8", "rotated controlled_kdim2"])
def test_above_the_tolerance_the_blocks_decide(case):
    # the residual and the witness are the block search's, bit for bit; at
    # 1e-8 the bound (6.4e-8) is above the tolerance and the worst block
    # (4.8e-9) within it, so the block search passes what the bound cannot
    model, other, site = (rotated_controlled() if case.startswith("rotated")
                          else moved_chain(4, float(case.split()[1])))
    words = enumerate_words(site, model.spaces)
    oracle = model.kernel_table(site, words)
    products = other.evaluate(oracle.plan)
    worst, at = linalg.worst_gap(oracle.table, linalg.pair_blocks(products))
    assert certified(oracle, linalg.side_by_side(products)) > RunConfig.equivalence_tol
    verdict = check_wide_equivalence(model, other, site, words)
    assert verdict.residual == worst
    assert verdict.witness == f"pair (word {at[0]}, word {at[1]})"
    assert verdict.ok == (case == "angle 1e-8")
    # verification of a model against the oracle: the same block search
    recon = reconstruct(other.kernel_table(site, words))
    products = recon.model.evaluate(oracle.plan)
    worst, (i, j) = linalg.worst_gap(oracle.table, linalg.pair_blocks(products))
    check = verify_decomposition(recon, oracle)
    assert check.residual == worst
    assert check.witness == f"pair ({_word_label(words[i])}, {_word_label(words[j])})"


def test_a_passing_model_pipeline_reads_no_block(monkeypatch):
    # with a product stack, the factor's certificate and every "same
    # kernel?" comparison read the stacks: no residual pass over the table,
    # no block search, and pair blocks only to build each oracle's table
    model, site = fixtures.tensor_chain(3, canonical=False)[:2]
    words = enumerate_words(site, model.spaces)
    calls = []

    def counted(name, orig):
        def call(*args, **kwargs):
            calls.append(name)
            return orig(*args, **kwargs)
        return call

    for name in ("pair_blocks", "worst_gap", "_residual_bound", "gram_gap"):
        monkeypatch.setattr(linalg, name, counted(name, getattr(linalg, name)))
    oracle = model.kernel_table(site, words)
    assert check_axioms(oracle).ok
    recon = reconstruct(oracle)
    check = verify_decomposition(recon, oracle)
    assert check.ok and check.witness == _BOUND_WITNESS
    assert check_wide_equivalence(model, recon.model, site, words).ok
    assert equivalence.build_unitary(recon.model, recon.model, site, words).ok
    # three oracles' tables; two factors' certificates and three comparisons
    assert calls.count("pair_blocks") == 3
    assert "worst_gap" not in calls and "_residual_bound" not in calls
    assert calls.count("gram_gap") == 5


THREADS_SCRIPT = """
import numpy as np
from qsproc import fixtures, linalg
from qsproc.reconstruct import reconstruct
from qsproc.words import enumerate_words
model, site = fixtures.tensor_chain(4, canonical=False)[:2]
oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
products = reconstruct(oracle).model.evaluate(oracle.plan)
rng = np.random.default_rng(1)
a, b = (rng.standard_normal((m, 3000)) + 1j * rng.standard_normal((m, 3000)) for m in (40, 28))
print(float.hex(linalg.gram_gap(oracle.product_stack, linalg.side_by_side(products))),
      float.hex(oracle.cholesky.residual), float.hex(linalg.gram_gap(a, b)),
      linalg._stacked_r(a, b).tobytes().hex()[:64])
"""


def test_the_bound_keeps_its_bits_at_one_and_two_blas_threads():
    # c = 32 (the 256-word chain against its reconstruction) and c = 68
    # (the widest stacks whose strips stay under `linalg.QR_ENTRIES`)
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.path.abspath(SRC))
        done = subprocess.run([sys.executable, "-c", THREADS_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        outs.append(done.stdout)
    assert outs[0] == outs[1] and outs[0].strip()

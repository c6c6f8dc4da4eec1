"""The batched chronological-product path against per-word references.

The reference functions below are the per-word and per-pair formulas the
batched code replaced; they are kept here so that the batched code is held to
them.
"""

import itertools

import numpy as np
import pytest

from qsproc import fixtures
from qsproc.equivalence import minimal_modification
from qsproc.kernels import FAIL, _word_label, check_covariance, check_projectivity
from qsproc.linalg import dagger, opnorm
from qsproc.markov import (
    _ordered_slices,
    check_regression,
    slice_projector,
)
from qsproc.models import HilbertModel
from qsproc.sites import chain_site, derive_classes
from qsproc.words import (
    Event,
    OutcomeSpaces,
    enumerate_words,
    pointwise_product,
    pointwise_product_table,
    pull_back,
)

TOL = 1e-14


def reference_product(model, site, word, base=None, interleave_units=False):
    """One word's chronological product, block by block."""
    out = np.array(model.embedding if base is None else model.unit_i(base))
    for block in site.chain_decompose(word.support):
        ev = Event.from_dict({t: word.factor(t, model.spaces) for t in block})
        out = model.block_projector(site, ev) @ out
        if interleave_units:
            out = model.unit_i(block) @ out
    return out


def reference_projectivity(oracle, pair_cap=64):
    """Base-compressed kernels compared pair by pair on the strided sample,
    screened by the largest entry of each block."""
    model, site = oracle.model, oracle.site
    blocks = [frozenset()] + [frozenset({t}) for t in site.points]
    sample = oracle.words[:: max(1, len(oracle.words) // pair_cap)]
    worst, witness = 0.0, ""
    for k, j in itertools.product(blocks, repeat=2):
        if not oracle.classes.subset_le(k, j) or k == j:
            continue
        ik = model.unit_i(k)
        fj = np.stack([reference_product(model, site, w, j, True) for w in sample])
        fk = np.stack([reference_product(model, site, w, k, True) for w in sample])
        kj = np.einsum("arp,brq->abpq", np.conjugate(fj), fj)
        kk = np.einsum("arp,brq->abpq", np.conjugate(fk), fk)
        diff = np.einsum("pr,abrs,sq->abpq", ik, kj, ik) - kk
        entry_max = np.abs(diff).max(axis=(2, 3))
        top = float(entry_max.max())
        dim = diff.shape[-1]
        if top == 0.0 or top * dim <= worst:
            continue
        for a, b in zip(*np.nonzero(entry_max >= top / dim)):
            r = opnorm(diff[a, b])
            if r > worst:
                worst, witness = r, (
                    f"compression from base {sorted(j)} to {sorted(k)} on pair "
                    f"({_word_label(sample[a])}, {_word_label(sample[b])})"
                )
    return worst, witness


def reference_regression(model, site, words):
    """Direct kernel against the nested slice form, pair by pair."""
    classes = derive_classes(site)
    slices = _ordered_slices(classes)
    if slices is None:
        return float("inf")
    e_proj = {l: slice_projector(model, classes, l) for l in slices}
    emb = model.embedding
    worst = 0.0
    for b, bp in itertools.product(words, repeat=2):
        prod = pointwise_product(b, bp, model.spaces)
        direct = dagger(reference_product(model, site, b)) @ reference_product(model, site, bp)
        nested = None
        for l in reversed(slices):
            factors = {
                t: prod.factor(t, model.spaces)
                for t in sorted(l, key=site.index)
                if prod.factor(t, model.spaces) != model.spaces.full(t)
            }
            op = model.block_projector(site, Event.from_dict(factors)) \
                @ model.unit_p(frozenset(l))
            nested = op if nested is None else op @ (e_proj[l] @ nested @ e_proj[l])
        if nested is None:
            nested = model.identity()
        worst = max(worst, opnorm(dagger(emb) @ nested @ emb - direct))
    return worst


def reference_covariance(oracle):
    """Transported kernel values compared pair by pair."""
    worst, witness = 0.0, ""
    for s, sym in oracle.symmetry.items():
        tr = {}
        for i in oracle.words_within(set(sym.point_map.values())):
            w = pull_back(oracle.words[i], dict(sym.point_map), sym.outcome_maps, oracle.spaces)
            if oracle.index(w) is not None:
                tr[i] = oracle.index(w)
        for i, j in itertools.product(tr, repeat=2):
            r = opnorm(dagger(sym.u) @ oracle.table[i, j] @ sym.u - oracle.table[tr[i], tr[j]])
            if r > worst:
                worst, witness = r, (
                    f"{s!r} on pair ({_word_label(oracle.words[i])}, "
                    f"{_word_label(oracle.words[j])})"
                )
    return worst, witness


def wide_model():
    """A model declaring both unit families: the compressed ancilla model."""
    model, site = fixtures.ancilla_correlated()
    small = minimal_modification(model, site)
    assert small.units_i and small.units_p
    return small, site


@pytest.mark.parametrize("name", ["wide", "random3", "random8", "chain3"])
def test_products_match_per_word_reference(name):
    if name == "wide":
        model, site = wide_model()
    elif name == "chain3":
        model, site = fixtures.tensor_chain(3, canonical=False)
    else:
        model, site = fixtures.random_valid_model(int(name[len("random"):]))
    words = enumerate_words(site, model.spaces)
    bases = [None, frozenset()] + [frozenset({t}) for t in site.points]
    for base in bases:
        # a base also interleaves the essential units
        got = model.products(site, words, base=base)
        ref = np.stack([
            reference_product(model, site, w, base, base is not None) for w in words
        ])
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= TOL
        one = model.products(site, words[-1:], base=base)[0]
        assert np.max(np.abs(one - ref[-1])) <= TOL


def test_products_of_no_words():
    model, site = wide_model()
    assert model.products(site, []).shape == (0, model.dim, model.kdim)


@pytest.mark.parametrize("seed", [0, 3, 6])
def test_pointwise_product_table_matches_pairs(seed):
    model, site = fixtures.random_valid_model(seed)
    words = enumerate_words(site, model.spaces)[::3]
    merged, index = pointwise_product_table(words, model.spaces)
    assert len(set(merged)) == len(merged)
    for (i, a), (j, b) in itertools.product(enumerate(words), repeat=2):
        assert merged[index[i, j]] == pointwise_product(a, b, model.spaces)


def test_pointwise_product_table_on_a_wide_outcome_space():
    site = chain_site(("t", "u"))
    spaces = OutcomeSpaces({"t": tuple(f"x{i}" for i in range(70)), "u": ("0", "1")})
    words = enumerate_words(site, spaces, policy="atoms_plus_unit")
    merged, index = pointwise_product_table(words, spaces)
    for (i, a), (j, b) in itertools.product(enumerate(words), repeat=2):
        assert merged[index[i, j]] == pointwise_product(a, b, spaces)


@pytest.mark.parametrize("seed", range(12))
def test_projectivity_matches_pair_formula(seed):
    model, site = fixtures.random_valid_model(seed)
    oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
    worst, _ = reference_projectivity(oracle)
    assert abs(check_projectivity(oracle).residual - worst) <= TOL


@pytest.mark.parametrize("seed", range(12))
def test_regression_matches_pair_formula(seed):
    model, site = fixtures.random_valid_model(seed)
    words = enumerate_words(site, model.spaces)
    words = words[:: max(1, len(words) // 24)]
    ref = reference_regression(model, site, words)
    got = check_regression(model, site, words).worst("regression").residual
    if np.isinf(ref):
        assert np.isinf(got)
    else:
        assert abs(got - ref) <= TOL


@pytest.mark.parametrize("block", ["t1", "t2"])
def test_perturbed_unit_fails_with_the_same_witness(block):
    small, site = wide_model()
    rng = np.random.default_rng(3)
    units_i = dict(small.units_i)
    key = frozenset({block})
    units_i[key] = units_i[key] + 0.1 * (
        rng.standard_normal((small.dim, small.dim))
        + 1j * rng.standard_normal((small.dim, small.dim))
    )
    bad = HilbertModel(
        dim=small.dim, embedding=small.embedding, atoms=small.atoms,
        spaces=small.spaces, units_p=small.units_p, units_i=units_i,
    )
    oracle = bad.kernel_table(site, enumerate_words(site, bad.spaces))
    worst, witness = reference_projectivity(oracle)
    check = check_projectivity(oracle)
    assert check.status == FAIL
    assert abs(check.residual - worst) <= TOL * max(1.0, worst)
    assert check.witness == witness


@pytest.mark.parametrize("broken", [False, True])
def test_covariance_matches_pair_formula(broken):
    model, site, sym = fixtures.galilean_shift_fixture(broken=broken)
    oracle = model.kernel_table(site, enumerate_words(site, model.spaces), site_sym=sym)
    worst, witness = reference_covariance(oracle)
    check = check_covariance(oracle)
    assert abs(check.residual - worst) <= TOL * max(1.0, worst)
    assert check.witness == witness
    assert (check.status == FAIL) == broken

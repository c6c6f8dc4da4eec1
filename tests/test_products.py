"""The batched chronological-product path against per-word references.

The reference functions below are the per-word and per-pair formulas the
batched code replaced; they are kept here so that the batched code is held to
them.
"""

import dataclasses
import itertools
import json
import random
import re

import numpy as np
import pytest

from qsproc import cli, fixtures, linalg, serialize
from qsproc.config import RunConfig
from qsproc.equivalence import minimal_modification
from qsproc.kernels import (
    _word_label,
    check_axioms,
    check_covariance,
    check_projectivity,
)
from qsproc.linalg import COMPLEX, dagger, opnorm
from qsproc.markov import (
    _nested_stack,
    _ordered_slices,
    check_regression,
    slice_projector,
)
from qsproc.models import FAIL, PASS, HilbertModel, ProductPlan, SymmetryRep
from qsproc.reconstruct import reconstruct, verify_decomposition
from qsproc.sites import CausalSite, SiteSymmetry, chain_site
from qsproc.words import (
    EventWord,
    OutcomeSpaces,
    enumerate_words,
    pointwise_product,
    pointwise_product_table,
    pull_back,
    unit_word,
    word_codes,
)

TOL = 1e-14


def reference_trie_products(model, site, words):
    """The products of a word list as a trie walked one word at a time: one
    chain decomposition per support, one block operator per block event and
    one ``op @ prefix`` per trie node, keyed by block events."""
    out = np.empty((len(words), model.dim, model.kdim), dtype=COMPLEX)
    chains, ops = {}, {}
    root = (model.embedding, {})
    for n, word in enumerate(words):
        blocks = chains.get(word.support)
        if blocks is None:
            blocks = chains[word.support] = site.chain_decompose(word.support)
        node = root
        for block in blocks:
            ev = EventWord(tuple(f for f in word.factors if f[0] in block))
            child = node[1].get(ev)
            if child is None:
                op = ops.get(ev)
                if op is None:
                    op = ops[ev] = model.block_projector(site, ev)
                child = node[1][ev] = (op @ node[0], {})
            node = child
        out[n] = node[0]
    return out


def reference_product(model, site, word, base=None, interleave_units=False):
    """One word's chronological product, block by block."""
    out = np.array(model.embedding if base is None else model.unit_i(base))
    for block in site.chain_decompose(word.support):
        ev = EventWord.from_dict(
            {t: word.factor(t, model.spaces) for t in block}, model.spaces)
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
    kernels = {}
    for b in blocks:
        f = np.stack([reference_product(model, site, w, b, True) for w in sample])
        kernels[b] = np.einsum("arp,brq->abpq", np.conjugate(f), f)
    worst, witness = 0.0, ""
    for k, j in itertools.product(blocks, repeat=2):
        if not oracle.site.subset_le(k, j) or k == j:
            continue
        ik = model.unit_i(k)
        diff = np.einsum("pr,abrs,sq->abpq", ik, kernels[j], ik, optimize=True) - kernels[k]
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


def word_operator(model, site, word):
    """P_w: the word's block projectors, each followed by its block's
    essential unit, applied to the identity.  Every base's product is
    ``P_w`` times the base's unit."""
    out = model.identity()
    for block in site.chain_decompose(word.support):
        ev = EventWord.from_dict(
            {t: word.factor(t, model.spaces) for t in block}, model.spaces)
        out = model.unit_i(block) @ model.block_projector(site, ev) @ out
    return out


def unit_gap_bound(model, site):
    """The largest ``|L| |I_k| + |I_k| |R| + |L| |R|`` over the compared base
    pairs k < j, with ``L = I_j I_k* - I_k`` and ``R = I_j I_k - I_k``, and
    its pair (k, j): times ``max_w |P_w|^2`` it bounds every block of the
    compression from j to k, ``L* M I_k + I_k* M R + L* M R`` with
    ``|M| = |P_a* P_b|``."""
    blocks = [frozenset()] + [frozenset({t}) for t in site.points]
    bound, at = 0.0, None
    for k, j in itertools.product(blocks, repeat=2):
        if k == j or not site.subset_le(k, j):
            continue
        ik, ij = model.unit_i(k), model.unit_i(j)
        l, r, u = opnorm(ij @ dagger(ik) - ik), opnorm(ij @ ik - ik), opnorm(ik)
        if l * u + u * r + l * r > bound:
            bound, at = l * u + u * r + l * r, (k, j)
    return bound, at


def word_norm(model, site, words):
    """``max_w |P_w|`` over `words`."""
    return max(opnorm(word_operator(model, site, w)) for w in words)


def perturbed_units(model, blocks, scale=0.1, seed=3):
    """`model` with the essential unit of each point in `blocks` moved off
    the projectors by `scale` times a seeded complex Gaussian matrix."""
    rng = np.random.default_rng(seed)
    units_i = dict(model.units_i)
    for block in blocks:
        key = frozenset({block})
        units_i[key] = model.unit_i(key) + scale * (
            rng.standard_normal((model.dim, model.dim))
            + 1j * rng.standard_normal((model.dim, model.dim))
        )
    return dataclasses.replace(model, units_i=units_i)


def reference_regression(model, site, words):
    """Direct kernel against the nested slice form, pair by pair."""
    slices = _ordered_slices(site)
    if slices is None:
        return float("inf")
    e_proj = {l: slice_projector(model, site, l) for l in slices}
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
            ev = EventWord.from_dict(factors, model.spaces)
            op = model.block_projector(site, ev) @ model.unit_p(frozenset(l))
            nested = op if nested is None else op @ (e_proj[l] @ nested @ e_proj[l])
        if nested is None:
            nested = model.identity()
        worst = max(worst, opnorm(dagger(emb) @ nested @ emb - direct))
    return worst


def reference_nested(model, site, slices, e_proj, word):
    """The kernel value of one word through the nested slice compressions,
    latest slice outermost: the per-word loop that `_nested_stack`
    replaced."""
    nested = None
    for l in reversed(slices):
        factors = {
            t: word.factor(t, model.spaces)
            for t in sorted(l, key=site.index)
            if word.factor(t, model.spaces) != model.spaces.full(t)
        }
        ev = EventWord.from_dict(factors, model.spaces)
        op = model.block_projector(site, ev) @ model.unit_p(frozenset(l))
        nested = op if nested is None else op @ (e_proj[l] @ nested @ e_proj[l])
    if nested is None:
        nested = model.identity()
    return dagger(model.embedding) @ nested @ model.embedding


def reference_product_table(words, spaces):
    """The pointwise product table keyed by `np.unique(axis=0)` on the pairs'
    code rows, which `words.code_keys` replaced."""
    n = len(words)
    codes = word_codes(words, spaces, sorted({t for w in words for t in w.support}))
    # the constant first column keeps rows nonempty when every word is the unit
    masks = np.hstack([np.zeros((n, 1), dtype=np.int64), codes])
    pairs = (masks[:, None, :] & masks[None, :, :]).reshape(n * n, -1)
    _, first, inverse = np.unique(pairs, axis=0, return_index=True, return_inverse=True)
    merged = [pointwise_product(words[f // n], words[f % n], spaces) for f in first]
    return merged, inverse.reshape(n, n)


def reference_covariance(oracle):
    """Transported kernel values compared pair by pair."""
    worst, witness = 0.0, ""
    for s, sym in oracle.symmetry.items():
        point_map = oracle.site.symmetry.maps[s]
        tr = {}
        for i in oracle.words_within(set(point_map.values())):
            w = pull_back(oracle.words[i], dict(point_map), sym.outcome_maps, oracle.spaces)
            if oracle.index(w) is not None:
                tr[i] = oracle.index(w)
        for i, j in itertools.product(tr, repeat=2):
            r = opnorm(dagger(sym.op) @ oracle.table[i, j] @ sym.op - oracle.table[tr[i], tr[j]])
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
    got = model.products(site, words)
    ref = np.stack([reference_product(model, site, w) for w in words])
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= TOL
    one = model.products(site, words[-1:])[0]
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


def wide_word_list(outcomes):
    """A chain (t, u) whose point t has `outcomes` outcomes, and words with
    factors at t on both sides of outcome 62."""
    outs = tuple(f"x{i}" for i in range(outcomes))
    spaces = OutcomeSpaces({"t": outs, "u": ("0", "1")})
    picks = [(0,), (3,), (outcomes - 2,), (outcomes - 1,), range(58, outcomes - 2),
             (0, outcomes - 1), range(0, outcomes, 2), ()]
    words = enumerate_words(chain_site(("t", "u")), spaces, policy="atoms_plus_unit")
    words += [EventWord.from_dict({"t": {outs[i] for i in p}, **u}, spaces)
              for p in picks for u in ({}, {"u": {"1"}})]
    return list(dict.fromkeys(words)), spaces


PRODUCT_TABLE_CASES = {
    **{f"random_valid_model({s})": s for s in (0, 3, 6, 9)},
    "tensor_chain(3)": "chain", "unit only": "unit",
    **{f"{q} outcomes": q for q in (61, 62, 70)},
}


@pytest.mark.parametrize("name", sorted(PRODUCT_TABLE_CASES))
def test_pointwise_product_table_matches_unique_rows(name):
    # the same products in the same order, and the same index, on both sides
    # of 63 key columns (61 outcomes and two take 63 columns, 62 and two 64)
    case = PRODUCT_TABLE_CASES[name]
    if case == "unit":
        words, spaces = [unit_word()], OutcomeSpaces({"t": ("0", "1")})
    elif case == "chain":
        model, site = fixtures.tensor_chain(3)
        words, spaces = enumerate_words(site, model.spaces), model.spaces
    elif name.startswith("random"):
        model, site = fixtures.random_valid_model(case)
        words, spaces = enumerate_words(site, model.spaces), model.spaces
    else:
        words, spaces = wide_word_list(case)
    merged, index = pointwise_product_table(words, spaces)
    want_merged, want_index = reference_product_table(words, spaces)
    assert merged == want_merged
    assert index.tolist() == want_index.tolist()


NESTED_MODELS = {
    **{f"random_valid_model({s})": (lambda s=s: fixtures.random_valid_model(s))
       for s in range(12)},
    "tensor_chain(3)": lambda: fixtures.tensor_chain(3, canonical=False),
    **{name: getattr(fixtures, name) for name in (
        "qubit_zx", "ancilla_correlated", "controlled_kdim2", "diagonal_kdim2",
    )},
    "wide": wide_model,
}


@pytest.mark.parametrize("policy", ["all_subsets", "atoms_plus_unit"])
@pytest.mark.parametrize("name", sorted(NESTED_MODELS))
def test_nested_stack_is_the_per_word_loop_bit_for_bit(name, policy):
    model, site = NESTED_MODELS[name]()
    slices = _ordered_slices(site)
    e_proj = {l: slice_projector(model, site, l) for l in slices}
    merged, _ = pointwise_product_table(enumerate_words(site, model.spaces, policy),
                                        model.spaces)
    got = _nested_stack(model, site, slices, e_proj, merged)
    want = np.array([reference_nested(model, site, slices, e_proj, w) for w in merged])
    assert got.shape == (len(merged), model.kdim, model.kdim)
    assert got.tobytes() == want.tobytes()


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
    bad = perturbed_units(small, [block])
    words = enumerate_words(site, bad.spaces)
    oracle = bad.kernel_table(site, words)
    worst, witness = reference_projectivity(oracle, pair_cap=len(words))
    check = check_projectivity(oracle)
    assert check.status == FAIL
    # the identity names the base pair of the worst block, not a word pair
    assert witness.startswith(check.witness + " on pair ")
    assert worst <= word_norm(bad, site, words) ** 2 * check.residual


UNIT_MODELS = {
    **{f"random_valid_model({s})": (lambda s=s: fixtures.random_valid_model(s))
       for s in range(12)},
    "tensor_chain(3)": lambda: fixtures.tensor_chain(3, canonical=False),
    **{name: getattr(fixtures, name) for name in (
        "qubit_zx", "qubit_xz", "ancilla_correlated", "commuting_diagonal",
        "diagonal_kdim2", "controlled_kdim2", "galilean_shift_fixture",
    )},
    "wide": wide_model,
}


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("name", sorted(UNIT_MODELS))
def test_base_products_are_the_word_operator_times_the_unit(name, perturbed):
    model, site = UNIT_MODELS[name]()[:2]
    if perturbed:
        model = perturbed_units(model, site.points)
    for w in enumerate_words(site, model.spaces):
        op = word_operator(model, site, w)
        for base in [frozenset()] + [frozenset({t}) for t in site.points]:
            got = reference_product(model, site, w, base, True)
            assert np.max(np.abs(got - op @ model.unit_i(base))) <= TOL * max(
                1.0, float(np.abs(op).max())
            )


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("name", sorted(UNIT_MODELS))
def test_exhaustive_projectivity_within_the_unit_bound(name, perturbed):
    model, site = UNIT_MODELS[name]()
    if perturbed:
        model = perturbed_units(model, site.points)
    words = enumerate_words(site, model.spaces)
    oracle = model.kernel_table(site, words)
    worst, _ = reference_projectivity(oracle, pair_cap=len(words))
    check = check_projectivity(oracle)
    bound, at = unit_gap_bound(model, site)
    assert abs(check.residual - bound) <= TOL * max(1.0, bound)
    if at is not None:
        assert check.witness == "compression from base {} to {}".format(
            sorted(at[1]), sorted(at[0])
        )
    assert worst <= word_norm(model, site, words) ** 2 * check.residual + TOL
    if not perturbed:
        tol = RunConfig().axiom_tol
        assert worst < tol and check.residual < tol
    else:
        assert check.status == FAIL


@pytest.mark.parametrize("factor", [0.8, 1.25])
def test_projectivity_near_the_tolerance(factor):
    # a unit moved off the projectors just enough to put the residual at
    # `factor` times the tolerance; a pass still bounds every block
    small, site = wide_model()
    tol = RunConfig().axiom_tol
    words = enumerate_words(site, small.spaces)
    slope = unit_gap_bound(perturbed_units(small, ["t1"], scale=tol), site)[0] / tol
    bad = perturbed_units(small, ["t1"], scale=factor * tol / slope)
    oracle = bad.kernel_table(site, words)
    check = check_projectivity(oracle)
    assert abs(check.residual / tol - factor) < 0.01
    assert check.status == (FAIL if factor > 1 else PASS)
    worst, _ = reference_projectivity(oracle, pair_cap=len(words))
    assert worst <= word_norm(bad, site, words) ** 2 * check.residual + TOL
    if check.status == PASS:
        assert worst < tol


@pytest.mark.parametrize("broken", [False, True])
def test_covariance_matches_pair_formula(broken):
    model, site = fixtures.galilean_shift_fixture(broken=broken)
    oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
    worst, witness = reference_covariance(oracle)
    check = check_covariance(oracle)
    assert abs(check.residual - worst) <= TOL * max(1.0, worst)
    assert check.witness == witness
    assert (check.status == FAIL) == broken


@pytest.mark.parametrize("unitary", [False, True])
def test_covariance_checks_an_identity_word_map_under_a_unitary(unitary):
    # an element that fixes every word is skipped only when u is exactly I
    model, site = fixtures.controlled_kdim2()
    base = model.kernel_table(site, enumerate_words(site, model.spaces))
    u = linalg.random_unitary(np.random.default_rng(3), 2) if unitary else np.eye(2)
    maps = {"e": {t: t for t in site.points}}
    oracle = dataclasses.replace(
        base, site=dataclasses.replace(site, symmetry=SiteSymmetry(("e",), maps, {})),
        symmetry={"e": SymmetryRep(
            outcome_maps={t: {x: x for x in model.spaces.outcomes(t)} for t in site.points},
            op=u,
        )},
    )
    eligible, images = oracle.transported("e")
    assert images.tolist() == eligible.tolist() == list(range(len(oracle.words)))
    worst, witness = reference_covariance(oracle)
    check = check_covariance(oracle)
    assert abs(check.residual - worst) <= TOL * max(1.0, worst)
    assert check.witness == witness
    if unitary:
        assert check.status == FAIL and worst > 1e-3
    else:
        assert (check.status, check.residual, check.witness) == (PASS, 0.0, "")


# -- the product plan against the per-word trie --------------------------------

PLAN_MODELS = {
    **{f"random_valid_model({s})": (lambda s=s: fixtures.random_valid_model(s))
       for s in range(12)},
    **{f"tensor_chain({n})": (lambda n=n: fixtures.tensor_chain(n, canonical=False))
       for n in range(2, 6)},
    "wide": wide_model,
}


def assert_bit_equal(got, ref):
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.array_equal(got.view(np.float64), ref.view(np.float64))


@pytest.mark.parametrize("policy", ["all_subsets", "atoms_plus_unit"])
@pytest.mark.parametrize("name", sorted(PLAN_MODELS))
def test_plan_is_the_trie_bit_for_bit(name, policy):
    model, site = PLAN_MODELS[name]()[:2]
    words = enumerate_words(site, model.spaces, policy)
    assert_bit_equal(model.products(site, words), reference_trie_products(model, site, words))


def plan_inputs(words):
    """A shuffled list, a sublist that is not closed under products, the
    unit word alone and the empty list."""
    shuffled = list(words)
    random.Random(5).shuffle(shuffled)
    return {
        "shuffled": shuffled,
        "sublist": [w for i, w in enumerate(words) if i % 3 == 1],
        "unit": [w for w in words if w.is_unit()],
        "empty": [],
    }


@pytest.mark.parametrize("kind", ["shuffled", "sublist", "unit", "empty"])
@pytest.mark.parametrize("name", ["random_valid_model(3)", "tensor_chain(3)", "wide"])
def test_plan_on_other_word_lists(name, kind):
    model, site = PLAN_MODELS[name]()[:2]
    words = plan_inputs(enumerate_words(site, model.spaces))[kind]
    got = model.products(site, words)
    assert_bit_equal(got, reference_trie_products(model, site, words))
    assert got.shape == (len(words), model.dim, model.kdim)


def split_chain_model():
    """Points a < b and c independent of both: the chain of {a, b, c} is
    [{a}, {b, c}], while {a, c} is one block, not the restriction [{a}, {c}].
    a and b measure one qubit in rotated bases, c a second qubit."""
    site = CausalSite(
        points=("a", "b", "c"),
        leq=((True, True, False), (False, True, False), (False, False, True)),
    )
    eye = np.eye(2, dtype=COMPLEX)
    atoms = {
        "a": {x: np.kron(p, eye) for x, p in fixtures.rotated_atoms(0.3).items()},
        "b": {x: np.kron(p, eye) for x, p in fixtures.rotated_atoms(1.1).items()},
        "c": {x: np.kron(eye, p) for x, p in fixtures.rotated_atoms(0.7).items()},
    }
    spaces = OutcomeSpaces({t: ("0", "1") for t in site.points})
    embedding = np.kron([np.cos(0.4), np.sin(0.4)], [np.cos(0.9), np.sin(0.9)])
    return HilbertModel(dim=4, embedding=embedding, atoms=atoms, spaces=spaces), site


def test_plan_decomposes_each_support_on_its_own():
    model, site = split_chain_model()
    assert site.chain_decompose({"a", "b", "c"}) == (frozenset("a"), frozenset("bc"))
    assert site.chain_decompose({"a", "c"}) == (frozenset("ac"),)
    for policy in ("all_subsets", "atoms_plus_unit"):
        words = enumerate_words(site, model.spaces, policy)
        got = model.products(site, words)
        assert_bit_equal(got, reference_trie_products(model, site, words))
        ref = np.stack([reference_product(model, site, w) for w in words])
        assert np.max(np.abs(got - ref)) <= TOL


@pytest.mark.parametrize("bad", [
    EventWord((("zz", frozenset({"0"})),)),  # a point outside the site
    EventWord((("t1", frozenset({"q"})),)),  # an outcome outside the space
])
def test_plan_refuses_as_the_trie_does(bad):
    model, site = fixtures.tensor_chain(2, canonical=False)
    words = enumerate_words(site, model.spaces)[:5] + [bad]
    with pytest.raises(Exception) as ref:
        reference_trie_products(model, site, words)
    with pytest.raises(ref.type, match=f"^{re.escape(str(ref.value))}$"):
        model.products(site, words)


def test_pipeline_walks_the_words_once_per_oracle(monkeypatch):
    model, site = fixtures.random_valid_model(4)
    walks, evaluations = [], []

    def walked(*args, _orig=ProductPlan.walk):
        walks.append(args)
        return _orig(*args)

    def evaluated(self, plan, _orig=HilbertModel.evaluate):
        evaluations.append((self, plan))
        return _orig(self, plan)

    monkeypatch.setattr(ProductPlan, "walk", walked)
    monkeypatch.setattr(HilbertModel, "evaluate", evaluated)
    oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
    assert check_axioms(oracle).ok
    recon = reconstruct(oracle)
    assert verify_decomposition(recon, oracle).ok
    assert len(walks) == 1
    assert evaluations == [(model, oracle.plan), (recon.model, oracle.plan)]


def test_reconstruct_verify_walks_its_words_once(tmp_path, monkeypatch, capsys):
    # `reconstruct TABLE --verify` walked the words three times (the table's
    # plan, then the emitted model's table twice), formed four tables of
    # pair blocks and factored the emitted model's product stack twice; its
    # idempotence check now reads one oracle of the emitted model, built on
    # the table's plan.  The emitted model's factor and the idempotence
    # comparison are certified off product stacks (`linalg.gram_gap`): the
    # one table of pair blocks is the emitted model's, compared block by
    # block only with the source table, which has no stack
    model, site = fixtures.tensor_chain(2, canonical=False)
    oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
    table = tmp_path / "table.json"
    table.write_text(serialize.dumps(serialize.oracle_to_json(oracle)))
    walks, calls = [], []

    def walked(site, words, _orig=ProductPlan.walk):
        walks.append(len(words))
        return _orig(site, words)

    def counted(name, _orig):
        def call(*args, **kwargs):
            calls.append(name)
            return _orig(*args, **kwargs)
        return call

    monkeypatch.setattr(ProductPlan, "walk", walked)
    for name in ("pair_blocks", "stack_factor", "_residual_bound", "gram_gap", "worst_gap"):
        monkeypatch.setattr(linalg, name, counted(name, getattr(linalg, name)))
    assert cli.main(["reconstruct", str(table), "--verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verification"]["ok"] and report["idempotence"]["ok"]
    assert walks == [16]
    # the source's factor, the emitted model's table, the verification, the
    # emitted model's factor and its certificate, then idempotence
    assert calls == ["_residual_bound", "pair_blocks", "worst_gap", "stack_factor",
                     "gram_gap", "gram_gap"]


def test_oracle_takes_only_the_plan_of_its_words():
    model, site = fixtures.random_valid_model(4)
    words = enumerate_words(site, model.spaces)
    oracle = model.kernel_table(site, words)
    assert oracle.plan.words == oracle.words
    with pytest.raises(ValueError, match="product plan"):
        dataclasses.replace(oracle, _plan=ProductPlan.walk(site, words[:-1]))
    # an edited oracle walks its own words again
    edited = dataclasses.replace(oracle, table=oracle.table)
    assert edited.plan is not oracle.plan and edited.plan.words == oracle.words

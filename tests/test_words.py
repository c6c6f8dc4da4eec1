"""Event word calculus."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsproc import fixtures
from qsproc import words as words_mod
from qsproc.kernels import KernelOracle
from qsproc.sites import CausalSite, chain_site, minkowski_site
from qsproc.words import (
    POLICY_ALL_SUBSETS,
    POLICY_ATOMS_PLUS_UNIT,
    EventWord,
    OutcomeSpaces,
    code_keys,
    enumerate_words,
    partitions_of_factor,
    pointwise_product,
    pull_back,
    subsets,
    unit_word,
    word_codes,
)

SPACES = OutcomeSpaces({"t1": ("0", "1"), "t2": ("+", "-")})
SITE = chain_site(("t1", "t2"))


def word(d):
    return EventWord.from_dict(d, SPACES)


def chain_events(site, w, spaces):
    """The word's support and its block events, earliest first, as the
    chronological products read them."""
    blocks = site.chain_decompose(w.support)
    return w.support, tuple(
        EventWord.from_dict({t: w.factor(t, spaces) for t in block}, spaces)
        for block in blocks
    )


def partitions_containing(outcomes, b):
    """The partitions of the whole outcome set that have `b` as a part, or
    all of them for an empty `b`."""
    whole = partitions_of_factor(outcomes, outcomes)
    return [p for p in whole if not b or frozenset(b) in p]


class TestEventWord:
    def test_canonical_form_drops_full_factors(self):
        assert word({"t1": {"0", "1"}}) == unit_word()

    def test_support(self):
        assert word({"t1": {"0"}}).support == ("t1",)

    def test_unknown_outcome_rejected(self):
        with pytest.raises(KeyError):
            word({"t1": {"zz"}})

    def test_hashable_and_equal_by_content(self):
        assert word({"t1": {"0"}}) == word({"t1": {"0"}})
        assert len({word({"t1": {"0"}}), word({"t1": {"0"}})}) == 1


class TestExtend:
    # extending a word by unit factors is the identity on its encoding
    def test_unit_word_extends_to_unit(self):
        assert word({"t1": {"0", "1"}, "t2": {"+", "-"}}) == unit_word()

    def test_extend_over_own_support_is_identity(self):
        w = word({"t1": {"0"}})
        assert word(dict(w.factors)) == w

    def test_extension_gains_nothing(self):
        w = word({"t1": {"0"}})
        assert word({"t1": {"0"}, "t2": {"+", "-"}}) == w

    def test_region_must_cover_support(self):
        words = [unit_word(), word({"t1": {"0"}}), word({"t2": {"+"}})]
        oracle = KernelOracle(
            site=SITE, spaces=SPACES, kdim=1,
            words=tuple(words), table=np.zeros((3, 3, 1, 1)),
        )
        assert oracle.words_within({"t2"}) == [0, 2]
        assert oracle.words_within({"t1", "t2"}) == [0, 1, 2]


class TestRightMultiply:
    def test_unit_times_full_event(self):
        ev = EventWord.from_dict({"t1": {"0", "1"}}, SPACES)
        assert pointwise_product(unit_word(), ev, SPACES) == unit_word()

    def test_zero_event_gives_empty_factor(self):
        ev = EventWord.from_dict({"t1": set()}, SPACES)
        out = pointwise_product(word({"t1": {"0"}}), ev, SPACES)
        assert out.factor("t1", SPACES) == frozenset()

    def test_disjoint_singletons_intersect_to_empty(self):
        ev = EventWord.from_dict({"t1": {"1"}}, SPACES)
        out = pointwise_product(word({"t1": {"0"}}), ev, SPACES)
        assert out.factor("t1", SPACES) == frozenset()

    def test_idempotent(self):
        ev = EventWord.from_dict({"t2": {"+"}}, SPACES)
        w = word({"t1": {"0"}})
        once = pointwise_product(w, ev, SPACES)
        assert pointwise_product(once, ev, SPACES) == once


class TestPointwiseProduct:
    def test_unit_is_neutral(self):
        w = word({"t1": {"0"}})
        assert pointwise_product(w, unit_word(), SPACES) == w

    def test_idempotent(self):
        w = word({"t1": {"0"}, "t2": {"+"}})
        assert pointwise_product(w, w, SPACES) == w

    def test_disjoint_factors_empty(self):
        out = pointwise_product(word({"t1": {"0"}}), word({"t1": {"1"}}), SPACES)
        assert out.factor("t1", SPACES) == frozenset()

    def test_support_within_union(self):
        a, b = word({"t1": {"0"}}), word({"t2": {"+"}})
        assert set(pointwise_product(a, b, SPACES).support) <= {"t1", "t2"}


class TestChainSequence:
    def test_unit_word(self):
        support, blocks = chain_events(SITE, unit_word(), SPACES)
        assert support == ()
        assert blocks == ()

    def test_single_support(self):
        support, blocks = chain_events(SITE, word({"t1": {"0"}}), SPACES)
        assert support == ("t1",)
        assert blocks == (EventWord.from_dict({"t1": {"0"}}, SPACES),)

    def test_two_time_word(self):
        w = word({"t1": {"0"}, "t2": {"+"}})
        support, blocks = chain_events(SITE, w, SPACES)
        assert set(support) == {"t1", "t2"}
        assert blocks == (
            EventWord.from_dict({"t1": {"0"}}, SPACES),
            EventWord.from_dict({"t2": {"+"}}, SPACES),
        )

    def test_independent_pair_single_block(self):
        site = minkowski_site([(1, 0.5), (1, -0.5)], c=1, labels=("a", "b"))
        spaces = OutcomeSpaces({"a": ("0", "1"), "b": ("0", "1")})
        w = EventWord.from_dict({"a": {"0"}, "b": {"1"}}, spaces)
        _, blocks = chain_events(site, w, spaces)
        assert len(blocks) == 1
        assert set(blocks[0].support) == {"a", "b"}

    def test_reassembly_roundtrip(self):
        w = word({"t1": {"0"}, "t2": {"+"}})
        _, blocks = chain_events(SITE, w, SPACES)
        factors = [f for ev in blocks for f in ev.factors]
        assert len({t for t, _ in factors}) == len(factors)  # disjoint blocks
        assert EventWord.from_dict(dict(factors), SPACES) == w


class TestSubsets:
    def test_order_by_size_then_combination(self):
        assert subsets(("a", "b", "c")) == [
            frozenset(),
            frozenset("a"), frozenset("b"), frozenset("c"),
            frozenset("ab"), frozenset("ac"), frozenset("bc"),
            frozenset("abc"),
        ]


class TestEnumerateWords:
    def test_single_point_all_subsets(self):
        site = chain_site(("t1",))
        spaces = OutcomeSpaces({"t1": ("0", "1")})
        assert len(enumerate_words(site, spaces)) == 4

    def test_two_points_atoms_plus_unit(self):
        words = enumerate_words(SITE, SPACES, policy="atoms_plus_unit")
        assert len(words) == 9

    def test_one_outcome_point_under_atoms_plus_unit(self):
        # the atom of a one-outcome point is its unit: one choice, not two,
        # and the cap applies to the distinct words
        spaces = OutcomeSpaces({"t1": ("x",), "t2": ("0", "1")})
        words = enumerate_words(SITE, spaces, policy="atoms_plus_unit", cap=3)
        assert words == [
            EventWord.from_dict({"t2": {"0"}}, spaces),
            EventWord.from_dict({"t2": {"1"}}, spaces),
            unit_word(),
        ]
        with pytest.raises(ValueError, match="cap"):
            enumerate_words(SITE, spaces, policy="atoms_plus_unit", cap=2)

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            enumerate_words(SITE, SPACES, cap=3)

    @pytest.mark.parametrize("policy, count", [("all_subsets", 4 * 2**30),
                                               ("atoms_plus_unit", 3 * 31)])
    def test_cap_refuses_before_building_a_wide_point(self, monkeypatch, policy, count):
        # 2^30 subsets would take hours: the choices are counted first
        def narrow_only(outs, _orig=words_mod.subsets):
            assert len(outs) < 30, "the subsets of a 30-outcome point were built"
            return _orig(outs)

        monkeypatch.setattr(words_mod, "subsets", narrow_only)
        spaces = OutcomeSpaces({"s": ("0", "1"), "t": tuple(f"x{i}" for i in range(30))})
        cap = 20_000 if policy == "all_subsets" else 90
        with pytest.raises(ValueError, match=rf"^word enumeration would produce {count}\+ "
                                             rf"words, above the cap \({cap}\)$"):
            enumerate_words(chain_site(("s", "t")), spaces, policy, cap)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            enumerate_words(SITE, SPACES, policy="everything")

    def test_deterministic_and_duplicate_free(self):
        a = enumerate_words(SITE, SPACES)
        b = enumerate_words(SITE, SPACES)
        assert a == b
        assert len(set(a)) == len(a)

    @pytest.mark.parametrize("sizes", [(2,), (2, 2), (2, 3), (2, 2, 2)])
    def test_all_subsets_count(self, sizes):
        labels = tuple(f"p{i}" for i in range(len(sizes)))
        site = chain_site(labels)
        spaces = OutcomeSpaces(
            {t: tuple(str(i) for i in range(s)) for t, s in zip(labels, sizes)}
        )
        expected = 1
        for s in sizes:
            expected *= 2**s
        assert len(enumerate_words(site, spaces)) == expected


class TestPartitions:
    def test_two_outcomes_singleton(self):
        parts = partitions_containing(("0", "1"), {"0"})
        assert (frozenset({"0"}), frozenset({"1"})) in parts

    def test_full_event(self):
        parts = partitions_containing(("0", "1"), {"0", "1"})
        assert parts == [(frozenset({"0", "1"}),)]

    def test_three_outcomes(self):
        parts = partitions_containing(("a", "b", "c"), {"a"})
        normalized = {frozenset(p) for p in parts}
        assert normalized == {
            frozenset({frozenset({"a"}), frozenset({"b", "c"})}),
            frozenset({frozenset({"a"}), frozenset({"b"}), frozenset({"c"})}),
        }

    def test_empty_event_partitions_identity(self):
        parts = partitions_containing(("0", "1"), set())
        assert all(frozenset() not in p for p in parts)
        assert (frozenset({"0"}), frozenset({"1"})) in parts

    def test_factor_decompositions(self):
        parts = partitions_of_factor(("a", "b", "c"), {"a", "b"})
        assert (frozenset({"a", "b"}),) in parts
        assert (frozenset({"a"}), frozenset({"b"})) in parts
        assert partitions_of_factor(("a",), set()) == [()]


class TestPullBack:
    def test_shift_on_chain(self):
        site = chain_site(("a", "b"))
        spaces = OutcomeSpaces({"a": ("0", "1"), "b": ("0", "1")})
        w = EventWord.from_dict({"b": {"1"}}, spaces)
        out = pull_back(
            w, {"a": "b"}, {"a": {"0": "0", "1": "1"}}, spaces
        )
        assert out == EventWord.from_dict({"a": {"1"}}, spaces)

    def test_outcome_relabeling(self):
        spaces = OutcomeSpaces({"a": ("x", "y"), "b": ("0", "1")})
        w = EventWord.from_dict({"b": {"0"}}, spaces)
        out = pull_back(w, {"a": "b"}, {"a": {"x": "1", "y": "0"}}, spaces)
        assert out == EventWord.from_dict({"a": {"y"}}, spaces)

    def test_support_outside_image_rejected(self):
        w = word({"t1": {"0"}})
        with pytest.raises(ValueError, match="outside"):
            pull_back(w, {"t1": "t2"}, {"t1": {"0": "+", "1": "-"}}, SPACES)


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(["t1", "t2"]),
        st.sets(st.sampled_from(["0", "1", "+", "-"])),
    )
)
def test_product_agrees_with_iterated_multiplication(raw):
    filtered = {
        t: {x for x in v if x in SPACES.outcomes(t)} for t, v in raw.items()
    }
    w = EventWord.from_dict(filtered, SPACES)
    base = word({"t1": {"0"}})
    _, blocks = chain_events(SITE, w, SPACES)
    iterated = base
    for ev in blocks:
        iterated = pointwise_product(iterated, ev, SPACES)
    assert iterated == pointwise_product(base, w, SPACES)


def reference_enumeration(site, spaces, policy):
    """Every combination of per-point choices, each validated and made
    canonical by `EventWord.from_dict`."""
    per_point = []
    for t in site.points:
        outs = spaces.outcomes(t)
        choices = (subsets(outs) if policy == POLICY_ALL_SUBSETS
                   else {frozenset(outs)} | {frozenset({x}) for x in outs})
        per_point.append(sorted(choices, key=lambda b: spaces.bitmask(t, b)))
    return [EventWord.from_dict(dict(zip(site.points, combo)), spaces)
            for combo in itertools.product(*per_point)]


def unordered_names():
    """A site whose point order is not name order, with outcome spaces of
    one, two and three labels."""
    site = CausalSite(
        points=("z", "b", "m"),
        leq=((True, True, True), (False, True, False), (False, False, True)),
    )
    return site, OutcomeSpaces({"z": ("1", "0", "2"), "b": ("x",), "m": ("q", "p")})


ENUMERATED = {
    **{f"random_valid_model({s})": (lambda s=s: fixtures.random_valid_model(s))
       for s in range(12)},
    "tensor_chain(3)": lambda: fixtures.tensor_chain(3, canonical=False),
    "tensor_chain(4)": lambda: fixtures.tensor_chain(4),
    **{name: getattr(fixtures, name) for name in (
        "qubit_zx", "qubit_xz", "ancilla_correlated", "commuting_diagonal",
        "diagonal_kdim2", "controlled_kdim2", "galilean_shift_fixture",
    )},
}


@pytest.mark.parametrize("policy", [POLICY_ALL_SUBSETS, POLICY_ATOMS_PLUS_UNIT])
@pytest.mark.parametrize("name", sorted(ENUMERATED) + ["unordered names"])
def test_enumeration_is_the_validated_construction(name, policy):
    if name == "unordered names":
        site, spaces = unordered_names()
    else:
        model, site = ENUMERATED[name]()[:2]
        spaces = model.spaces
    words = enumerate_words(site, spaces, policy)
    assert words == reference_enumeration(site, spaces, policy)
    assert all(list(w.factors) == sorted(w.factors) for w in words)


# -- word-code keys ----------------------------------------------------------------


def reference_row_keys(codes):
    """Each code row's bytes as one void, a zero column standing in for an
    empty row: one byte per column, so byte order is the rows' order."""
    codes = np.asarray(codes, dtype=np.uint8)
    if not codes.shape[-1]:
        codes = np.zeros(codes.shape[:-1] + (1,), dtype=np.uint8)
    rows = np.ascontiguousarray(codes.reshape(-1, codes.shape[-1]))
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel()


def seventy_outcome_codes():
    """The codes of the atoms-plus-unit list of a chain whose first point has
    70 outcomes: 72 columns."""
    spaces = OutcomeSpaces({"t": tuple(f"x{i}" for i in range(70)), "u": ("0", "1")})
    words = enumerate_words(chain_site(("t", "u")), spaces, POLICY_ATOMS_PLUS_UNIT)
    return word_codes(words, spaces, ["t", "u"])


def random_codes(widths, seed):
    """60 code rows over points of `widths` outcomes, each point's columns
    drawn from 4 factors, each row twice over, with many ties at every
    point."""
    rng = np.random.default_rng(seed)
    parts = [rng.integers(0, 2, size=(4, w)).astype(bool)[rng.integers(0, 4, size=60)]
             for w in widths]
    codes = np.hstack([np.zeros((60, 0), dtype=bool), *parts])
    return np.vstack([codes, codes[::-1]])


@pytest.mark.parametrize("widths", [  # each point's outcome count
    [], [1], [2, 2, 2], [62, 1], [31, 32], [1] * 63,  # one int64: at most 63 columns
    [62, 2], [1] * 64, [62, 62, 62], [62, 8, 2],  # packed bytes
    "70 outcomes",
])
def test_keys_against_void_keys(widths):
    if widths == "70 outcomes":
        codes = seventy_outcome_codes()
        assert codes.dtype == bool and codes.shape[1] == 72
    else:
        codes = random_codes(widths, len(widths) + sum(widths))
    keys = code_keys(codes)
    assert (keys.dtype == np.int64) == (codes.shape[1] <= 63)
    # two rows share a key exactly when they share their void key
    ref = reference_row_keys(codes)
    assert ((keys[:, None] == keys[None, :]) == (ref[:, None] == ref[None, :])).all()
    # the keys sort in the rows' lexicographic order, first column first
    order = np.argsort(keys, kind="stable")
    want = np.lexsort(codes.T[::-1]) if codes.shape[1] else np.arange(len(codes))
    assert order.tolist() == want.tolist()
    # a stack of codes gives the keys of its rows, flattened
    half = len(codes) // 2
    stacked = code_keys(codes[:2 * half].reshape(2, half, codes.shape[1]))
    assert stacked.tobytes() == keys[:2 * half].tobytes()


def test_int64_keys_in_slices(monkeypatch):
    # the int64 keys are formed a slice of rows at a time
    codes = random_codes([3, 5, 2], 7).reshape(4, 30, 10)
    whole = code_keys(codes)
    monkeypatch.setattr(words_mod, "KEY_ROWS", 7)
    assert code_keys(codes).tobytes() == whole.tobytes()
    assert code_keys(codes[:0]).shape == (0,)


def test_packed_keys_put_the_first_column_highest():
    codes = np.array([[1, 0, 0, 0], [0, 1, 1, 1], [0, 0, 0, 1]], dtype=bool)
    assert code_keys(codes).tolist() == [0b1000, 0b0111, 0b0001]
    assert code_keys(np.ones((1, 63), dtype=bool)).tolist() == [2**63 - 1]

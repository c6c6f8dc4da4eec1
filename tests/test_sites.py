"""Order structure of finite causal sites."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsproc import fixtures, sites
from qsproc.kernels import check_axioms
from qsproc.models import check_model
from qsproc.reconstruct import reconstruct, verify_decomposition
from qsproc.sites import (
    CausalSite,
    SiteSymmetry,
    chain_site,
    check_symmetry,
    discrete_site,
    galilean_site,
    minkowski_site,
)
from qsproc.words import enumerate_words


def is_nonanticipatory(site, pts) -> bool:
    return all(
        site.nonanticipatory_pair(a, b) for a, b in itertools.combinations(pts, 2)
    )


def strictly_after(site, j, jp) -> bool:
    """j comes strictly after j': disjoint, every point of j' strictly
    precedes a point of j, and no point of j strictly precedes one of j'."""
    return (
        bool(j)
        and not set(j) & set(jp)
        and all(any(site.strictly_precedes(a, b) for b in j) for a in jp)
        and not any(site.strictly_precedes(b, a) for b in j for a in jp)
    )


def join(site, j, jp) -> frozenset:
    """max(j ∪ j'): the maximal points of the union, the join of the
    semilattice of nonanticipatory subsets."""
    return site.maximal_points(set(j) | set(jp))


def trivial_symmetry(site) -> SiteSymmetry:
    ident = {t: t for t in site.points}
    return SiteSymmetry(("id",), {"id": ident}, {("id", "id"): "id"})


def minkowski_relation(p, q, c=1):
    """Independent oracle: evaluate the cone inequality directly."""
    dtau = Fraction(q[0]) - Fraction(p[0])
    dr2 = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(p[1:], q[1:]))
    return dtau >= 0 and dr2 <= Fraction(c) ** 2 * dtau**2


DIAMOND = [(0, 0), (1, Fraction(1, 2)), (1, Fraction(-1, 2)), (2, 0)]


class TestClassifyPair:
    def test_minkowski_timelike_precedes(self):
        site = minkowski_site([(0, 0), (1, Fraction(1, 2))], c=1)
        a, b = site.points
        assert minkowski_relation((0, 0), (1, Fraction(1, 2)))
        assert site.strictly_precedes(a, b)
        assert not site.le(b, a)
        assert not site.nonanticipatory_pair(a, b)

    def test_reflexive_pair_equivalent(self):
        site = minkowski_site(DIAMOND, c=1)
        for t in site.points:
            assert site.equivalent(t, t)
            assert site.nonanticipatory_pair(t, t)

    def test_spacelike_independent(self):
        site = minkowski_site(DIAMOND, c=1)
        _, b, c, _ = site.points
        assert not minkowski_relation(DIAMOND[1], DIAMOND[2])
        assert not minkowski_relation(DIAMOND[2], DIAMOND[1])
        assert site.independent(b, c)
        assert site.nonanticipatory_pair(b, c)

    def test_unknown_point(self):
        site = chain_site(("a", "b"))
        with pytest.raises(KeyError):
            site.nonanticipatory_pair("a", "zz")


class TestMinkowskiSite:
    def test_single_point_identity(self):
        site = minkowski_site([(0, 0)])
        assert site.leq == ((True,),)

    def test_diamond_relations_match_oracle(self):
        site = minkowski_site(DIAMOND, c=1)
        for i, j in itertools.product(range(4), repeat=2):
            assert site.leq[i][j] == minkowski_relation(DIAMOND[i], DIAMOND[j])

    def test_diamond_maximal_antichains(self):
        site = minkowski_site(DIAMOND, c=1)
        p = site.points
        expected = {
            frozenset({p[0]}),
            frozenset({p[1], p[2]}),
            frozenset({p[3]}),
        }
        assert set(site.maximal_antichains) == expected

    def test_collinear_chain_total_order(self):
        site = minkowski_site([(0, 0), (1, 0), (2, 0)], c=1)
        a, b, c = site.points
        assert site.strictly_precedes(a, b)
        assert site.strictly_precedes(b, c)
        assert site.strictly_precedes(a, c)

    def test_near_cone_float_rejected(self):
        with pytest.raises(ValueError, match="light cone"):
            minkowski_site([(0.0, 0.0), (1.0, 1.0 + 1e-13)], c=1)

    def test_exactly_lightlike_allowed(self):
        site = minkowski_site([(0, 0), (1, 1)], c=1)
        a, b = site.points
        assert site.strictly_precedes(a, b)

    def test_nonpositive_speed_rejected(self):
        with pytest.raises(ValueError):
            minkowski_site([(0, 0)], c=0)


class TestGalileanSite:
    def test_equal_times_equivalent(self):
        site = galilean_site([1, 1])
        a, b = site.points
        assert site.equivalent(a, b)

    def test_factor_set(self):
        site = galilean_site([0, 1, 1, 2])
        assert len(site.equivalence_classes) == 3

    def test_single_time_one_class(self):
        site = galilean_site([5, 5, 5])
        assert len(site.equivalence_classes) == 1
        assert site.maximal_antichains == (frozenset(site.points),)


class TestChainDecompose:
    def test_diamond_full_region(self):
        site = minkowski_site(DIAMOND, c=1)
        p = site.points
        blocks = site.chain_decompose(p)
        assert blocks == (
            frozenset({p[0]}),
            frozenset({p[1], p[2]}),
            frozenset({p[3]}),
        )

    def test_single_point(self):
        site = chain_site(("a", "b"))
        assert site.chain_decompose({"a"}) == (frozenset({"a"}),)

    def test_linear_region_singletons(self):
        site = chain_site(tuple("abcde"))
        blocks = site.chain_decompose(site.points)
        assert blocks == tuple(frozenset({t}) for t in site.points)

    def test_empty_region(self):
        site = chain_site(("a",))
        assert site.chain_decompose(()) == ()


class TestEnumerateAntichains:
    def test_singleton_site(self):
        site = chain_site(("a",))
        assert site.maximal_antichains == (frozenset({"a"}),)

    def test_total_order_singletons(self):
        site = chain_site(tuple("abcd"))
        assert set(site.maximal_antichains) == {
            frozenset({t}) for t in "abcd"
        }

    def test_every_block_in_some_slice(self):
        site = minkowski_site(DIAMOND, c=1)
        for k in site.all_nonanticipatory():
            if k:
                assert site.antichains_containing(k)

    def test_cap(self, monkeypatch):
        site = discrete_site(tuple(f"p{i}" for i in range(8)))
        assert len(site.all_nonanticipatory()) == 2**8
        monkeypatch.setattr(sites, "ANTICHAIN_CAP", 10)
        with pytest.raises(ValueError, match="cap"):
            site.all_nonanticipatory()

    def test_each_site_derives_its_slices_once(self, monkeypatch):
        # the model check, the kernel table, the axioms, the reconstruction
        # and its verification all read the one site's slices
        calls = []
        derive = sites._maximal_antichains
        monkeypatch.setattr(sites, "_maximal_antichains",
                            lambda site: calls.append(site) or derive(site))
        model, site = fixtures.tensor_chain(3)
        assert check_model(model, site).ok
        oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
        assert not check_axioms(oracle).failed
        assert verify_decomposition(reconstruct(oracle), oracle).ok
        assert len(calls) == 1 and calls[0] is site
        assert site.maximal_antichains is site.maximal_antichains


class TestValidation:
    def test_non_reflexive_rejected(self):
        with pytest.raises(ValueError, match="reflexive"):
            CausalSite(points=("a",), leq=((False,),))

    def test_non_transitive_rejected(self):
        leq = (
            (True, True, False),
            (False, True, True),
            (False, False, True),
        )
        with pytest.raises(ValueError, match="transitively"):
            CausalSite(points=("a", "b", "c"), leq=leq)

    @pytest.mark.parametrize("pairs, triple", [
        # (a, c, d) and (b, a, c): the first point decides, not the middle
        # or the last
        ({"ac", "cd", "ba"}, "acd"),
        # (a, b, d) and (a, c, d): then the middle one
        ({"ab", "bd", "ac", "cd"}, "abd"),
        # (a, b, c) and (a, b, d): then the last one
        ({"ab", "bc", "bd"}, "abc"),
    ])
    def test_first_transitivity_violation_named(self, pairs, triple):
        points = ("a", "b", "c", "d")
        leq = tuple(tuple(s == t or s + t in pairs for t in points) for s in points)
        i, j, k = (repr(t) for t in triple)
        message = f"relation is not transitively closed: {i} <= {j} <= {k} but not {i} <= {k}"
        with pytest.raises(ValueError) as info:
            CausalSite(points=points, leq=leq)
        assert str(info.value) == message

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            CausalSite(points=("a", "a"), leq=((True, True), (True, True)))


class TestSymmetry:
    def test_identity_valid(self):
        site = chain_site(("a", "b", "c"))
        assert check_symmetry(site, trivial_symmetry(site)) == []

    def test_cyclic_shift_on_trivial_preorder(self):
        site = discrete_site(("a", "b", "c"))
        maps = {"r": {"a": "b", "b": "c", "c": "a"}, "id": {t: t for t in site.points}}
        sym = SiteSymmetry(
            ("id", "r"),
            maps,
            {("id", "id"): "id", ("id", "r"): "r", ("r", "id"): "r"},
        )
        assert check_symmetry(site, sym) == []

    def test_order_reversal_flagged(self):
        site = chain_site(("a", "b", "c"))
        maps = {"s": {"a": "b", "b": "c", "c": "a"}}
        sym = SiteSymmetry(("s",), maps, {})
        problems = check_symmetry(site, sym)
        assert problems[0] == "symmetry element 's' does not preserve the order of 'a' and 'c'"
        assert all("does not preserve the order" in p for p in problems)

    def test_partial_map_monotone(self):
        site = chain_site(("a", "b", "c"))
        sym = SiteSymmetry(("s",), {"s": {"a": "b", "b": "c"}}, {})
        assert check_symmetry(site, sym) == []

    def test_composition_violation(self):
        site = discrete_site(("a", "b"))
        maps = {"s": {"a": "b", "b": "a"}, "id": {"a": "a", "b": "b"}}
        sym = SiteSymmetry(("id", "s"), maps, {("s", "s"): "s"})
        assert check_symmetry(site, sym) == [
            "symmetry element 's' after 's' is not 's' at 'a'",
            "symmetry element 's' after 's' is not 's' at 'b'",
        ]

    def test_unknown_product_flagged(self):
        # a composition table naming an element without a map is a violation,
        # not a lookup error
        site = discrete_site(("a", "b"))
        sym = SiteSymmetry(("s",), {"s": {"a": "b", "b": "a"}}, {("s", "s"): "q"})
        assert check_symmetry(site, sym) == [
            "symmetry element 's' after 's' is not 'q' at 'a'",
            "symmetry element 's' after 's' is not 'q' at 'b'",
        ]

    def test_unknown_targets_come_alone(self):
        # a map leaving the site is named first, and the order and
        # composition checks, which would look the stray point up, are skipped
        site = chain_site(("a", "b"))
        maps = {"s": {"a": "b", "b": "a"}, "t": {"a": "zz"}}
        sym = SiteSymmetry(("s", "t"), maps, {("s", "s"): "t"})
        assert check_symmetry(site, sym) == [
            "symmetry element 't' maps 'a' to 'zz', outside the site's points"
        ]
        with pytest.raises(ValueError, match="^symmetry element 't' maps 'a' to 'zz'"):
            sites.require_symmetry(site, sym)

    def test_the_site_refuses_a_symmetry_that_breaks_its_order(self):
        site = chain_site(("a", "b", "c"))
        sym = SiteSymmetry(("s",), {"s": {"a": "b", "b": "c", "c": "a"}}, {})
        with pytest.raises(ValueError, match="^symmetry element 's' does not preserve"):
            CausalSite(site.points, site.leq, symmetry=sym)
        acted = CausalSite(site.points, site.leq, symmetry=trivial_symmetry(site))
        assert acted == site and hash(acted) == hash(site)


# -- property tests over random preorders -----------------------------------


def preorders(max_points=5):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_points))
        bits = draw(
            st.lists(st.booleans(), min_size=n * n, max_size=n * n)
        )
        rel = [[bits[i * n + j] or i == j for j in range(n)] for i in range(n)]
        # Warshall closure makes any seed a legal preorder
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    rel[i][j] = rel[i][j] or (rel[i][k] and rel[k][j])
        return CausalSite(
            points=tuple(f"p{i}" for i in range(n)),
            leq=tuple(tuple(row) for row in rel),
        )

    return build()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
def test_transitivity_refusal_matches_the_triple_loop(bits):
    # any reflexive relation: refused, naming the first violating triple in
    # `itertools.product` order, exactly when the triple loop finds one
    n = math.isqrt(len(bits))
    leq = tuple(tuple(bits[i * n + j] or i == j for j in range(n)) for i in range(n))
    points = tuple(f"p{i}" for i in range(n))
    first = next(((i, j, k) for i, j, k in itertools.product(range(n), repeat=3)
                  if leq[i][j] and leq[j][k] and not leq[i][k]), None)
    if first is None:
        assert CausalSite(points=points, leq=leq).leq == leq
        return
    i, j, k = (repr(points[x]) for x in first)
    with pytest.raises(ValueError) as info:
        CausalSite(points=points, leq=leq)
    assert str(info.value) == (
        f"relation is not transitively closed: {i} <= {j} <= {k} but not {i} <= {k}")


@settings(max_examples=50, deadline=None)
@given(preorders(max_points=5))
def test_maximal_antichains_match_brute_force(site):
    n = len(site.points)
    nonanticipatory = [
        frozenset(c)
        for r in range(1, n + 1)
        for c in itertools.combinations(site.points, r)
        if is_nonanticipatory(site, c)
    ]
    maximal = {
        a for a in nonanticipatory if not any(a < b for b in nonanticipatory)
    }
    assert set(site.maximal_antichains) == maximal


@settings(max_examples=50, deadline=None)
@given(preorders(max_points=5))
def test_all_nonanticipatory_matches_brute_force(site):
    n = len(site.points)
    expected = {
        frozenset(c)
        for r in range(n + 1)
        for c in itertools.combinations(site.points, r)
        if is_nonanticipatory(site, c)
    }
    assert set(site.all_nonanticipatory()) == expected


@settings(max_examples=60, deadline=None)
@given(preorders())
def test_chain_decompose_partitions(site):
    blocks = site.chain_decompose(site.points)
    flat = [t for b in blocks for t in b]
    assert sorted(flat) == sorted(site.points)
    assert len(flat) == len(set(flat))
    for b in blocks:
        assert is_nonanticipatory(site, b)


@settings(max_examples=60, deadline=None)
@given(preorders())
def test_chain_blocks_strictly_ordered(site):
    blocks = site.chain_decompose(site.points)
    for earlier, later in zip(blocks, blocks[1:]):
        assert strictly_after(site, later, earlier)


@settings(max_examples=60, deadline=None)
@given(preorders())
def test_chain_decompose_idempotent(site):
    blocks = site.chain_decompose(site.points)
    again = site.chain_decompose(set().union(*blocks)) if blocks else ()
    assert blocks == again


@settings(max_examples=40, deadline=None)
@given(preorders(max_points=4))
def test_join_characterizes_strict_order(site):
    antichains = [k for k in site.all_nonanticipatory() ]
    for j, jp in itertools.product(antichains, repeat=2):
        strict = strictly_after(site, j, jp)
        via_join = bool(j) and join(site, j, jp) == j and not (j & jp)
        assert strict == via_join


@settings(max_examples=40, deadline=None)
@given(preorders(max_points=4))
def test_monotone_maps_preserve_antichains(site):
    # the identity is monotone; so is any automorphism generated by sorting
    sym = trivial_symmetry(site)
    assert check_symmetry(site, sym) == []
    m = sym.maps["id"]
    for k in site.all_nonanticipatory():
        image = frozenset(m[t] for t in k)
        assert is_nonanticipatory(site, image)


def test_shift_sends_antichains_into_slices():
    # a genuine (partial, non-identity) monotone map: images of
    # nonanticipatory sets stay nonanticipatory and every image of a maximal
    # antichain lands inside some maximal antichain
    from qsproc.fixtures import galilean_shift_fixture

    _, site = galilean_shift_fixture()
    sym = site.symmetry
    assert check_symmetry(site, sym) == []
    for s in ("s1", "s2"):
        m = dict(sym.maps[s])
        for k in site.all_nonanticipatory():
            if not all(t in m for t in k):
                continue
            image = frozenset(m[t] for t in k)
            assert is_nonanticipatory(site, image)
        for l in site.maximal_antichains:
            if all(t in m for t in l):
                image = frozenset(m[t] for t in l)
                assert any(image <= lp for lp in site.maximal_antichains)

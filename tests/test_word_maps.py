"""The oracle's array word maps against the per-word formulas they replaced.

`reference_slice_axioms`, `reference_words_within` and
`reference_represent_event` are the per-word loops (`pointwise_product`,
`EventWord.from_dict`, `oracle.index`) that the word codes replaced; they are
kept here so that the exact slice pass, the word maps and the projectors are
held to them bit for bit.  `check_slice_axioms` reports the certified screen's
bounds on a pass, so it is held to the reference by `assert_dominates`.
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsproc import bridges, fixtures, kernels, linalg, serialize, words as words_mod
from qsproc import reconstruct as recon_mod
from qsproc.config import RunConfig
from qsproc.kernels import (
    KernelOracle,
    _additivity_residuals,
    _first_worst,
    _word_label,
    check_axioms,
    check_slice_axioms,
)
from qsproc.models import Check, HilbertModel, SymmetryRep
from qsproc.reconstruct import (
    ReconstructionRefused,
    build_space,
    reconstruct,
    represent_algebra,
    represent_events,
    represent_symmetry,
)
from qsproc.sites import SiteSymmetry, chain_site
from qsproc.words import (
    EventWord,
    OutcomeSpaces,
    enumerate_words,
    event_label,
    pointwise_product,
    pointwise_product_table,
    unit_word,
)

from kernel_tables import with_table


def reference_words_within(oracle, region):
    region = set(region)
    return [i for i, w in enumerate(oracle.words) if set(w.support) <= region]


def reference_slice_axioms(oracle, config=RunConfig()):
    """One pass over the maximal slices, right-multiplying word by word.
    The event and partition lists are read from `kernels` at call time, as
    the library reads them."""
    site, spaces, table = oracle.site, oracle.spaces, oracle.table
    add_worst, add_witness, add_missing = 0.0, "", None
    fac_worst, fac_witness, fac_missing = 0.0, "", None
    for l in oracle.site.maximal_antichains:
        idx = np.array(reference_words_within(oracle, site.down_set(l)), dtype=int)
        if not idx.size:
            continue
        words = [oracle.words[i] for i in idx]
        points = sorted(l, key=site.index)
        found, gaps = [], []
        for tp, t in enumerate(points):
            outs = spaces.outcomes(t)
            maps = {}
            for b in kernels.subsets(outs):
                ev = EventWord.from_dict({t: b}, spaces)
                mapped = [oracle.index(pointwise_product(w, ev, spaces)) for w in words]
                maps[b] = np.array([-1 if j is None else j for j in mapped], dtype=int)
                if None in mapped:
                    fac_missing = fac_missing or (
                        f"{_word_label(words[mapped.index(None)])} multiplied by "
                        f"{sorted(b)}@{t!r} is outside the word list"
                    )
                    continue
                r = float(np.max(np.abs(
                    table[np.ix_(maps[b], idx)] - table[np.ix_(idx, maps[b])]
                )))
                if r > fac_worst:
                    fac_worst, fac_witness = r, (
                        f"event {sorted(b)}@{t!r} on slice {sorted(l)}"
                    )
            factors = [w.factor(t, spaces) for w in words]
            for f in dict.fromkeys(factors):
                pos = np.array([p for p, g in enumerate(factors) if g == f])
                for k, parts in enumerate(kernels.partitions_of_factor(outs, f)):
                    if len(parts) <= 1 and f:
                        continue
                    j = np.array([maps[p][pos] for p in parts], dtype=int)
                    j = j.reshape(len(parts), pos.size)
                    present = (j >= 0).all(axis=0)
                    gaps.extend((p, tp) for p in pos[~present])
                    if present.any():
                        found.append(_additivity_residuals(
                            table, idx[pos[present]], j[:, present]
                        ) + (pos[present], tp, k))
        if gaps and add_missing is None:
            p, tp = min(gaps)
            add_missing = (
                f"partition members of {_word_label(words[p])} at {points[tp]!r} "
                "are outside the word list"
            )
        r, at = _first_worst(found)
        if r > add_worst:
            p, tp, _, kind = at
            add_worst, add_witness = r, (
                f"{('diagonal', 'linear')[kind]} additivity of "
                f"{_word_label(words[p])} split at {points[tp]!r}"
            )
    tol = config.axiom_tol
    return (
        Check("sigma_additivity", add_worst, add_witness, tol, add_missing),
        Check("factorizability", fac_worst, fac_witness, tol, fac_missing),
    )


def reference_represent_event(gns, block, event, strict_closure=True):
    oracle = gns.oracle
    site = oracle.site
    eligible: set[int] = set()
    for l in oracle.site.antichains_containing(frozenset(block)):
        eligible.update(reference_words_within(oracle, site.down_set(l)))
    idx, targets = [], []
    for i in sorted(eligible):
        j = oracle.index(pointwise_product(oracle.words[i], event, oracle.spaces))
        if j is None:
            if strict_closure:
                raise ReconstructionRefused(
                    f"word list is not closed under multiplication by "
                    f"{event_label(event)}; close it with the all-subsets policy"
                )
            continue
        idx.append(i)
        targets.append(j)
    x = gns.coords[:, [i * gns.kdim + a for i in idx for a in range(gns.kdim)]]
    y = gns.coords[:, [i * gns.kdim + a for i in targets for a in range(gns.kdim)]]
    return linalg.map_on_span(x, y, gns.config.rank_tol)


# -- inputs ---------------------------------------------------------------------

NAMED = ["qubit_zx", "qubit_xz", "ancilla_correlated", "commuting_diagonal",
         "diagonal_kdim2", "controlled_kdim2"]


def named_model(name):
    if name == "tensor_chain(3)":
        return fixtures.tensor_chain(3)
    if name.startswith("random_valid_model"):
        return fixtures.random_valid_model(int(name[19:-1]))
    return getattr(fixtures, name)()


CASES = [*NAMED, "tensor_chain(3)", *(f"random_valid_model({s})" for s in range(12))]


def oracles(name, policy):
    """The model's table on its word list, that table with seeded noise on a
    few entries (so residuals and witnesses are not all zero), and the noisy
    table on a seeded sublist of the words (a list that is not closed)."""
    model, site = named_model(name)
    words = enumerate_words(site, model.spaces, policy)
    exact = model.kernel_table(site, words)
    rng = np.random.default_rng(len(words))
    n, k = len(words), model.kdim

    def noise(table):
        for i, j in rng.integers(0, n, size=(3, 2)):
            table[i, j] += 1e-3 * (rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))

    noisy = with_table(model.kernel_table(site, words), noise)
    keep = sorted(set(rng.choice(n, size=max(1, 3 * n // 4), replace=False)) | {0})
    sub = KernelOracle(
        site=site, spaces=model.spaces, kdim=k,
        words=tuple(words[i] for i in keep), table=noisy.table[np.ix_(keep, keep)],
    )
    return exact, noisy, sub


def wide_oracle():
    """A chain (a, b) whose point a has 70 outcomes, so its codes take 72
    columns and their keys are packed bytes, over words whose factors
    straddle outcome 62, with a model table."""
    outs = tuple(f"x{i}" for i in range(70))
    spaces = OutcomeSpaces({"a": outs, "b": ("0", "1")})
    site = chain_site(("a", "b"))
    dim = 2 * len(outs)
    atoms = {
        "a": {x: np.kron(np.diag(np.eye(len(outs))[i]), np.eye(2))
              for i, x in enumerate(outs)},
        "b": {x: np.kron(np.eye(len(outs)), fixtures.rotated_atoms(0.4)[x])
              for x in ("0", "1")},
    }
    xi = np.kron(np.full(len(outs), len(outs) ** -0.5), [np.cos(0.3), np.sin(0.3)])
    model = HilbertModel(dim=dim, embedding=xi[:, None].astype(complex), atoms=atoms,
                         spaces=spaces)
    factors_a = [None, *({x} for x in outs), set(outs[58:66]), set(outs[61:63]),
                 set(outs) - {"x3", "x64"}, set(), {"x0", "x69"}]
    word_list = [
        EventWord.from_dict({**({} if fa is None else {"a": fa}),
                             **({} if fb is None else {"b": fb})}, spaces)
        for fa in factors_a for fb in (None, {"0"}, {"1"})
    ]
    return model.kernel_table(site, word_list)


def sampled_subsets(outs):
    """Every subset of a small outcome set; for a wide one, a fixed sample
    on both sides of outcome 62."""
    if len(outs) <= 8:
        return words_mod.subsets(outs)
    picks = [(), (0,), (3,), (61,), (62,), (64,), (69,), range(58, 66), range(61, 63),
             (0, 69), [i for i in range(70) if i not in (3, 64)], range(70)]
    return [frozenset(outs[i] for i in p) for p in picks]


def sampled_partitions(outs, b):
    """Every partition of a factor; for a wide outcome set, those into
    parts from `sampled_subsets`, so that each part has its map."""
    if len(outs) <= 8:
        return words_mod.partitions_of_factor(outs, b)
    b = frozenset(b)
    if not b:
        return [()]
    parts = [s for s in sampled_subsets(outs) if s and s <= b]
    return [
        combo for r in range(1, 4) for combo in itertools.combinations(parts, r)
        if sum(map(len, combo)) == len(b) and frozenset().union(*combo) == b
    ]


# -- the slice pass ----------------------------------------------------------------


def exact_slice_axioms(oracle, config=RunConfig()):
    """The records of the exact pass (`KernelOracle.slice_residuals`)."""
    (add, add_wit, add_miss), (fac, fac_wit, fac_miss) = oracle.slice_residuals
    tol = config.axiom_tol
    return (Check("sigma_additivity", add, add_wit, tol, add_miss),
            Check("factorizability", fac, fac_wit, tol, fac_miss))


def assert_dominates(got, want):
    """`got` (`check_slice_axioms`) against `want` (the exact pass): equal
    verdicts, a record that does not pass equal to the exact one, and a
    passing residual between the exact residual and the tolerance."""
    for g, w in zip(got, want, strict=True):
        assert (g.name, g.status, g.tolerance) == (w.name, w.status, w.tolerance)
        if w.status == "pass":
            assert w.residual <= g.residual <= g.tolerance
        else:
            assert g.to_dict() == w.to_dict()


@pytest.mark.parametrize("policy", ["all_subsets", "atoms_plus_unit"])
@pytest.mark.parametrize("name", CASES)
def test_slice_axioms_match_the_per_word_pass(name, policy):
    for oracle in oracles(name, policy):
        for config in (RunConfig(), RunConfig(axiom_tol=1e-2)):
            want = reference_slice_axioms(oracle, config)
            exact = exact_slice_axioms(oracle, config)
            assert [c.to_dict() for c in exact] == [c.to_dict() for c in want]
            assert_dominates(check_slice_axioms(oracle, config), want)


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(CASES),
    at=st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
    scale=st.floats(-1.5, 1.5),  # the perturbation is axiom_tol * 10**scale
    phase=st.floats(0, 2 * np.pi),
    hermitian=st.booleans(),
    tol=st.sampled_from([RunConfig.axiom_tol, 1e-12, 1e-6]),
)
def test_the_screen_dominates_the_exact_pass(name, at, scale, phase, hermitian, tol):
    # random valid models, and their tables perturbed at one entry by
    # amounts on both sides of the tolerance
    model, site = named_model(name)
    words = enumerate_words(site, model.spaces)
    exact = model.kernel_table(site, words)
    i, j = (int(u * len(words)) for u in at)
    amount = tol * 10.0**scale * np.exp(1j * phase)

    def perturb(table):
        table[i, j, 0, 0] += amount
        if hermitian and i != j:
            table[j, i, 0, 0] += np.conjugate(amount)

    config = RunConfig(axiom_tol=tol)
    for oracle in (exact, with_table(exact, perturb)):
        want = exact_slice_axioms(oracle, config)
        assert_dominates(check_slice_axioms(oracle, config), want)


def forbid_the_exact_pass(monkeypatch):
    def forbidden(oracle):
        raise AssertionError("the exact slice pass ran")

    monkeypatch.setattr(kernels, "_slice_pass", forbidden)


@pytest.mark.parametrize("n, canonical", [(4, True), (5, False)])
def test_the_exact_pass_stays_off_valid_inputs(monkeypatch, n, canonical):
    # a valid table with full closure is certified by the screen alone, from
    # the model and from its JSON table (through the text at 256 words, the
    # JSON-ready dict at 1,024)
    model, site = fixtures.tensor_chain(n, canonical=canonical)
    oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
    data = serialize.oracle_to_json(oracle)
    table = serialize.oracle_from_json(json.loads(serialize.dumps(data)) if n == 4 else data)
    assert table.model is None and table.table.tobytes() == oracle.table.tobytes()
    forbid_the_exact_pass(monkeypatch)
    for o in (oracle, table):
        add, fac = check_slice_axioms(o)
        assert (add.status, fac.status) == ("pass", "pass")
        assert check_axioms(o).ok
        build_space(o)


def test_the_exact_pass_runs_where_the_screen_cannot_certify(monkeypatch):
    model, site = fixtures.tensor_chain(3)
    words = enumerate_words(site, model.spaces)

    def perturb(table):
        table[1, 1] += 1e-7  # a word with an empty factor

    perturbed = with_table(model.kernel_table(site, words), perturb)
    sparse = model.kernel_table(site, enumerate_words(site, model.spaces, "atoms_plus_unit"))
    assert sparse.slice_screen is None  # not closed
    forbid_the_exact_pass(monkeypatch)
    for o in (perturbed, sparse):
        with pytest.raises(AssertionError, match="exact slice pass ran"):
            check_slice_axioms(o)


def test_the_screen_reads_a_rank_zero_factor():
    # an all-zero table factors at rank 0: every bound is 0
    model, site = fixtures.qubit_zx()
    oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
    zero = with_table(oracle, lambda table: table.fill(0.0))
    assert zero.cholesky.rows.shape[0] == 0
    assert zero.slice_screen == ((0.0, "", None), (0.0, "", None))
    assert check_slice_axioms(zero) == exact_slice_axioms(zero)


def test_inconclusive_witnesses_on_a_sublist():
    _, _, sub = oracles("random_valid_model(1)", "all_subsets")
    add, fac = check_slice_axioms(sub)
    assert (add.status, fac.status) == ("inconclusive", "inconclusive")
    assert [add.witness, fac.witness] == [c.witness for c in reference_slice_axioms(sub)]


def test_slice_axioms_across_the_62_bit_cut(monkeypatch):
    monkeypatch.setattr(kernels, "subsets", sampled_subsets)
    monkeypatch.setattr(kernels, "partitions_of_factor", sampled_partitions)
    oracle = wide_oracle()
    assert oracle.codes.shape == (len(oracle.words), 72)
    # the kernel of a word with an empty factor must vanish
    empty = oracle.index(EventWord.from_dict({"a": ()}, oracle.spaces))

    def perturb(table):
        table[empty, 0] += 1e-3

    noisy = with_table(wide_oracle(), perturb)
    for o in (oracle, noisy):
        got = [c.to_dict() for c in check_slice_axioms(o)]
        assert got == [c.to_dict() for c in reference_slice_axioms(o)]
    assert check_slice_axioms(noisy)[1].residual > 0.0


# -- the maps themselves -----------------------------------------------------------


@pytest.mark.parametrize("name", ["tensor_chain(3)", "random_valid_model(9)"])
def test_maps_match_word_by_word(name):
    for oracle in oracles(name, "all_subsets"):
        site, spaces = oracle.site, oracle.spaces
        regions = [site.down_set(l) for l in oracle.site.maximal_antichains]
        for region in [*regions, (), site.points, site.points[:1]]:
            assert oracle.words_within(region) == reference_words_within(oracle, region)
        for t in site.points:
            for b in words_mod.subsets(spaces.outcomes(t)):
                ev = EventWord.from_dict({t: b}, spaces)
                want = [oracle.index(pointwise_product(w, ev, spaces)) for w in oracle.words]
                got = oracle.right_products(ev)
                assert got.tolist() == [-1 if j is None else j for j in want]
        # a two-point event at once, not as two steps
        t, u = site.points[:2]
        ev = EventWord.from_dict(
            {t: spaces.outcomes(t)[:1], u: spaces.outcomes(u)[1:]}, spaces)
        want = [oracle.index(pointwise_product(w, ev, spaces)) for w in oracle.words]
        assert oracle.right_products(ev).tolist() == [-1 if j is None else j for j in want]


def test_maps_across_the_62_bit_cut():
    oracle = wide_oracle()
    spaces = oracle.spaces
    assert oracle.lookup(oracle.codes).tolist() == list(range(len(oracle.words)))
    for b in sampled_subsets(spaces.outcomes("a")):
        for ev in (EventWord.from_dict({"a": b}, spaces),
                   EventWord.from_dict({"a": b, "b": {"1"}}, spaces)):
            want = [oracle.index(pointwise_product(w, ev, spaces)) for w in oracle.words]
            got = oracle.right_products(ev).tolist()
            assert got == [-1 if j is None else j for j in want]
            assert max(got) >= 0
    for region in [(), ("a",), ("b",), ("a", "b")]:
        assert oracle.words_within(region) == reference_words_within(oracle, region)


def test_codes_are_the_product_table_encoding():
    model, site = fixtures.tensor_chain(3)
    words = enumerate_words(site, model.spaces)
    oracle = model.kernel_table(site, words)
    assert oracle.codes.dtype == bool
    assert oracle.codes.shape == (len(words), 6)
    assert oracle.codes[words.index(unit_word())].all()
    merged, index = pointwise_product_table(words, model.spaces)
    lookup = oracle.lookup(oracle.codes[:, None, :] & oracle.codes[None, :, :])
    assert [[merged[k] for k in row] for row in index] == \
        [[words[k] for k in row] for row in lookup]


def test_a_word_off_the_site_is_refused():
    # a word names only points of the site, so the word codes have a column
    # for every point a word names
    spaces = OutcomeSpaces({"t": ("0", "1"), "z": ("0", "1")})
    site = chain_site(("t",))
    words = [unit_word(), EventWord.from_dict({"t": {"1"}}, spaces),
             EventWord.from_dict({"t": {"1"}, "z": {"0"}}, spaces)]
    with pytest.raises(ValueError, match=r"^word \{\['1'\]@t, \['0'\]@z\} names point "
                                         r"'z', which is not in the site$"):
        KernelOracle(site=site, spaces=spaces, kdim=1,
                     words=tuple(words), table=np.zeros((3, 3, 1, 1)))
    oracle = KernelOracle(site=site, spaces=spaces, kdim=1,
                          words=tuple(words[:2]), table=np.zeros((2, 2, 1, 1)))
    assert list(oracle._columns) == ["t"]
    assert oracle.right_products(EventWord.from_dict({"t": {"1"}}, spaces)).tolist() == [1, 1]


# -- represented events ------------------------------------------------------------


@pytest.mark.parametrize("name", ["qubit_zx", "controlled_kdim2", "tensor_chain(3)",
                                  *(f"random_valid_model({s})" for s in range(12))])
def test_represented_events_match_word_by_word(name):
    model, site = named_model(name)
    gns = build_space(model.kernel_table(site, enumerate_words(site, model.spaces)))
    atoms = represent_events(gns)
    for t, fam in atoms.items():
        for x, p in fam.items():
            atom = EventWord.from_dict({t: {x}}, model.spaces)
            want = reference_represent_event(gns, {t}, atom)
            assert p.tobytes() == want.tobytes()


def test_represented_events_across_the_62_bit_cut(monkeypatch):
    monkeypatch.setattr(kernels, "subsets", sampled_subsets)
    monkeypatch.setattr(kernels, "partitions_of_factor", sampled_partitions)
    gns = build_space(wide_oracle())
    with pytest.raises(ReconstructionRefused, match="not closed"):
        represent_events(gns)
    atoms = represent_events(gns, strict_closure=False)
    for t, fam in atoms.items():
        for x, p in fam.items():
            atom = EventWord.from_dict({t: {x}}, gns.oracle.spaces)
            want = reference_represent_event(gns, {t}, atom, False)
            assert p.tobytes() == want.tobytes()


def test_no_per_word_multiplication(monkeypatch):
    model, site = fixtures.random_valid_model(3)
    oracle = model.kernel_table(site, enumerate_words(site, model.spaces))

    def forbidden(*args, **kwargs):
        raise AssertionError("per-word call")

    monkeypatch.setattr(words_mod, "pointwise_product", forbidden)
    monkeypatch.setattr(EventWord, "from_dict", staticmethod(forbidden))
    monkeypatch.setattr(KernelOracle, "index", forbidden)
    assert not any(hasattr(m, "pointwise_product") for m in (kernels, recon_mod))
    check_slice_axioms(oracle)
    represent_events(build_space(oracle))


def test_memoised_maps_follow_table_edits():
    model, site = fixtures.qubit_zx()
    oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
    assert check_slice_axioms(oracle)[0].status == "pass"
    with pytest.raises(ValueError, match="read-only"):
        oracle.table[1, 1] += 0.5

    def fill(table):
        table[1, 1] += 0.5  # a word with an empty factor

    edited = with_table(oracle, fill)
    assert check_slice_axioms(edited) == reference_slice_axioms(edited)
    assert check_slice_axioms(edited)[0].status == "fail"
    assert check_slice_axioms(oracle)[0].status == "pass"


# -- the symmetry transport map ----------------------------------------------------


def galilean_oracle(drop=()):
    model, site = fixtures.galilean_shift_fixture()
    words = [w for w in enumerate_words(site, model.spaces) if event_label(w) not in drop]
    return model.kernel_table(site, words)


def reference_transport(oracle, s):
    """The per-word pull-back loop that the memoised map replaced."""
    point_map = oracle.site.symmetry.maps[s]
    eligible = oracle.words_within(set(point_map.values()))
    pulled = [
        words_mod.pull_back(oracle.words[i], dict(point_map),
                            oracle.symmetry[s].outcome_maps, oracle.spaces)
        for i in eligible
    ]
    return eligible, pulled


@pytest.mark.parametrize("drop", [(), ("{['0']@g0}",)])
def test_transport_matches_pull_back(drop):
    oracle = galilean_oracle(drop)
    for s in oracle.symmetry:
        eligible, images = oracle.transported(s)
        want, pulled = reference_transport(oracle, s)
        assert eligible.tolist() == want
        assert images.tolist() == [
            -1 if oracle.index(w) is None else oracle.index(w) for w in pulled
        ]
        assert not eligible.flags.writeable and not images.flags.writeable


def test_missing_transport_witnesses():
    oracle = galilean_oracle(("{['0']@g0}",))
    witness = "transported word {['0']@g0} under 's1' is outside the word list"
    check = kernels.check_covariance(oracle)
    assert (check.status, check.witness) == ("inconclusive", witness)
    with pytest.raises(ReconstructionRefused) as refused:
        represent_symmetry(build_space(oracle))
    assert str(refused.value) == witness


def lift_oracle():
    """The depth-3 level lift of the two-point field on its level words, with
    the level shifts as symmetry."""
    atoms, xi, spaces = fixtures.two_point_field()
    model, site = bridges.lift_process(atoms, xi, 3, spaces)
    return model.kernel_table(site, bridges.enumerate_level_words(model, site))


def swapped_oracle():
    """The Galilean table with every outcome map swapping the labels."""
    oracle = galilean_oracle()
    return dataclasses.replace(oracle, symmetry={
        s: SymmetryRep({t: {"0": "1", "1": "0"} for t in oracle.site.symmetry.maps[s]},
                       sym.op)
        for s, sym in oracle.symmetry.items()
    })


def reversal_oracle():
    """A chain (a, b) of two 70-outcome points, and the map a -> b whose
    outcome map sends x_i to y_(69-i), across outcome 62; the pull-backs of
    every other b-word are listed."""
    xs, ys = (tuple(f"{c}{i}" for i in range(70)) for c in "xy")
    spaces = OutcomeSpaces({"a": xs, "b": ys})
    site = dataclasses.replace(chain_site(("a", "b")),
                               symmetry=SiteSymmetry(("r",), {"r": {"a": "b"}}, {}))
    picks = [(0,), (3,), (61,), (62,), (69,), range(58, 66), (0, 69), range(0, 70, 2),
             (), range(69)]
    words = [unit_word(), EventWord.from_dict({"a": {"x1"}, "b": {"y1"}}, spaces)]
    for k, p in enumerate(picks):
        words.append(EventWord.from_dict({"b": {ys[i] for i in p}}, spaces))
        if k % 2 == 0:
            words.append(EventWord.from_dict({"a": {xs[69 - i] for i in p}}, spaces))
    g = {x: ys[69 - i] for i, x in enumerate(xs)}
    n = len(words)
    return KernelOracle(
        site=site, spaces=spaces, kdim=1, words=tuple(words),
        table=np.zeros((n, n, 1, 1)),
        symmetry={"r": SymmetryRep({"a": g}, np.eye(1))},
    )


def injected_oracle():
    """A chain (a, b, c) of 66, 70 and 2 outcomes, and the map a -> b, c -> c
    whose outcome maps send x_i to y_(3i+7 mod 70), an injection that misses
    four outcomes of b, and swap the labels at c.  The words' factors at b
    straddle outcome 62; the pull-backs of every other word are listed."""
    xs, ys = tuple(f"x{i}" for i in range(66)), tuple(f"y{i}" for i in range(70))
    spaces = OutcomeSpaces({"a": xs, "b": ys, "c": ("0", "1")})
    point_map = {"a": "b", "c": "c"}
    site = dataclasses.replace(chain_site(("a", "b", "c")),
                               symmetry=SiteSymmetry(("w",), {"w": point_map}, {}))
    g = {"a": {x: ys[(3 * i + 7) % 70] for i, x in enumerate(xs)}, "c": {"0": "1", "1": "0"}}
    hit = [ys.index(y) for y in g["a"].values()]
    picks = [(62,), (61, 63), range(58, 66), (0, 69), range(0, 70, 2), hit,
             range(63, 70), (), hit[40:]]
    words = [unit_word(), EventWord.from_dict({"a": {"x1"}, "b": {"y1"}}, spaces)]
    for k, p in enumerate(picks):
        for at_c in ({}, {"c": {"1"}}):
            w = EventWord.from_dict({"b": {ys[i] for i in p}, **at_c}, spaces)
            words.append(w)
            if k % 2 == 0:
                words.append(words_mod.pull_back(w, point_map, g, spaces))
    words = list(dict.fromkeys(words))
    n = len(words)
    return KernelOracle(
        site=site, spaces=spaces, kdim=1, words=tuple(words),
        table=np.zeros((n, n, 1, 1)), symmetry={"w": SymmetryRep(g, np.eye(1))},
    )


def test_element_without_a_site_action_refused():
    # the site holds every point map: an element it does not act by has none
    oracle = reversal_oracle()
    with pytest.raises(ValueError, match="^table symmetry 'q' has no site action$"):
        dataclasses.replace(oracle, symmetry={**oracle.symmetry, "q": oracle.symmetry["r"]})


TRANSPORT_ORACLES = {"lift": lift_oracle, "swapped": swapped_oracle,
                     "reversal": reversal_oracle, "injected": injected_oracle}


@pytest.mark.parametrize("name", sorted(TRANSPORT_ORACLES))
def test_code_transport_matches_pull_back(name):
    oracle = TRANSPORT_ORACLES[name]()
    listed = []
    for s in oracle.symmetry:
        eligible, images = oracle.transported(s)
        want, pulled = reference_transport(oracle, s)
        assert eligible.tolist() == want
        assert images.tolist() == [
            -1 if oracle.index(w) is None else oracle.index(w) for w in pulled
        ]
        listed.extend(images >= 0)
    # only the reversal's and the injection's lists leave images out
    assert any(listed) and all(listed) == (name not in ("reversal", "injected"))


def test_no_per_word_pull_back_on_a_covariant_oracle(monkeypatch):
    # covariance and the represented symmetry read the code transport; only
    # a missing image's witness is pulled back word by word
    calls = []

    def counted(*args, _orig=words_mod.pull_back):
        calls.append(args[0])
        return _orig(*args)

    monkeypatch.setattr(kernels, "pull_back", counted)
    oracle = galilean_oracle()
    reconstruct(oracle)
    assert kernels.check_covariance(oracle).status == "pass"
    assert sum(oracle.transported(s)[0].size for s in oracle.symmetry) > 0
    assert calls == []
    dropped = galilean_oracle(("{['0']@g0}",))
    assert kernels.check_covariance(dropped).status == "inconclusive"
    assert len(calls) == 1


# -- maps on the initial-vector leg ------------------------------------------------


def reference_vector_leg(gns, idx, op):
    """The per-pair loop that the leg map of `GnsSpace.map_on_pairs`
    replaced: column (i, al) is sum_b op[b, al] * pair (i, b)."""
    k = gns.kdim
    cols = []
    for i in idx:
        base = [gns.coords[:, i * k + b] for b in range(k)]
        for al in range(k):
            cols.append(sum(op[b, al] * base[b] for b in range(k)))
    return np.column_stack(cols) if cols else np.zeros((gns.rank, 0), dtype=complex)


def reference_leg_map(gns, sources, targets, op):
    y = reference_vector_leg(gns, targets, op)
    return linalg.map_on_span(gns.pair_coords(sources), y, gns.config.rank_tol)


def test_algebra_and_symmetry_match_the_per_pair_loop():
    model, site = fixtures.controlled_kdim2()
    gns = build_space(model.kernel_table(site, enumerate_words(site, model.spaces)))
    for block, gens in represent_algebra(gns).items():
        idx = sorted(gns.oracle.words_within(site.down_set(block)))
        for g, a in zip(gens, gns.oracle.algebra[block]):
            want = linalg.dagger(reference_leg_map(gns, idx, idx, linalg.dagger(a)))
            assert g.tobytes() == want.tobytes()
    rng = np.random.default_rng(7)
    op = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    idx = gns.oracle.words_within(site.down_set({"t1"}))
    targets = gns.oracle.right_products(EventWord.from_dict({"t2": {"0"}}, model.spaces))[idx]
    got = gns.map_on_pairs(idx, targets, op)
    assert got.tobytes() == reference_leg_map(gns, idx, targets, op).tobytes()

    oracle = galilean_oracle()
    gns = build_space(oracle)
    for s, v in represent_symmetry(gns).items():
        eligible, images = oracle.transported(s)
        u = np.asarray(oracle.symmetry[s].op, dtype=complex)
        want = linalg.dagger(reference_leg_map(gns, eligible, images, linalg.dagger(u)))
        assert v.tobytes() == want.tobytes()

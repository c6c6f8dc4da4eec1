"""The passes over an N x N kernel table, streamed in C-order row strips,
against the one-shot formulas they replaced, bit for bit; the transient
memory of the streamed passes; and which tables an oracle adopts rather
than copies.

`pair_blocks_reference`, `residual_bound_reference` and the one-shot
`worst_block` of a whole difference are the formulas the strips must
reproduce: the sizes below cross strip boundaries and fold a remainder
narrower than 4 rows into the strip before it.
"""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from qsproc import cli, equivalence, fixtures, kernels, linalg, markov, serialize
from qsproc.config import RunConfig
from qsproc.reconstruct import _BOUND_WITNESS, reconstruct, verify_decomposition
from qsproc.sites import discrete_site
from qsproc.words import POLICY_ALL_SUBSETS, enumerate_words

from kernel_tables import with_table


def pair_blocks_reference(stack):
    """The transposed view of the GEMM that `linalg.pair_blocks` returned
    before it wrote the table in C order."""
    n, _, k = stack.shape
    x = linalg.side_by_side(stack)
    return (x.T @ np.conjugate(x)).reshape(n, k, n, k).transpose(2, 0, 3, 1)


def residual_bound_reference(g, rows):
    """`linalg._residual_bound` as one mixed-layout pass per row block of
    about 2^18 entries, on the Gram matrix g."""
    n = g.shape[0]
    step = max(1, (1 << 18) // max(n, 1))
    fro2, row_sum, defect = 0.0, 0.0, 0.0
    for start in range(0, n, step):
        blk = slice(start, start + step)
        adj = linalg.dagger(g[:, blk])
        defect = max(defect, float(np.abs(g[blk] - adj).max()))
        res = (g[blk] + adj) / 2
        res -= rows[:, blk].T @ np.conjugate(rows)
        mag = np.abs(res)
        fro2 += float(np.sum(mag * mag))
        row_sum = max(row_sum, float(mag.sum(axis=1).max()))
    return min(float(np.sqrt(fro2)), row_sum), defect


def folded(stop, width, start=0):
    """Whether `row_strips` folds a remainder narrower than 4 rows into the
    strip before it."""
    step = max(4, linalg.STRIP // width)
    return stop - start > step and 0 < (stop - start) % step < 4


def gram(table):
    n, _, k, _ = table.shape
    return table.transpose(0, 2, 1, 3).reshape(n * k, n * k)


def random_stack(n, rows, k, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, rows, k)) + 1j * rng.standard_normal((n, rows, k))


def same(x, y):
    """Equal bits, NaN matching NaN."""
    return np.array_equal(np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                          equal_nan=True)


# -- the strips -----------------------------------------------------------------------


@pytest.mark.parametrize("stop,width,start", [
    (0, 8, 0), (3, 10**6, 0), (5, 10**6, 0), (129, 258, 0), (181, 362, 0),
    (300, 300, 0), (600, 600, 436), (4096, 4096, 0), (4099, 4096, 0),
])
def test_row_strips_cover_the_rows_with_none_narrower_than_four(stop, width, start):
    strips = linalg.row_strips(stop, width, start)
    bounds = [b for s in strips for b in (s.start, s.stop)]
    assert bounds[:1] in ([start], []) and bounds[-1:] in ([stop], [])
    assert bounds[1:-1:2] == bounds[2::2]  # consecutive
    step = max(4, linalg.STRIP // width)
    for s in strips:
        assert min(4, stop - start) <= s.stop - s.start < step + 4


def test_the_sizes_below_fold_a_narrow_remainder():
    assert folded(129, 2 * 129) and folded(181, 2 * 181) and folded(2 * 91, 4 * 91)
    assert folded(600, 600, 436)  # the residual bound's second row block
    assert folded(258, 256) and folded(259, 4 * 64)


# -- the table write ------------------------------------------------------------------


@pytest.mark.parametrize("n,rows,k", [
    (1, 2, 1), (3, 1, 2), (129, 5, 1), (181, 4, 1), (300, 6, 1), (91, 3, 2), (43, 2, 3),
])
def test_pair_blocks_write_the_gemm_in_c_order(n, rows, k):
    stack = random_stack(n, rows, k, seed=n + k)
    got = linalg.pair_blocks(stack)
    assert got.flags.c_contiguous and got.flags.owndata
    assert np.array_equal(got, pair_blocks_reference(stack))


# -- the factor certificate -----------------------------------------------------------


@pytest.mark.parametrize("n,k", [(600, 1), (300, 2), (129, 1), (40, 3), (2, 1)])
def test_residual_bound_keeps_the_one_shot_bits(n, k):
    stack = random_stack(n, 5, k, seed=7 * n + k)
    table = linalg.pair_blocks(stack)
    table[0, n - 1] += 1e-3  # not Hermitian: a defect and a residual
    x = linalg.side_by_side(stack)
    w, _, _ = np.linalg.svd(x, full_matrices=False)
    rows = np.conjugate(linalg.dagger(w) @ x)[:-1]  # one direction dropped
    got = linalg._residual_bound(table, rows)
    assert got == residual_bound_reference(gram(table), rows)
    assert got[0] > 0.0 and got[1] > 0.0


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(np.inf, np.nan),
                                 complex(1.0, np.inf)])
def test_residual_bound_of_a_non_finite_oracle(bad):
    model, site = fixtures.tensor_chain(2, canonical=False)[:2]
    oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
    rows = oracle.cholesky.rows
    edited = with_table(oracle, lambda t: t.__setitem__((1, 2), bad))
    with np.errstate(invalid="ignore"):
        assert same(linalg._residual_bound(edited.table, rows),
                    residual_bound_reference(edited.gram(), rows))


def test_stack_factor_certifies_the_table_from_the_stack():
    # the stack factor reads no table: its certificate, from the stack
    # alone, bounds the residual measured on the (n, n, 2, 2) table, which
    # reads as its Gram matrix does
    model, site = fixtures.controlled_kdim2()
    oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
    assert oracle.kdim == 2
    factor = linalg.stack_factor(oracle.product_stack)
    on_table = linalg._residual_bound(oracle.table, factor.rows)
    assert on_table == linalg._residual_bound(linalg._as_table(oracle.gram()), factor.rows)
    assert factor.residual >= on_table[0] and factor.hermitian_defect >= on_table[1]


# -- the table-vs-stack comparisons ---------------------------------------------------


def gap_cases():
    rng = np.random.default_rng(3)
    for n, m, k in [(258, 256, 1), (259, 64, 2), (5, 3, 1), (40, 40, 3)]:
        a = rng.standard_normal((n, m, k, k)) + 1j * rng.standard_normal((n, m, k, k))
        b = a + 1e-9 * rng.standard_normal(a.shape)
        yield f"random {n}x{m} k{k}", a, b
        tie = 1e-9 * a
        tie[n - 1, m - 1] = tie[1, 2] = 7.0  # the leader, and again in the last strip
        yield f"tie {n}x{m} k{k}", tie, np.zeros_like(tie)
    a = np.ones((258, 256, 1, 1), dtype=complex)
    yield "every block equal", a, np.zeros_like(a)
    yield "exact match", a, a.copy()
    empty = np.zeros((0, 0, 2, 2), dtype=complex)
    yield "empty", empty, empty
    for bad in (np.inf, np.nan, complex(np.nan, 1.0)):
        b = np.ones((258, 256, 1, 1), dtype=complex)
        b[200, 3] = bad
        yield f"{bad} late", a, b
        b = np.zeros((259, 64, 2, 2), dtype=complex)
        b[0, 1, 1, 0] = bad
        yield f"{bad} early k2", np.zeros_like(b), b


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


@pytest.mark.parametrize("name,a,b", [pytest.param(*c, id=c[0]) for c in gap_cases()])
def test_worst_gap_returns_what_worst_block_does(name, a, b):
    want = outcome(linalg.worst_block, a - b)
    got = outcome(linalg.worst_gap, a, b)
    assert str(got) == str(want)
    if name.startswith("tie"):
        assert got[1] == (1, 2)


def test_worst_gap_keeps_the_first_strip_of_a_tied_norm():
    # norm 5 in two strips; the earlier block's largest entry, 4, is below
    # the later one's, so the later strip raises the screen's bound
    a = np.zeros((259, 64, 2, 2), dtype=complex)
    a[5, 7] = [[3, 4], [0, 0]]
    a[200, 1] = [[5, 0], [0, 0]]
    strips = linalg.row_strips(259, 64 * 4)
    assert [s for s in strips if s.start <= 5 < s.stop] != [
        s for s in strips if s.start <= 200 < s.stop]
    assert linalg.worst_gap(a, np.zeros_like(a)) == linalg.worst_block(a) == (5.0, (5, 7))


def test_worst_gap_gathers_the_indexed_rows():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((30, 2, 2)) + 1j * rng.standard_normal((30, 2, 2))
    index = rng.integers(0, 30, size=(259, 64))
    b = values[index] + 1e-3 * rng.standard_normal((259, 64, 2, 2))
    assert linalg.worst_gap(values, b, index) == linalg.worst_block(values[index] - b)


CALLER_MODELS = ["tensor_chain(3)", "controlled_kdim2", "random_valid_model(4)"]


def caller_model(name):
    if name == "tensor_chain(3)":
        return fixtures.tensor_chain(3, canonical=False)[:2]
    if name.startswith("random"):
        return fixtures.random_valid_model(4)[:2]
    return getattr(fixtures, name)()[:2]


@pytest.mark.parametrize("name", CALLER_MODELS)
def test_verify_decomposition_keeps_the_one_shot_bits(name):
    model, site = caller_model(name)
    words = enumerate_words(site, model.spaces, POLICY_ALL_SUBSETS)
    oracle = model.kernel_table(site, words)
    recon = reconstruct(oracle)
    report = verify_decomposition(recon, oracle)
    stack = recon.model.evaluate(oracle.plan)
    worst, at = linalg.worst_block(pair_blocks_reference(stack) - oracle.table)
    assert linalg.worst_gap(oracle.table, linalg.pair_blocks(stack)) == (worst, at)
    # a pass is certified by the Gram-gap bound, at or above the worst block
    assert worst <= report.residual <= report.tolerance
    assert report.witness == _BOUND_WITNESS


@pytest.mark.parametrize("name", CALLER_MODELS)
def test_reconstruct_verify_reports_verify_decomposition(name, tmp_path, capsys):
    # `reconstruct TABLE --verify` compares the emitted model's table with
    # the source's: the same check, bit for bit, as `verify_decomposition`
    # on the table it read
    model, site = caller_model(name)
    oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
    path = tmp_path / "table.json"
    path.write_text(serialize.dumps(serialize.oracle_to_json(oracle)))
    assert cli.main(["reconstruct", str(path), "--verify"]) == 0
    report = json.loads(capsys.readouterr().out)["verification"]
    table = cli._load_table(str(path))
    assert report == cli._reproduces(verify_decomposition(reconstruct(table), table))


@pytest.mark.parametrize("name", CALLER_MODELS)
def test_table_comparisons_keep_the_one_shot_bits(name):
    model, site = caller_model(name)
    words = enumerate_words(site, model.spaces, POLICY_ALL_SUBSETS)
    other = dataclasses.replace(model, embedding=-model.embedding)
    verdict = equivalence.check_wide_equivalence(model, other, site, words)
    oracle = model.kernel_table(site, words)
    products = other.evaluate(oracle.plan)
    worst, at = linalg.worst_block(oracle.table - pair_blocks_reference(products))
    assert linalg.worst_gap(oracle.table, linalg.pair_blocks(products)) == (worst, at)
    # equal tables of unequal stacks: a pass is certified by the Gram-gap
    # bound, at or above the worst block
    assert worst <= verdict.residual <= verdict.tolerance
    merged, index = markov.pointwise_product_table(words, model.spaces)
    direct = pair_blocks_reference(model.products(site, words))
    kernels = np.einsum("pak,al->pkl", np.conjugate(model.products(site, merged)),
                        model.embedding)
    assert markov.pointwise_factorization_residual(model, site, words) == (
        linalg.worst_block(kernels[index] - direct)[0])


# -- transient memory -----------------------------------------------------------------


def transient(f):
    """The tracemalloc peak of one call, and its result."""
    tracemalloc.start()
    try:
        result = f()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_the_streamed_passes_hold_at_most_one_table():
    # 1,024 words: the table is 16 MB, so a second N x N array would show
    model, site = fixtures.tensor_chain(5, canonical=False)[:2]
    config = RunConfig()
    words = enumerate_words(site, model.spaces, config.policy, config.cap)
    peak, oracle = transient(lambda: model.kernel_table(site, words))
    size = oracle.table.nbytes
    assert len(words) == 1024 and peak <= 1.1 * size
    recon = reconstruct(oracle, config)
    peak, report = transient(lambda: verify_decomposition(recon, oracle, config))
    assert report.ok and peak <= 1.1 * size  # the emitted model's table only
    rows = oracle.cholesky.rows
    peak, _ = transient(lambda: linalg._residual_bound(oracle.table, rows))
    assert peak <= 0.25 * size


def test_regularity_reads_the_factor_not_the_table():
    # 1,024 words in one slice of a discrete site: a Gram submatrix of the
    # slice and its pseudo-inverse would hold six 16 MB arrays
    model, site = fixtures.tensor_chain(5, canonical=False)[:2]
    site = discrete_site(site.points)
    config = RunConfig()
    oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
    oracle.gram_factor(config.rank_tol)
    peak, check = transient(lambda: kernels.check_regularity(oracle, config))
    assert len(oracle.words) == 1024 and len(site.minimal_antichains()) == 1
    assert check.residual > config.regularity_tol and peak < 8 << 20


def test_a_stackless_factor_reads_the_table_as_it_lies():
    # a kdim-2 table with no product stack (as read from JSON) is factored
    # from its (n, n, 2, 2) array, never from a transposed N x N copy, and
    # to the bits of the factor of its Gram matrix
    model, site = fixtures.tensor_chain(4, canonical=False)[:2]
    two = np.linalg.qr(np.random.default_rng(3).standard_normal((16, 2)))[0]
    model = dataclasses.replace(model, embedding=two)
    oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
    stackless = dataclasses.replace(oracle, table=oracle.table)
    assert stackless.product_stack is None and stackless.table is oracle.table
    size = stackless.table.nbytes
    peak, factor = transient(lambda: stackless.cholesky)
    assert len(oracle.words) == 256 and size == 4 << 20 and peak <= 1.1 * size
    on_gram = linalg.pivoted_cholesky(stackless.gram())
    for got, want in zip(factor, on_gram):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# -- which tables an oracle adopts ----------------------------------------------------


@pytest.fixture(scope="module")
def chain_oracle():
    model, site = fixtures.tensor_chain(3, canonical=False)[:2]
    return model.kernel_table(site, enumerate_words(site, model.spaces))


def test_the_fresh_table_is_adopted_owned_and_read_only(chain_oracle):
    table = chain_oracle.table
    assert table.base is None and not table.flags.writeable and table.flags.c_contiguous
    assert not np.shares_memory(table, chain_oracle.product_stack)


def test_a_writable_table_is_copied_and_stays_writable(chain_oracle):
    mine = chain_oracle.table.copy()
    oracle = dataclasses.replace(chain_oracle, table=mine)
    assert mine.flags.writeable and not oracle.table.flags.writeable
    assert not np.shares_memory(mine, oracle.table)
    mine[0, 0] = 5.0  # the oracle does not see it
    assert np.array_equal(oracle.table, chain_oracle.table)


def test_a_read_only_view_of_a_writable_table_is_copied(chain_oracle):
    mine = chain_oracle.table.copy()
    view = mine.view()
    view.setflags(write=False)
    oracle = dataclasses.replace(chain_oracle, table=view)
    assert not np.shares_memory(mine, oracle.table)


def test_another_oracles_table_is_shared(chain_oracle):
    again = dataclasses.replace(chain_oracle, table=chain_oracle.table)
    assert again.table is chain_oracle.table


def test_with_symmetry_shares_the_table_and_the_word_maps(chain_oracle):
    chain_oracle.words_within(chain_oracle.site.points[:1])
    _ = chain_oracle.plan, chain_oracle._sorted_keys
    other = chain_oracle.with_symmetry({})
    assert other.table is chain_oracle.table
    for memo in ("codes", "_columns", "_sorted_keys", "_within", "plan"):
        assert vars(other)[memo] is vars(chain_oracle)[memo], memo
    assert other.symmetry == {} and other.model is chain_oracle.model


# -- the table reader -----------------------------------------------------------------


def table_text(oracle):
    return serialize.dumps(serialize.oracle_to_json(oracle))


def test_the_table_values_reach_the_reader_as_json_pairs(tmp_path, chain_oracle):
    path = tmp_path / "table.json"
    path.write_text(table_text(chain_oracle))
    data = cli._read_json(str(path), table=True)
    values = data["values"]
    assert isinstance(values, serialize.EntryPairs) and "_members" not in vars(values)
    assert isinstance(cli._read_json(str(path))["values"], dict)
    oracle = serialize.oracle_from_json(data)
    assert np.array_equal(oracle.table, chain_oracle.table)


def test_a_repeated_entry_is_refused_from_the_parsed_indices(chain_oracle):
    data = json.loads(table_text(chain_oracle))
    pairs = list(data["values"].items())
    data["values"] = serialize.EntryPairs(pairs[:5] + [pairs[3], pairs[1]] + pairs[5:])
    with pytest.raises(serialize.DuplicateKey, match=f"^duplicate key '{pairs[3][0]}'$"):
        serialize.oracle_from_json(data)
    # a repeat in place of a missing entry is still a repeat
    data["values"] = serialize.EntryPairs(pairs[:-1] + [pairs[0]])
    with pytest.raises(serialize.DuplicateKey, match=f"'{pairs[0][0]}'"):
        serialize.oracle_from_json(data)


def test_another_object_of_entry_keys_keeps_the_parse_refusal(tmp_path, chain_oracle,
                                                              capsys):
    extra = '"extra": {"0,1": 1, "0,1": 2},\n  "kdim": '
    path = tmp_path / "table.json"
    path.write_text(table_text(chain_oracle).replace('"kdim": ', extra, 1))
    assert cli.main(["reconstruct", str(path)]) == 2
    assert capsys.readouterr().err == f"input error: {path}: duplicate key '0,1'\n"

"""JSON round trips for sites, models, words, and kernel tables."""

import dataclasses
import json
import math
import re
from collections.abc import Mapping
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qsproc import cli, fixtures, serialize
from qsproc.sites import chain_site
from qsproc.words import EventWord, enumerate_words


class TestSiteRoundTrip:
    def test_explicit_relation(self):
        site = chain_site(("a", "b", "c"))
        data = serialize.site_to_json(site)
        back = serialize.site_from_json(data)
        assert back.points == site.points
        assert back.leq == site.leq
        assert back.symmetry is None

    def test_large_chain_site(self):
        # 2,000 points: the transitivity check is one matrix product
        site = serialize.site_from_json({"kind": "chain", "count": 2000})
        assert len(site.points) == 2000 and site.points[-1] == "p1999"
        assert site.leq[0][1999] and not site.leq[1999][0]

    def test_symmetry_attached(self):
        model, site = fixtures.galilean_shift_fixture()
        data = serialize.site_to_json(site)
        sym_back = serialize.site_from_json(data).symmetry
        assert sym_back is not None
        assert dict(sym_back.maps["s1"]) == dict(site.symmetry.maps["s1"])
        assert sym_back.compose[("s1", "s1")] == "s2"

    def test_composition_table_given_twice_refused(self):
        # inside "symmetries" and beside it: reading one would drop the other
        _, site = fixtures.galilean_shift_fixture()
        data = serialize.site_to_json(site)
        assert "compose" in data["symmetries"]
        data["compose"] = {"s0": {"s0": "bogus"}}
        with pytest.raises(ValueError, match='^"compose" is given both inside "symmetries" '
                                             'and beside it$'):
            serialize.site_from_json(data)

    def test_composition_table_without_symmetries_refused(self, tmp_path, capsys):
        # a top-level "compose" with no "symmetries" block was dropped unread
        model, site = fixtures.tensor_chain(2, canonical=False)
        data = serialize.site_to_json(site)
        assert "symmetries" not in data
        data["compose"] = {"s0": {"s0": "s0"}}
        with pytest.raises(ValueError, match='^"compose" is given with no "symmetries" '
                                             'to compose$'):
            serialize.site_from_json(data)
        model_path, site_path = tmp_path / "model.json", tmp_path / "site.json"
        model_path.write_text(serialize.dumps(serialize.model_to_json(model)))
        site_path.write_text(json.dumps(data))
        assert cli.main(["check", str(model_path), str(site_path)]) == 2
        assert '"compose" is given with no "symmetries"' in capsys.readouterr().err

    def test_geometric_minkowski(self):
        data = {
            "kind": "minkowski",
            "c": 1,
            "coords": [[0, 0], [1, "1/2"], [1, "-1/2"], [2, 0]],
        }
        site = serialize.site_from_json(data)
        assert len(site.maximal_antichains) == 3

    def test_geometric_galilean(self):
        site = serialize.site_from_json(
            {"kind": "galilean", "coords": [0, 1, 1]}
        )
        assert site.equivalent(site.points[1], site.points[2])

    @pytest.mark.parametrize("points", ["ab", ["a", 1], None])
    def test_points_are_a_list_of_strings(self, points):
        # a string is not split into its characters
        with pytest.raises(ValueError, match='"points" is not a list of strings'):
            serialize.site_from_json({"points": points, "leq": [[True, True], [False, True]]})
        if points is not None:  # no "labels" is no labels
            with pytest.raises(ValueError, match='"labels" is not a list of strings'):
                serialize.site_from_json({"kind": "chain", "count": 2, "labels": points})

    GALILEAN = {"kind": "galilean", "labels": ["t1", "t2"]}
    MINKOWSKI = {"kind": "minkowski", "labels": ["t1", "t2"], "coords": [[0], [1]]}
    NOT_A_COORDINATE = "is not a finite number or a fraction string: "
    BAD_COORDINATES = {  # the site, and its refusal
        "zero denominator": ({**GALILEAN, "coords": ["1/0", 1]},
                             '"coords" entry 0 ' + NOT_A_COORDINATE + "'1/0'"),
        "bool": ({**GALILEAN, "coords": [True, 2]},
                 '"coords" entry 0 ' + NOT_A_COORDINATE + "True"),
        "nan": ({**GALILEAN, "coords": [0, float("nan")]},
                '"coords" entry 1 ' + NOT_A_COORDINATE + "nan"),
        "infinity": ({**GALILEAN, "coords": [0, float("inf")]},
                     '"coords" entry 1 ' + NOT_A_COORDINATE + "inf"),
        "list entry": ({**GALILEAN, "coords": [0, [1]]},
                       '"coords" entry 1 ' + NOT_A_COORDINATE + "[1]"),
        "coords number": ({**GALILEAN, "coords": 3}, '"coords" is not a list'),
        "coords string": ({**MINKOWSKI, "coords": "01"}, '"coords" is not a list'),
        "minkowski point": ({**MINKOWSKI, "coords": [[0], 3]}, '"coords" point 1 is not a list'),
        "minkowski coordinate": ({**MINKOWSKI, "coords": [[0, "x"], [1, 0]]},
                                 '"coords" point 0 coordinate 1 ' + NOT_A_COORDINATE + "'x'"),
        "speed": ({**MINKOWSKI, "c": "x"}, '"c" ' + NOT_A_COORDINATE + "'x'"),
        "speed bool": ({**MINKOWSKI, "c": True}, '"c" ' + NOT_A_COORDINATE + "True"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_COORDINATES))
    def test_bad_coordinate_refused_naming_its_node(self, case):
        data, message = self.BAD_COORDINATES[case]
        with pytest.raises(ValueError) as refused:
            serialize.site_from_json(data)
        assert str(refused.value) == message

    def test_coordinates_as_given_or_exact(self):
        # numbers are kept as given, fraction strings read exactly
        site = serialize.site_from_json({**self.GALILEAN, "coords": ["1/3", 0.5]})
        assert site.meta["tau"] == {"t1": Fraction(1, 3), "t2": 0.5}
        site = serialize.site_from_json({**self.MINKOWSKI, "coords": [[0, 0], [2, "3/2"]],
                                         "c": "1/1"})
        assert site.meta["coords"]["t2"] == (2, Fraction(3, 2))
        assert site.leq == ((True, True), (False, True))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            serialize.site_from_json({"kind": "weird", "coords": []})


class TestSymmetryMapNodes:
    """A symmetry's entry, point map and outcome maps, and a table's site,
    are JSON objects: a pair list or a string in their place is refused,
    naming the node.  So are a table, site or model whose root is no object,
    and a table's words or a site's relation that is no list."""

    NOT_OBJECTS = {"pairs": [["g0", "g1"], ["g1", "g2"]], "string": "ab"}
    NODES = {  # the file, the path to the node, and the node's name
        "site symmetries": ("site", ("symmetries",), '"symmetries"'),
        "site entry": ("site", ("symmetries", "s1"), "symmetry 's1'"),
        "site map": ("site", ("symmetries", "s1", "map"), "symmetry 's1' map"),
        "model entry": ("model", ("symmetry", "s1"), "symmetry 's1'"),
        "model g": ("model", ("symmetry", "s1", "g", "g0"), "symmetry 's1' g at 'g0'"),
        "table entry": ("table", ("symmetry", "s1"), "symmetry 's1'"),
        "table map": ("table", ("symmetry", "s1", "map"), "symmetry 's1' map"),
        "table g": ("table", ("symmetry", "s1", "g", "g0"), "symmetry 's1' g at 'g0'"),
        "table site": ("table", ("site",), '"site"'),
    }
    READERS = {"site": serialize.site_from_json, "model": serialize.model_from_json,
               "table": serialize.oracle_from_json}

    @staticmethod
    def files():
        model, site = fixtures.galilean_shift_fixture()
        oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
        return {"site": serialize.site_to_json(site), "model": serialize.model_to_json(model),
                "table": serialize.oracle_to_json(oracle)}

    @pytest.mark.parametrize("value", sorted(NOT_OBJECTS))
    @pytest.mark.parametrize("case", sorted(NODES))
    def test_refused_naming_the_node(self, case, value):
        files = self.files()
        kind, (*path, last), name = self.NODES[case]
        node = files[kind]
        for key in path:
            node = node[key]
        node[last] = self.NOT_OBJECTS[value]
        with pytest.raises(ValueError, match=f"^{re.escape(name)} is not a JSON object$"):
            self.READERS[kind](files[kind])

    @pytest.mark.parametrize("value", sorted(NOT_OBJECTS))
    @pytest.mark.parametrize("kind,name", [("site", "the site"), ("model", "the model"),
                                           ("table", "the kernel table")])
    def test_root_refused(self, kind, name, value):
        with pytest.raises(ValueError, match=f"^{name} is not a JSON object$"):
            self.READERS[kind](self.NOT_OBJECTS[value])

    @pytest.mark.parametrize("kind,key,value", [
        ("table", "words", 3), ("table", "words", {"g0": ["0"]}),
        ("site", "leq", 3), ("site", "leq", {"g0": [True]}), ("site", "leq", [3]),
    ])
    def test_not_a_list_refused(self, kind, key, value):
        files = self.files()
        files[kind][key] = value
        message = {"words": '"words" is not a list', "leq": '"leq" is not a list of rows'}
        with pytest.raises(ValueError, match=f"^{re.escape(message[key])}$"):
            self.READERS[kind](files[kind])


class TestModelRoundTrip:
    def test_plain_model(self):
        model, site = fixtures.qubit_zx()
        back = serialize.model_from_json(serialize.model_to_json(model))
        assert back.dim == model.dim
        assert np.allclose(back.embedding, model.embedding)
        for t in site.points:
            for x in model.spaces.outcomes(t):
                assert np.allclose(back.atoms[t][x], model.atoms[t][x])

    def test_units_algebra_symmetry(self):
        model, site = fixtures.galilean_shift_fixture()
        from qsproc.equivalence import minimal_modification

        small = minimal_modification(model, site)
        data = serialize.model_to_json(small)
        back = serialize.model_from_json(data)
        assert set(back.units_p) == set(small.units_p)
        for k in small.units_p:
            assert np.allclose(back.units_p[k], small.units_p[k])
        assert set(back.symmetry) == set(small.symmetry)

    def test_kdim2_model(self):
        model, site = fixtures.diagonal_kdim2()
        back = serialize.model_from_json(serialize.model_to_json(model))
        assert back.kdim == 2
        assert set(back.algebra) == set(model.algebra)


class TestWordsAndOracle:
    def test_word_round_trip(self):
        model, _ = fixtures.qubit_zx()
        w = EventWord.from_dict({"t1": {"0"}}, model.spaces)
        assert serialize.word_from_json(
            serialize.word_to_json(w), model.spaces
        ) == w

    def test_oracle_round_trip(self):
        model, site = fixtures.qubit_zx()
        words = enumerate_words(site, model.spaces, policy="atoms_plus_unit")
        oracle = model.kernel_table(site, words)
        data = serialize.oracle_to_json(oracle)
        back = serialize.oracle_from_json(data)
        assert back.words == oracle.words
        assert np.allclose(back.table, oracle.table)

    def test_oracle_with_symmetry(self):
        model, site = fixtures.galilean_shift_fixture()
        words = enumerate_words(site, model.spaces, policy="atoms_plus_unit")
        oracle = model.kernel_table(site, words)
        back = serialize.oracle_from_json(serialize.oracle_to_json(oracle))
        assert set(back.symmetry) == set(oracle.symmetry)
        from qsproc.kernels import check_covariance

        assert check_covariance(back).status == "pass"

    def test_table_site_declares_no_symmetries(self):
        # the table's own "symmetry" block, with the maps of its words, is
        # the only symmetry a table file declares
        model, site = fixtures.galilean_shift_fixture()
        assert "symmetries" in serialize.site_to_json(site)
        oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
        data = serialize.oracle_to_json(oracle)
        assert "symmetries" not in data["site"]
        assert set(data["symmetry"]) == set(site.symmetry.elements)
        # its site acts by the maps of that block, and by nothing else
        back = serialize.oracle_from_json(data)
        assert back.site.symmetry.maps == {s: dict(site.symmetry.maps[s])
                                           for s in site.symmetry.elements}

    @pytest.mark.parametrize("entry", [{"q": {"map": {"g0": "g2"}}},
                                       {"s1": {"map": {"g0": "g2"}}}])
    def test_table_site_symmetries_refused(self, entry):
        # a "symmetries" block in the table's site, a new element or one that
        # contradicts the table's own map of s1, would never be read
        model, site = fixtures.galilean_shift_fixture()
        oracle = model.kernel_table(site, enumerate_words(site, model.spaces))
        data = serialize.oracle_to_json(oracle)
        data["site"]["symmetries"] = entry
        with pytest.raises(ValueError, match='^a kernel table declares its symmetry in '
                                             '"symmetry" only'):
            serialize.oracle_from_json(data)

    def test_dumps_deterministic(self):
        model, site = fixtures.qubit_zx()
        a = serialize.dumps(serialize.model_to_json(model))
        b = serialize.dumps(serialize.model_to_json(model))
        assert a == b


class TestMatrixEncoding:
    def test_complex_scalars_as_pairs(self):
        m = np.array([[1 + 2j]])
        assert serialize.matrix_to_json(m) == [[[1.0, 2.0]]]

    def test_round_trip(self):
        m = np.array([[0.5, -0.5j], [0.25 + 1j, 0.0]])
        assert np.allclose(
            serialize.matrix_from_json(serialize.matrix_to_json(m), "m"), m
        )

    def test_block_keys(self):
        assert serialize.block_key(frozenset({"b", "a"})) == "a,b"
        assert serialize.block_from_key("a,b") == frozenset({"a", "b"})
        assert serialize.block_from_key("") == frozenset()


def to_lists(x):
    """`x` with every ndarray leaf replaced by its nested [re, im] lists."""
    if isinstance(x, np.ndarray):
        z = np.asarray(x, dtype=complex)
        return np.stack((z.real, z.imag), axis=-1).tolist()
    if isinstance(x, Mapping):
        return {k: to_lists(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_lists(v) for v in x]
    return x


def reference_dumps(x) -> str:
    return json.dumps(to_lists(x), sort_keys=True, indent=2)


def _table(model, site):
    return model.kernel_table(site, enumerate_words(site, model.spaces))


class TestWriter:
    @pytest.mark.parametrize(
        "name", ["qubit_zx", "controlled_kdim2", "tensor_chain", "tensor_chain4"]
    )
    def test_oracle_bytes_match_stdlib(self, name):
        if name == "tensor_chain":
            model, site = fixtures.tensor_chain(3)
        elif name == "tensor_chain4":  # 256 words: entry keys of 3 digits
            model, site = fixtures.tensor_chain(4, canonical=False)
        else:
            model, site = getattr(fixtures, name)()
        data = serialize.oracle_to_json(_table(model, site))
        assert serialize.dumps(data) == reference_dumps(data)

    @pytest.mark.parametrize("name", ["qubit_zx", "controlled_kdim2"])
    def test_edited_entries_bytes_match_stdlib(self, name):
        # signed zero, the least subnormal, a large exponent and integral
        # floats are spelled as the stdlib spells them
        oracle = _table(*getattr(fixtures, name)())
        table = oracle.table.copy()
        specials = [-0.0, 5e-324, 1e300, 2.0, -3.0, 1e16, 1e22, -1e-7]
        for k, x in enumerate(specials):
            table[k, k + 1] = complex(x, specials[-1 - k])
        data = serialize.oracle_to_json(dataclasses.replace(oracle, table=table))
        text = serialize.dumps(data)
        assert text == reference_dumps(data)
        assert "-0.0" in text and "5e-324" in text and "1e+22" in text

    @pytest.mark.parametrize("n", [0, 1, 11, 257])
    def test_entries_bytes_match_stdlib(self, n):
        # a bare table at any size: empty, one key, keys of unequal length
        # out of numeric order, and 257 rows written in two chunks
        rng = np.random.default_rng(n)
        table = rng.normal(size=(n, n, 1, 1)) + 1j * rng.normal(size=(n, n, 1, 1))
        for data in (serialize.KernelEntries(table), {"values": serialize.KernelEntries(table)}):
            assert serialize.dumps(data) == reference_dumps(data)
        assert serialize.dumps(serialize.KernelEntries(table[:0, :0])) == "{}"

    def test_repeated_entries_and_signed_zeros_bytes_match_stdlib(self):
        # a chunk of mostly zero entries renders each distinct entry once,
        # matched by bits: -0.0 and 0.0 (and NaN) repeat in one chunk, and
        # stay apart
        rng = np.random.default_rng(3)
        values = np.array([0.0, complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0), 1.5,
                           complex(0.5, -2.0), complex(math.nan, 0.0)])
        table = values[rng.choice(len(values), size=(40, 40, 1, 1), p=[.6, .1, .1, .1, .04, .03, .03])]
        data = {"values": serialize.KernelEntries(table)}
        text = serialize.dumps(data)
        assert text == reference_dumps(data)
        pad = "\n" + " " * 10
        for re_im in ("0.0", "-0.0"), ("-0.0", "0.0"), ("-0.0", "-0.0"), ("NaN", "0.0"):
            assert pad + (","+ pad).join(re_im) + "\n" in text

    @pytest.mark.parametrize("zero_share", [0.9, 0.1])
    def test_repeated_kdim2_blocks_bytes_match_stdlib(self, zero_share):
        # three distinct 2 x 2 blocks over 3,600 entries, one all -0.0 and
        # one all 0.0: the chunk mostly zero (each distinct block rendered
        # once) or mostly not (every block rendered)
        rng = np.random.default_rng(4)
        blocks = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        blocks[0], blocks[1] = complex(-0.0, -0.0), 0.0
        p = [zero_share / 2, zero_share / 2, 1 - zero_share]
        table = blocks[rng.choice(3, size=(60, 60), p=p)]
        data = {"values": serialize.KernelEntries(table)}
        assert serialize.dumps(data) == reference_dumps(data)

    def test_distinct_entries_bytes_match_stdlib(self):
        # no entry repeats: every entry rendered, in chunks of 2^16 entries
        rng = np.random.default_rng(5)
        table = rng.normal(size=(300, 300, 1, 1)) + 1j * rng.normal(size=(300, 300, 1, 1))
        table[0, :100] = 0.0
        data = {"values": serialize.KernelEntries(table)}
        assert serialize.dumps(data) == reference_dumps(data)

    def test_report_matrix_with_an_integer_cell_bytes_match_stdlib(self):
        # a matrix of [re, im] floats is written as an array; one that holds
        # an int or a bool is walked, so the int keeps its spelling
        model, _ = fixtures.controlled_kdim2()
        data = serialize.model_to_json(model)
        data["embedding"][0][1][0] = 1
        data["embedding"][1][0][1] = False
        data["extra"] = [[[0.0, 1.0]], [[2.0, -0.0], [3.0, 4.0]]]  # ragged rows
        text = serialize.dumps(data)
        assert text == reference_dumps(data)
        assert "\n        1,\n" in text and "\n        false\n" in text

    def test_oracle_with_symmetry_bytes_match_stdlib(self):
        model, site = fixtures.galilean_shift_fixture()
        data = serialize.oracle_to_json(_table(model, site))
        assert "symmetry" in data
        assert serialize.dumps(data) == reference_dumps(data)

    def test_model_bytes_match_stdlib(self):
        from qsproc.equivalence import minimal_modification

        model, site = fixtures.galilean_shift_fixture()
        small = minimal_modification(model, site)
        data = serialize.model_to_json(small)
        assert {"units", "symmetry"} <= set(data)
        assert serialize.dumps(data) == reference_dumps(data)
        algebra = serialize.model_to_json(fixtures.diagonal_kdim2()[0])
        assert "algebra" in algebra
        assert serialize.dumps(algebra) == reference_dumps(algebra)

    def test_special_floats_and_text(self):
        data = {
            "floats": [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300],
            "array": np.array([[complex(-0.0, math.nan)], [complex(math.inf, 1e300)]]),
            "empty": [np.zeros((0,)), np.zeros((2, 0)), {}, []],
            "\u00e9\u2603": "non-ASCII \U0001f600",
        }
        assert serialize.dumps(data) == reference_dumps(data)

    def test_non_string_keys(self):
        for data in ({1: "a", 10: "b", 2: "c"}, {2.5: 0, -1: 1, True: 2}, {None: 0}):
            assert serialize.dumps(data) == reference_dumps(data)
        with pytest.raises(TypeError):
            serialize.dumps({"a": 0, 1: 1})  # mixed key types do not sort

    def test_unserializable_leaf(self):
        with pytest.raises(TypeError):
            serialize.dumps({"x": object()})

    @settings(max_examples=150, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.text()
        | st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300])
        | hnp.arrays(
            st.sampled_from([np.complex128, np.float64]),
            hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
        ),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=4), children, max_size=4),
        max_leaves=20,
    ))
    def test_matches_stdlib(self, data):
        assert serialize.dumps(data) == reference_dumps(data)


class TestKernelEntries:
    ORACLE = _table(*fixtures.controlled_kdim2())

    def test_keys_and_views(self):
        oracle = self.ORACLE
        values = serialize.oracle_to_json(oracle)["values"]
        n = len(oracle.words)
        keys = [f"{i},{j}" for i in range(n) for j in range(n)]
        assert len(values) == n * n and list(values) == keys
        for key in ("0,0", "3,2", f"{n - 1},{n - 1}"):
            i, j = map(int, key.split(","))
            entry = values[key]
            assert key in values
            assert entry.base is not None and np.shares_memory(entry, oracle.table)
            assert entry.shape == (2, 2) and np.array_equal(entry, oracle.table[i, j])
        assert [e.tobytes() for e in values.values()] == \
            [values[k].tobytes() for k in keys]
        assert [k for k, _ in values.items()] == keys

    def test_read_only(self):
        values = serialize.oracle_to_json(self.ORACLE)["values"]
        with pytest.raises(TypeError):
            values["0,0"] = values["0,1"]
        with pytest.raises(ValueError):
            values["0,0"][0, 0] = 1.0

    @pytest.mark.parametrize("key", [
        " 1,0", "+1,0", "01,0", "1, 0", "1_0,0", "1,0 ", "1,00", "1,0,0",
        "00,1", "-1,0", "16,0", "0,16", "9" * 30 + ",0", "", (1, 0), 10,
    ])
    def test_only_canonical_keys_are_in(self, key):
        # the keys the reader would refuse are not in the mapping, as they
        # were not in the dict it replaces
        values = serialize.oracle_to_json(self.ORACLE)["values"]
        assert key not in values
        with pytest.raises(KeyError):
            values[key]
        assert values.get(key) is None

    @pytest.mark.parametrize("name", ["qubit_zx", "controlled_kdim2", "tensor_chain(4)"])
    def test_read_back_bit_for_bit(self, name):
        if name == "tensor_chain(4)":
            oracle = _table(*fixtures.tensor_chain(4, canonical=False))
        else:
            oracle = _table(*getattr(fixtures, name)())
        back = serialize.oracle_from_json(serialize.oracle_to_json(oracle))
        assert back.words == oracle.words
        assert back.table.tobytes() == oracle.table.tobytes()


class TestTableReader:
    def test_array_and_list_leaves_agree(self):
        oracle = _table(*fixtures.controlled_kdim2())
        data = serialize.oracle_to_json(oracle)
        assert isinstance(data["values"]["0,0"], np.ndarray)
        from_arrays = serialize.oracle_from_json(data)
        from_lists = serialize.oracle_from_json(json.loads(serialize.dumps(data)))
        assert np.array_equal(from_arrays.table, oracle.table)
        assert np.array_equal(from_lists.table, oracle.table)

    def test_misshapen_entry(self):
        data = json.loads(serialize.dumps(serialize.oracle_to_json(
            _table(*fixtures.controlled_kdim2()))))
        data["values"]["1,1"] = [[[0.0, 0.0], [0.0, 0.0]]]
        with pytest.raises(ValueError, match="kernel entry 1,1 is not a 2x2 matrix"):
            serialize.oracle_from_json(data)

    def test_non_finite_entry(self):
        data = json.loads(serialize.dumps(serialize.oracle_to_json(
            _table(*fixtures.controlled_kdim2()))))
        data["values"]["3,2"][1][0][1] = math.inf
        with pytest.raises(ValueError, match="kernel entry 3,2 is not finite"):
            serialize.oracle_from_json(data)

    @pytest.mark.parametrize("bad", ["text", None, [[0.0, 0.0], [0.0]]])
    def test_non_numeric_or_ragged_entry(self, bad):
        data = json.loads(serialize.dumps(serialize.oracle_to_json(
            _table(*fixtures.qubit_zx()))))
        data["values"]["2,0"] = [[bad]]
        with pytest.raises(ValueError, match="kernel entry 2,0 is not a 1x1 matrix"):
            serialize.oracle_from_json(data)

    def test_mixed_array_and_list_leaves(self):
        oracle = _table(*fixtures.qubit_zx())
        data = serialize.oracle_to_json(oracle)
        data["values"] = dict(data["values"])
        data["values"]["0,0"] = serialize.matrix_to_json(data["values"]["0,0"])
        back = serialize.oracle_from_json(data)
        assert np.array_equal(back.table, oracle.table)

    @pytest.mark.parametrize("spelling, key", [
        (" 1,0", "1,0"), ("+1,0", "1,0"), ("01,0", "1,0"), ("1, 0", "1,0"),
        ("1_0,0", "10,0"), ("1,0 ", "1,0"), ("1,00", "1,0"), ("1,0,0", "1,0"),
    ])
    def test_non_canonical_entry_key(self, spelling, key):
        # each pair has one spelling: another is refused, not read as the pair
        data = json.loads(serialize.dumps(serialize.oracle_to_json(
            _table(*fixtures.qubit_zx()))))
        data["values"] = {spelling if k == key else k: v for k, v in data["values"].items()}
        message = f"kernel entry {spelling!r} is not 'i,j' in plain decimal"
        with pytest.raises(ValueError, match=re.escape(message)):
            serialize.oracle_from_json(data)

    def test_entry_key_outside_the_words(self):
        data = json.loads(serialize.dumps(serialize.oracle_to_json(
            _table(*fixtures.qubit_zx()))))
        n = len(data["words"])
        for key in (f"{n},0", f"0,{n}", "9" * 30 + ",0"):
            values = dict(data["values"], **{key: data["values"]["0,0"]})
            with pytest.raises(ValueError, match=f"kernel entry '{key}' is outside the {n} words"):
                serialize.oracle_from_json(dict(data, values=values))

    @pytest.mark.parametrize("spelling", [
        "1,0\n", "1\n,0", "\uff11,0", "1,\u0660", "1;0", "1,0;0,1", ",0", "1,", "1,,0", "",
    ])
    def test_unreadable_entry_key(self, spelling):
        # a newline, a non-ASCII digit or a separator of the bulk key check
        # is refused with the message the per-key check gives
        data = json.loads(serialize.dumps(serialize.oracle_to_json(
            _table(*fixtures.qubit_zx()))))
        data["values"] = {spelling if k == "1,0" else k: v for k, v in data["values"].items()}
        with pytest.raises(ValueError) as info:
            serialize.oracle_from_json(data)
        assert str(info.value) == f"kernel entry {spelling!r} is not 'i,j' in plain decimal"

    @pytest.mark.parametrize("key", [
        "1" * 25 + ",0", "0," + "9" * 19, "0,1" + "0" * 19, "0,16", "0," + "1" * 3,
        "0," + "1" * 5000,  # past the digits Python converts to an int
    ])
    def test_long_entry_index_is_outside(self, key):
        data = json.loads(serialize.dumps(serialize.oracle_to_json(
            _table(*fixtures.qubit_zx()))))
        n = len(data["words"])
        data["values"][key] = data["values"]["0,0"]
        with pytest.raises(ValueError) as info:
            serialize.oracle_from_json(data)
        assert str(info.value) == f"kernel entry {key!r} is outside the {n} words"

    def test_first_bad_key_in_file_order_is_named(self):
        # 257 words: keys in two chunks.  A malformed key is named before an
        # outside one, wherever each is; of two, the first in file order
        n = 257
        keys = [f"{x // n},{x % n}" for x in range(n * n)]
        cases = [
            ({5: "300,0", 66000: "1,02"}, "'1,02' is not 'i,j' in plain decimal"),
            ({70: "0,01", 66000: "1,02"}, "'0,01' is not 'i,j' in plain decimal"),
            ({5: "300,0", 66001: "0,257"}, "'300,0' is outside the 257 words"),
            ({66001: "0,257", 66002: "257,0"}, "'0,257' is outside the 257 words"),
        ]
        for bad, message in cases:
            edited = list(keys)
            for x, key in bad.items():
                edited[x] = key
            with pytest.raises(ValueError) as info:
                serialize._entry_indices(edited, n)
            assert str(info.value) == f"kernel entry {message}"
        assert serialize._entry_indices(keys, n).tolist() == list(range(n * n))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.integers(0, 150), st.integers(0, 150)).map(lambda ij: "%d,%d" % ij),
        st.text(alphabet="0123456789,;\n\uff11 +", max_size=7),
    ), min_size=1, max_size=8), st.integers(1, 120))
    def test_entry_keys_read_as_the_per_key_reference(self, keys, n):
        # the bulk key reader against the per-key regex and int parse: the
        # same indices, or the same refusal of the same key
        def reference():
            for k in keys:
                if not re.fullmatch("(?:0|[1-9][0-9]*),(?:0|[1-9][0-9]*)", k):
                    return f"kernel entry {k!r} is not 'i,j' in plain decimal"
            ij = [tuple(map(int, k.split(","))) for k in keys]
            for k, (i, j) in zip(keys, ij):
                if max(i, j) >= n:
                    return f"kernel entry {k!r} is outside the {n} words"
            return [i * n + j for i, j in ij]

        try:
            got = serialize._entry_indices(keys, n).tolist()
        except ValueError as exc:
            got = str(exc)
        assert got == reference()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_entry_cells_read_as_the_per_entry_reference(self, data):
        # the bulk cell reader against numpy's conversion of each entry: the
        # same numbers, or the same refusal of the same entry
        kdim = data.draw(st.sampled_from([1, 2]))
        odd = st.sampled_from([0, -1, True, 2**63, 2**64, None, "1"])
        # a leaf is mostly a number; a list leaf, of any one length, is refused
        listed = st.lists(st.floats(width=32), max_size=2)
        leaf = st.one_of(st.floats(width=32), st.floats(width=32), st.floats(width=32), odd, listed)
        shaped = st.lists(st.lists(st.lists(leaf, min_size=2, max_size=2),
                                   min_size=kdim, max_size=kdim), min_size=kdim, max_size=kdim)
        ragged = st.lists(st.lists(st.lists(leaf, min_size=1, max_size=3),
                                   min_size=1, max_size=2), min_size=1, max_size=2)
        members = data.draw(st.lists(shaped | shaped | ragged, min_size=1, max_size=3))
        keys = [f"0,{j}" for j in range(len(members))]

        def reference():
            entries = [serialize._as_pairs(m) for m in members]
            for key, e in zip(keys, entries):
                if e is None or e.shape != (kdim, kdim, 2):
                    return f"kernel entry {key} is not a {kdim}x{kdim} matrix of [re, im] pairs"
            for key, e in zip(keys, entries):
                if not np.isfinite(e).all():
                    return f"kernel entry {key} is not finite"
            return np.stack(entries).tolist()

        try:
            got = serialize._entry_pairs(keys, members, kdim).tolist()
        except ValueError as exc:
            got = str(exc)
        assert got == reference()

    @pytest.mark.parametrize("cell", [
        ["0.5", 0.0], [None, 0.0], [0.0], [0.0, 0.0, 0.0], [[0.0], 0.0], [0.0, 2**64], 0.0,
    ])
    def test_misshapen_cell(self, cell):
        data = json.loads(serialize.dumps(serialize.oracle_to_json(
            _table(*fixtures.controlled_kdim2()))))
        data["values"]["1,2"][1][0] = cell
        with pytest.raises(ValueError) as info:
            serialize.oracle_from_json(data)
        assert str(info.value) == "kernel entry 1,2 is not a 2x2 matrix of [re, im] pairs"

    @pytest.mark.parametrize("wrap", [
        lambda re, im: [[re], [im]], lambda re, im: [[], []], lambda re, im: [[re, im], [re, im]],
    ])
    def test_every_cell_misshapen_alike(self, wrap):
        # every cell of the table misshapen the same way: still refused, the
        # first entry in file order named
        data = json.loads(serialize.dumps(serialize.oracle_to_json(
            _table(*fixtures.controlled_kdim2()))))
        data["values"] = {k: [[wrap(*cell) for cell in row] for row in v]
                          for k, v in data["values"].items()}
        with pytest.raises(ValueError) as info:
            serialize.oracle_from_json(data)
        assert str(info.value) == "kernel entry 0,0 is not a 2x2 matrix of [re, im] pairs"

    def test_misshapen_row(self):
        data = json.loads(serialize.dumps(serialize.oracle_to_json(
            _table(*fixtures.controlled_kdim2()))))
        data["values"]["0,3"][1].append([0.0, 0.0])
        data["values"]["3,0"] = [[0.0, 0.0], [0.0, 0.0]]
        with pytest.raises(ValueError) as info:
            serialize.oracle_from_json(data)
        assert str(info.value) == "kernel entry 0,3 is not a 2x2 matrix of [re, im] pairs"

    def test_int_and_bool_cells_are_numbers(self):
        oracle = _table(*fixtures.controlled_kdim2())
        data = json.loads(serialize.dumps(serialize.oracle_to_json(oracle)))
        data["values"]["0,1"] = [[[1, False], [0, -2]], [[True, 3], [2**63, 0.5]]]
        table = oracle.table.copy()
        table[0, 1] = [[1, -2j], [1 + 3j, 2.0**63 + 0.5j]]
        assert np.array_equal(serialize.oracle_from_json(data).table, table)

    def test_no_words(self):
        data = json.loads(serialize.dumps(serialize.oracle_to_json(
            _table(*fixtures.qubit_zx()))))
        data["words"], data["values"] = [], {}
        with pytest.raises(ValueError, match="lists no words"):
            serialize.oracle_from_json(data)


# -- round-trip properties ------------------------------------------------------

ROUND_TRIP_TABLES = {
    name: _table(*getattr(fixtures, name)()) for name in ("qubit_zx", "controlled_kdim2")
}
finite_complex = st.complex_numbers(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ROUND_TRIP_TABLES)), st.data())
def test_mutated_table_round_trip(name, data):
    """Any finite kernel entries come back from the written text with the
    same words and the same table bits."""
    oracle = ROUND_TRIP_TABLES[name]
    n, k = len(oracle.words), oracle.kdim
    table = oracle.table.copy()
    edits = data.draw(st.lists(st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1),
        hnp.arrays(complex, (k, k), elements=finite_complex),
    ), max_size=6))
    for i, j, value in edits:
        table[i, j] = value
    text = serialize.dumps(serialize.oracle_to_json(dataclasses.replace(oracle, table=table)))
    back = serialize.oracle_from_json(json.loads(text))
    assert back.words == oracle.words
    assert back.table.tobytes() == table.tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 200))
def test_model_round_trip_keeps_the_kernel_table(seed):
    model, site = fixtures.random_valid_model(seed)
    text = serialize.dumps(serialize.model_to_json(model))
    back = serialize.model_from_json(json.loads(text))
    words = enumerate_words(site, model.spaces)
    assert back.kernel_table(site, words).table.tobytes() == \
        model.kernel_table(site, words).table.tobytes()

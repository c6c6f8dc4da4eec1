"""JSON formats for sites, models, words, and kernel tables.

Complex scalars serialize as ``[re, im]`` pairs, matrices as nested lists of
those pairs, block keys as comma-joined sorted point names.  Geometric site
descriptions (``{"kind": "minkowski", ...}``) are accepted alongside explicit
relation matrices.  `dumps` also takes complex ndarrays and writes them as
those same nested pairs, so a kernel table keeps its entries as arrays until
they become text.
"""

from __future__ import annotations

import dataclasses
import json
import re
from collections.abc import Mapping, ValuesView
from fractions import Fraction
from functools import cached_property, lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np

from .kernels import KernelOracle, require_on_site
from .linalg import COMPLEX
from .models import HilbertModel, SymmetryRep, require_representation
from .sites import (
    CausalSite,
    SiteSymmetry,
    chain_site,
    discrete_site,
    galilean_site,
    minkowski_site,
)
from .words import EventWord, OutcomeSpaces


def matrix_to_json(m) -> list:
    m = np.atleast_2d(np.asarray(m, dtype=COMPLEX))
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def matrix_from_json(data, name: str) -> np.ndarray:
    """A matrix of finite ``[re, im]`` pairs; `name` says which one in the
    `ValueError` that refuses anything else."""
    pairs = _as_pairs(data)
    if pairs is None or pairs.ndim != 3 or pairs.shape[2] != 2:
        raise ValueError(f"{name} is not a matrix of [re, im] pairs")
    if not np.isfinite(pairs).all():
        raise ValueError(f"{name} is not finite")
    return pairs.view(COMPLEX)[..., 0]


def json_int(data, name: str, low: int) -> int:
    """`data` if a JSON integer (not a bool) of at least `low`, else refused."""
    if isinstance(data, bool) or not isinstance(data, int) or data < low:
        raise ValueError(f"{name} must be an integer of at least {low}, not {data!r}")
    return data


def json_object(data, name: str) -> Mapping:
    """`data` if a JSON object, else refused by a `ValueError` naming `name`."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{name} is not a JSON object")
    return data


_LABELS = "outcome labels at {!r} are not a list of strings"


def json_strings(data, refusal: str) -> tuple:
    """`data` if a JSON list of strings, else refused with the message
    `refusal`: a string would be read as its characters."""
    if not isinstance(data, list) or not all(isinstance(x, str) for x in data):
        raise ValueError(refusal)
    return tuple(data)


def block_key(k) -> str:
    return ",".join(sorted(k))


def block_from_key(s: str) -> frozenset[str]:
    return frozenset(x for x in s.split(",") if x)


# -- sites ----------------------------------------------------------------------


def site_to_json(site: CausalSite, symmetry: bool = True) -> dict:
    """The site's points and relation, and its symmetry unless `symmetry`
    is false (a kernel table's site: the table's ``"symmetry"`` block holds
    the maps of its elements)."""
    out = {
        "points": list(site.points),
        "leq": [[bool(v) for v in row] for row in site.leq],
    }
    sym = site.symmetry
    if symmetry and sym is not None:
        if "compose" in sym.elements:
            raise ValueError('"compose" is a reserved symmetry-element name')
        entries: dict = {s: {"map": dict(sym.maps[s])} for s in sym.elements}
        compose: dict[str, dict[str, str]] = {}
        for (a, b), c in sym.compose.items():
            compose.setdefault(a, {})[b] = c
        entries["compose"] = compose
        out["symmetries"] = entries
    return out


def site_from_json(data: dict) -> CausalSite:
    """A site, with the action its ``"symmetries"`` block declares."""
    data = json_object(data, "the site")
    if "kind" in data:
        site = _geometric_site(data)
    else:
        leq = data["leq"]
        if not isinstance(leq, list) or not all(isinstance(row, list) for row in leq):
            raise ValueError('"leq" is not a list of rows')
        leq = tuple(tuple(row) for row in leq)
        if not all(isinstance(v, bool) for row in leq for v in row):
            raise ValueError('"leq" holds a cell that is not true or false')
        points = json_strings(data["points"], '"points" is not a list of strings')
        site = CausalSite(points=points, leq=leq)
    if "symmetries" in data:
        entries = dict(json_object(data["symmetries"], '"symmetries"'))
        # the composition table may sit inside the symmetry block or beside it
        raw_compose = entries.pop("compose", data.get("compose", {}))
        maps = {s: _point_map(entry, s) for s, entry in entries.items()}
        compose = {}
        for a, inner in json_object(raw_compose, '"compose"').items():
            for b, c in json_object(inner, f'"compose" {a!r}').items():
                compose[(a, b)] = c
        site = dataclasses.replace(site, symmetry=SiteSymmetry(tuple(maps), maps, compose))
    return site


def _geometric_site(data: dict) -> CausalSite:
    kind = data["kind"]
    labels = data.get("labels")
    if labels is not None:
        labels = json_strings(labels, '"labels" is not a list of strings')
    if kind == "minkowski":
        coords = [tuple(_exactify(x) for x in p) for p in data["coords"]]
        return minkowski_site(coords, c=_exactify(data.get("c", 1)), labels=labels)
    if kind == "galilean":
        taus = [_exactify(x) for x in data["coords"]]
        return galilean_site(taus, labels)
    if kind in ("discrete", "chain"):
        points = labels or [f"p{i}" for i in range(json_int(data["count"], '"count"', 0))]
        return (discrete_site if kind == "discrete" else chain_site)(points)
    raise ValueError(f"unknown geometric site kind {kind!r}")


def _exactify(x):
    if isinstance(x, str):
        return Fraction(x)
    return x


# -- words and spaces -------------------------------------------------------------


def spaces_to_json(spaces: OutcomeSpaces) -> dict:
    return {t: list(labels) for t, labels in spaces.spaces.items()}


def spaces_from_json(data: Mapping) -> OutcomeSpaces:
    spaces = json_object(data, '"spaces"')
    return OutcomeSpaces(
        {t: json_strings(v, _LABELS.format(t)) for t, v in spaces.items()}
    )


def word_to_json(word: EventWord) -> dict:
    return {t: sorted(b) for t, b in word.factors}


def word_from_json(data: Mapping, spaces: OutcomeSpaces) -> EventWord:
    factors = json_object(data, f"word {data!r}").items()
    return EventWord.from_dict(
        {t: set(json_strings(v, _LABELS.format(t))) for t, v in factors}, spaces
    )


# -- models -----------------------------------------------------------------------


def _point_map(entry, s: str) -> dict:
    """The point map ``"map"`` of the symmetry entry of element `s`."""
    entry = json_object(entry, f"symmetry {s!r}")
    return dict(json_object(entry["map"], f"symmetry {s!r} map"))


def _outcome_maps(entry, s: str) -> dict:
    """The per-point outcome maps ``"g"`` of the symmetry entry of element `s`."""
    entry = json_object(entry, f"symmetry {s!r}")
    return {t: dict(json_object(g, f"symmetry {s!r} g at {t!r}"))
            for t, g in json_object(entry["g"], f"symmetry {s!r} g").items()}


def model_to_json(model: HilbertModel) -> dict:
    out = {
        "dim": model.dim,
        "kdim": model.kdim,
        "embedding": matrix_to_json(model.embedding),
        "spaces": spaces_to_json(model.spaces),
        "projectors": {
            t: {x: matrix_to_json(m) for x, m in fam.items()}
            for t, fam in model.atoms.items()
        },
    }
    if model.units_p or model.units_i:
        out["units"] = {
            "p": {block_key(k): matrix_to_json(m) for k, m in model.units_p.items()},
            "i": {block_key(k): matrix_to_json(m) for k, m in model.units_i.items()},
        }
    if model.algebra:
        out["algebra"] = {
            block_key(k): [matrix_to_json(g) for g in gens]
            for k, gens in model.algebra.items()
        }
    if model.symmetry:
        out["symmetry"] = {
            s: {
                "v": matrix_to_json(ms.op),
                "g": {t: dict(g) for t, g in ms.outcome_maps.items()},
            }
            for s, ms in model.symmetry.items()
        }
    return out


def model_from_json(data: dict) -> HilbertModel:
    data = json_object(data, "the model")
    spaces = spaces_from_json(data["spaces"])
    atoms = {
        t: {x: matrix_from_json(m, f"projector {t!r}/{x!r}")
            for x, m in json_object(fam, f"projectors {t!r}").items()}
        for t, fam in json_object(data["projectors"], '"projectors"').items()
    }
    units = json_object(data.get("units", {}), '"units"')
    units_p = {
        block_from_key(k): matrix_from_json(m, f"unit 'p'/{k!r}")
        for k, m in json_object(units.get("p", {}), "unit 'p'").items()
    }
    units_i = {
        block_from_key(k): matrix_from_json(m, f"unit 'i'/{k!r}")
        for k, m in json_object(units.get("i", {}), "unit 'i'").items()
    }
    algebra = {
        block_from_key(k): tuple(
            matrix_from_json(g, f"algebra generator {k!r}/{i}")
            for i, g in enumerate(gens)
        )
        for k, gens in json_object(data.get("algebra", {}), '"algebra"').items()
    }
    symmetry = {
        s: SymmetryRep(outcome_maps=_outcome_maps(entry, s),  # refuses a non-object
                       op=matrix_from_json(entry["v"], f"symmetry {s!r} v"))
        for s, entry in json_object(data.get("symmetry", {}), '"symmetry"').items()
    }
    model = HilbertModel(
        dim=json_int(data["dim"], '"dim"', 1),
        embedding=matrix_from_json(data["embedding"], "embedding"),
        atoms=atoms,
        spaces=spaces,
        units_p=units_p,
        units_i=units_i,
        algebra=algebra,
        symmetry=symmetry,
    )
    if "kdim" in data and json_int(data["kdim"], '"kdim"', 1) != model.kdim:
        raise ValueError(
            f'"kdim" {data["kdim"]} differs from the embedding\'s {model.kdim} columns'
        )
    return model


# -- kernel tables -----------------------------------------------------------------


class KernelEntries(Mapping):
    """The ``"i,j"`` entries of an (n, n, kdim, kdim) kernel table, read only:
    ``m["i,j"]`` is the view ``table[i, j]``, the keys run in row-major
    order, and a key the reader would refuse (another spelling of a pair,
    an index of n or more) is not in the mapping."""

    __slots__ = ("table",)

    def __init__(self, table: np.ndarray):
        self.table = table

    def __len__(self) -> int:
        return self.table.shape[0] ** 2

    def __iter__(self):
        n = self.table.shape[0]
        return (f"{i},{j}" for i in range(n) for j in range(n))

    def __getitem__(self, key):
        if isinstance(key, str) and _ENTRY_KEY.fullmatch(key):
            i, j = map(int, key.split(","))
            if max(i, j) < self.table.shape[0]:
                return self.table[i, j]
        raise KeyError(key)

    def values(self):
        return _EntryViews(self)


class _EntryViews(ValuesView):
    """The entries of a `KernelEntries` in key order, read off its table
    rather than key by key."""

    def __iter__(self):
        table = self._mapping.table
        return iter(table.reshape((-1,) + table.shape[2:]))


def oracle_to_json(oracle) -> dict:
    """The table as a JSON-ready dict.  Its ``"values"`` is a read-only
    `KernelEntries` over ``oracle.table``, each ``"i,j"`` value the kdim ×
    kdim complex view ``oracle.table[i, j]``, which `dumps` writes as nested
    ``[re, im]`` pairs; to edit entries, copy it first (``dict(values)``)."""
    out = {
        "kdim": oracle.kdim,
        "site": site_to_json(oracle.site, symmetry=False),
        "spaces": spaces_to_json(oracle.spaces),
        "words": [word_to_json(w) for w in oracle.words],
        "values": KernelEntries(oracle.table),
    }
    if oracle.symmetry:
        out["symmetry"] = {
            s: {
                "map": dict(oracle.site.symmetry.maps[s]),
                "g": {t: dict(g) for t, g in sym.outcome_maps.items()},
                "u": matrix_to_json(sym.op),
            }
            for s, sym in oracle.symmetry.items()
        }
    return out


class DuplicateKey(ValueError):
    """A JSON object spells a key twice."""


class EntryPairs(Mapping):
    """A JSON object's members as json's ``(key, value)`` pair list, in file
    order, a key possibly repeated: how the table reader (`cli._read_json`)
    hands a kernel table's entries to `oracle_from_json`, which refuses a
    repeated entry from the parsed indices, so that no dict of the entries
    is built beside the list.  As a mapping, the last value of each key."""

    def __init__(self, pairs: list):
        self.pairs = pairs

    @cached_property
    def _members(self) -> dict:
        return dict(self.pairs)

    def __getitem__(self, key):
        return self._members[key]

    def __iter__(self):
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)


def is_entry_key(key: str) -> bool:
    """Whether `key` spells a kernel entry: ``"i,j"`` in plain decimal."""
    return _ENTRY_KEY.fullmatch(key) is not None


def oracle_from_json(data: dict) -> KernelOracle:
    """A kernel table, whose site acts by the maps of its ``"symmetry"``
    block, with no composition table: a ``"symmetries"`` block in its
    ``"site"`` is refused."""
    data = json_object(data, "the kernel table")
    if "symmetries" in json_object(data["site"], '"site"'):
        raise ValueError('a kernel table declares its symmetry in "symmetry" only, '
                         'not in a "symmetries" block of its "site"')
    site = site_from_json(data["site"])
    spaces = spaces_from_json(data["spaces"])
    if not isinstance(data["words"], list):
        raise ValueError('"words" is not a list')
    words = tuple(word_from_json(w, spaces) for w in data["words"])
    kdim = json_int(data["kdim"], '"kdim"', 1)
    n = len(words)
    if not n:
        raise ValueError("the kernel table lists no words")
    values = json_object(data["values"], '"values"')
    items = values.pairs if isinstance(values, EntryPairs) else values.items()
    keys, members = [k for k, _ in items], [m for _, m in items]
    flat = _entry_indices(keys, n)
    counts = np.bincount(flat, minlength=n * n)
    if counts.max(initial=0) > 1:  # each key spells one pair: a key given twice
        seen: set = set()
        key = next(k for k in keys if k in seen or seen.add(k))
        raise DuplicateKey(f"duplicate key {key!r}")
    if flat.size != n * n:
        i, j = divmod(int(np.argmin(counts)), n)
        raise ValueError(f"kernel entry {i},{j} is missing")
    pairs = _entry_pairs(keys, members, kdim)
    table = np.empty((n * n, kdim, kdim), dtype=COMPLEX)
    table[flat] = pairs.view(COMPLEX)[..., 0]
    table = table.reshape(n, n, kdim, kdim)
    maps, symmetry = {}, {}
    for s, entry in json_object(data.get("symmetry", {}), '"symmetry"').items():
        maps[s] = _point_map(entry, s)
        symmetry[s] = SymmetryRep(
            outcome_maps=_outcome_maps(entry, s),
            op=matrix_from_json(entry["u"], f"symmetry {s!r} u"),
        )
    if symmetry:
        # the oracle refuses these before its site's maps
        require_on_site(site, spaces, words)
        require_representation(symmetry, "table", kdim)
        site = dataclasses.replace(site, symmetry=SiteSymmetry(tuple(maps), maps, {}))
    return KernelOracle(
        site=site,
        spaces=spaces,
        kdim=kdim,
        words=words,
        table=table,
        symmetry=symmetry,
    )


_ENTRY_KEY = re.compile("(?:0|[1-9][0-9]*),(?:0|[1-9][0-9]*)")


def _entry_indices(keys: list, n: int) -> np.ndarray:
    """The flat index i * n + j of each ``"i,j"`` kernel-entry key, with i
    and j below n in plain decimal: no sign, space, underscore or leading
    zero, so that each pair has one spelling."""
    if not all(map(_ENTRY_KEY.fullmatch, keys)):
        key = next(k for k in keys if not _ENTRY_KEY.fullmatch(k))
        raise ValueError(f"kernel entry {key!r} is not 'i,j' in plain decimal")
    # one parse of the joined keys; floats hold every index below 2**53
    # exactly, and larger ones stay large
    ij = np.fromstring(",".join(keys), dtype=float, sep=",").reshape(len(keys), 2)
    outside = (ij >= n).any(axis=1)
    if outside.any():
        raise ValueError(
            f"kernel entry {keys[int(np.argmax(outside))]!r} is outside the {n} words"
        )
    return (ij[:, 0] * n + ij[:, 1]).astype(np.int64)


def _entry_pairs(keys: list, members: list, kdim: int) -> np.ndarray:
    """All kernel entries, the values of `keys` in their order, as one
    contiguous float array of shape (entries, kdim, kdim, 2), converted a
    chunk of entries at a time: numpy's conversion of nested lists holds a
    record of every list it reads, six times the array at 65,536 entries."""
    want = (kdim, kdim, 2)
    pairs = np.empty((len(members), *want))
    for start in range(0, len(members), 1 << 12):
        chunk = _as_pairs(members[start:start + (1 << 12)])
        if chunk is None or chunk.shape[1:] != want:
            pairs = None
            break
        pairs[start:start + len(chunk)] = chunk
    if pairs is None:
        # one entry at a time: name the first misshapen one
        per_entry = []
        for key, m in zip(keys, members):
            entry = _as_pairs(m)
            if entry is None or entry.shape != want:
                raise ValueError(
                    f"kernel entry {key} is not a {kdim}x{kdim} matrix of [re, im] pairs"
                )
            per_entry.append(entry)
        pairs = np.stack(per_entry)
    finite = np.isfinite(pairs).all(axis=(1, 2, 3))
    if not finite.all():
        key = keys[int(np.argmin(finite))]
        raise ValueError(f"kernel entry {key} is not finite")
    return pairs


def _as_pairs(m) -> np.ndarray | None:
    """Nested ``[re, im]`` lists, or complex arrays, as one float array with a
    trailing (re, im) axis; None when ragged or not numeric."""
    try:
        a = np.asarray(m)
    except ValueError:
        return None
    if np.iscomplexobj(a):
        a = np.stack((a.real, a.imag), axis=-1)
    if a.dtype.kind not in "biuf":
        return None
    return np.ascontiguousarray(a, dtype=float)


# -- writing ------------------------------------------------------------------------


def dumps(data) -> str:
    """``json.dumps(data, sort_keys=True, indent=2)``, byte for byte, where
    any ndarray leaf is written as the nested ``[re, im]`` pairs of its
    complex values (what `matrix_to_json` gives for a matrix).

    With `indent` set the stdlib encodes in pure Python, one float at a
    time.  Here the containers are walked the same way, but every array leaf
    only leaves a slot; afterwards the arrays of one shape at one depth are
    written together, their floats by one C-encoded ``json.dumps`` of a flat
    list and their brackets by one cached template.  A `KernelEntries` is
    not walked at all: its table is written in key order straight from the
    array (`_encode_entries`).
    """
    chunks: list = []
    groups: dict = {}  # (shape, level) -> (slots, arrays)
    _encode(data, 0, chunks, groups)
    for (shape, level), (slots, arrays) in groups.items():
        for slot, text in zip(slots, _render(arrays, shape, level)):
            chunks[slot] = text
    return "".join(chunks)


def _encode(o, level: int, chunks: list, groups: dict) -> None:
    if isinstance(o, np.ndarray):
        slots, arrays = groups.setdefault((o.shape, level), ([], []))
        slots.append(len(chunks))
        arrays.append(o)
        chunks.append(None)
    elif isinstance(o, str):
        chunks.append(encode_basestring_ascii(o))
    elif o is None:
        chunks.append("null")
    elif o is True:
        chunks.append("true")
    elif o is False:
        chunks.append("false")
    elif isinstance(o, int):
        chunks.append(int.__repr__(o))
    elif isinstance(o, float):
        chunks.append(_float_text(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            chunks.append("[]")
            return
        inner = "\n" + "  " * (level + 1)
        sep = "[" + inner
        for v in o:
            chunks.append(sep)
            sep = "," + inner
            _encode(v, level + 1, chunks, groups)
        chunks.append("\n" + "  " * level + "]")
    elif isinstance(o, dict):
        if not o:
            chunks.append("{}")
            return
        inner = "\n" + "  " * (level + 1)
        sep = "{" + inner
        for k in sorted(o):
            key = k if isinstance(k, str) else _key_text(k)
            chunks.append(sep + encode_basestring_ascii(key) + ": ")
            sep = "," + inner
            _encode(o[k], level + 1, chunks, groups)
        chunks.append("\n" + "  " * level + "}")
    elif isinstance(o, KernelEntries):
        _encode_entries(o.table, level, chunks)
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _encode_entries(table: np.ndarray, level: int, chunks: list) -> None:
    """The ``"i,j"``-keyed object of an (n, n, k, k) table, as the dict walk
    writes it, in row chunks of about 2^16 entries.  Sorted ``"i,j"`` keys
    run in the string order of i, then of j, because ``","`` sorts before
    every digit."""
    n, shape = table.shape[0], table.shape[2:]
    if not n:
        chunks.append("{}")
        return
    order = sorted(range(n), key=str)
    labels = [str(i) for i in order]
    head = ",\n" + "  " * (level + 1) + '"'
    lead = "{" + head[1:]  # the first entry follows the brace, not a comma
    step = max(1, (1 << 16) // n)
    for start in range(0, n, step):
        block = table[order[start:start + step]][:, order].reshape((-1,) + shape)
        keys = (f'{i},{j}": ' for i in labels[start:start + step] for j in labels)
        texts = _render(block, shape, level + 1)
        chunks.append(lead + head.join(map(str.__add__, keys, texts)))
        lead = head
    chunks.append("\n" + "  " * level + "}")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == -float("inf"):
        return "-Infinity"
    return float.__repr__(x)


def _key_text(k) -> str:
    """The stdlib's spelling of a non-string key."""
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(k).__name__}"
    )


def _render(arrays, shape: tuple, level: int) -> list[str]:
    """The texts of same-shape arrays written at one depth, in order; a list
    of them or one array stacking them."""
    z = np.asarray(arrays, dtype=COMPLEX)
    flat = np.stack((z.real, z.imag), axis=-1).ravel().tolist()
    # the C encoder spells floats as the stdlib does (repr, NaN, Infinity)
    floats = json.dumps(flat)[1:-1].split(", ") if flat else []
    return (_template(shape, level) * len(arrays) % tuple(floats))[:-1].split("\0")


@lru_cache(maxsize=64)
def _template(shape: tuple, level: int) -> str:
    """The text of one array of `shape` at depth `level`, with ``%s`` for
    each float and a closing NUL to split on: the list walk of zeros, whose
    brackets, commas and indents never contain ``0.0``."""
    chunks: list = []
    _encode(np.zeros(shape + (2,)).tolist(), level, chunks, {})
    return "%s".join("".join(chunks).split("0.0")) + "\0"

"""JSON formats for sites, models, words, and kernel tables.

Complex scalars serialize as ``[re, im]`` pairs, matrices as nested lists of
those pairs, block keys as comma-joined sorted point names.  Geometric site
descriptions (``{"kind": "minkowski", ...}``) are accepted alongside explicit
relation matrices.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping

import numpy as np

from .linalg import COMPLEX
from .models import HilbertModel, ModelSymmetry
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


def matrix_from_json(data) -> np.ndarray:
    rows = []
    for row in data:
        rows.append([complex(cell[0], cell[1]) for cell in row])
    return np.asarray(rows, dtype=COMPLEX)


def block_key(k) -> str:
    return ",".join(sorted(k))


def block_from_key(s: str) -> frozenset[str]:
    return frozenset(x for x in s.split(",") if x)


# -- sites ----------------------------------------------------------------------


def site_to_json(site: CausalSite, sym: SiteSymmetry | None = None) -> dict:
    out = {
        "points": list(site.points),
        "leq": [[bool(v) for v in row] for row in site.leq],
    }
    if sym is not None:
        if "compose" in sym.elements:
            raise ValueError('"compose" is a reserved symmetry-element name')
        entries: dict = {s: {"map": dict(sym.maps[s])} for s in sym.elements}
        compose: dict[str, dict[str, str]] = {}
        for (a, b), c in sym.compose.items():
            compose.setdefault(a, {})[b] = c
        entries["compose"] = compose
        out["symmetries"] = entries
    return out


def site_from_json(data: dict) -> tuple[CausalSite, SiteSymmetry | None]:
    if "kind" in data:
        site = _geometric_site(data)
    else:
        site = CausalSite(
            points=tuple(data["points"]),
            leq=tuple(tuple(bool(v) for v in row) for row in data["leq"]),
        )
    sym = None
    if "symmetries" in data:
        entries = dict(data["symmetries"])
        # the composition table may sit inside the symmetry block or beside it
        raw_compose = entries.pop("compose", data.get("compose", {}))
        maps = {s: dict(entry["map"]) for s, entry in entries.items()}
        compose = {}
        for a, inner in raw_compose.items():
            for b, c in inner.items():
                compose[(a, b)] = c
        sym = SiteSymmetry(tuple(maps), maps, compose)
    return site, sym


def _geometric_site(data: dict) -> CausalSite:
    kind = data["kind"]
    labels = data.get("labels")
    if kind == "minkowski":
        coords = [tuple(_exactify(x) for x in p) for p in data["coords"]]
        return minkowski_site(coords, c=_exactify(data.get("c", 1)), labels=labels)
    if kind == "galilean":
        taus = [_exactify(x) for x in data["coords"]]
        return galilean_site(taus, labels)
    if kind == "discrete":
        return discrete_site(labels or [f"p{i}" for i in range(int(data["count"]))])
    if kind == "chain":
        return chain_site(labels or [f"p{i}" for i in range(int(data["count"]))])
    raise ValueError(f"unknown geometric site kind {kind!r}")


def _exactify(x):
    if isinstance(x, str):
        return Fraction(x)
    return x


# -- words and spaces -------------------------------------------------------------


def spaces_to_json(spaces: OutcomeSpaces) -> dict:
    return {t: list(labels) for t, labels in spaces.spaces.items()}


def spaces_from_json(data: Mapping) -> OutcomeSpaces:
    return OutcomeSpaces({t: tuple(v) for t, v in data.items()})


def word_to_json(word: EventWord) -> dict:
    return {t: sorted(b) for t, b in word.factors}


def word_from_json(data: Mapping, spaces: OutcomeSpaces) -> EventWord:
    return EventWord.from_dict({t: set(v) for t, v in data.items()}, spaces)


# -- models -----------------------------------------------------------------------


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
                "v": matrix_to_json(ms.v),
                "g": {t: dict(g) for t, g in ms.outcome_maps.items()},
            }
            for s, ms in model.symmetry.items()
        }
    return out


def model_from_json(data: dict) -> HilbertModel:
    spaces = spaces_from_json(data["spaces"])
    atoms = {
        t: {x: matrix_from_json(m) for x, m in fam.items()}
        for t, fam in data["projectors"].items()
    }
    units = data.get("units", {})
    units_p = {
        block_from_key(k): matrix_from_json(m)
        for k, m in units.get("p", {}).items()
    }
    units_i = {
        block_from_key(k): matrix_from_json(m)
        for k, m in units.get("i", {}).items()
    }
    algebra = {
        block_from_key(k): tuple(matrix_from_json(g) for g in gens)
        for k, gens in data.get("algebra", {}).items()
    }
    symmetry = {
        s: ModelSymmetry(
            v=matrix_from_json(entry["v"]),
            outcome_maps={t: dict(g) for t, g in entry["g"].items()},
        )
        for s, entry in data.get("symmetry", {}).items()
    }
    return HilbertModel(
        dim=int(data["dim"]),
        embedding=matrix_from_json(data["embedding"]),
        atoms=atoms,
        spaces=spaces,
        units_p=units_p,
        units_i=units_i,
        algebra=algebra,
        symmetry=symmetry,
    )


# -- kernel tables -----------------------------------------------------------------


def oracle_to_json(oracle) -> dict:
    n = len(oracle.words)
    values = {}
    for i in range(n):
        for j in range(n):
            values[f"{i},{j}"] = matrix_to_json(oracle.table[i, j])
    out = {
        "kdim": oracle.kdim,
        "site": site_to_json(oracle.site),
        "spaces": spaces_to_json(oracle.spaces),
        "words": [word_to_json(w) for w in oracle.words],
        "values": values,
    }
    if oracle.symmetry:
        out["symmetry"] = {
            s: {
                "map": dict(sym.point_map),
                "g": {t: dict(g) for t, g in sym.outcome_maps.items()},
                "u": matrix_to_json(sym.u),
            }
            for s, sym in oracle.symmetry.items()
        }
    return out


def oracle_from_json(data: dict):
    from .kernels import KernelOracle, OracleSymmetry
    from .sites import derive_classes

    site, _ = site_from_json(data["site"])
    spaces = spaces_from_json(data["spaces"])
    words = tuple(word_from_json(w, spaces) for w in data["words"])
    kdim = int(data["kdim"])
    n = len(words)
    table = np.zeros((n, n, kdim, kdim), dtype=COMPLEX)
    flat = []
    for key, m in data["values"].items():
        i, j = map(int, key.split(","))
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"kernel entry {key!r} is outside the {n} words")
        table[i, j] = matrix_from_json(m)
        flat.append(i * n + j)
    # every pair exactly once: complete, and no two keys naming one pair
    count = np.bincount(np.asarray(flat, dtype=np.int64), minlength=n * n)
    if (count != 1).any():
        i, j = divmod(int(np.argmax(count != 1)), n)
        state = "missing" if count[i * n + j] == 0 else "given twice"
        raise ValueError(f"kernel entry {i},{j} is {state}")
    symmetry = {
        s: OracleSymmetry(
            point_map=dict(entry["map"]),
            outcome_maps={t: dict(g) for t, g in entry["g"].items()},
            u=matrix_from_json(entry["u"]),
        )
        for s, entry in data.get("symmetry", {}).items()
    }
    return KernelOracle(
        site=site,
        classes=derive_classes(site),
        spaces=spaces,
        kdim=kdim,
        words=words,
        table=table,
        symmetry=symmetry,
    )


def dumps(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2)

"""Reference models used by the test suite, the scripts, and seeded runs.

Everything here is deterministic: randomized constructions take an explicit
seed and announce it in the model metadata they attach.
"""

from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction

import numpy as np

from . import linalg
from .equivalence import minimal_modification
from .linalg import COMPLEX, dagger
from .models import HilbertModel, SymmetryRep
from .sites import (
    CausalSite,
    SiteSymmetry,
    chain_site,
    discrete_site,
    galilean_site,
    minkowski_site,
)
from .words import OutcomeSpaces

Z_ATOMS = {
    "0": np.array([[1, 0], [0, 0]], dtype=COMPLEX),
    "1": np.array([[0, 0], [0, 1]], dtype=COMPLEX),
}
X_ATOMS = {
    "+": np.array([[0.5, 0.5], [0.5, 0.5]], dtype=COMPLEX),
    "-": np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=COMPLEX),
}
KET0 = np.array([1.0, 0.0], dtype=COMPLEX)


def rotated_atoms(angle: float) -> dict[str, np.ndarray]:
    """Two-outcome family in the basis rotated by `angle`."""
    c, s = np.cos(angle), np.sin(angle)
    u = np.array([[c, -s], [s, c]], dtype=COMPLEX)
    return {
        "0": u @ Z_ATOMS["0"] @ dagger(u),
        "1": u @ Z_ATOMS["1"] @ dagger(u),
    }


def qubit_zx() -> tuple[HilbertModel, CausalSite]:
    """Two-time qubit: sharp basis first, rotated basis second, aligned
    initial vector.  The workhorse noncommuting example."""
    site = chain_site(("t1", "t2"))
    spaces = OutcomeSpaces({"t1": ("0", "1"), "t2": ("+", "-")})
    atoms = {"t1": dict(Z_ATOMS), "t2": {"+": X_ATOMS["+"], "-": X_ATOMS["-"]}}
    model = HilbertModel(dim=2, embedding=KET0, atoms=atoms, spaces=spaces)
    return model, site


def qubit_xz() -> tuple[HilbertModel, CausalSite]:
    """Rotated basis first, sharp basis second: the marginalization of the
    first slot interferes maximally with the second."""
    site = chain_site(("t1", "t2"))
    spaces = OutcomeSpaces({"t1": ("+", "-"), "t2": ("0", "1")})
    atoms = {"t1": {"+": X_ATOMS["+"], "-": X_ATOMS["-"]}, "t2": dict(Z_ATOMS)}
    model = HilbertModel(dim=2, embedding=KET0, atoms=atoms, spaces=spaces)
    return model, site


def _kron_all(mats) -> np.ndarray:
    out = np.array([[1.0]], dtype=COMPLEX)
    for m in mats:
        out = np.kron(out, m)
    return out


def tensor_chain(
    n: int = 3,
    eigen_aligned_first: bool = False,
    canonical: bool = True,
    angles: tuple[float, ...] | None = None,
) -> tuple[HilbertModel, CausalSite]:
    """One measured qubit per time slot, each acting on its own tensor
    factor of a product initial vector: the canonical Markov example.

    `eigen_aligned_first` aligns the initial vector of the first slot with
    its measurement basis, which makes the earliest slice span collapse onto
    the initial vector (the regular variant).  `canonical` replaces the model
    by its minimal modification, whose unit projectors are the slice spans.
    """
    if angles is None:
        angles = tuple(0.3 + 0.4 * i for i in range(n))
    labels = tuple(f"t{i + 1}" for i in range(n))
    site = chain_site(labels)
    spaces = OutcomeSpaces({t: ("0", "1") for t in labels})
    eye = np.eye(2, dtype=COMPLEX)
    per_slot = [rotated_atoms(a) for a in angles]
    atoms = {}
    for i, t in enumerate(labels):
        fam = {}
        for x in ("0", "1"):
            fam[x] = _kron_all([per_slot[i][x] if j == i else eye for j in range(n)])
        atoms[t] = fam
    states = []
    for i in range(n):
        if i == 0 and eigen_aligned_first:
            c, s = np.cos(angles[0]), np.sin(angles[0])
            states.append(np.array([c, s], dtype=COMPLEX))  # basis eigenvector
        else:
            th = 0.5 + 0.25 * i
            states.append(np.array([np.cos(th), np.sin(th)], dtype=COMPLEX))
    xi = _kron_all([v[:, None] for v in states])[:, 0]
    model = HilbertModel(dim=2**n, embedding=xi, atoms=atoms, spaces=spaces)
    if canonical:
        model = minimal_modification(model, site)
    return model, site


def galilean_shift_fixture(broken: bool = False) -> tuple[HilbertModel, CausalSite]:
    """Three Galilean times with one qubit device repeated at every time and
    the truncated forward time shift as the site's symmetry.

    The repeated family makes the kernel shift-invariant with the identity
    acting on the initial space; `broken` replaces the last time's device,
    which kills covariance without touching anything else.
    """
    labels = ("g0", "g1", "g2")
    spaces = OutcomeSpaces({t: ("0", "1") for t in labels})
    fam = rotated_atoms(0.4)
    atoms = {t: dict(fam) for t in labels}
    if broken:
        atoms["g2"] = rotated_atoms(1.2)
    elements = ("s0", "s1", "s2", "s3")
    maps = {
        "s0": {t: t for t in labels},
        "s1": {"g0": "g1", "g1": "g2"},
        "s2": {"g0": "g2"},
        "s3": {},
    }
    compose = {
        (f"s{a}", f"s{b}"): f"s{min(a + b, 3)}"
        for a in range(4)
        for b in range(4)
    }
    site = dataclasses.replace(galilean_site([0, 1, 2], labels),
                               symmetry=SiteSymmetry(elements, maps, compose))
    model_sym = {
        s: SymmetryRep({t: {"0": "0", "1": "1"} for t in maps[s]}, np.eye(2, dtype=COMPLEX))
        for s in elements
    }
    xi = np.array([np.cos(0.9), np.sin(0.9)], dtype=COMPLEX)
    model = HilbertModel(
        dim=2, embedding=xi, atoms=atoms, spaces=spaces, symmetry=model_sym
    )
    return model, site


def ancilla_correlated() -> tuple[HilbertModel, CausalSite]:
    """Two-time qubit with a hidden ancilla entangled with the first slot's
    outcomes: the earliest slice span strictly exceeds the initial vector, so
    the process remembers the distant past."""
    site = chain_site(("t1", "t2"))
    spaces = OutcomeSpaces({"t1": ("0", "1"), "t2": ("+", "-")})
    eye = np.eye(2, dtype=COMPLEX)
    atoms = {
        "t1": {x: np.kron(m, eye) for x, m in Z_ATOMS.items()},
        "t2": {x: np.kron(m, eye) for x, m in X_ATOMS.items()},
    }
    bell = np.zeros(4, dtype=COMPLEX)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    model = HilbertModel(dim=4, embedding=bell, atoms=atoms, spaces=spaces)
    return model, site


def with_untouched_ancilla(
    model: HilbertModel, extra: int = 3
) -> HilbertModel:
    """Direct-sum an inert block onto a fully normalized model.

    The first outcome of every point absorbs the identity on the new block,
    so the extended model stays fully normalized while its product vectors
    never leave the original summand; the kernel table is unchanged and the
    minimal modification drops the block again.
    """
    dim = model.dim + extra
    pad_eye = np.eye(extra, dtype=COMPLEX)
    pad_zero = np.zeros((extra, extra), dtype=COMPLEX)
    atoms = {}
    for t, fam in model.atoms.items():
        first = model.spaces.outcomes(t)[0]
        atoms[t] = {
            x: _direct_sum(m, pad_eye if x == first else pad_zero)
            for x, m in fam.items()
        }
    emb = np.vstack(
        [model.embedding, np.zeros((extra, model.kdim), dtype=COMPLEX)]
    )
    return HilbertModel(
        dim=dim,
        embedding=emb,
        atoms=atoms,
        spaces=model.spaces,
        algebra={
            k: tuple(_direct_sum(g, pad_zero) for g in gens)
            for k, gens in model.algebra.items()
        },
        symmetry={
            s: SymmetryRep(ms.outcome_maps, _direct_sum(ms.op, pad_eye))
            for s, ms in model.symmetry.items()
        },
    )


def _direct_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=COMPLEX)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


def commuting_diagonal(
    trivial_order: bool = True,
) -> tuple[HilbertModel, CausalSite]:
    """Two commuting two-outcome devices on four diagonal dimensions: a
    plain two-bit probability space in operator clothing."""
    labels = ("t1", "t2")
    site = discrete_site(labels) if trivial_order else chain_site(labels)
    spaces = OutcomeSpaces({t: ("0", "1") for t in labels})
    d = np.diag
    atoms = {
        "t1": {
            "0": d([1.0, 1.0, 0.0, 0.0]).astype(COMPLEX),
            "1": d([0.0, 0.0, 1.0, 1.0]).astype(COMPLEX),
        },
        "t2": {
            "0": d([1.0, 0.0, 1.0, 0.0]).astype(COMPLEX),
            "1": d([0.0, 1.0, 0.0, 1.0]).astype(COMPLEX),
        },
    }
    xi = np.sqrt(np.array([0.4, 0.3, 0.2, 0.1], dtype=COMPLEX))
    model = HilbertModel(dim=4, embedding=xi, atoms=atoms, spaces=spaces)
    return model, site


def diagonal_kdim2() -> tuple[HilbertModel, CausalSite]:
    """Two-dimensional initial space riding along a measured qubit: kernels
    are scalar multiples of the identity, and the diagonal matrices on the
    initial space form the controlling algebra."""
    site = chain_site(("t1", "t2"))
    spaces = OutcomeSpaces({"t1": ("0", "1"), "t2": ("0", "1")})
    eye = np.eye(2, dtype=COMPLEX)
    fam1, fam2 = rotated_atoms(0.3), rotated_atoms(1.0)
    atoms = {
        "t1": {x: np.kron(eye, m) for x, m in fam1.items()},
        "t2": {x: np.kron(eye, m) for x, m in fam2.items()},
    }
    xi_s = np.array([np.cos(0.7), np.sin(0.7)], dtype=COMPLEX)
    emb = np.kron(eye, xi_s[:, None])
    gen = np.kron(np.diag([1.0, -1.0]).astype(COMPLEX), eye)
    algebra = {
        frozenset({"t1"}): (gen,),
        frozenset({"t2"}): (gen,),
    }
    model = HilbertModel(
        dim=4, embedding=emb, atoms=atoms, spaces=spaces, algebra=algebra
    )
    return model, site


def controlled_kdim2() -> tuple[HilbertModel, CausalSite]:
    """Two-dimensional initial space steering the measured qubit: each device
    measures in a basis conditioned on the initial-space component, so the
    kernels are genuinely operator valued (diagonal but not scalar)."""
    site = chain_site(("t1", "t2"))
    spaces = OutcomeSpaces({"t1": ("0", "1"), "t2": ("0", "1")})
    p_k = {"0": np.diag([1.0, 0.0]).astype(COMPLEX),
           "1": np.diag([0.0, 1.0]).astype(COMPLEX)}
    pairs = {"t1": (rotated_atoms(0.2), rotated_atoms(0.9)),
             "t2": (rotated_atoms(1.3), rotated_atoms(0.5))}
    atoms = {}
    for t, (fam0, fam1) in pairs.items():
        atoms[t] = {
            x: np.kron(p_k["0"], fam0[x]) + np.kron(p_k["1"], fam1[x])
            for x in ("0", "1")
        }
    xi_s = np.array([np.cos(0.6), np.sin(0.6)], dtype=COMPLEX)
    emb = np.kron(np.eye(2, dtype=COMPLEX), xi_s[:, None])
    gen = np.kron(np.diag([1.0, -1.0]).astype(COMPLEX), np.eye(2, dtype=COMPLEX))
    algebra = {frozenset({"t1"}): (gen,), frozenset({"t2"}): (gen,)}
    model = HilbertModel(
        dim=4, embedding=emb, atoms=atoms, spaces=spaces, algebra=algebra
    )
    return model, site


def two_point_field():
    """A sharp and a rotated device on one qubit, the raw material of the
    level lift."""
    field_atoms = {"z": dict(Z_ATOMS), "x": dict(X_ATOMS)}
    spaces = {"z": ("0", "1"), "x": ("+", "-")}
    return field_atoms, KET0, spaces


# -- seeded random models -------------------------------------------------------


def random_valid_model(seed: int) -> tuple[HilbertModel, CausalSite]:
    """A seeded random fully normalized model on a small site.

    Sites rotate through chains, a light-cone diamond with an independent
    pair, and a Galilean foliation with an equivalent pair.  Devices at
    mutually nonanticipatory points share an eigenbasis (they have to
    commute); chain-related points get independent random bases.  Outcome
    counts keep the full word enumeration at or below 256 words.
    """
    rng = np.random.default_rng(seed)
    kind = seed % 3
    if kind == 0:
        npts = 2 + seed % 2
        site = chain_site(tuple(f"c{i}" for i in range(npts)))
        sizes = [int(rng.integers(2, 4)) for _ in range(npts)]
        while _word_count(sizes) > 512:
            sizes[int(np.argmax(sizes))] -= 1
    elif kind == 1:
        site = minkowski_site(
            [(0, 0), (1, Fraction(1, 2)), (1, Fraction(-1, 2)), (2, 0)],
            c=1,
            labels=("m0", "m1", "m2", "m3"),
        )
        sizes = [2, 2, 2, 2]
    else:
        site = galilean_site([0, 1, 1, 2], ("q0", "q1", "q2", "q3"))
        sizes = [2, 2, 2, 2]
    dim = max(int(rng.integers(2, 7)), max(sizes))
    spaces = OutcomeSpaces(
        {t: tuple(str(i) for i in range(sz)) for t, sz in zip(site.points, sizes)}
    )

    # points that must commute share a basis: group them by connectivity
    groups = _compatibility_groups(site)
    bases = {}
    for group in groups:
        u = linalg.random_unitary(rng, dim)
        for t in group:
            bases[t] = u
    atoms = {}
    for t, sz in zip(site.points, sizes):
        u = bases[t]
        cuts = _random_partition(rng, dim, sz)
        fam = {}
        for i, cols in enumerate(cuts):
            basis = u[:, cols]
            fam[str(i)] = basis @ dagger(basis)
        atoms[t] = fam
    xi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    xi = xi / np.linalg.norm(xi)
    model = HilbertModel(
        dim=dim, embedding=xi.astype(COMPLEX), atoms=atoms, spaces=spaces
    )
    return model, site


def _word_count(sizes) -> int:
    out = 1
    for s in sizes:
        out *= 2**s
    return out


def _compatibility_groups(site: CausalSite) -> list[list[str]]:
    """Connected components of the must-commute relation (equivalence or
    independence)."""
    parent = {t: t for t in site.points}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for a, b in itertools.combinations(site.points, 2):
        if site.nonanticipatory_pair(a, b):
            parent[find(a)] = find(b)
    groups: dict[str, list[str]] = {}
    for t in site.points:
        groups.setdefault(find(t), []).append(t)
    return list(groups.values())


def _random_partition(rng, dim: int, parts: int) -> list[list[int]]:
    """Split range(dim) into `parts` nonempty groups, randomly."""
    if parts > dim:
        raise ValueError("more outcomes than dimensions to distribute")
    order = list(rng.permutation(dim))
    cuts = sorted(rng.choice(np.arange(1, dim), size=parts - 1, replace=False)) \
        if parts > 1 else []
    out = []
    prev = 0
    for c in list(cuts) + [dim]:
        out.append([int(i) for i in order[prev:int(c)]])
        prev = int(c)
    return out

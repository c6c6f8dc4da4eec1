"""Finite causal sites: preordered point sets and their derived order structure.

A site is a finite set of points with a reflexive transitive relation
("causality").  Two points may be equivalent (comparable both ways), strictly
ordered, or independent (incomparable).  The relation determines the
equivalence classes, the nonanticipatory subsets (sets in which no point
strictly precedes another), the maximal nonanticipatory subsets playing the
role of time slices, and the canonical chain decomposition of a finite
region into nonanticipatory blocks.

Geometric constructors (Minkowski cones, Galilean foliations) attach
coordinates as metadata only; all order logic runs on the relation matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

#: Hard ceiling on the nonanticipatory subsets `all_nonanticipatory` lists.
ANTICHAIN_CAP = 4096
#: Float coordinates this close to the light cone make `minkowski_site` refuse.
LIGHT_CONE_MARGIN = 1e-12


@dataclass(frozen=True)
class CausalSite:
    """A finite preordered point set.

    `leq[i][j]` states that ``points[i] <= points[j]``.  The relation must be
    reflexive and transitively closed; a non-closed input is rejected rather
    than silently closed, to catch mistakes in hand-written fixtures.
    `symmetry`, when given, is the semigroup acting on the points, refused
    by `require_symmetry` unless its maps stay on the site, keep its order
    and compose as declared.  Its equivalence classes and maximal
    antichains are computed on first use, once per site.
    """

    points: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]
    meta: Mapping[str, object] = field(default_factory=dict, compare=False)
    symmetry: SiteSymmetry | None = field(default=None, compare=False)

    def __post_init__(self):
        n = len(self.points)
        if len(set(self.points)) != n:
            raise ValueError("point identifiers must be distinct")
        if len(self.leq) != n or any(len(row) != n for row in self.leq):
            raise ValueError("relation matrix shape does not match the point list")
        for i in range(n):
            if not self.leq[i][i]:
                raise ValueError(f"relation is not reflexive at {self.points[i]!r}")
        bad = _transitivity_violation(self.leq)
        if bad is not None:
            i, j, k = (self.points[x] for x in bad)
            raise ValueError(
                f"relation is not transitively closed: {i!r} <= {j!r} <= {k!r} "
                f"but not {i!r} <= {k!r}"
            )
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.points)})
        if self.symmetry is not None:
            require_symmetry(self, self.symmetry)

    # -- basic relation queries ------------------------------------------

    def index(self, t: str) -> int:
        try:
            return self._index[t]
        except KeyError:
            raise KeyError(f"unknown point identifier {t!r}") from None

    def le(self, a: str, b: str) -> bool:
        return self.leq[self.index(a)][self.index(b)]

    def equivalent(self, a: str, b: str) -> bool:
        return self.le(a, b) and self.le(b, a)

    def strictly_precedes(self, a: str, b: str) -> bool:
        return self.le(a, b) and not self.le(b, a)

    def independent(self, a: str, b: str) -> bool:
        return not self.le(a, b) and not self.le(b, a)

    def nonanticipatory_pair(self, a: str, b: str) -> bool:
        """Neither point strictly precedes the other."""
        return self.le(a, b) == self.le(b, a)

    # -- derived subsets --------------------------------------------------

    def maximal_points(self, pts: Iterable[str]) -> frozenset[str]:
        """Points of `pts` not strictly preceding any other point of `pts`."""
        pts = list(pts)
        return frozenset(
            a for a in pts if not any(self.strictly_precedes(a, b) for b in pts)
        )

    def down_set(self, pts: Iterable[str]) -> frozenset[str]:
        """All site points lying below (<=) some point of `pts`."""
        pts = list(pts)
        return frozenset(t for t in self.points if any(self.le(t, b) for b in pts))

    def chain_decompose(self, region: Iterable[str]) -> tuple[frozenset[str], ...]:
        """Canonical partition of a finite subset into nonanticipatory blocks,
        earliest block first.

        The recursion peels off the maximal points of the remaining set; the
        resulting blocks partition the input and each block strictly
        anticipates every earlier one.  The empty set yields the empty chain.
        """
        remaining = {t for t in region}
        for t in remaining:
            self.index(t)
        blocks: list[frozenset[str]] = []
        while remaining:
            top = self.maximal_points(remaining)
            blocks.append(top)
            remaining -= top
        blocks.reverse()
        return tuple(blocks)

    # -- the order structure, computed once per site -----------------------

    @cached_property
    def equivalence_classes(self) -> tuple[tuple[str, ...], ...]:
        """The factor set, each class listed in point order."""
        seen: set[str] = set()
        classes: list[tuple[str, ...]] = []
        for t in self.points:
            if t not in seen:
                classes.append(tuple(u for u in self.points if self.equivalent(t, u)))
                seen.update(classes[-1])
        return tuple(classes)

    @cached_property
    def maximal_antichains(self) -> tuple[frozenset[str], ...]:
        """Every maximal nonanticipatory subset (the time slices)."""
        return tuple(_maximal_antichains(self))

    def all_nonanticipatory(self) -> list[frozenset[str]]:
        """Every nonanticipatory subset (including the empty set), in a
        deterministic order.  Refuses when the count would exceed
        `ANTICHAIN_CAP`."""
        out: list[frozenset[str]] = [frozenset()]
        for t in self.points:
            extensions = []
            for cur in out:
                if all(self.nonanticipatory_pair(t, u) for u in cur):
                    extensions.append(cur | {t})
            out.extend(extensions)
            if len(out) > ANTICHAIN_CAP:
                raise ValueError(
                    f"nonanticipatory subset count exceeds the cap ({ANTICHAIN_CAP})"
                )
        return out

    # -- the semilattice of nonanticipatory subsets -----------------------

    def subset_le(self, j: Iterable[str], jp: Iterable[str]) -> bool:
        """Preorder on nonanticipatory subsets: every point of j lies below
        some point of j'."""
        j, jp = set(j), set(jp)
        return all(any(self.le(a, b) for b in jp) for a in j)

    def antichains_containing(self, k: Iterable[str]) -> list[frozenset[str]]:
        k = frozenset(k)
        return [l for l in self.maximal_antichains if k <= l]

    def minimal_antichains(self) -> list[frozenset[str]]:
        """Members of the maximal-antichain list that are minimal in the
        subset preorder (the finite stand-ins for the distant past)."""
        out = []
        for l in self.maximal_antichains:
            below = [
                lp
                for lp in self.maximal_antichains
                if lp != l and self.subset_le(lp, l) and not self.subset_le(l, lp)
            ]
            if not below:
                out.append(l)
        return out


def _maximal_antichains(site: CausalSite) -> list[frozenset[str]]:
    """All maximal nonanticipatory subsets, by growing compatible sets point
    by point and keeping the inclusion-maximal ones."""
    collected: list[frozenset[str]] = []

    def grow(current: frozenset[str], candidates: list[str]):
        extended = False
        for i, t in enumerate(candidates):
            if all(site.nonanticipatory_pair(t, u) for u in current):
                extended = True
                grow(current | {t}, candidates[i + 1 :])
        if not extended:
            # maximal within the remaining candidates; check global maximality
            if all(
                t in current or not all(site.nonanticipatory_pair(t, u) for u in current)
                for t in site.points
            ):
                if current not in collected:
                    collected.append(current)

    grow(frozenset(), list(site.points))
    return collected


def _transitivity_violation(leq) -> tuple[int, int, int] | None:
    """The first (i, j, k), in `itertools.product` order, with i <= j <= k
    but not i <= k, or None.  One matrix product counts the j linking each
    pair (i, k), in float32: a sum of ones is never rounded to zero."""
    le = np.array(leq, dtype=bool).reshape(len(leq), len(leq))
    ones = le.astype(np.float32)
    links = ones @ ones > 0
    bad_rows = np.flatnonzero((links & ~le).any(axis=1))
    if not bad_rows.size:
        return None
    i = int(bad_rows[0])
    missing = le & ~le[i]  # row j: the k with j <= k but not i <= k
    j = int(np.flatnonzero(le[i] & missing.any(axis=1))[0])
    return i, j, int(np.flatnonzero(missing[j])[0])


# -- symmetries ------------------------------------------------------------


@dataclass(frozen=True)
class SiteSymmetry:
    """A semigroup acting on the site by (possibly partial) monotone maps.

    `maps[s]` sends points to points; a point missing from the mapping is
    outside the domain of `s` (finite truncations of shift actions need
    this).  `compose[(s, sp)]` names the product element, with the action
    convention ``(s·sp)(t) = s(sp(t))``.
    """

    elements: tuple[str, ...]
    maps: Mapping[str, Mapping[str, str]]
    compose: Mapping[tuple[str, str], str]


def check_symmetry(site: CausalSite, sym: SiteSymmetry) -> list[str]:
    """Diagnose a symmetry action: every map must preserve and reflect the
    relation on its domain, and maps must compose per the semigroup table.
    One line per problem: the maps that leave the site's points, and only
    those when there are any; else the order and then the composition
    violations."""
    unknown = [
        f"symmetry element {s!r} maps {t!r} to {st!r}, outside the site's points"
        for s in sym.elements
        for t, st in sym.maps[s].items()
        if st not in site.points or t not in site.points  # st may not hash
    ]
    if unknown:
        return unknown
    problems = []
    for s in sym.elements:
        m = sym.maps[s]
        for t, tp in itertools.product(m, repeat=2):
            if site.le(t, tp) != site.le(m[t], m[tp]):
                problems.append(f"symmetry element {s!r} does not preserve the "
                                f"order of {t!r} and {tp!r}")
    for s, sp in itertools.product(sym.elements, repeat=2):
        if (s, sp) not in sym.compose:
            continue
        prod = sym.compose[(s, sp)]
        for t, spt in sym.maps[sp].items():
            if sym.maps[s].get(spt) != sym.maps.get(prod, {}).get(t):
                problems.append(f"symmetry element {s!r} after {sp!r} is not "
                                f"{prod!r} at {t!r}")
    return problems


def require_symmetry(site: CausalSite, sym: SiteSymmetry) -> None:
    """Refuse, by a `ValueError` naming the first problem `check_symmetry`
    finds, a symmetry whose maps leave the site, break its order or
    contradict the composition table."""
    problems = check_symmetry(site, sym)
    if problems:
        raise ValueError(problems[0])


# -- geometric constructors -------------------------------------------------


def _exact(x) -> Fraction:
    # Every int/float/Fraction input is an exact rational; comparisons below
    # are therefore unambiguous for the numbers as given.
    return Fraction(x)


def minkowski_site(
    coords: Sequence[tuple],
    c=1,
    labels: Sequence[str] | None = None,
) -> CausalSite:
    """Site of space-time events ordered by the light cone.

    Each coordinate is ``(tau, r1, ..., rd)``; ``t <= t'`` holds when the
    spatial separation is within ``c * (tau' - tau)``.  Comparisons are done
    in exact rational arithmetic.  Float inputs additionally must not sit
    within `LIGHT_CONE_MARGIN` of the light cone (exactly lightlike pairs are
    allowed): near-cone float pairs almost certainly encode an intent the
    float rounding already betrayed.
    """
    if _exact(c) <= 0:
        raise ValueError("propagation speed must be positive")
    pts = list(coords)
    if labels is None:
        labels = [_coord_label(p) for p in pts]
    if len(labels) != len(pts):
        raise ValueError("labels and coordinates differ in length")
    c2 = _exact(c) ** 2
    n = len(pts)
    leq = [[False] * n for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        ti, tj = pts[i], pts[j]
        if len(ti) != len(tj) or len(ti) < 1:
            raise ValueError("coordinates must share a common dimension >= 1")
        dtau = _exact(tj[0]) - _exact(ti[0])
        dr2 = sum((_exact(a) - _exact(b)) ** 2 for a, b in zip(ti[1:], tj[1:]))
        margin = c2 * dtau * dtau - dr2
        floaty = any(isinstance(x, float) and not float(x).is_integer() for x in ti + tj)
        if i != j and floaty and margin != 0 and abs(margin) <= Fraction(LIGHT_CONE_MARGIN):
            raise ValueError(
                f"pair {labels[i]!r}, {labels[j]!r} is within {LIGHT_CONE_MARGIN} "
                "of the light cone; the causal order would be ambiguous"
            )
        leq[i][j] = dtau >= 0 and dr2 <= c2 * dtau * dtau
    return CausalSite(
        points=tuple(labels),
        leq=tuple(tuple(row) for row in leq),
        meta={"kind": "minkowski", "c": c, "coords": {l: tuple(p) for l, p in zip(labels, pts)}},
    )


def galilean_site(
    taus: Sequence, labels: Sequence[str] | None = None
) -> CausalSite:
    """Linear preorder by absolute time; equal-time points are equivalent."""
    taus = list(taus)
    if labels is None:
        labels = [f"p{i}" for i in range(len(taus))]
    if len(labels) != len(taus):
        raise ValueError("labels and times differ in length")
    exact = [_exact(t) for t in taus]
    leq = tuple(tuple(a <= b for b in exact) for a in exact)
    return CausalSite(
        points=tuple(labels),
        leq=leq,
        meta={"kind": "galilean", "tau": {l: t for l, t in zip(labels, taus)}},
    )


def chain_site(labels: Sequence[str]) -> CausalSite:
    """Totally ordered site in the given label order."""
    n = len(labels)
    leq = tuple(tuple(i <= j for j in range(n)) for i in range(n))
    return CausalSite(points=tuple(labels), leq=leq, meta={"kind": "chain"})


def discrete_site(labels: Sequence[str]) -> CausalSite:
    """Trivial causality: all points mutually equivalent."""
    n = len(labels)
    leq = tuple(tuple(True for _ in range(n)) for _ in range(n))
    return CausalSite(points=tuple(labels), leq=leq, meta={"kind": "discrete"})


def _coord_label(p: tuple) -> str:
    return "(" + ",".join(_num_label(x) for x in p) + ")"


def _num_label(x) -> str:
    f = float(x)
    return str(int(f)) if f.is_integer() else str(x)

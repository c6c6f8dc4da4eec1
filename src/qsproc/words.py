"""Outcome spaces, events, and event words over a causal site.

An event word assigns to finitely many points an event (a subset of that
point's finite outcome space) and the unit event everywhere else.  Words are
the arguments of all correlation kernels.  With finite outcome spaces every
event semiring is the full power set, so countable additivity questions
reduce to finite ones.

Factors are keyed per point.  Equivalent points may carry their own factors
(they are intersected operator-side subject to the model's compatibility
conditions); this is what lets cylinder events over a trivially ordered site
and level-lifted processes with per-position devices share one calculus.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import RunConfig
from .sites import CausalSite

POLICY_ALL_SUBSETS = "all_subsets"
POLICY_ATOMS_PLUS_UNIT = "atoms_plus_unit"
KEY_ROWS = 1 << 16  # code rows per int64 key slice (`code_keys`)


@dataclass(frozen=True)
class OutcomeSpaces:
    """Finite outcome set per point.  Labels are distinct and nonempty."""

    spaces: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        norm = {t: tuple(labels) for t, labels in self.spaces.items()}
        for t, labels in norm.items():
            if not labels:
                raise ValueError(f"outcome space at {t!r} is empty")
            if len(set(labels)) != len(labels):
                raise ValueError(f"outcome labels at {t!r} are not distinct")
        object.__setattr__(self, "spaces", norm)

    def outcomes(self, t: str) -> tuple[str, ...]:
        try:
            return self.spaces[t]
        except KeyError:
            raise KeyError(f"no outcome space declared at point {t!r}") from None

    def full(self, t: str) -> frozenset[str]:
        return frozenset(self.outcomes(t))

    def points(self) -> tuple[str, ...]:
        return tuple(self.spaces)

    def bitmask(self, t: str, b: Iterable[str]) -> int:
        """Subset as a bitmask in outcome order (the subset sort key)."""
        order = {x: i for i, x in enumerate(self.outcomes(t))}
        return sum(1 << order[x] for x in frozenset(b))


@dataclass(frozen=True)
class EventWord:
    """A finitely supported choice of events, unit outside the support.

    The canonical form stores only non-unit factors, sorted by point, so
    words compare and hash by their mathematical content and unit extension
    is the identity on the encoding.  An event over a block is the word
    supported on it; a full factor there is the unit.
    """

    factors: tuple[tuple[str, frozenset[str]], ...]

    @staticmethod
    def from_dict(
        factors: Mapping[str, Iterable[str]], spaces: OutcomeSpaces
    ) -> "EventWord":
        kept = {}
        for t, b in factors.items():
            b = frozenset(b)
            full = spaces.full(t)
            if not b <= full:
                raise KeyError(f"factor {sorted(b)} at {t!r} is not a subset of E")
            if b != full:
                kept[t] = b
        return EventWord(tuple(sorted(kept.items())))

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.factors)

    def factor(self, t: str, spaces: OutcomeSpaces) -> frozenset[str]:
        for u, b in self.factors:
            if u == t:
                return b
        return spaces.full(t)

    def is_unit(self) -> bool:
        return not self.factors


def subsets(outs: Sequence[str]) -> list[frozenset[str]]:
    """Every subset of an outcome tuple, by size, then in combination order
    (the empty set first, the full set last)."""
    return [frozenset(c) for r in range(len(outs) + 1)
            for c in itertools.combinations(outs, r)]


def event_label(event: EventWord) -> str:
    return "{" + ", ".join(f"{sorted(b)}@{t}" for t, b in event.factors) + "}"


def unit_word() -> EventWord:
    return EventWord(())


def pointwise_product(a: EventWord, b: EventWord, spaces: OutcomeSpaces) -> EventWord:
    """Intersection at every point; the support stays within the union of
    supports.  With `b` an event over a block, this is right multiplication
    by it: idempotent, and unchanged off the block."""
    out = dict(a.factors)
    for t, fb in b.factors:
        out[t] = a.factor(t, spaces) & fb
    return EventWord.from_dict(out, spaces)


def word_codes(
    words: Sequence[EventWord], spaces: OutcomeSpaces, points: Sequence[str]
) -> np.ndarray:
    """The words as rows of outcome-membership bits, one bool column per
    outcome of each point of `points` (`code_columns`): point order, then
    outcome order, all True where a word is unit.  Every support point of
    every word must be among `points`."""
    columns = code_columns(spaces, points)
    unit = [True] * sum(len(spaces.outcomes(t)) for t in points)
    member: dict = {}  # (point, factor) -> its columns
    rows = []
    for w in words:
        row = list(unit)
        for t, b in w.factors:
            if (t, b) not in member:
                member[t, b] = factor_code(spaces, t, b)
            row[columns[t]] = member[t, b]
        rows.append(row)
    return np.array(rows, dtype=bool).reshape(len(words), len(unit))


def code_columns(spaces: OutcomeSpaces, points: Sequence[str]) -> dict[str, slice]:
    """Each point's columns in `word_codes`: one per outcome."""
    out, start = {}, 0
    for t in points:
        out[t] = slice(start, start + len(spaces.outcomes(t)))
        start = out[t].stop
    return out


def factor_code(spaces: OutcomeSpaces, t: str, b: Iterable[str]) -> list[bool]:
    """The membership of each outcome at `t` in the factor `b`."""
    b = frozenset(b)
    return [x in b for x in spaces.outcomes(t)]


def code_keys(codes: np.ndarray) -> np.ndarray:
    """One exactly comparable key per word code (the last axis), flattened;
    keys sort in the lexicographic order of the code rows, False first.

    Up to 63 columns, the key is the row read as one int64, the first column
    most significant.  Past that, it is the row's `np.packbits` bytes as one
    void, which sorts the same way.
    """
    codes = np.asarray(codes, dtype=bool)
    rows = codes.reshape(math.prod(codes.shape[:-1]), codes.shape[-1])
    if rows.shape[1] <= 63:
        # matmul copies its bool operand to int64: a slice at a time, so that
        # the copy stays small beside a pair table's codes
        weights = 1 << np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64)
        keys = np.empty(rows.shape[0], dtype=np.int64)
        for at in range(0, rows.shape[0], KEY_ROWS):
            np.matmul(rows[at:at + KEY_ROWS], weights, out=keys[at:at + KEY_ROWS])
        return keys
    packed = np.packbits(rows, axis=1)
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


def pointwise_product_table(
    words: Sequence[EventWord], spaces: OutcomeSpaces
) -> tuple[list[EventWord], np.ndarray]:
    """Distinct pointwise products over all ordered pairs of a word list, in
    the lexicographic order of their codes (`word_codes` over the supported
    points in name order: point by point, outcome 0 first, a member after a
    non-member), and the (n, n) array giving each pair's product as an index
    into them.

    Pairs are intersected as word codes (`word_codes`) in one vectorized
    step and told apart by their keys (`code_keys`); each distinct product
    is built once.
    """
    n = len(words)
    points = sorted({t for w in words for t in w.support})
    codes = word_codes(words, spaces, points)
    pairs = codes[:, None, :] & codes[None, :, :]
    keys = code_keys(pairs)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    merged = [pointwise_product(words[f // n], words[f % n], spaces) for f in first]
    return merged, inverse.reshape(n, n)


def enumerate_words(
    site: CausalSite,
    spaces: OutcomeSpaces,
    policy: str = POLICY_ALL_SUBSETS,
    cap: int = RunConfig().cap,
) -> list[EventWord]:
    """Deterministic word list over the whole site.

    `all_subsets` ranges over every factor assignment (the closure needed by
    additivity and factorization checks); `atoms_plus_unit` restricts factors
    to single outcomes and the unit.  Order is lexicographic in site point
    order, then in subset bitmask value in outcome order.

    Each choice is its canonical factor, None where it is the full space, so
    a word is its combination's factors in point-name order.
    """
    if policy not in (POLICY_ALL_SUBSETS, POLICY_ATOMS_PLUS_UNIT):
        raise ValueError(f"unknown enumeration policy {policy!r}")
    every = policy == POLICY_ALL_SUBSETS
    per_point: list[list[tuple[str, frozenset[str]] | None]] = []
    count = 1
    for t in site.points:
        outs = spaces.outcomes(t)
        # counted against the cap before they are built: q outcomes have 2^q
        # subsets, and a one-outcome point's atom is its unit
        count *= 2 ** len(outs) if every else len(outs) + (len(outs) > 1)
        if count > cap:
            raise ValueError(
                f"word enumeration would produce {count}+ words, above the cap ({cap})"
            )
        choices = (subsets(outs) if every
                   else list({frozenset(outs), *(frozenset({x}) for x in outs)}))
        choices.sort(key=lambda b: spaces.bitmask(t, b))
        full = frozenset(outs)
        per_point.append([None if b == full else (t, b) for b in choices])
    by_name = sorted(range(len(site.points)), key=site.points.__getitem__)
    return [
        EventWord(tuple(filter(None, [combo[i] for i in by_name])))
        for combo in itertools.product(*per_point)
    ]


def _set_partitions(items: Sequence[str]) -> list[tuple[frozenset[str], ...]]:
    """All set partitions of `items` into nonempty parts (the empty tuple for
    an empty input)."""
    items = list(items)
    if not items:
        return [()]
    head, rest = items[0], items[1:]
    out = []
    for part in _set_partitions(rest):
        out.append((frozenset({head}),) + part)
        for i, blockset in enumerate(part):
            out.append(part[:i] + (blockset | {head},) + part[i + 1 :])
    return out


def partitions_of_factor(
    outcomes: Sequence[str], b: Iterable[str]
) -> list[tuple[frozenset[str], ...]]:
    """All decompositions of the factor `b` itself into disjoint nonempty
    parts (used by additivity checks); the empty factor decomposes as the
    empty sum."""
    b = frozenset(b)
    if not b:
        return [()]
    order = {x: i for i, x in enumerate(outcomes)}
    return [
        tuple(sorted(p, key=lambda s: min(order[x] for x in s)))
        for p in _set_partitions(sorted(b, key=order.__getitem__))
    ]


def pull_back(
    word: EventWord,
    point_map: Mapping[str, str],
    outcome_maps: Mapping[str, Mapping[str, str]],
    spaces: OutcomeSpaces,
) -> EventWord:
    """Transform a word under a symmetry: the factor at the image point is
    pulled back through the outcome injection to the source point.

    `point_map` sends source points to image points; `outcome_maps[t]` sends
    outcomes at `t` to outcomes at `point_map[t]`.  The word must be unit
    outside the image of the map.
    """
    image = set(point_map.values())
    stranded = [t for t in word.support if t not in image]
    if stranded:
        raise ValueError(
            f"word has support outside the symmetry image at {stranded}; "
            "it cannot be pulled back"
        )
    out: dict[str, frozenset[str]] = {}
    for t, st in point_map.items():
        b = word.factor(st, spaces)
        if b == spaces.full(st):
            continue
        g = outcome_maps[t]
        out[t] = frozenset(x for x in spaces.outcomes(t) if g[x] in b)
    return EventWord.from_dict(out, spaces)


def pull_back_codes(
    codes: np.ndarray,
    columns: Mapping[str, slice],
    point_map: Mapping[str, str],
    outcome_maps: Mapping[str, Mapping[str, str]],
    spaces: OutcomeSpaces,
) -> np.ndarray:
    """`pull_back` on word codes (`word_codes` over the points of `columns`,
    in that order), one row per word, each word unit outside the image of
    the map: the column of outcome x at a mapped point t is the column of
    g_t(x) at its image, and every other point is unit."""
    codes = np.asarray(codes, dtype=bool)
    out = np.ones(codes.shape, dtype=bool)
    for t, st in point_map.items():
        column = {y: j for j, y in enumerate(spaces.outcomes(st), columns[st].start)}
        out[:, columns[t]] = codes[:, [column[outcome_maps[t][x]] for x in spaces.outcomes(t)]]
    return out

"""Conditional Markov structure: slice compressions, regression, relaxation.

A model is dynamic (conditionally Markov) when compressing any later-slice
event projector to a slice subspace lands inside the operator algebra
generated on that slice by its own events and the controlling algebra.  For
dynamic models the kernel is reproduced by a nested regression through the
slice compressions, narrow-sense dynamics forces outright commutativity of
event projectors across slices, and regular dynamic models relax: the
compressions to the smallest slices converge to the initial-space
compression, wiping out any dependence on what was measured there.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .config import RunConfig
from .linalg import COMPLEX, dagger
from .models import Check, HilbertModel, Report, slice_projector
from .sites import CausalSite
from .words import (
    EventWord,
    code_columns,
    code_keys,
    code_words,
    enumerate_words,
    event_label,
    pointwise_product_codes,
    pointwise_product_table,
    subsets,
)

@dataclass(eq=False)
class GeneratedAlgebra:
    """Linear basis of the unital star-algebra generated by a finite family
    of operators compressed to a slice subspace."""

    basis: np.ndarray  # (dim_algebra, n*n) orthonormal rows, vectorized

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]

    def membership_distance(self, op: np.ndarray) -> float:
        """Euclidean distance from the vectorized operator to the span."""
        v = np.asarray(op, dtype=COMPLEX).reshape(-1)
        proj = dagger(self.basis) @ (self.basis @ v)
        return float(np.linalg.norm(v - proj))

    def basis_operators(self) -> list[np.ndarray]:
        n = int(np.sqrt(self.basis.shape[1]))
        return [row.reshape(n, n) for row in self.basis]


def generate_algebra(generators: Sequence[np.ndarray], unit: np.ndarray,
                     rel_tol: float = RunConfig.rank_tol) -> GeneratedAlgebra:
    """Close a generator list under products and adjoints until the linear
    span stabilizes, each span cut at `rel_tol` (`linalg.svd_cut`); the unit
    (the ambient compression) is always included."""
    unit = np.asarray(unit, dtype=COMPLEX)
    n = unit.shape[0]
    ops = [unit] + [np.asarray(g, dtype=COMPLEX) for g in generators]
    ops += [dagger(g) for g in ops[1:]]
    basis = _orthonormal_rows(np.array([o.reshape(-1) for o in ops]), rel_tol)
    while True:
        current = [row.reshape(n, n) for row in basis]
        products = [a @ b for a, b in itertools.product(current, repeat=2)]
        stacked = np.vstack([basis] + [p.reshape(1, -1) for p in products])
        new_basis = _orthonormal_rows(stacked, rel_tol)
        if new_basis.shape[0] == basis.shape[0]:
            break
        basis = new_basis
    return GeneratedAlgebra(basis)


def _orthonormal_rows(rows: np.ndarray, rel_tol: float) -> np.ndarray:
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1] if rows.ndim == 2 else 0)
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    return np.ascontiguousarray(vh[linalg.svd_cut(s, rel_tol)])


# -- model-level structure ----------------------------------------------------


def slice_algebra(
    model: HilbertModel, site: CausalSite, l, e_l: np.ndarray, config: RunConfig = RunConfig()
) -> GeneratedAlgebra:
    """Algebra generated on the slice subspace by the compressed event
    projectors of the slice and the controlling-algebra generators, closed
    at `rank_tol`."""
    gens = []
    for t in sorted(l, key=site.index):
        for x in model.spaces.outcomes(t):
            gens.append(e_l @ model.atoms[t][x] @ e_l)
    for k, ops in model.algebra.items():
        if site.subset_le(k, l) and site.subset_le(l, k):
            gens.extend(e_l @ g @ e_l for g in ops)
    return generate_algebra(gens, e_l, config.rank_tol)


def _ordered_slices(site: CausalSite):
    """Maximal antichains sorted by the subset preorder when it is total;
    None when two slices are incomparable.  The preorder compares down-sets
    by inclusion, so on a chain it is the order of their sizes."""
    slices = list(site.maximal_antichains)
    for a, b in itertools.combinations(slices, 2):
        if not (site.subset_le(a, b) or site.subset_le(b, a)):
            return None
    slices.sort(key=lambda l: len(site.down_set(l)))
    return slices


def check_dynamicity(
    model: HilbertModel,
    site: CausalSite,
    config: RunConfig = RunConfig(),
) -> Report:
    """Compressions of later-slice events must stay in the slice algebra.

    Also records the weak-commutativity consequence: the compressed events
    commute with the slice's own event projectors.
    """
    tol = config.membership_tol
    dists, comms, at, comm_at = [], [], [], []
    for l in site.maximal_antichains:
        e_l = slice_projector(model, site, l, config)
        alg = slice_algebra(model, site, l, e_l, config)
        own = [(x, t, e_l @ model.atoms[t][x] @ e_l)
               for t in sorted(l, key=site.index) for x in model.spaces.outcomes(t)]
        for lp in site.maximal_antichains:
            if not site.subset_le(l, lp):
                continue
            for ev in _slice_events(model, site, lp):
                compressed = e_l @ model.block_projector(site, ev) @ e_l
                dists.append(alg.membership_distance(compressed))
                at.append((ev, l))
                comms.extend(compressed @ o - o @ compressed for _, _, o in own)
                comm_at.extend((ev, x, t) for x, t, _ in own)
    return Report((
        Check("dynamicity", *linalg.worst(dists, lambda i: (
            f"event {event_label(at[i][0])} compressed to slice {sorted(at[i][1])}"
        )), tol),
        Check("weak_commutativity", *linalg.worst(linalg.opnorms(comms), lambda i: (
            "[{} compressed, atom {!r}@{!r}]"
            .format(event_label(comm_at[i][0]), *comm_at[i][1:])
        )), tol),
    ))


def _slice_events(model: HilbertModel, site: CausalSite, l):
    """Block events over a slice: all factor assignments, unit factors kept
    implicit (they are covered by smaller blocks of the same slice)."""
    pts = sorted(l, key=site.index)
    per_point = []
    for t in pts:
        per_point.append([(t, b) for b in subsets(model.spaces.outcomes(t))])
    for combo in itertools.product(*per_point):
        event = EventWord.from_dict(dict(combo), model.spaces)
        if not event.is_unit():
            yield event


def check_regression(
    model: HilbertModel,
    site: CausalSite,
    words: Sequence[EventWord] | None = None,
    config: RunConfig = RunConfig(),
) -> Report:
    """Recompute the kernel through the nested slice compressions and compare
    with the direct value; also verify the composition identities of the
    compression maps on the slice algebras.

    Needs the slices to form a chain; otherwise the verdict is recorded as a
    composition failure with an explanatory witness.
    """
    tol = config.membership_tol
    slices = _ordered_slices(site)
    if slices is None:
        return Report((Check(
            "regression", float("inf"),
            "slices are not totally ordered; the nested form is undefined", tol,
        ),))
    if words is None:
        words = enumerate_words(site, model.spaces, config.policy, config.cap)
    e_proj = {l: slice_projector(model, site, l, config) for l in slices}
    emb = model.embedding

    feyn = model.products(site, words)
    direct = linalg.pair_blocks(feyn)
    merged, points, index = pointwise_product_codes(words, model.spaces)
    nested = _nested_stack(model, site, slices, e_proj, merged, points)
    worst_r, at = linalg.worst_gap(nested, direct, index)
    wit_r = "" if at is None else "regression of a word pair"

    # composition identities of the compression maps
    basis = {
        l: slice_algebra(model, site, l, e_proj[l], config).basis_operators() for l in slices
    }
    # each theta read on K and on every slice up to its own: the two kinds
    # differ in shape, so their norms are taken apart and merged in order
    on_k, on_slice, at = [], [], []
    for i, l in enumerate(slices):
        for lp in slices[i:]:
            for a in basis[lp]:
                theta = e_proj[l] @ a @ e_proj[l]
                on_k.append(dagger(emb) @ theta @ emb - dagger(emb) @ a @ emb)
                at.append((True, l, lp))
                for l0 in slices[: i + 1]:
                    e0 = e_proj[l0]
                    on_slice.append(e0 @ theta @ e0 - e0 @ a @ e0)
                    at.append((False, l0, l))
    first = np.array([kind for kind, _, _ in at], dtype=bool)
    norms = np.empty(len(at))
    norms[first], norms[~first] = linalg.opnorms(on_k), linalg.opnorms(on_slice)
    worst_c, wit_c = linalg.worst(norms, lambda i: (
        "initial compression through slice {} of an operator on slice {}" if at[i][0]
        else "compression to slice {} through {}"
    ).format(*map(sorted, at[i][1:])))
    return Report((Check("regression", worst_r, wit_r, tol),
                   Check("regression_composition", worst_c, wit_c, tol)))


def _nested_stack(model, site, slices, e_proj, codes, points) -> np.ndarray:
    """The kernel value of each word through the nested slice compressions,
    latest slice outermost, (n, kdim, kdim), as stacked matmuls: per slice,
    one operator per distinct slice event (its reduced-block projector, unit
    padded, times the slice unit), indexed per word.  The words are given as
    codes over `points` (`words.word_codes`), unit at every other point."""
    spaces = model.spaces
    columns = code_columns(spaces, points)
    nested = np.broadcast_to(model.identity(), (len(codes), model.dim, model.dim))
    for depth, l in enumerate(reversed(slices)):
        pts = [t for t in sorted(l, key=site.index) if t in columns]
        at = [k for t in pts for k in range(columns[t].start, columns[t].stop)]
        _, first, event = np.unique(code_keys(codes[:, at]), return_index=True,
                                    return_inverse=True)
        unit = model.unit_p(frozenset(l))
        ops = np.array([
            model.block_projector(site, e) @ unit
            for e in code_words(codes[first][:, at], spaces, pts)
        ], dtype=COMPLEX).reshape(first.size, model.dim, model.dim)[event.ravel()]
        nested = ops if depth == 0 else ops @ (e_proj[l] @ nested @ e_proj[l])
    return dagger(model.embedding) @ nested @ model.embedding


def pointwise_factorization_residual(
    model: HilbertModel, site: CausalSite, words: Sequence[EventWord]
) -> float:
    """Largest operator-norm gap between the kernel of a word pair and the
    kernel of their pointwise product against the unit word."""
    feyn = model.products(site, words)
    direct = linalg.pair_blocks(feyn)
    merged, index = pointwise_product_table(words, model.spaces)
    merged_kernels = np.einsum(
        "pak,al->pkl", np.conjugate(model.products(site, merged)), model.embedding
    )
    return linalg.worst_gap(merged_kernels, direct, index)[0]


def atom_commutators(model: HilbertModel, point_pairs) -> tuple[float, str]:
    """Largest commutator norm between an atom of the first point and one of
    the second over the point pairs, with its witness ``[x@t, y@u]``."""
    comms, at = [], []
    for t, u in point_pairs:
        for x, y in itertools.product(model.spaces.outcomes(t), model.spaces.outcomes(u)):
            a, b = model.atoms[t][x], model.atoms[u][y]
            comms.append(a @ b - b @ a)
            at.append((x, t, y, u))
    return linalg.worst(
        linalg.opnorms(comms), lambda i: "[{!r}@{!r}, {!r}@{!r}]".format(*at[i])
    )


def check_narrow_commutativity(
    model: HilbertModel,
    site: CausalSite,
    words: Sequence[EventWord] | None = None,
    config: RunConfig = RunConfig(),
) -> Report:
    """Fully normalized dynamic models force commuting event projectors
    across comparable slices; when that holds the kernel factorizes through
    the pointwise product of the words."""
    tol = config.commutativity_tol
    if not model.is_narrow(site, config):
        raise ValueError("commutativity is a narrow-sense diagnostic; "
                         "the model has nontrivial unit projectors")
    worst, wit = atom_commutators(model, [
        (t, tp)
        for l, lp in itertools.product(site.maximal_antichains, repeat=2)
        if l != lp and site.subset_le(l, lp)
        for t, tp in itertools.product(sorted(l), sorted(lp))
    ])
    checks = [Check("narrow_commutativity", worst, wit, tol)]

    if worst <= tol:
        if words is None:
            words = enumerate_words(site, model.spaces, config.policy, config.cap)
        checks.append(Check("complete_factorization", *linalg.worst(
            [pointwise_factorization_residual(model, site, words)],
            lambda _: "factorization through the pointwise product",
        ), tol))
    return Report(tuple(checks))


def check_relaxation(
    model: HilbertModel,
    site: CausalSite,
    config: RunConfig = RunConfig(),
) -> Report:
    """Relaxation of the compression maps at the smallest slices.

    The compression of every slice-algebra basis operator to the smallest
    slice must agree with its initial-space compression, and the limit states
    seen through the smallest slice must not move when the measurements on
    that slice are replaced (a basis rotation seeded by `config.seed`), only
    when the initial vector is (one draw per slice: a sample, not a supremum).
    """
    tol = config.membership_tol
    words = enumerate_words(site, model.spaces, config.policy, config.cap)
    minimal = site.minimal_antichains()
    p0 = model.initial_projector()
    stack = model.products(site, words)  # one evaluation; each slice reads its words
    below = {l: [i for i, w in enumerate(words) if set(w.support) <= down]
             for l in site.maximal_antichains for down in [site.down_set(l)]}
    columns = {l: linalg.side_by_side(stack[i]) for l, i in below.items()}
    span = {
        l: linalg.projector_onto_columns(c, config.rank_tol) for l, c in columns.items()
    }
    algebras = {l: slice_algebra(model, site, l, span[l], config) for l in span}
    gaps, moves, at = [], [], []
    rng = np.random.default_rng(config.seed)
    for k, l0 in enumerate(minimal):
        e_l0 = span[l0]
        # limit states must survive replacing the earliest measurements
        perturbed = _rotate_slice_atoms(model, l0, rng)
        e_l0_pert = linalg.projector_onto_columns(linalg.side_by_side(
            perturbed.products(site, [words[i] for i in below[l0]])
        ), config.rank_tol)
        # unit vectors reachable by measurements on the slice, above the floor
        cols = columns[l0]
        norms = np.linalg.norm(cols, axis=0)
        kept = norms > config.rank_tol * norms.max(initial=0.0)
        vecs = cols[:, kept] / norms[kept]
        for l in site.maximal_antichains:
            if not site.subset_le(l0, l):
                continue
            for a in algebras[l].basis_operators():
                gaps.append(e_l0 @ a @ e_l0 - p0 @ a @ p0)
                base = _limit_states(vecs, e_l0, a)
                moved = _limit_states(vecs, e_l0_pert, a)
                moves.append(float(np.max(np.abs(base - moved))) if base.size else 0.0)
                at.append((l, l0, k))
    return Report((
        Check("relaxation", *linalg.worst(linalg.opnorms(gaps), lambda i: (
            "operator on slice {} compressed to {}".format(*map(sorted, at[i][:2]))
        )), tol),
        Check("limit_state_independence", *linalg.worst(moves, lambda i: (
            "limit state on slice {} after replacing the measurements on {} by "
            "random rotation {} of seed {}: one sample, not a supremum"
            .format(*map(sorted, at[i][:2]), at[i][2], config.seed)
        )), tol),
    ))


def _limit_states(vecs, e_l0, a) -> np.ndarray:
    """States of the operator `a` seen through the slice projector, taken at
    the given unit vectors."""
    return np.einsum("ic,ic->c", np.conjugate(vecs), e_l0 @ a @ e_l0 @ vecs)


def _rotate_slice_atoms(model: HilbertModel, l0, rng) -> HilbertModel:
    """Replace the measurement bases on a slice by conjugating the atoms with
    one random unitary (a different but equally valid device)."""
    u = linalg.random_unitary(rng, model.dim)
    atoms = {t: dict(fam) for t, fam in model.atoms.items()}
    for t in l0:
        atoms[t] = {x: u @ m @ dagger(u) for x, m in model.atoms[t].items()}
    return dataclasses.replace(model, atoms=atoms)

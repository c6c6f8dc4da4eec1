"""Minimal realization of a kernel oracle by a quotient-space construction.

The formal sums of (initial vector, word) pairs carry a nonnegative Hermitian
form given by the kernel table.  Factoring out its null space (the oracle's
Gram factor, cut at a relative eigenvalue: from the SVD of the product stack
when a model built the table, else a pivoted Cholesky factor) yields
coordinates in which every word acts by right multiplication on the eligible
span and by zero on its orthogonal complement.  The same recipe
reconstructs the controlling-algebra action and the symmetry isometries, and
the subspace lattice of slice spans recovers the unit-projector families.

The construction is deterministic: a fixed pair ordering, a fixed pivot rule,
a fixed eigenvector phase convention, and single-threaded numpy give
bit-identical coordinates for identical inputs.  `linalg.gram_gap`, which
certifies the factor and a verification's pass from product stacks, keeps
its bits at any BLAS thread count for two stacks of at most 68 rows
together; a bound on the coordinates moves with them, which at 1,024
words and more they do with the thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .config import RunConfig
from .linalg import COMPLEX, dagger
from .kernels import (
    KernelOracle,
    check_covariance,
    check_normalization,
    check_positivity,
    check_slice_axioms,
    _word_label,
)
from .models import FAIL, INCONCLUSIVE, Check, HilbertModel, SymmetryRep
from .words import EventWord, event_label


class ReconstructionRefused(ValueError):
    """The oracle failed a precondition of the construction."""


@dataclass(eq=False)
class GnsSpace:
    """Quotient coordinates of the formal (vector, word) sums.

    `coords` has one column per generating pair, word-major (pair p of word i
    and basis vector a sits at column ``i * kdim + a``); its rows are an
    orthonormal coordinate system of the quotient, so Gram entries are inner
    products of columns.
    """

    oracle: KernelOracle
    coords: np.ndarray  # (rank, n_pairs)
    kept_eigenvalues: np.ndarray
    dropped_eigenvalues: np.ndarray  # below the rank cut, then -residual
    residual: float  # certified bound on the Gram factor's 2-norm residual
    config: RunConfig

    @property
    def rank(self) -> int:
        return self.coords.shape[0]

    @property
    def kdim(self) -> int:
        return self.oracle.kdim

    def pair_coords(self, word_indices: Sequence[int]) -> np.ndarray:
        """The columns of the pairs of the words `word_indices`."""
        idx = np.asarray(word_indices, dtype=int)
        return self.coords[:, (idx[:, None] * self.kdim + np.arange(self.kdim)).ravel()]

    def map_on_pairs(self, sources, targets, leg=None) -> np.ndarray:
        """Operator sending the pairs of the words `sources` to the pairs of
        the words `targets`, zero off the span of the sources
        (`linalg.map_on_span`).  With `leg`, pair (i, a) goes to
        ``sum_b leg[b, a] * (targets[i], b)``: the operator acts on the
        targets' initial-vector leg first."""
        y = self.pair_coords(targets)
        if leg is not None:
            y = (y.reshape(self.rank, -1, self.kdim, 1) * leg).sum(axis=2)
        y = y.reshape(self.rank, -1)
        return linalg.map_on_span(self.pair_coords(sources), y, self.config.rank_tol)

    def initial_embedding(self) -> np.ndarray:
        """Coordinates of the embedded initial space (the unit-word pairs)."""
        return self.pair_coords([self.oracle.unit_index()])

    def gram_defect(self) -> float:
        """Bound on the 2-norm of G - C* C for the Gram matrix G and the
        coordinates C, over the largest kept eigenvalue: the factor's
        residual bound plus the largest factored eigenvalue the rank cut
        dropped."""
        cut = self.dropped_eigenvalues[:-1]
        bound = self.residual + max(float(cut.max(initial=0.0)), 0.0)
        scale = float(self.kept_eigenvalues[0]) if self.rank else 0.0
        return bound / max(scale, 1e-300)


def build_space(oracle: KernelOracle, config: RunConfig = RunConfig()) -> GnsSpace:
    """Quotient the formal sums by the kernel's null space.

    Refuses when positivity (read off the oracle's one Gram factor,
    `KernelOracle.cholesky`) or normalization fail: without them the form
    is not an inner product on the quotient.  Refuses too when sigma
    additivity or factorizability fail (not when the word list leaves them
    inconclusive): no measurement model has such a table, and the emitted
    model would not reproduce it.  The gates and the coordinates read the oracle's memos,
    which `check_axioms` on the same oracle shares (`KernelOracle`).
    """
    _refuse_failed(check_positivity(oracle, config))
    _refuse_failed(check_normalization(oracle, config))
    _refuse_failed(*check_slice_axioms(oracle, config))
    factor = oracle.gram_factor(config.rank_tol)
    coords = np.sqrt(factor.values)[:, None] * dagger(factor.vectors)
    return GnsSpace(
        oracle=oracle,
        coords=coords,
        kept_eigenvalues=factor.values,
        dropped_eigenvalues=factor.dropped,
        residual=factor.residual,
        config=config,
    )


def _refuse_failed(*checks: Check) -> None:
    """Refuse the construction on the first demonstrated axiom violation; an
    inconclusive verdict (missing closure data) does not refuse."""
    for c in checks:
        if c.status == FAIL:
            name = c.name.replace("_", " ")
            raise ReconstructionRefused(
                f"{name} fails ({c.witness}, residual {c.residual:.3e})"
            )


# -- represented structure ----------------------------------------------------


def eligible_for_block(oracle: KernelOracle, block) -> list[int]:
    """Indices of words supported within the down-set of some maximal
    antichain containing the block."""
    site = oracle.site
    return sorted(set().union(*(
        oracle.words_within(site.down_set(l))
        for l in site.antichains_containing(block)
    )))


def represent_event(
    gns: GnsSpace,
    block,
    event: EventWord,
    strict_closure: bool = True,
) -> np.ndarray:
    """Projector of an event over a block: right multiplication on the
    eligible span, zero on its orthogonal complement.

    With `strict_closure` every eligible word must stay in the word list
    under the multiplication; without it, words whose product leaves the
    list simply drop out of the defining span (needed for deliberately
    restricted word systems such as one-device-per-level lifts, where the
    remaining words still span everything that matters).
    """
    idx = np.array(eligible_for_block(gns.oracle, block), dtype=int)
    return gns.map_on_pairs(*_event_pairs(gns.oracle, idx, event, strict_closure))


def _event_pairs(oracle: KernelOracle, idx: np.ndarray, event: EventWord,
                 strict_closure: bool) -> tuple[np.ndarray, np.ndarray]:
    """The eligible words `idx` whose right product by `event` is listed,
    and those products (`represent_event`)."""
    targets = oracle.right_products(event)[idx]
    listed = targets >= 0
    if strict_closure and not listed.all():
        raise ReconstructionRefused(
            f"word list is not closed under multiplication by "
            f"{event_label(event)}; close it with the all-subsets policy"
        )
    return idx[listed], targets[listed]


def represent_events(
    gns: GnsSpace, strict_closure: bool = True
) -> dict[str, dict[str, np.ndarray]]:
    """Atomic projectors of every point, as operators on the quotient: each
    `represent_event` of the point's atoms, to the bit, with one
    pseudo-inverse of the source pairs per point and set of listed words."""
    oracle = gns.oracle
    atoms: dict[str, dict[str, np.ndarray]] = {}
    for t in oracle.site.points:
        idx = np.array(eligible_for_block(oracle, frozenset({t})), dtype=int)
        inverses: dict[bytes, np.ndarray] = {}
        fam, outs = {}, oracle.spaces.outcomes(t)
        for x in outs:  # a one-outcome point's atom is its unit word
            atom = EventWord(((t, frozenset({x})),) if len(outs) > 1 else ())
            sources, targets = _event_pairs(oracle, idx, atom, strict_closure)
            key = sources.tobytes()
            if key not in inverses:
                inverses[key] = linalg.pinv(gns.pair_coords(sources), gns.config.rank_tol)
            fam[x] = gns.pair_coords(targets) @ inverses[key]  # `linalg.map_on_span`
        atoms[t] = fam
    return atoms


def represent_algebra(gns: GnsSpace) -> dict[frozenset, tuple]:
    """Action of the oracle's controlling algebra generators on the quotient.

    Each generator acts on the initial-vector leg of the eligible pairs; the
    kernel values over eligible word pairs must commute with it up to the
    config's `membership_tol`, otherwise the action would not be well
    defined on the quotient and the construction refuses.
    """
    oracle = gns.oracle
    out: dict[frozenset, tuple] = {}
    for block, gens in oracle.algebra.items():
        idx = sorted(oracle.words_within(oracle.site.down_set(block)))
        values = oracle.table[np.ix_(idx, idx)]
        represented = []
        for gi, a in enumerate(gens):
            a = np.asarray(a, dtype=COMPLEX)
            worst, _ = linalg.worst_block(values @ a - a @ values)
            if worst > gns.config.membership_tol:
                raise ReconstructionRefused(
                    f"generator {gi} of block {sorted(block)} does not commute "
                    f"with the kernel values (residual {worst:.3e})"
                )
            # the adjoint of the adjoint generator's action on the vector leg
            represented.append(dagger(gns.map_on_pairs(idx, idx, dagger(a))))
        out[frozenset(block)] = tuple(represented)
    return out


def represent_symmetry(gns: GnsSpace) -> dict[str, np.ndarray]:
    """Isometries implementing the symmetry on the quotient.

    The transported-pair map is built on the span of words supported inside
    the symmetry image; its adjoint is the required isometry.  Refuses when
    the oracle is not covariant.  Elements acting on no point at all (the
    absorbing element of a truncated shift semigroup) constrain nothing and
    are skipped.
    """
    oracle = gns.oracle
    covariance = check_covariance(oracle, gns.config)
    _refuse_failed(covariance)
    if covariance.status == INCONCLUSIVE:  # a transported word is not listed
        raise ReconstructionRefused(covariance.witness)
    out: dict[str, np.ndarray] = {}
    for s, sym in oracle.symmetry.items():
        if not oracle.site.symmetry.maps[s]:
            continue
        eligible, images = oracle.transported(s)
        u = np.asarray(sym.op, dtype=COMPLEX)
        out[s] = dagger(gns.map_on_pairs(eligible, images, dagger(u)))
    return out


# -- the assembled process ----------------------------------------------------


@dataclass(eq=False)
class ReconstructedProcess:
    """The quotient, the model built on it, and the span lattice of its
    coordinates (`compute_subspace_lattice`)."""

    gns: GnsSpace
    model: HilbertModel
    lattice: SpanLattice

    @property
    def rank(self) -> int:
        return self.gns.rank

    def provenance(self) -> dict:
        """Size, spectrum and residual of the Gram factor, and whether it was
        read off the product stack or the Gram matrix (README)."""
        return {
            "factor": ("gram_cholesky" if self.gns.oracle.product_stack is None
                       else "product_stack"),
            "rank": self.rank,
            "kdim": self.gns.kdim,
            "pairs": self.gns.coords.shape[1],
            "kept_eigenvalues": [float(v) for v in self.gns.kept_eigenvalues],
            "dropped_eigenvalues": [float(v) for v in self.gns.dropped_eigenvalues],
            "rank_tolerance": self.gns.config.rank_tol,
            "gram_defect": self.gns.gram_defect(),
        }


class SpanLattice(NamedTuple):
    slices: dict[frozenset, np.ndarray]  # E_l per maximal antichain
    joins: dict[frozenset, np.ndarray]  # per block, over containing slices
    spans: dict[frozenset, np.ndarray]  # pairs of words below the block


def compute_subspace_lattice(gns: GnsSpace) -> SpanLattice:
    """Slice spans of the quotient coordinates and the unit families.

    E_l projects onto the span of the pairs of words below the maximal
    antichain l.  Each nonempty nonanticipatory block gets the span of the
    pairs of words below itself (the emitted model's essential unit) and
    the join of the E_l containing it (its event unit); the empty block's
    join is the whole space.
    """
    oracle, tol = gns.oracle, gns.config.rank_tol
    site = oracle.site

    def span(block) -> np.ndarray:
        idx = oracle.words_within(site.down_set(block))
        return linalg.projector_onto_columns(gns.pair_coords(idx), tol)

    slices = {l: span(l) for l in site.maximal_antichains}
    joins = {frozenset(): np.eye(gns.rank, dtype=COMPLEX)}
    spans = {}
    for k in site.all_nonanticipatory():
        if not k:
            continue
        containing = [slices[l] for l in site.antichains_containing(k)]
        joins[k] = linalg.join_projectors(containing, tol)
        spans[k] = span(k)
    return SpanLattice(slices, joins, spans)


def reconstruct(
    oracle: KernelOracle,
    config: RunConfig = RunConfig(),
    strict_closure: bool = True,
) -> ReconstructedProcess:
    """Run the whole construction and package the result as a model.

    The returned model's unit-projector family is the canonical one (joins of
    slice spans for the event units, slice spans of supported words for the
    essential units), so the model re-enters every forward operation
    unchanged.
    """
    gns = build_space(oracle, config)
    atoms = represent_events(gns, strict_closure)
    lattice = compute_subspace_lattice(gns)
    algebra = represent_algebra(gns) if oracle.algebra else {}
    symmetry = {s: SymmetryRep(oracle.symmetry[s].outcome_maps, v)
                for s, v in represent_symmetry(gns).items()} if oracle.symmetry else {}
    model = HilbertModel(
        dim=gns.rank,
        embedding=gns.initial_embedding(),
        atoms=atoms,
        spaces=oracle.spaces,
        units_p=lattice.joins,
        units_i=lattice.spans,
        algebra=algebra,
        symmetry=symmetry,
    )
    return ReconstructedProcess(gns=gns, model=model, lattice=lattice)


def _kernel_gap(model: HilbertModel, oracle: KernelOracle, tol: float):
    """Whether `model` reproduces the table of `oracle`, the one comparison
    that verification and wide equivalence make: the model's products on the
    oracle's `plan`, compared by `_stack_gap`.  Returns its norm, its block and
    the products."""
    products = model.evaluate(oracle.plan)
    worst, at = _stack_gap(oracle, linalg.side_by_side(products), tol,
                          lambda: linalg.pair_blocks(products))
    return worst, at, products


def _stack_gap(oracle: KernelOracle, columns: np.ndarray, tol: float, blocks):
    """How far the table of `oracle` is from the pair blocks of the product
    columns `columns` (`linalg.pair_blocks`), with the first block attaining
    it (None on a certified pass, or when the tables agree exactly).

    With a `product_stack` on the oracle, its `linalg.gram_gap` against the
    columns, plus both tables' `linalg.gemm_rounding`, bounds every k x k
    block of the difference of the tables: a bound within `tol` is a pass,
    and 0.0 when the stacks are bit-identical.  Otherwise the largest
    operator norm of a block decides (`linalg.worst_gap` of the table and
    `blocks()`, the other table)."""
    stack = oracle.product_stack
    if stack is not None:
        gap = linalg.gram_gap(stack, columns)
        if gap:  # unequal stacks: both tables round
            k = oracle.kdim
            gap += linalg.gemm_rounding(stack, k) + linalg.gemm_rounding(columns, k)
        if gap <= tol:
            return gap, None
    return linalg.worst_gap(oracle.table, blocks())


# the witness of a pass that `_stack_gap` certifies without a block
_BOUND_WITNESS = "every pair, by the certified 2-norm of the Gram gap"


def verify_decomposition(recon: ReconstructedProcess, oracle: KernelOracle,
                         config: RunConfig = RunConfig()) -> Check:
    """Recompute the kernel table from the reconstructed model and compare it
    with the oracle's (`_kernel_gap`), as the check "decomposition", whose
    witness names the first block attaining the worst, if one was searched."""
    tol = config.decomposition_tol
    worst, at, _ = _kernel_gap(recon.model, oracle, tol)
    witness = _BOUND_WITNESS if worst else "exact match"
    if at is not None:
        witness = "pair ({}, {})".format(*(_word_label(oracle.words[i]) for i in at))
    return Check("decomposition", worst, witness, tol)

"""Bridges to field correlations and to classical probability.

The level lift turns a family of per-position measurement devices into a
process on a finite stack of levels, each level causally equivalent inside
itself and below the next: arbitrarily ordered correlations of the devices
become causal correlations of the lifted process, and level-shift invariance
(ultrastationarity) is what replaces stationarity.  In the other direction, a
fully commuting model over a trivially ordered site is an ordinary
probability measure on the product outcome space, and the marginalization
defect of a noncommuting model is the interference that obstructs the
reduction.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import linalg
from .config import RunConfig
from .linalg import COMPLEX
from .markov import atom_commutators, pointwise_factorization_residual
from .models import INCONCLUSIVE, Check, HilbertModel, Report, SymmetryRep
from .kernels import KernelOracle, _word_label, check_covariance
from .reconstruct import reconstruct, verify_decomposition
from .sites import CausalSite, SiteSymmetry
from .words import (
    POLICY_ALL_SUBSETS,
    EventWord,
    OutcomeSpaces,
    enumerate_words,
    partitions_of_factor,
    subsets,
)


class ReductionRefused(ValueError):
    """The model does not commute, so no additive reduction exists."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def level_point(level: int, x: str) -> str:
    return f"{level}:{x}"


def lexicographic_site(positions: Sequence[str], depth: int) -> CausalSite:
    """Levels of position copies, preordered by level.

    Points of one level are causally equivalent.  The site's symmetry is
    the truncated level-shift semigroup: shift k moves level l to l + k and
    is undefined on levels that would leave the stack, and products past the
    top collapse onto the empty map.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    positions = list(positions)
    pts = [level_point(l, x) for l in range(depth) for x in positions]
    levels = [l for l in range(depth) for _ in positions]
    leq = tuple(tuple(la <= lb for lb in levels) for la in levels)
    elements = [f"shift{k}" for k in range(depth + 1)]
    maps = {}
    for k in range(depth + 1):
        maps[f"shift{k}"] = {
            level_point(l, x): level_point(l + k, x)
            for l in range(depth - k)
            for x in positions
        }
    compose = {
        (f"shift{a}", f"shift{b}"): f"shift{min(a + b, depth)}"
        for a in range(depth + 1)
        for b in range(depth + 1)
    }
    return CausalSite(
        points=tuple(pts),
        leq=leq,
        meta={"kind": "level_lift", "depth": depth, "positions": tuple(positions)},
        symmetry=SiteSymmetry(tuple(elements), maps, compose),
    )


def lift_process(
    field_atoms: Mapping[str, Mapping[str, np.ndarray]],
    initial: np.ndarray,
    depth: int,
    spaces: Mapping[str, Sequence[str]],
) -> tuple[HilbertModel, CausalSite]:
    """Copy one family of devices onto every level of the lifted site.

    The lifted model is constant along levels, fully normalized whenever the
    devices are, and carries the shift symmetry acting trivially on the state
    space and on outcomes.
    """
    positions = list(field_atoms)
    site = lexicographic_site(positions, depth)
    sym = site.symmetry
    initial = np.asarray(initial, dtype=COMPLEX)
    if initial.ndim == 1:
        initial = initial[:, None]
    dim = initial.shape[0]
    atoms = {}
    lifted_spaces = {}
    for l in range(depth):
        for x in positions:
            t = level_point(l, x)
            atoms[t] = {o: np.asarray(m, dtype=COMPLEX) for o, m in field_atoms[x].items()}
            lifted_spaces[t] = tuple(spaces[x])
    model = HilbertModel(
        dim=dim,
        embedding=initial,
        atoms=atoms,
        spaces=OutcomeSpaces(lifted_spaces),
        symmetry={s: SymmetryRep({t: {o: o for o in lifted_spaces[t]} for t in sym.maps[s]},
                                 np.eye(dim, dtype=COMPLEX))
                  for s in sym.elements},
    )
    return model, site


def enumerate_level_words(
    model: HilbertModel, site: CausalSite, config: RunConfig = RunConfig()
) -> list[EventWord]:
    """Words with at most one supported position per level, the words whose
    kernel values carry the arbitrarily ordered device correlations."""
    depth = site.meta["depth"]
    positions = site.meta["positions"]
    per_level = []
    count = 1
    for l in range(depth):
        choices: list[tuple[str, frozenset[str]] | None] = [None]
        for x in positions:
            t = level_point(l, x)
            outs = model.spaces.outcomes(t)
            choices.extend((t, b) for b in subsets(outs) if b != frozenset(outs))
        per_level.append(choices)
        count *= len(choices)
        if count > config.cap:
            raise ValueError(f"level word enumeration exceeds the cap ({config.cap})")
    words = []
    for combo in itertools.product(*per_level):
        factors = {t: b for entry in combo if entry is not None for t, b in [entry]}
        words.append(EventWord.from_dict(factors, model.spaces))
    return words


def check_ultrastationarity(
    model: HilbertModel,
    site: CausalSite,
    words: Sequence[EventWord],
    config: RunConfig = RunConfig(),
) -> Report:
    """Exhaustive level-shift invariance of the kernel over the word list,
    whatever symmetry the model declares (`ultrastationarity`)."""
    oracle = dataclasses.replace(model, symmetry={}).kernel_table(site, list(words))
    return Report((_ultrastationarity(oracle, config),))


def _ultrastationarity(oracle: KernelOracle, config: RunConfig) -> Check:
    """Covariance of a lifted table (`check_covariance`) under the level
    shifts its site carries (`lexicographic_site`), each the identity on K
    and on outcomes.

    A word list that some shift moves a word out of, in either direction, is
    refused with a `ValueError` naming that word."""
    sym = oracle.site.symmetry
    shifted = oracle.with_symmetry({
        s: SymmetryRep({t: {o: o for o in oracle.spaces.outcomes(t)} for t in sym.maps[s]},
                       np.eye(oracle.kdim, dtype=COMPLEX))
        for s in sym.elements[1:]  # shift0 is the identity
    })
    check = check_covariance(shifted, config)
    if check.status == INCONCLUSIVE:
        raise ValueError(check.witness)
    for s in shifted.symmetry:
        # an injective shift: every listed word of its domain is a pull-back
        unmatched = set(shifted.words_within(sym.maps[s])).difference(
            shifted.transported(s)[1].tolist()
        )
        if unmatched:
            raise ValueError(
                f"word {_word_label(oracle.words[min(unmatched)])} shifted by {s!r} "
                "is outside the word list"
            )
    return Check("ultrastationarity", check.residual, check.witness,
                 config.ultrastationarity_tol)


class LiftReport(Report):
    """The lift's checks (`verify_lift`), each also read by its role."""

    ultrastationarity = property(lambda self: self["ultrastationarity"])
    constant_units = property(lambda self: self["constant_slice_units"])
    level_independent_events = property(lambda self: self["level_independent_events"])
    narrow_units = property(lambda self: self["narrow_units_on_minimal_space"])
    decomposition = property(lambda self: self["decomposition"])


def verify_lift(
    field_atoms: Mapping[str, Mapping[str, np.ndarray]],
    initial: np.ndarray,
    depth: int,
    spaces: Mapping[str, Sequence[str]],
    words: Sequence[EventWord] | None = None,
    config: RunConfig = RunConfig(),
) -> LiftReport:
    """End-to-end check of the level lift.

    Builds the lifted model and its table, checks ultrastationarity on the
    table exhaustively, runs the quotient reconstruction on it, and verifies
    that the reconstructed slice units are constant across levels (hence the units are
    the identity on the minimal space), that the reconstructed event
    projectors do not depend on the level, and that the reconstructed model
    reproduces the table.
    """
    tol = config.decomposition_tol
    model, site = lift_process(field_atoms, initial, depth, spaces)
    if words is None:
        words = enumerate_level_words(model, site, config)
    oracle = model.kernel_table(site, list(words))
    ultra = _ultrastationarity(oracle, config)
    recon = reconstruct(oracle, config, strict_closure=False)

    pairs = list(itertools.combinations(recon.lattice.slices.items(), 2))
    constant_units = Check("constant_slice_units", *linalg.worst(
        linalg.opnorms([pa - pb for (_, pa), (_, pb) in pairs]),
        lambda i: "slice spans {} vs {}".format(*(sorted(l) for l, _ in pairs[i])),
    ), tol)

    joins = list(recon.lattice.joins.items())
    eye = np.eye(recon.rank, dtype=COMPLEX)
    narrow_units = Check("narrow_units_on_minimal_space", *linalg.worst(
        linalg.opnorms([p - eye for _, p in joins]),
        lambda i: f"unit of block {sorted(joins[i][0])}",
    ), tol)

    # Levels with at least one level below them: the bottom copy of a finite
    # truncation has no past to draw words from, so its operators are
    # under-determined by the one-device-per-level word system, exactly as an
    # untruncated stack never is.
    atoms = recon.model.atoms
    at = [
        (o, x, la, lb)
        for x in site.meta["positions"]
        for la, lb in itertools.combinations(range(1, depth), 2)
        for o in model.spaces.outcomes(level_point(la, x))
    ]
    level_independent = Check("level_independent_events", *linalg.worst(
        linalg.opnorms([atoms[level_point(la, x)][o] - atoms[level_point(lb, x)][o]
                        for o, x, la, lb in at]),
        lambda i: "atom {!r} of {!r} at levels {},{}".format(*at[i]),
    ), tol)

    return LiftReport((ultra, constant_units, level_independent, narrow_units,
                       verify_decomposition(recon, oracle, config)), "checks")


# -- classical reduction -------------------------------------------------------


@dataclass(frozen=True)
class ClassicalReduction:
    measure: dict[tuple[str, ...], float]
    trajectory_points: tuple[str, ...]
    total_mass: float
    factorization_residual: float
    additivity_residual: float
    marginal_residual: float
    tolerance: float
    factorization_tolerance: float

    @property
    def ok(self) -> bool:
        return (
            abs(self.total_mass - 1.0) <= self.tolerance
            and self.factorization_residual <= self.factorization_tolerance
            and self.additivity_residual <= self.tolerance
            and self.marginal_residual <= self.tolerance
        )

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "points": list(self.trajectory_points),
            "measure": {",".join(k): v for k, v in self.measure.items()},
            "total_mass": self.total_mass,
            "factorization_residual": self.factorization_residual,
            "additivity_residual": self.additivity_residual,
            "marginal_residual": self.marginal_residual,
            "tolerance": self.tolerance,
        }


def classical_reduce(
    model: HilbertModel,
    site: CausalSite,
    config: RunConfig = RunConfig(),
) -> ClassicalReduction:
    """Reduce a fully commuting scalar model to a probability measure on the
    trajectory space.

    Verifies the factorization of the kernel through pointwise products, the
    additivity of the induced set function in every argument, and the
    consistency of the marginals with the measures computed on every one-point
    sub-site.  Noncommuting models are refused, carrying the interference
    witness that names the obstruction.
    """
    if model.kdim != 1:
        raise ValueError("the classical reduction needs a scalar initial space")
    if not model.is_narrow(site, config):
        raise ValueError("the classical reduction needs a fully normalized model")
    # full commutativity, across every pair of points regardless of relation
    worst_comm, comm_wit = atom_commutators(model, itertools.combinations(site.points, 2))
    if worst_comm > config.commutativity_tol:
        witness = _interference_obstruction(model, site, config) or (
            f"commutator {comm_wit} has norm {worst_comm:.3g}"
        )
        raise ReductionRefused(
            "the model does not commute, so its distribution is not additive: "
            + witness,
            witness=witness,
        )

    pts = tuple(site.points)
    outs = [model.spaces.outcomes(t) for t in pts]
    trajectories = list(itertools.product(*outs))
    traj_words = [
        EventWord.from_dict({t: {x} for t, x in zip(pts, traj)}, model.spaces)
        for traj in trajectories
    ]
    probs = _probabilities(model, site, traj_words)
    measure = dict(zip(trajectories, probs))
    total = float(sum(probs))
    # the measure indexed by outcome, one axis per point
    mass = np.array(probs).reshape([len(o) for o in outs])

    # the kernel factorizes through pointwise products of the words
    words = enumerate_words(site, model.spaces, config.policy, config.cap)
    fact_res = pointwise_factorization_residual(model, site, words)

    # additivity in every argument: the measure of a cylinder with one factor
    # enlarged is the sum over its parts, a row of the measure with that
    # point's axis last times the subsets' indicator columns
    cylinders, sums = [], []
    for i, t in enumerate(pts):
        others = pts[:i] + pts[i + 1:]
        parts = subsets(outs[i])[1:]
        for rest in itertools.product(*outs[:i], *outs[i + 1:]):
            for b in parts:
                factors = {u: {x} for u, x in zip(others, rest)}
                factors[t] = set(b)
                cylinders.append(EventWord.from_dict(factors, model.spaces))
        indicator = np.array([[x in b for b in parts] for x in outs[i]], dtype=float)
        sums.extend((np.moveaxis(mass, i, -1).reshape(-1, len(outs[i])) @ indicator).ravel())
    lhs = _probabilities(model, site, cylinders)
    worst_add = float(np.max(np.abs(np.subtract(lhs, sums)), initial=0.0))

    # marginal consistency against every one-point-removed sub-site
    gaps = []
    if len(pts) > 1:
        for drop in range(len(pts)):
            sub_pts = pts[:drop] + pts[drop + 1:]
            direct = _probabilities(model, _subsite(site, sub_pts), [
                EventWord.from_dict({t: {x} for t, x in zip(sub_pts, traj)}, model.spaces)
                for traj in itertools.product(*outs[:drop], *outs[drop + 1:])
            ])
            gaps.append(np.max(np.abs(direct - mass.sum(axis=drop).ravel())))
    worst_marg = linalg.worst(gaps)[0]

    return ClassicalReduction(
        measure=measure,
        trajectory_points=pts,
        total_mass=total,
        factorization_residual=fact_res,
        additivity_residual=worst_add,
        marginal_residual=worst_marg,
        tolerance=config.classical_tol,
        factorization_tolerance=max(config.classical_tol, config.commutativity_tol),
    )


def _probabilities(model: HilbertModel, site: CausalSite, words) -> list[float]:
    """Probabilities of observing each word's events in chronological order,
    for a scalar initial space."""
    feyn = model.products(site, words)
    return [float(p) for p in np.einsum("nak,nak->n", np.conjugate(feyn), feyn).real]


def _subsite(site: CausalSite, keep: Sequence[str]) -> CausalSite:
    idx = [site.index(t) for t in keep]
    leq = tuple(tuple(site.leq[a][b] for b in idx) for a in idx)
    return CausalSite(points=tuple(keep), leq=leq, meta=dict(site.meta))


def _interference_obstruction(
    model: HilbertModel, site: CausalSite, config: RunConfig
) -> str | None:
    """Name a marginalization defect exhibiting the failure of additivity."""
    for t in site.points:
        if any(site.strictly_precedes(t, u) for u in site.points):
            defect = interference_witness(model, site, t, config)
            if defect > config.classical_tol:
                return (
                    f"marginalizing {t!r} changes later statistics by {defect:.3g}"
                )
    return None


def interference_witness(
    model: HilbertModel,
    site: CausalSite,
    t_marginal: str,
    config: RunConfig = RunConfig(),
) -> float:
    """Largest additivity defect from marginalizing one point.

    Compares the probability of every word supported strictly after the
    marginal point with the sum over any partition of the marginal outcome
    space inserted at that point.  Zero means the statistics at that point are
    classical: later observations cannot tell whether the marginal device
    fired.
    """
    if model.kdim != 1:
        raise ValueError("the interference witness needs a scalar initial space")
    later = [u for u in site.points if site.strictly_precedes(t_marginal, u)]
    later_words = enumerate_words(
        _subsite(site, later), model.spaces, POLICY_ALL_SUBSETS, config.cap
    )
    outs_t = model.spaces.outcomes(t_marginal)
    partitions = partitions_of_factor(outs_t, frozenset(outs_t))
    split_words = [
        EventWord.from_dict({**dict(w.factors), t_marginal: p}, model.spaces)
        for w in later_words
        for parts in partitions
        for p in parts
    ]
    base = _probabilities(model, site, later_words)
    split = iter(_probabilities(model, site, split_words))
    gaps = []
    for b in base:
        for parts in partitions:
            summed = 0.0
            for _ in parts:
                summed += next(split)
            gaps.append(abs(b - summed))
    return linalg.worst(gaps)[0]

"""Wide-sense equivalence of models and the intertwining unitary.

Two models over the same site, outcome spaces, and initial space are
equivalent in the wide sense when their kernel tables coincide.  The minimal
modification of a model is the reconstruction of its own kernel table, on
the span of its chronological product vectors; minimal equivalent models are
unitarily equivalent, and the unitary is pinned down by matching product
vectors with the identity phase on the initial space.  `Pipeline` runs the
reconstruction theorem's chain on one oracle, and closes it with that
unitary between the emitted model and its own minimal modification.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import linalg
from .config import RunConfig
from .linalg import COMPLEX, dagger, opnorm
from .kernels import KernelOracle, check_axioms
from .models import Check, HilbertModel, Report, check_model
from .reconstruct import (_BOUND_WITNESS, ReconstructedProcess, ReconstructionRefused,
                          _kernel_gap, reconstruct, verify_decomposition)
from .sites import CausalSite
from .words import EventWord, enumerate_words, subsets


class EquivalenceRefused(ValueError):
    """Inputs do not satisfy a precondition (non-minimal or inequivalent)."""


def minimal_modification(
    model: HilbertModel,
    site: CausalSite,
    words: Sequence[EventWord] | None = None,
    config: RunConfig = RunConfig(),
) -> HilbertModel:
    """The minimal modification of a model: the reconstruction of its own
    kernel table on `words` (the configured enumeration by default).

    The table's Gram factor is read off the model's product stack
    (`KernelOracle.cholesky`), so the quotient is the span of the
    chronological product vectors, with the canonical unit families.  A
    model with symmetry needs the site's action on it.  Raises
    `ReconstructionRefused` when the table fails a gate of `reconstruct`;
    the word list need not be closed under multiplication.
    """
    if words is None:
        words = enumerate_words(site, model.spaces, config.policy, config.cap)
    return reconstruct(model.kernel_table(site, words), config, strict_closure=False).model


def check_wide_equivalence(m1: HilbertModel, m2: HilbertModel, site: CausalSite,
                           words: Sequence[EventWord], config: RunConfig = RunConfig()) -> Check:
    """Whether the two kernel tables coincide, block by block: the check
    "equivalence" holds the largest operator norm of a k x k block of their
    difference, and the word pair of the first block attaining it."""
    return _equivalence(m2, _first_oracle(m1, m2, site, words), config)[0]


def _first_oracle(m1: HilbertModel, m2: HilbertModel, site: CausalSite, words):
    """The first model's kernel oracle (`HilbertModel.kernel_table`), its
    symmetry set aside, once models whose initial spaces differ are
    refused."""
    if m1.kdim != m2.kdim:
        raise ValueError(
            f"initial spaces differ ({m1.kdim} vs {m2.kdim}); the tables are "
            "not comparable"
        )
    if m1.symmetry:
        m1 = dataclasses.replace(m1, symmetry={})
    return m1.kernel_table(site, words)


def _equivalence(m2: HilbertModel, oracle: KernelOracle, config: RunConfig):
    """Whether `m2` reproduces the table of `oracle` (`_kernel_gap`), as the
    check "equivalence", and the products of `m2` on the oracle's plan."""
    tol = config.equivalence_tol
    worst, at, products = _kernel_gap(m2, oracle, tol)
    witness = "" if not worst else _BOUND_WITNESS
    if at is not None:
        witness = f"pair (word {at[0]}, word {at[1]})"
    return Check("equivalence", worst, witness, tol), products


@dataclass(eq=False)
class ModelMorphism:
    """An isometry intertwining two models, with its measured residuals."""

    u: np.ndarray
    isometry_residual: float
    event_residual: float
    algebra_residual: float
    symmetry_residual: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return max(self.isometry_residual, self.event_residual,
                   self.algebra_residual, self.symmetry_residual) <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "isometry_residual": self.isometry_residual,
            "event_residual": self.event_residual,
            "algebra_residual": self.algebra_residual,
            "symmetry_residual": self.symmetry_residual,
            "tolerance": self.tolerance,
        }


def build_unitary(m1: HilbertModel, m2: HilbertModel, site: CausalSite,
                  words: Sequence[EventWord], config: RunConfig = RunConfig()) -> ModelMorphism:
    """Unitary sending the first minimal model onto the second on `words`:
    `intertwine` through the first model's kernel oracle, its symmetry set
    aside."""
    return intertwine(m1, m2, _first_oracle(m1, m2, site, words), config)


def intertwine(m1: HilbertModel, m2: HilbertModel, oracle: KernelOracle,
               config: RunConfig = RunConfig()) -> ModelMorphism:
    """Unitary sending the first minimal model onto the second, read off
    `oracle`, the kernel oracle of the first on some words (its symmetry may
    be set aside); refused unless the second reproduces its table.

    The map matches chronological product vectors through the oracle: its
    product stack X and the memoised factor of X
    (`KernelOracle.gram_factor`), whose rank each model's dimension must
    equal: ``u = Y V S^-1 W*`` for the thin SVD ``X = W S V*``, which sees
    the conditioning of X, not that of its Gram matrix.  The phase is fixed
    by matching the initial embeddings directly, so the restriction to the
    initial space is the identity.
    """
    check, products = _equivalence(m2, oracle, config)
    if not check.ok:
        raise EquivalenceRefused(
            f"models are not equivalent in the wide sense "
            f"(residual {check.residual:.3e} at {check.witness})"
        )
    factor = oracle.gram_factor(config.rank_tol)
    # equal tables have equal Gram ranks, and a minimal model has that dimension
    for name, m in (("first", m1), ("second", m2)):
        if m.dim != factor.values.size:
            raise EquivalenceRefused(
                f"the {name} model is not minimal; compress it first"
            )
    z = factor.vectors / np.sqrt(factor.values)[None, :]
    q1 = oracle.product_stack @ z
    q2 = linalg.side_by_side(products) @ z
    u = q2 @ dagger(q1)
    return _measure_morphism(u, m1, m2, oracle.site, config.equivalence_tol)


@dataclass(eq=False)
class Pipeline:
    """The reconstruction theorem's chain on one oracle: each stage runs once,
    on its first read, and looks its function up only then."""

    oracle: KernelOracle
    config: RunConfig = RunConfig()

    @cached_property
    def axioms(self) -> Report:
        return check_axioms(self.oracle, self.config)

    @cached_property
    def recon(self) -> ReconstructedProcess:
        return reconstruct(self.oracle, self.config)

    @cached_property
    def verification(self) -> Check:
        return verify_decomposition(self.recon, self.oracle, self.config)

    @cached_property
    def emitted_model(self) -> Report | None:
        """`check_model` of the emitted model; None unless a model built the oracle."""
        if self.oracle.model is not None:
            return check_model(self.recon.model, self.oracle.site, self.config)

    @cached_property
    def idempotence(self):
        """`intertwine` of the emitted model and its minimal modification on the
        source's plan; None when refused on an emitted model that fails its
        check, the cause to report."""
        emitted = self.recon.model.kernel_oracle(self.oracle.plan)
        try:
            second = reconstruct(emitted, self.config, strict_closure=False).model
            return intertwine(self.recon.model, second, emitted, self.config)
        except (ReconstructionRefused, EquivalenceRefused):
            if self.emitted_model is None or self.emitted_model.ok:
                raise
            return None


def _measure_morphism(u, m_small, m_big, site, tol) -> ModelMorphism:
    """`u` with the residuals of the modeling relations: isometry, events,
    algebra, symmetry."""
    events = []
    for t in site.points:
        p_small = m_small.unit_p({t})
        for b in subsets(m_small.spaces.outcomes(t)):
            lhs = u @ (m_small.point_projector(t, b) @ p_small)
            rhs = m_big.point_projector(t, b) @ u @ p_small
            events.append(lhs - rhs)
    algebra = []
    for k, gens in m_small.algebra.items():
        gens_big = m_big.algebra.get(k, ())
        i_small = m_small.unit_i(k)
        for g_small, g_big in zip(gens, gens_big):
            algebra.append(u @ g_small - g_big @ u @ i_small)
    symmetry = [
        u @ ms.op - m_big.symmetry[s].op @ u
        for s, ms in m_small.symmetry.items() if s in m_big.symmetry
    ]
    ev, al, sy = (linalg.worst(linalg.opnorms(g))[0] for g in (events, algebra, symmetry))
    return ModelMorphism(
        u=u,
        isometry_residual=opnorm(dagger(u) @ u - np.eye(m_small.dim)),
        event_residual=ev,
        algebra_residual=al,
        symmetry_residual=sy,
        tolerance=tol,
    )


def check_model_relation(
    m_small: HilbertModel,
    m_big: HilbertModel,
    u: np.ndarray,
    site: CausalSite,
    config: RunConfig = RunConfig(),
) -> ModelMorphism:
    """Measure how well `u` realizes the first model inside the second.

    Both projector families are compared through the intertwining relations
    with the small model's unit projectors on the right; symmetry, when both
    sides declare it, is compared through the transported essential units.
    """
    tol = config.equivalence_tol
    morphism = _measure_morphism(np.asarray(u, dtype=COMPLEX), m_small, m_big, site, tol)
    if site.symmetry is None:
        return morphism
    # transported-unit consistency of the small model's own symmetry family
    gaps = []
    for s, ms in m_small.symmetry.items():
        for t, st in site.symmetry.maps.get(s, {}).items():
            i_t, i_st = m_small.unit_i({t}), m_small.unit_i({st})
            p_t, p_st = m_small.unit_p({t}), m_small.unit_p({st})
            gaps.append(ms.op @ i_t - i_st @ ms.op @ i_t)
            gaps.append(ms.op @ p_t - p_st @ ms.op @ p_t)
    extra = linalg.worst(linalg.opnorms(gaps))[0]
    return dataclasses.replace(
        morphism, symmetry_residual=max(morphism.symmetry_residual, extra)
    )

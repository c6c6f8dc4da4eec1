"""Finite-dimensional measurement models and their correlation kernels.

A model consists of a state space H, an isometric embedding of an initial
space K, per-point projector families given by atomic projectors (one per
outcome), optional unit-projector families for the relaxed normalization,
optional controlling-algebra generators, and optional symmetry data.

The chronological product of the event projectors of a word applied to the
embedding is the model's fundamental object; every kernel value is an inner
product of two such products.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import linalg
from .config import RunConfig
from .linalg import COMPLEX, dagger
from .sites import CausalSite
from .words import EventWord, OutcomeSpaces, subsets


@dataclass(frozen=True)
class SymmetryRep:
    """How one element of the site's semigroup (`CausalSite.symmetry`, the
    only holder of its point map) is represented: per source point, the
    injection of its outcomes into the image point's, and the operator `op`,
    an isometry of H (dim x dim) on a model, the unitary part on K (kdim x
    kdim) on a kernel table."""

    outcome_maps: Mapping[str, Mapping[str, str]]
    op: np.ndarray


@dataclass(frozen=True, eq=False)
class HilbertModel:
    dim: int
    embedding: np.ndarray  # dim x kdim isometry
    atoms: Mapping[str, Mapping[str, np.ndarray]]  # point -> outcome -> dim x dim
    spaces: OutcomeSpaces
    units_p: Mapping[frozenset, np.ndarray] = field(default_factory=dict)
    units_i: Mapping[frozenset, np.ndarray] = field(default_factory=dict)
    algebra: Mapping[frozenset, tuple] = field(default_factory=dict)
    symmetry: Mapping[str, SymmetryRep] = field(default_factory=dict)

    def __post_init__(self):
        emb = np.asarray(self.embedding, dtype=COMPLEX)
        if emb.ndim == 1:
            emb = emb[:, None]
        if emb.shape[0] != self.dim:
            raise ValueError("embedding row count must equal dim")
        object.__setattr__(self, "embedding", emb)
        for t, fam in self.atoms.items():
            if set(fam) != set(self.spaces.outcomes(t)):
                raise ValueError(
                    f"projector family at {t!r} does not match the outcome space"
                )

        def square(name, m):
            """`m` as a complex matrix on H, refused by `name` otherwise."""
            m = np.asarray(m, dtype=COMPLEX)
            if m.shape != (self.dim, self.dim):
                raise ValueError(f"{name} has shape {m.shape}, not {self.dim}x{self.dim}")
            return m

        object.__setattr__(self, "atoms", {
            t: {x: square(f"projector at {t!r}/{x!r}", m) for x, m in fam.items()}
            for t, fam in self.atoms.items()
        })
        for kind in ("p", "i"):
            object.__setattr__(self, f"units_{kind}", {
                frozenset(k): square(f"unit {kind!r} of {sorted(k)}", m)
                for k, m in getattr(self, f"units_{kind}").items()
            })
        object.__setattr__(self, "algebra", {
            frozenset(k): tuple(
                square(f"algebra generator {i} of {sorted(k)}", g) for i, g in enumerate(gens)
            )
            for k, gens in self.algebra.items()
        })
        require_representation(self.symmetry, "model", self.dim)
        object.__setattr__(self, "_projectors", {})  # (point, event) -> projector

    # -- basic structure ---------------------------------------------------

    @property
    def kdim(self) -> int:
        return self.embedding.shape[1]

    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=COMPLEX)

    def initial_projector(self) -> np.ndarray:
        return self.embedding @ dagger(self.embedding)

    def point_projector(self, t: str, b: Iterable[str]) -> np.ndarray:
        """Projector of the event `b` at point `t`: the sum of its atoms in
        outcome order, so that its rounding follows no hash order.  It is
        formed once per model and event, and read-only."""
        key = (t, frozenset(b))
        if key not in self._projectors:
            fam = self.atoms[t]
            if unknown := sorted(key[1].difference(fam)):
                raise KeyError(f"unknown outcome {unknown[0]!r} at point {t!r}")
            out = np.zeros((self.dim, self.dim), dtype=COMPLEX)
            for x in self.spaces.outcomes(t):
                if x in key[1]:
                    out += fam[x]
            out.setflags(write=False)
            self._projectors[key] = out
        return self._projectors[key]

    def point_unit(self, t: str) -> np.ndarray:
        return self.point_projector(t, self.spaces.full(t))

    def unit_p(self, k: Iterable[str]) -> np.ndarray:
        """Unit projector of a block: supplied value, else the product of the
        per-point units (the identity for fully normalized models)."""
        k = frozenset(k)
        if not k:
            return self.identity()
        if k in self.units_p:
            return self.units_p[k]
        out = self.identity()
        for t in sorted(k):
            out = out @ self.point_unit(t)
        return out

    def unit_i(self, k: Iterable[str]) -> np.ndarray:
        k = frozenset(k)
        if not k:
            return self.initial_projector()
        if k in self.units_i:
            return self.units_i[k]
        return self.identity()

    def is_narrow(self, site: CausalSite, config: RunConfig = RunConfig()) -> bool:
        """Fully normalized: every unit projector is the identity."""
        units = [self.point_unit(t) for t in site.points] + list(self.units_p.values())
        gaps = np.reshape(units, (-1, self.dim, self.dim)) - self.identity()
        return bool((linalg.opnorms(gaps) <= config.projector_tol).all())

    # -- chronological products and kernels ---------------------------------

    def block_projector(self, site: CausalSite, event: EventWord) -> np.ndarray:
        """Assembled projector of a block event: the product of the factor
        projectors in site point order, times the block unit when one is
        declared.  Valid models make the factors commute, so the order is a
        convention, not a choice."""
        out = self.identity()
        for t in sorted(event.support, key=site.index):
            out = out @ self.point_projector(t, event.factor(t, self.spaces))
        k = frozenset(event.support)
        if k in self.units_p:
            out = out @ self.units_p[k]
        return out

    def products(
        self,
        site: CausalSite,
        words: Sequence[EventWord],
    ) -> np.ndarray:
        """Chronologically ordered products of each word's block projectors
        applied to the initial embedding (earliest applied first), stacked
        word-major: shape ``(len(words), dim, kdim)``.  The evaluation of
        the words' `ProductPlan`."""
        return self.evaluate(ProductPlan.walk(site, words))

    def evaluate(self, plan: ProductPlan) -> np.ndarray:
        """The products of the plan's words (`products`): one block operator
        per distinct block event, then per trie depth one batched matmul of
        the nodes' operators with their parents' states, gathered in node
        chunks of about `linalg.BLOCK` operator entries."""
        out = np.empty((len(plan.words), self.dim, self.kdim), dtype=COMPLEX)
        ops = np.array([self.block_projector(plan.site, ev) for ev in plan.events],
                       dtype=COMPLEX).reshape(-1, self.dim, self.dim)
        step = max(1, linalg.BLOCK // (self.dim * self.dim))
        states = self.embedding  # the root; depth 1 broadcasts it as is
        out[plan.leaves[0][0]] = states
        for (parents, events), (at, leaf) in zip(plan.depths, plan.leaves[1:]):
            cur = np.empty((len(parents), self.dim, self.kdim), dtype=COMPLEX)
            for start in range(0, len(parents), step):
                blk = slice(start, start + step)
                prev = states if states.ndim == 2 else states[parents[blk]]
                np.matmul(ops[events[blk]], prev, out=cur[blk])
            out[at] = cur[leaf]
            states = cur
        return out

    def kernel_table(self, site: CausalSite, word_list: Sequence[EventWord]):
        """Total kernel map on a word list: `kernel_oracle` of the words'
        `ProductPlan`."""
        return self.kernel_oracle(ProductPlan.walk(site, word_list))

    def kernel_oracle(self, plan: ProductPlan):
        """The kernel table on the words of `plan`, packaged with the
        symmetry data and with the product stack the oracle factors
        (`KernelOracle`), whose `plan` is `plan` itself.  Each model symmetry
        element is represented on K by ``E* v E`` and acts on the site by the
        site's map (`CausalSite.symmetry`); an element the site does not act
        by is refused (`require_representation`).

        Import is deferred to avoid a cycle with the oracle module."""
        from .kernels import KernelOracle

        columns = linalg.side_by_side(self.evaluate(plan))
        # the products again, as a view of their columns: no second copy
        products = columns.reshape(self.dim, len(plan.words), self.kdim).swapaxes(0, 1)
        table = linalg.pair_blocks(products)
        table.setflags(write=False)  # the oracle adopts it
        require_representation(self.symmetry, "model", self.dim, plan.site)
        sym = {
            s: SymmetryRep(ms.outcome_maps, dagger(self.embedding) @ ms.op @ self.embedding)
            for s, ms in self.symmetry.items()
        }
        return KernelOracle(
            site=plan.site,
            spaces=self.spaces,
            kdim=self.kdim,
            words=plan.words,
            table=table,
            symmetry=sym,
            algebra={k: tuple(dagger(self.embedding) @ g @ self.embedding for g in gens)
                     for k, gens in self.algebra.items()},
            model=self,
            _plan=plan,
            _stack=columns,
        )


@dataclass(frozen=True, eq=False)
class ProductPlan:
    """The chronological-product trie of a word list, as index arrays.

    Nodes are keyed by their parent and their block event, as the words'
    chain decompositions (`CausalSite.chain_decompose`) walk them earliest
    block first; the unit word ends at the root, the embedding.  `events`
    lists the distinct block events in first-seen order.  `depths[d]` holds
    the parent (a node of depth d, the root at depth 0) and the event index
    of each node of depth d + 1, in first-seen order; `leaves[d]` holds the
    words that end at depth d and the node each one ends at.  Any model on
    the same site evaluates it (`HilbertModel.evaluate`)."""

    site: CausalSite
    words: tuple[EventWord, ...]
    events: tuple[EventWord, ...]
    depths: tuple[tuple[np.ndarray, np.ndarray], ...]
    leaves: tuple[tuple[np.ndarray, np.ndarray], ...]

    @classmethod
    def walk(cls, site: CausalSite, words: Sequence[EventWord]) -> ProductPlan:
        """One pass over the words: one chain decomposition per distinct
        support, kept as the positions of each block's factors, and one node
        per distinct (parent, block event)."""
        words = tuple(words)
        chains: dict[tuple, list] = {}  # support -> factor positions per block
        events: dict[tuple, int] = {}  # block event factors -> event index
        nodes: list[dict] = []  # per depth: (parent, event factors) -> node
        depths: list[tuple[list, list]] = []  # per depth: parents, event indices
        ends: list[list] = [[]]  # per depth: (word, node) of the words ending there
        for n, word in enumerate(words):
            factors = word.factors
            support = tuple([f[0] for f in factors])
            chain = chains.get(support)
            if chain is None:
                chain = chains[support] = [
                    tuple([i for i, t in enumerate(support) if t in block])
                    for block in site.chain_decompose(support)
                ]
            node = 0
            for d, at in enumerate(chain):
                if d == len(nodes):
                    nodes.append({})
                    depths.append(([], []))
                    ends.append([])
                key = (node, tuple([factors[i] for i in at]))
                child = nodes[d].get(key)
                if child is None:
                    child = nodes[d][key] = len(nodes[d])
                    depths[d][0].append(node)
                    depths[d][1].append(events.setdefault(key[1], len(events)))
                node = child
            ends[len(chain)].append((n, node))
        return cls(
            site=site,
            words=words,
            events=tuple(map(EventWord, events)),
            depths=tuple((np.array(p, dtype=np.intp), np.array(e, dtype=np.intp))
                         for p, e in depths),
            leaves=tuple(tuple(np.array(e, dtype=np.intp).reshape(-1, 2).T)
                         for e in ends),
        )


# -- verdicts and model validation -------------------------------------------


PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Check:
    """The verdict on one condition: the worst residual found, the witness
    attaining it, and the tolerance it is held to.  A `missing` note (data
    the check needs but the input lacks) makes it inconclusive and stands in
    for the witness; otherwise it passes when ``residual <= tolerance``, so
    NaN and inf fail."""

    name: str
    residual: float
    witness: str
    tolerance: float
    missing: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "residual", float(self.residual))
        if self.missing:
            object.__setattr__(self, "witness", self.missing)

    @property
    def status(self) -> str:
        if self.missing:
            return INCONCLUSIVE
        return PASS if self.residual <= self.tolerance else FAIL

    @property
    def ok(self) -> bool:
        return self.status == PASS

    @property
    def condition(self) -> str:
        """`name`, kept for perfbench until ROADMAP item 1 moves its probes
        onto `to_dict()`."""
        return self.name

    @property
    def max_residual(self) -> float:
        """`residual`, kept for perfbench: its round-trip gate and probes
        read it."""
        return self.residual

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "residual": self.residual,
                "witness": self.witness, "tolerance": self.tolerance}


@dataclass(frozen=True)
class Report:
    """Checks of several conditions.  `form` is the shape of `to_dict`:
    "violations" lists the checks that do not pass (model and Markov
    reports), "checks" lists every check (the lift), each by condition,
    residual, witness and tolerance; "axioms" lists every check with its
    status and adds `failed`."""

    checks: tuple[Check, ...]
    form: str = "violations"

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failed(self) -> bool:
        """A demonstrated violation, as opposed to missing data."""
        return any(c.status == FAIL for c in self.checks)

    @property
    def entries(self) -> tuple[Check, ...]:
        """`checks`, kept for perfbench until ROADMAP item 1 moves its
        probes onto `to_dict()`."""
        return self.checks

    def violations(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def worst(self, name: str) -> Check | None:
        """The first check named `name` with the largest residual."""
        return max((c for c in self.checks if c.name == name),
                   key=lambda c: c.residual, default=None)

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        if self.form == "axioms":
            return {"ok": self.ok, "failed": self.failed,
                    "checks": [c.to_dict() for c in self.checks]}
        listed = self.checks if self.form == "checks" else self.violations()
        return {"ok": self.ok, self.form: [
            {"condition": c.name, "residual": c.residual, "witness": c.witness,
             "tolerance": c.tolerance}
            for c in listed
        ]}


def check_model(
    model: HilbertModel,
    site: CausalSite,
    config: RunConfig = RunConfig(),
) -> Report:
    """Verify the whole contract of a measurement model.

    Checked, with one entry per worst offender of each condition: projector
    property and mutual orthogonality of atoms; resolution of each point unit
    by the point's atoms; compatibility (commutation and product-projector
    property) at equivalent and independent pairs; nesting of the essential
    units above the initial projector (`unit_nesting`); the unit-balance
    between event units and essential units on every time slice; commutation
    with declared algebra generators; and the symmetry intertwining relations
    at the site's action (`CausalSite.symmetry`), inconclusive when a model
    symmetry element has none or an outcome map that is not an injection
    (`check_representation`).

    Every condition's residual matrices are queued first; their operator
    norms are taken in one `linalg.opnorms` call per matrix shape, and each
    entry then reads its worst (`linalg.worst`) off its own norms.
    """
    mats: list[np.ndarray] = []  # every residual matrix, normed together below
    reads = []  # per check: its name, how it reads the norms, its missing note

    def queue(stack) -> slice:
        """Queue residual matrices; the slice of the norms they will get."""
        start = len(mats)
        mats.extend(stack)
        return slice(start, len(mats))

    def record(name, read, missing=None):
        reads.append((name, read, missing))

    eye = model.identity()
    projector = model.point_projector  # each (point, event) formed once

    iso = queue([dagger(model.embedding) @ model.embedding - np.eye(model.kdim)])
    record("embedding_isometry", lambda n: (n[iso][0], "initial embedding"))

    # per-point families: Hermitian idempotent atoms, mutually orthogonal,
    # resolving the point unit (every partition of the unit event sums the
    # same atoms); one call per point, so that each reader keeps its point
    def family(t):
        outs = model.spaces.outcomes(t)
        fam = [model.atoms[t][x] for x in outs]
        defect = queue(linalg.projector_gaps(fam))
        pairs = list(itertools.combinations(range(len(outs)), 2))
        ortho = queue([fam[i] @ fam[j] for i, j in pairs])
        unit = queue([projector(t, model.spaces.full(t)) - model.unit_p({t})])
        record("projector", lambda n: linalg.worst(
            np.maximum(*n[defect].reshape(2, -1)), lambda i: f"atom {outs[i]!r} at {t!r}"
        ))
        record("orthogonality", lambda n: linalg.worst(
            n[ortho],
            lambda k: "atoms {!r},{!r} at {!r}".format(*(outs[i] for i in pairs[k]), t),
        ))
        record("resolution", lambda n: linalg.worst(
            n[unit], lambda _: f"sum of the atoms at {t!r}"
        ))

    for t in site.points:
        family(t)

    # compatibility across nonanticipatory pairs
    prods, comms, compat_at = [], [], []
    for a, b in itertools.combinations(site.points, 2):
        rel = (site.equivalent(a, b), site.independent(a, b))
        if not any(rel):
            continue
        for ba, bb in itertools.product(
            subsets(model.spaces.outcomes(a)), subsets(model.spaces.outcomes(b))
        ):
            pa, pb = projector(a, ba), projector(b, bb)
            prods.append(pa @ pb)
            comms.append(prods[-1] - pb @ pa)
            compat_at.append((rel, sorted(ba), a, sorted(bb), b))
    comm = queue(comms)
    defect = queue(linalg.projector_gaps(np.reshape(prods, (-1, model.dim, model.dim))))
    for j, condition in enumerate(("equivalent", "independent")):
        record(f"{condition}_compatibility", lambda n, j=j: linalg.worst(
            np.where([rel[j] for rel, *_ in compat_at],
                     np.maximum(n[comm], np.maximum(*n[defect].reshape(2, -1))), 0.0),
            lambda i: "events {}@{!r}, {}@{!r}".format(*compat_at[i][1:]),
        ))

    # unit balance on every slice: meet of event units = join of essential units
    slices = list(site.maximal_antichains)
    balance = queue([
        slice_projector(model, site, l, config) - linalg.join_projectors(
            [model.unit_i(k) for k in _blocks_within(site, l)] + [model.initial_projector()],
            config.rank_tol,
        )
        for l in slices
    ])
    record("unit_balance", lambda n: linalg.worst(
        n[balance], lambda i: f"slice {sorted(slices[i])}"
    ))

    # essential units nest above the initial projector
    nest_pairs, nest_mats, nest_read = unit_nesting(model, site, sorted(
        {frozenset()} | set(model.units_i) | {frozenset({t}) for t in site.points},
        key=lambda k: sorted(map(site.index, k)),
    ))
    nest = queue(nest_mats)
    record("unit_monotone", lambda n: linalg.worst(
        np.maximum(*nest_read(n[nest])[::2]),  # |L| and |R|
        lambda i: "{} <= {}".format(*map(sorted, nest_pairs[i])),
    ))

    # commutation with controlling algebra generators
    gens_comms, gens_at = [], []
    for k, gens in model.algebra.items():
        for t in k:
            for b in subsets(model.spaces.outcomes(t)):
                p = projector(t, b)
                gens_comms.extend(p @ g - g @ p for g in gens)
                gens_at.extend((sorted(b), t, gi, sorted(k)) for gi in range(len(gens)))
    gens_norms = queue(gens_comms)
    record("algebra_commutation", lambda n: linalg.worst(
        n[gens_norms],
        lambda i: "event {}@{!r} vs generator {} of {}".format(*gens_at[i]),
    ))

    # symmetry intertwining: V pi(B^s) = pi(st)(B) V P_t; an element the site
    # does not act by, or with an outcome map that is no injection, leaves
    # its relations unchecked
    problems = check_representation(model.symmetry, "model", model.dim, site, model.spaces)
    sym_gaps, sym_at = [], []
    for s, ms in model.symmetry.items():
        v = np.asarray(ms.op, dtype=COMPLEX)
        sym_gaps.append(dagger(v) @ v - eye)
        sym_at.append(("isometry of {!r}", s))
        if check_representation({s: ms}, "model", model.dim, site, model.spaces):
            continue
        for t, st in site.symmetry.maps[s].items():
            g = ms.outcome_maps[t]
            for b in subsets(model.spaces.outcomes(st)):
                bs = frozenset(x for x in model.spaces.outcomes(t) if g[x] in b)
                lhs = v @ projector(t, bs)
                rhs = projector(st, b) @ v @ model.unit_p({t})
                sym_gaps.append(lhs - rhs)
                sym_at.append(("{!r} at {!r} with event {}", s, t, sorted(b)))
    sym = queue(sym_gaps)
    record("covariance", lambda n: linalg.worst(
        n[sym], lambda i: sym_at[i][0].format(*sym_at[i][1:])
    ), problems[0] if problems else None)

    # one operator-norm pass per matrix shape; each norm keeps its bits, as
    # the batched SVD takes the matrices one by one
    norms = np.zeros(len(mats))
    shapes = [m.shape for m in mats]
    for shape in dict.fromkeys(shapes):
        at = [i for i, m in enumerate(shapes) if m == shape]
        norms[at] = linalg.opnorms([mats[i] for i in at])
    return Report(tuple(Check(name, *read(norms), config.projector_tol, missing)
                        for name, read, missing in reads))


def check_representation(reps: Mapping[str, SymmetryRep], holder: str, dim: int,
                         site: CausalSite | None = None,
                         spaces: OutcomeSpaces | None = None) -> list[str]:
    """The problems of the symmetry representation `reps` of a `holder`
    ("model" or "table"), in the order they are refused: an operator that is
    not dim x dim (a model's "v", a table's "u"); given the site, an element
    it does not act by; given the spaces too, an outcome map at a point the
    site maps that is not an injection into the outcomes at its image."""
    op = {"model": "v", "table": "u"}[holder]
    problems = [f"symmetry {s!r} {op} has shape {np.shape(r.op)}, not {dim}x{dim}"
                for s, r in reps.items() if np.shape(r.op) != (dim, dim)]
    maps = site.symmetry.maps if site is not None and site.symmetry else {}
    if site is not None:
        problems += [f"{holder} symmetry {s!r} has no site action"
                     for s in reps if s not in maps]
    if spaces is not None:
        problems += [f"symmetry {s!r} outcome map at {t!r} is not an injection "
                     f"of the outcomes at {t!r} into those at {st!r}"
                     for s, r in reps.items() for t, st in maps.get(s, {}).items()
                     if not _is_injection(r.outcome_maps.get(t), spaces.outcomes(t),
                                          spaces.outcomes(st))]
    return problems


def require_representation(reps, holder, dim, site=None, spaces=None) -> None:
    """Refuse the first problem `check_representation` finds by a `ValueError`."""
    if problems := check_representation(reps, holder, dim, site, spaces):
        raise ValueError(problems[0])


def _is_injection(g, domain: Sequence[str], codomain: Sequence[str]) -> bool:
    """Whether the mapping `g` sends `domain`, and nothing else, one to one
    into `codomain`."""
    if not isinstance(g, Mapping) or len(g) != len(domain):
        return False
    targets = [g.get(x) for x in domain]
    return all(y in codomain for y in targets) and len(set(targets)) == len(domain)


def unit_nesting(model: HilbertModel, site: CausalSite, blocks: Sequence[frozenset]):
    """The pairs (k, j) of `blocks` with k <= j (k = j too) in product order,
    the matrices whose operator norms measure them (``L = I_j I_k* - I_k``
    and ``R = I_j I_k - I_k`` per pair, then ``I_k`` per block, where
    ``I_k = unit_i(k)``, the initial projector at the empty block), and a
    reader that takes those norms to per-pair arrays |L|, |I_k| and |R|.  L
    and R vanish exactly when the units nest, and at k = j when the unit is
    a projector.  Base-compressed products are
    ``P_w I_b``, so block (a, b) of base j compressed to k against base k is
    ``L* M I_k + I_k* M R + L* M R`` with ``M = P_a* P_b``: at most
    ``max_w |P_w|^2 (|L| |I_k| + |I_k| |R| + |L| |R|)``, a bound that can
    exceed every block (with projector units the unit word's is ``-R* R``)."""
    units = [model.unit_i(k) for k in blocks]
    at = [(a, b) for a, b in itertools.product(range(len(blocks)), repeat=2)
          if site.subset_le(blocks[a], blocks[b])]
    mats = [units[b] @ m - units[a] for a, b in at for m in (dagger(units[a]), units[a])]

    def read(norms):
        l, r = norms[:len(mats)].reshape(-1, 2).T
        return l, norms[len(mats):][[a for a, _ in at]], r  # |I_k| once per block

    return [(blocks[a], blocks[b]) for a, b in at], mats + units, read


def slice_projector(
    model: HilbertModel, site: CausalSite, l, config: RunConfig = RunConfig()
) -> np.ndarray:
    """The slice unit E_l: the meet of the event units of every block within
    the slice (`_blocks_within`) and the identity."""
    return linalg.meet_projectors(
        [model.unit_p(k) for k in _blocks_within(site, l)] + [model.identity()],
        config.rank_tol,
    )


def _blocks_within(site: CausalSite, l: frozenset[str]) -> list[frozenset[str]]:
    """Nonempty subsets of a slice (a slice is an antichain, so each is
    nonanticipatory), grown through its points in site order."""
    out: list[frozenset[str]] = [frozenset()]
    for t in sorted(l, key=site.index):
        out.extend([cur | {t} for cur in out])
    return out[1:]


"""Correlation kernel oracles and the axiom battery that qualifies them.

A kernel oracle is a total map from pairs of event words to operators on the
initial space, together with the site, the outcome spaces, and declared
symmetry data.  The checks in this module decide whether such a table is a
legitimate wide-sense process: positive, normalized, additive in the factors
on maximal slices, factorizable, covariant, self-consistent under extension,
and (optionally) asymptotically uncorrelated with the distant past.

Verdicts distinguish `fail` from `inconclusive`: a check whose closure
prerequisites are not met by the word list reports the missing data instead
of a violation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import linalg
from .config import RunConfig
from .linalg import COMPLEX, opnorm
from .models import Check, ProductPlan, Report, SymmetryRep, unit_nesting
from .models import require_representation
from .sites import CausalSite
from .words import (
    EventWord,
    OutcomeSpaces,
    code_columns,
    code_keys,
    event_label,
    factor_code,
    partitions_of_factor,
    pull_back,
    pull_back_codes,
    subsets,
    unit_word,
    word_codes,
)


@dataclass(frozen=True, eq=False)
class KernelOracle:
    """A wide-sense process: words, kernel values, symmetry declarations.

    Frozen, with a read-only C-order `table`, so its memos (the
    `cholesky` factor, its `gram_factor` cuts, the `slice_screen` and the
    `slice_residuals` that the axiom checks and the reconstruction gates
    share among them, and the `plan` of its words that every model's
    products on them are evaluated on) never go stale.  To edit a table,
    build a new oracle: ``dataclasses.replace(oracle, table=edited)``.  A
    table that no caller can write, a read-only array that views no other
    (the fresh one `HilbertModel.kernel_table` hands over, or another
    oracle's), is adopted as it is; any other is copied.  `_plan` seeds the `plan` memo with the
    plan that built the table, and `_stack` sets `product_stack`, the
    side-by-side product columns the table is the Gram matrix of
    (`HilbertModel.kernel_table`); neither is a field, so an edited copy
    keeps neither."""

    site: CausalSite
    spaces: OutcomeSpaces
    kdim: int
    words: tuple[EventWord, ...]
    table: np.ndarray  # (n, n, kdim, kdim)
    symmetry: Mapping[str, SymmetryRep] = field(default_factory=dict)
    algebra: Mapping[frozenset, tuple] = field(default_factory=dict)
    model: object | None = None
    _plan: InitVar[ProductPlan | None] = None
    _stack: InitVar[np.ndarray | None] = None

    def __post_init__(self, _plan, _stack):
        n = len(self.words)
        t = self.table
        # adopted when no one can write it: read-only, and no view of another
        if not (isinstance(t, np.ndarray) and t.base is None and not t.flags.writeable
                and t.dtype == COMPLEX and t.flags.c_contiguous):
            t = np.array(t, dtype=COMPLEX, order="C")  # rows gather fast
            t.setflags(write=False)
        if t.shape != (n, n, self.kdim, self.kdim):
            raise ValueError(
                f"table shape {t.shape} does not match {n} words of kernel "
                f"dimension {self.kdim}"
            )
        require_on_site(self.site, self.spaces, self.words)
        require_representation(self.symmetry, "table", self.kdim, self.site, self.spaces)
        index = {w: i for i, w in enumerate(self.words)}
        if len(index) != n:
            raise ValueError("word list contains duplicates")
        # memos: region -> word indices, event -> right-product index map,
        # symmetry element -> transported words, rank_tol -> cut Gram factor
        vars(self).update(table=t, _index=index, _within={}, _products={},
                          _transports={}, _factors={})  # past the frozen setattr
        if _plan is not None:
            if _plan.site is not self.site or _plan.words != self.words:
                raise ValueError("the product plan is not of this oracle's words")
            vars(self)["plan"] = _plan
        if _stack is not None:
            _stack = np.asarray(_stack, dtype=COMPLEX).view()  # kept, not copied
            if _stack.ndim != 2 or _stack.shape[1] != n * self.kdim:
                raise ValueError(f"product stack shape {_stack.shape} does not "
                                 f"match {n} words of kernel dimension {self.kdim}")
            _stack.setflags(write=False)
        vars(self)["product_stack"] = _stack

    # -- access -------------------------------------------------------------

    def index(self, word: EventWord) -> int | None:
        return self._index.get(word)

    def unit_index(self) -> int:
        i = self._index.get(unit_word())
        if i is None:
            raise ValueError("the unit word is missing from the oracle")
        return i

    def gram(self, indices: Sequence[int] | None = None) -> np.ndarray:
        """Block Gram matrix over (word, initial-basis) pairs, word-major;
        over all words it may be a view of the table (kdim 1)."""
        sub = self.table if indices is None else self.table[np.ix_(indices, indices)]
        m = sub.shape[0] * self.kdim
        return np.transpose(sub, (0, 2, 1, 3)).reshape(m, m)

    @cached_property
    def cholesky(self) -> linalg.Cholesky:
        """The one factor of the Gram matrix that positivity, every
        `gram_factor` cut and the slice screen read: `linalg.stack_factor`
        of the `product_stack` when a model built the table, else
        `linalg.pivoted_cholesky`; its arrays are read-only."""
        if not self.words:
            raise ValueError("word list is empty")
        if self.product_stack is None:
            factor = linalg.pivoted_cholesky(self.table)
        else:
            factor = linalg.stack_factor(self.product_stack)
        for a in (factor.rows, factor.values, factor.u):
            a.setflags(write=False)
        return factor

    def gram_factor(self, rank_tol: float) -> linalg.Eigencut:
        """`linalg.eigencut` of the oracle's factor, once per `rank_tol`; its
        arrays are read-only, since the quotient space shares them."""
        if rank_tol not in self._factors:
            factor = linalg.eigencut(self.cholesky, rank_tol)
            for a in (factor.values, factor.vectors, factor.dropped):
                a.setflags(write=False)
            self._factors[rank_tol] = factor
        return self._factors[rank_tol]

    @cached_property
    def plan(self) -> ProductPlan:
        """The chronological-product plan of the words (`ProductPlan.walk`)."""
        return ProductPlan.walk(self.site, self.words)

    @cached_property
    def slice_screen(self) -> tuple[tuple, tuple] | None:
        """Certified bounds of sigma additivity and factorizability, each
        with its witness, from the oracle's factor (`_slice_screen`); None
        when the word list is not closed under the slices' products."""
        return _slice_screen(self)

    @cached_property
    def slice_residuals(self) -> tuple[tuple, tuple]:
        """The worst residual, witness and missing-data note of sigma
        additivity, then of factorizability (`_slice_pass`)."""
        return _slice_pass(self)

    def with_symmetry(self, symmetry: Mapping[str, SymmetryRep]) -> KernelOracle:
        """The same words and table under another symmetry.  The new oracle
        shares the read-only table and the word-map memos computed so far
        (`_WORD_MEMOS`), none of which reads the symmetry."""
        other = dataclasses.replace(self, symmetry=symmetry)
        vars(other).update({k: v for k, v in vars(self).items() if k in _WORD_MEMOS})
        return other

    # -- word maps, computed once: the oracle's words never change ----------

    @cached_property
    def _columns(self) -> dict[str, slice]:
        """Each site point's code columns."""
        return code_columns(self.spaces, self.site.points)

    @cached_property
    def codes(self) -> np.ndarray:
        """The words as rows of outcome-membership bits (`words.word_codes`)."""
        return word_codes(self.words, self.spaces, list(self._columns))

    @cached_property
    def _sorted_keys(self) -> tuple[np.ndarray, np.ndarray]:
        keys = code_keys(self.codes)
        order = np.argsort(keys, kind="stable")
        return keys[order], order

    def lookup(self, codes: np.ndarray) -> np.ndarray:
        """Word index of each word code (the last axis), -1 where the code
        is not a word of the list."""
        keys, order = self._sorted_keys
        wanted = code_keys(codes)
        if not keys.size:
            return np.full(codes.shape[:-1], -1, dtype=int)
        at = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
        return np.where(keys[at] == wanted, order[at], -1).reshape(codes.shape[:-1])

    def words_within(self, region: Iterable[str]) -> list[int]:
        """Indices of the words supported within `region`, in list order."""
        region = frozenset(region)
        if region not in self._within:
            # unit outside the region: every outcome there is a member
            outside = [k for t, c in self._columns.items() if t not in region
                       for k in range(c.start, c.stop)]
            keep = self.codes[:, outside].all(axis=1)
            self._within[region] = np.flatnonzero(keep).tolist()
        return list(self._within[region])

    def right_products(self, event: EventWord) -> np.ndarray:
        """Index of each word's right product by the block event `event`
        (`pointwise_product`), -1 where the product is not in the word
        list."""
        if event not in self._products:
            codes = self.codes.copy()
            for t, b in event.factors:
                codes[:, self._columns[t]] &= factor_code(self.spaces, t, b)
            found = self.lookup(codes)
            found.setflags(write=False)  # shared by every caller
            self._products[event] = found
        return self._products[event]

    def transported(self, s: str) -> tuple[np.ndarray, np.ndarray]:
        """The words supported within the image of symmetry element `s`, and
        the index of each one's pull-back under `s`, -1 where the pull-back
        is not in the word list; the pull-backs are taken on the word codes
        (`words.pull_back_codes`)."""
        if s not in self._transports:
            action = self.site.symmetry.maps[s]
            eligible = np.array(self.words_within(action.values()), dtype=int)
            images = self.lookup(pull_back_codes(
                self.codes[eligible], self._columns, action,
                self.symmetry[s].outcome_maps, self.spaces,
            ))
            eligible.setflags(write=False)  # shared by every caller
            images.setflags(write=False)
            self._transports[s] = (eligible, images)
        return self._transports[s]

    def _pull_back(self, s: str, i: int) -> EventWord:
        """The pull-back of word `i` under `s`, word by word (`pull_back`),
        for a witness."""
        return pull_back(self.words[i], dict(self.site.symmetry.maps[s]),
                         self.symmetry[s].outcome_maps, self.spaces)


_WORD_MEMOS = frozenset(
    {"codes", "_columns", "_sorted_keys", "_within", "plan"}
)


def require_on_site(site: CausalSite, spaces: OutcomeSpaces,
                    words: Iterable[EventWord]) -> None:
    """Refuse a site point without an outcome space, then a word naming a
    point outside the site: the oracle's refusals before its symmetry's."""
    if missing := [p for p in site.points if p not in spaces.spaces]:
        raise ValueError(f"no outcome space declared at point {missing[0]!r}")
    points = set(site.points)
    if (w := next((w for w in words if not points.issuperset(w.support)), None)) is not None:
        off = next(t for t in w.support if t not in points)
        raise ValueError(f"word {event_label(w)} names point {off!r}, "
                         "which is not in the site")


# -- the axiom battery --------------------------------------------------------


def check_positivity(
    oracle: KernelOracle, config: RunConfig = RunConfig()
) -> Check:
    """The block Gram matrix over (word, basis) pairs must be Hermitian and
    PSD up to a relative tolerance, read off the oracle's Gram factor
    (`KernelOracle.gram_factor`), relative to the largest magnitude of its
    spectrum.

    The least value of that spectrum is at most minus the factor's residual
    bound, a lower bound on the least eigenvalue of the Gram matrix: a pass
    is certified, a fail may be conservative.  The factor reads the Gram
    matrix's Hermitian part, which hides an anti-Hermitian part of the
    table, so the factor's Hermiticity defect on the same scale is a residual
    too."""
    factor = oracle.gram_factor(config.rank_tol)
    vals = np.concatenate([factor.values, factor.dropped])
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    least = float(np.min(vals))
    residual = max(0.0, -least) / scale
    witness = (
        f"least eigenvalue bound {least:.3e} of the rank-{factor.values.size} "
        "Gram factor"
    )
    defect = factor.hermitian_defect
    if defect / scale > residual:
        residual = defect / scale
        witness = f"Hermiticity defect {defect:.3e} of the kernel table"
    return Check("positivity", residual, witness, config.positivity_tol)


def check_normalization(
    oracle: KernelOracle, config: RunConfig = RunConfig()
) -> Check:
    """The kernel at the unit word pair must be the identity on K."""
    e = oracle.unit_index()
    residual = opnorm(oracle.table[e, e] - np.eye(oracle.kdim))
    return Check(
        "normalization", residual, "kernel at the unit pair", config.normalization_tol
    )


def check_sigma_additivity(
    oracle: KernelOracle, config: RunConfig = RunConfig()
) -> Check:
    """Partitioning a word's factor at any point of a maximal slice must sum
    the kernel: diagonally, and against every other word (the sesquilinear
    form implied by polarization)."""
    return check_slice_axioms(oracle, config)[0]


def check_factorizability(
    oracle: KernelOracle, config: RunConfig = RunConfig()
) -> Check:
    """Right multiplication by an event at a point of a maximal slice must
    move freely across the two kernel arguments."""
    return check_slice_axioms(oracle, config)[1]


def check_slice_axioms(
    oracle: KernelOracle, config: RunConfig = RunConfig()
) -> tuple[Check, Check]:
    """Sigma additivity and factorizability at `config.axiom_tol`.

    The oracle's screen (`KernelOracle.slice_screen`) decides a pass when the
    word list is closed and both of its certified bounds are within the
    tolerance, and reports the bounds and their witnesses.  Otherwise the
    exact pass (`KernelOracle.slice_residuals`) runs and decides.  Both are
    memoised independently of the config."""
    tol = config.axiom_tol
    screen = oracle.slice_screen
    certified = screen is not None and all(r <= tol for r, _, _ in screen)
    (add, add_wit, add_miss), (fac, fac_wit, fac_miss) = (
        screen if certified else oracle.slice_residuals
    )
    return (Check("sigma_additivity", add, add_wit, tol, add_miss),
            Check("factorizability", fac, fac_wit, tol, fac_miss))


def _slice_screen(oracle: KernelOracle) -> tuple[tuple, tuple] | None:
    """Upper bounds of the worst residuals of `_slice_pass`, each with the
    witness of the candidate attaining it, from the oracle's factor; None
    when some slice's words are not closed under the products by the events
    at its points.

    The factor gives each pair (word i, initial vector a) a column x_ia of
    the coordinates X = conj(L), with ``T[i, j][a, c] = x_ia* x_jc`` to
    within ``e = rho + delta / 2 + eta`` for every entry: the factor's
    residual bound rho, half its Hermitian defect delta, and
    ``eta = (q + 1)^2 eps tau``, an allowance for the rounding of the sums
    of at most q + 1 entries that the exact pass forms (q outcomes at the
    point; tau = mu^2 + rho + delta / 2 bounds every entry, mu the largest
    column norm).

    At a point t of a slice, i.b is the product of word i by the event b@t,
    and f_i is the factor of word i at t.  The parts p of a partition of f_i
    (m of them; none when f_i is empty) are distinct nonempty proper subsets
    of f_i when m > 1, and the atoms of i.p are the i.x for x in p.  Two
    per-word atom terms then bound every partition at once:

    - the gap ``g_i = X_i - sum_(x in f_i) X_(i.x)`` (the whole X_i when
      f_i is empty), |g_i| its largest column norm.  Linear additivity
      ``T[c, i] - sum_p T[c, i.p]`` is ``X_c* (g_i - sum_p g_(i.p))`` to
      within (m + 1) e per entry, so at most
      ``mu (|g_i| + sum_p |g_(i.p)|) + (|f_i| + 1) e``;
    - the atom defect ``d_i = T[i, i] - sum_(x in f_i) T[i.x, i.x]``, on a
      valid table the sum of the atoms' cross terms.  Diagonal additivity
      ``T[i, i] - sum_p T[i.p, i.p]`` is ``d_i - sum_p d_(i.p)``, so at most
      ``|d_i|_2 + sum_p |d_(i.p)|_2 + (|f_i| + 1) kdim eta``.

    Each sum over p is taken over every nonempty proper subset of f_i.

    Factorizability of an event b compares ``T[i.b, j]`` with ``T[i, j.b]``
    over the slice: the matrix ``B A* - A B*`` to within 2e, where the rows
    of A are the slice's conjugate columns and those of B their products by
    b.  B is the sum over x in b of the atom products B_x, plus a
    remainder whose row (i, a) has norm at most
    ``|g_(i.b)| + |b - f_i| |g_(i.empty)|``.  The atom terms come from one
    thin QR ``[A, B_1, ..., B_q] = Q [R_A, R_1, ..., R_q]``: since
    ``B_x A* - A B_x* = Q (R_x R_A* - R_A R_x*) Q*``, the Frobenius norm
    phi_x of the small matrix bounds every entry of the large one.  phi_x
    gets the allowance ``c eps |[A, B_1, ..., B_q]|_F^2`` for the QR's
    rounding (c columns).  So every entry is at most
    ``sum_(x in b) phi_x + 2 mu_l max_i |remainder_i| + 2e``, mu_l the
    slice's largest column norm.

    That is O(N_l kdim (q r)^2) per slice point, and no N_l x N_l block is
    gathered.  The candidates the exact pass skips (a word whose
    factor is one outcome, an event that fixes every word) are skipped here
    too, and the witnesses have its wording.
    """
    if not oracle.words:
        return None
    factor = oracle.cholesky
    site, spaces, n, k = oracle.site, oracle.spaces, len(oracle.words), oracle.kdim
    eps, r = np.finfo(float).eps, factor.rows.shape[0]
    z = factor.rows.T.reshape(n, k, r)  # row (i, a): conj(x_ia)
    norm2 = (z.real**2 + z.imag**2).sum(axis=2)  # squared column norms, (n, k)
    mu = float(np.sqrt(norm2.max(initial=0.0)))
    entry = factor.residual + factor.hermitian_defect / 2
    tau = mu * mu + entry
    diag = oracle.table[np.arange(n), np.arange(n)]
    add, fac = (0.0, "", None), (0.0, "", None)
    for l in site.maximal_antichains:
        idx = np.array(oracle.words_within(site.down_set(l)), dtype=int)
        if not idx.size:
            continue
        a = z[idx].reshape(idx.size * k, r)
        mu_l = float(np.sqrt(norm2[idx].max()))
        for t in sorted(l, key=site.index):
            outs = spaces.outcomes(t)
            q = len(outs)
            # the empty event, the atoms, then the events the exact pass takes
            events = [frozenset(), *(frozenset({x}) for x in outs), *subsets(outs)]
            full = frozenset(outs)  # its event is the unit word
            maps = np.array([
                oracle.right_products(EventWord(((t, b),) if b != full else ()))[idx]
                for b in events]).reshape(len(events), idx.size)
            if (maps < 0).any():
                return None
            at = np.searchsorted(idx, maps)  # products stay in the slice
            inside = np.array([[x in b for x in outs] for b in events[q + 1:]],
                              dtype=bool).reshape(len(events) - q - 1, q)
            empty, atoms, at = at[0], at[1:q + 1], at[q + 1:]
            member = atoms != empty  # (q, N_l): x is in the word's factor
            size = member.sum(axis=0)
            eta = (q + 1) ** 2 * eps * tau
            e = entry + eta
            y = z[idx[atoms]]  # (q, N_l, k, r)
            gap = z[idx] - (y * member[..., None, None]).sum(axis=0)
            g = np.sqrt((gap.real**2 + gap.imag**2).sum(axis=2)).max(axis=1)
            d = diag[idx] - (diag[idx[atoms]] * member[..., None, None]).sum(axis=0)
            d = linalg.opnorms(d)
            outside = (inside[:, :, None] & ~member[None]).sum(axis=1)  # |b - f_i|
            fixed = at == np.arange(idx.size)
            # whether b is a nonempty proper subset of f_i, per event and word
            proper = (outside == 0) & ~fixed & inside.any(axis=1)[:, None]
            lin = mu * (g + (g[at] * proper).sum(axis=0)) + (size + 1) * e
            dia = d + (d[at] * proper).sum(axis=0) + (size + 1) * k * eta
            for kind, res in enumerate((dia, lin)):
                res = np.where(size != 1, res, 0.0)
                i = int(np.argmax(res))
                if res[i] > add[0]:
                    add = (float(res[i]), (
                        f"{('diagonal', 'linear')[kind]} additivity of "
                        f"{_word_label(oracle.words[idx[i]])} split at {t!r}"
                    ), None)
            phi = np.zeros(q)
            if r:
                ab = np.concatenate([a, *y.reshape(q, idx.size * k, r)], axis=1)
                rr = np.linalg.qr(ab, mode="r")
                ra, rx = rr[:, :r], rr[:, r:].reshape(-1, q, r).transpose(1, 0, 2)
                m = rx @ linalg.dagger(ra) - ra @ linalg.dagger(rx)
                phi = np.sqrt((m.real**2 + m.imag**2).sum(axis=(1, 2)))
                phi += ab.shape[1] * eps * float((ab.real**2 + ab.imag**2).sum())
            rest = (g[at] + outside * g[empty]).max(axis=1)
            bound = inside @ phi + 2 * mu_l * rest + 2 * e
            bound[fixed.all(axis=1)] = 0.0  # every product is its word
            j = int(np.argmax(bound))
            if bound[j] > fac[0]:
                b = events[q + 1 + j]
                fac = (float(bound[j]), f"event {sorted(b)}@{t!r} on slice {sorted(l)}",
                       None)
    return add, fac


def _slice_pass(oracle: KernelOracle) -> tuple[tuple, tuple]:
    """The worst residual, witness and missing-data note of sigma additivity
    and of factorizability, from one exact pass over the maximal slices.

    `check_slice_axioms` runs it only when the screen (`_slice_screen`) does
    not certify a pass: on a word list that is not closed under the slices'
    products, or when a bound exceeds the tolerance.  It gathers each slice's
    N_l x N_l table block once per event, and every word's table column per
    partition, so it costs O(N N_l kdim^2) per slice point.

    For each point t of a slice and each event b at t, the oracle's
    right-product map of b gives the products of the slice's words.
    Factorizability compares the table's rows and columns through that index
    map; additivity sums, for each word, the maps of the parts of its factor
    at t (the parts refine the factor, so right multiplication installs
    them).  Each witness is the first worst candidate in slice, word, point,
    partition order.
    """
    site, spaces, table = oracle.site, oracle.spaces, oracle.table
    add_worst, add_witness, add_missing = 0.0, "", None
    fac_worst, fac_witness, fac_missing = 0.0, "", None
    for l in site.maximal_antichains:
        idx = np.array(oracle.words_within(site.down_set(l)), dtype=int)
        if not idx.size:
            continue
        words = [oracle.words[i] for i in idx]  # for witnesses
        points = sorted(l, key=site.index)
        found, gaps = [], []  # additivity residuals and missing parts, keyed
        # the slice's table block, contiguous, and buffers for every event
        block = np.ascontiguousarray(table[np.ix_(idx, idx)])
        rows, cols = np.empty_like(block), np.empty_like(block)
        mods = np.empty(block.shape)
        for tp, t in enumerate(points):
            outs = spaces.outcomes(t)
            maps, full = {}, frozenset(outs)  # the full factor's event is the unit word
            for b in subsets(outs):
                maps[b] = oracle.right_products(EventWord(((t, b),) if b != full else ()))[idx]
                if (maps[b] < 0).any():
                    fac_missing = fac_missing or (
                        f"{_word_label(words[np.argmax(maps[b] < 0)])} multiplied by "
                        f"{sorted(b)}@{t!r} is outside the word list"
                    )
                    continue
                if (maps[b] == idx).all():
                    continue  # every product is its word: the residual is 0
                # products stay below the slice, so `at` is in range: the
                # unbuffered "clip" mode never clips
                at = np.searchsorted(idx, maps[b])
                np.take(block, at, axis=0, out=rows, mode="clip")
                np.take(block, at, axis=1, out=cols, mode="clip")
                r = float(np.max(np.abs(np.subtract(rows, cols, out=rows), out=mods)))
                if r > fac_worst:
                    fac_worst, fac_witness = r, (
                        f"event {sorted(b)}@{t!r} on slice {sorted(l)}"
                    )
            # the slice's words grouped by their factor at t, first seen first
            keys = code_keys(oracle.codes[idx][:, oracle._columns[t]])
            _, first, group = np.unique(keys, return_index=True, return_inverse=True)
            for g in np.argsort(first):
                pos = np.flatnonzero(group == g)
                f = words[pos[0]].factor(t, spaces)
                for k, parts in enumerate(partitions_of_factor(outs, f)):
                    if len(parts) <= 1 and f:
                        continue
                    j = np.array([maps[p][pos] for p in parts], dtype=int)
                    j = j.reshape(len(parts), pos.size)
                    present = (j >= 0).all(axis=0)
                    gaps.extend((p, tp) for p in pos[~present])
                    if present.any():
                        found.append(_additivity_residuals(
                            table, idx[pos[present]], j[:, present]
                        ) + (pos[present], tp, k))
        if gaps and add_missing is None:
            p, tp = min(gaps)
            add_missing = (
                f"partition members of {_word_label(words[p])} at {points[tp]!r} "
                "are outside the word list"
            )
        r, at = _first_worst(found)
        if r > add_worst:
            p, tp, _, kind = at
            add_worst, add_witness = r, (
                f"{('diagonal', 'linear')[kind]} additivity of "
                f"{_word_label(words[p])} split at {points[tp]!r}"
            )
    return (add_worst, add_witness, add_missing), (fac_worst, fac_witness, fac_missing)


def _additivity_residuals(table, i, parts):
    """Diagonal (operator norm) and linear (largest entry) additivity
    residuals of the words `i`, whose factor parts sit at the table indices
    `parts` (one row per part)."""
    diag = np.zeros((i.size,) + table.shape[2:], dtype=COMPLEX)
    column = 0
    for row in parts:
        diag = diag + table[row, row]
        column = column + table[:, row]
    r_diag = linalg.opnorms(table[i, i] - diag)
    return r_diag, np.abs(table[:, i] - column).max(axis=(0, 2, 3))


def _first_worst(found) -> tuple[float, tuple | None]:
    """The largest positive residual among the candidates ``(r_diag, r_lin,
    pos, tp, k)`` and the least key ``(pos, tp, k, kind)`` attaining it,
    kind 0 diagonal and 1 linear: what a sequential sweep with a strict
    comparison finds."""
    best, key = 0.0, None
    for r_diag, r_lin, pos, tp, k in found:
        for kind, r in enumerate((r_diag, r_lin)):
            top = float(r.max())
            if top == 0.0 or top < best:
                continue
            cand = (int(pos[r == top].min()), tp, k, kind)
            if top > best or cand < key:
                best, key = top, cand
    return best, key


def check_covariance(
    oracle: KernelOracle, config: RunConfig = RunConfig()
) -> Check:
    """Transported word pairs must reproduce the kernel conjugated by the
    initial-space isometry, for every symmetry element."""
    tol = config.axiom_tol
    if not oracle.symmetry:
        return Check("covariance", 0.0, "no symmetry declared (trivial action)", tol)
    worst, witness = 0.0, ""
    missing: str | None = None
    for s, sym in oracle.symmetry.items():
        eligible, images = oracle.transported(s)
        listed = images >= 0
        if missing is None and not listed.all():
            w = oracle._pull_back(s, eligible[np.argmin(listed)])
            missing = (
                f"transported word {_word_label(w)} under {s!r} is outside the word list"
            )
        u = np.asarray(sym.op, dtype=COMPLEX)
        if np.array_equal(images, eligible) and np.array_equal(u, np.eye(oracle.kdim)):
            continue  # every word is its own image and u = I: the residual is 0
        src, dst = eligible[listed], images[listed]
        lhs = np.einsum(
            "ba,ijbc,cd->ijad", np.conjugate(u), oracle.table[np.ix_(src, src)], u,
            optimize=True,
        )
        r, at = linalg.worst_block(lhs - oracle.table[np.ix_(dst, dst)])
        if r > worst:
            i, j = (src[a] for a in at)
            worst, witness = r, (
                f"{s!r} on pair ({_word_label(oracle.words[i])}, "
                f"{_word_label(oracle.words[j])})"
            )
    return Check("covariance", worst, witness, tol, missing)


def check_projectivity(
    oracle: KernelOracle, config: RunConfig = RunConfig(), pair_cap: int = 64
) -> Check:
    """Unit extension invariance, exact in the canonical word encoding, plus,
    with a realizing model, the largest `models.unit_nesting` bound
    ``|L| |I_k| + |I_k| |R| + |L| |R|`` over the bases k < j: a pass bounds
    every base-compressed kernel block by the tolerance when the products are
    contractions.  No word is read; `pair_cap` is unused."""
    tol = config.axiom_tol
    model = oracle.model
    if model is None:
        return Check(
            "projectivity", 0.0,
            "extension invariance only (no realizing model attached)", tol,
        )
    blocks = [frozenset()] + [frozenset({t}) for t in oracle.site.points]
    pairs, l, u, r = unit_nesting(model, oracle.site, blocks)
    worst, witness = linalg.worst(
        np.where([k != j for k, j in pairs], l * u + u * r + l * r, 0.0),
        lambda i: "compression from base {} to {}".format(*map(sorted, pairs[i][::-1])),
    )
    return Check("projectivity", worst, witness, tol)


def check_regularity(
    oracle: KernelOracle, config: RunConfig = RunConfig()
) -> Check:
    """Asymptotic noncorrelation with the distant past.

    Read in the quotient coordinates ``X = sqrt(lam) V*`` of the oracle's
    `gram_factor`.  Per minimal slice, E_l projects onto the span of the
    words below it, cut at `rank_tol` as a pseudo-inverse of their Gram
    matrix is; B, the eigenvectors of E_l - P0 above 1/2, spans its excess
    over the unit word's span, and a word's defect is the largest singular
    value of B* X_w.  The limit over the slice net is the minimum over the
    minimal slices; zero says the slice spans shrink to the initial space.
    """
    site = oracle.site
    tol = config.regularity_tol
    minimal = site.minimal_antichains()
    if not minimal:
        return Check("regularity", 0.0, "empty site", tol)
    factor = oracle.gram_factor(config.rank_tol)
    v, root = factor.vectors, np.sqrt(factor.values)[:, None]
    rows = np.arange(v.shape[0]).reshape(len(oracle.words), oracle.kdim)  # V rows by word
    x_e = root * linalg.dagger(v[rows[oracle.unit_index()]])
    per_slice: list[tuple[float, str]] = []
    for l in minimal:
        x_l = root * linalg.dagger(v[rows[oracle.words_within(site.down_set(l))].ravel()])
        q, sv, _ = np.linalg.svd(x_l, full_matrices=False)
        q = q[:, linalg.svd_cut(sv * sv, config.rank_tol)]  # E_l = q q*
        # E_l - P0 in the basis q, as the unit word's span lies in E_l's
        qe = linalg.dagger(q) @ x_e
        vals, vecs = np.linalg.eigh(linalg.hermitize(np.eye(len(qe)) - qe @ linalg.dagger(qe)))
        b = q @ vecs[:, vals > 0.5]
        # the adjoint of each word's B* X_w is its k rows of V sqrt(lam) B
        xb = (v @ (root * b)).reshape(*rows.shape, b.shape[1])
        per_slice.append(linalg.worst(
            linalg.opnorms(xb), lambda w: _word_label(oracle.words[w])
        ))
    best = min(per_slice, key=lambda p: p[0])
    l_min = minimal[per_slice.index(best)]
    witness = f"word {best[1]} against slice {sorted(l_min)}" if best[1] else ""
    return Check("regularity", best[0], witness, tol)


def check_axioms(oracle: KernelOracle, config: RunConfig = RunConfig()) -> Report:
    positivity = check_positivity(oracle, config)
    normalization = check_normalization(oracle, config)
    additivity, factorizability = check_slice_axioms(oracle, config)
    return Report((
        positivity,
        normalization,
        additivity,
        factorizability,
        check_covariance(oracle, config),
        check_projectivity(oracle, config),
    ), "axioms")


def _word_label(w: EventWord) -> str:
    return "e" if w.is_unit() else event_label(w)

"""The residual screen: `linalg.opnorms` and `linalg.worst`, and the checks
that find their worst residual and witness through them.

The reference functions below are the sequential sweeps the checks ran
before: one `opnorm` per candidate, keeping the first residual above the
running worst.  The checks must reproduce them bit for bit, residual floats
and witness strings alike.
"""

import itertools

import numpy as np
import pytest

from qsproc import fixtures, linalg
from qsproc.bridges import (
    ReductionRefused,
    _probabilities,
    _subsite,
    classical_reduce,
    interference_witness,
    level_point,
    lift_process,
    enumerate_level_words,
    verify_lift,
)
from qsproc.config import RunConfig
from qsproc.equivalence import check_model_relation
from qsproc.linalg import COMPLEX, dagger
from qsproc.markov import (
    PERTURBATION_SEED,
    _limit_states,
    _ordered_slices,
    _rotate_slice_atoms,
    _slice_columns,
    _slice_events,
    check_dynamicity,
    check_narrow_commutativity,
    check_regression,
    check_relaxation,
    slice_algebra,
    slice_projector,
)
from qsproc.models import HilbertModel, _blocks_within, check_model
from qsproc.reconstruct import reconstruct
from qsproc.sites import derive_classes, discrete_site
from qsproc.words import (
    POLICY_ALL_SUBSETS,
    POLICY_ATOMS_PLUS_UNIT,
    EventWord,
    OutcomeSpaces,
    enumerate_words,
    event_label,
    partitions_of_factor,
    subsets,
)


# -- the sequential sweeps, as the checks ran them before -----------------------


def opnorm(a) -> float:
    """The single-matrix operator norm the sweeps took: the modulus of a
    1 x 1 matrix, else the largest singular value of one SVD."""
    a = np.atleast_2d(np.asarray(a, dtype=COMPLEX))
    if a.size == 0:
        return 0.0
    if a.size == 1:
        return float(abs(a[0, 0]))
    return float(np.linalg.norm(a, 2))


def projector_defect_reference(p):
    return max(opnorm(p @ p - p), opnorm(p - dagger(p)))


def check_model_reference(model, site, site_sym=None, config=RunConfig()):
    """(condition, residual, witness) of every `check_model` entry."""
    classes = derive_classes(site)
    entries = []

    def record(condition, residual, witness):
        entries.append((condition, float(residual), witness))

    eye = model.identity()
    record(
        "embedding_isometry",
        opnorm(dagger(model.embedding) @ model.embedding - np.eye(model.kdim)),
        "initial embedding",
    )
    for t in site.points:
        outs = model.spaces.outcomes(t)
        worst_p, wit_p = 0.0, ""
        for x in outs:
            r = projector_defect_reference(model.atoms[t][x])
            if r > worst_p:
                worst_p, wit_p = r, f"atom {x!r} at {t!r}"
        record("projector", worst_p, wit_p)
        worst_o, wit_o = 0.0, ""
        for x, y in itertools.combinations(outs, 2):
            r = opnorm(model.atoms[t][x] @ model.atoms[t][y])
            if r > worst_o:
                worst_o, wit_o = r, f"atoms {x!r},{y!r} at {t!r}"
        record("orthogonality", worst_o, wit_o)
        r = opnorm(model.point_unit(t) - model.unit_p({t}))
        record("resolution", r, f"sum of the atoms at {t!r}" if r > 0.0 else "")

    worst_eq, wit_eq = 0.0, ""
    worst_ind, wit_ind = 0.0, ""
    for a, b in itertools.combinations(site.points, 2):
        rel_eq = site.equivalent(a, b)
        rel_ind = site.independent(a, b)
        if not (rel_eq or rel_ind):
            continue
        for ba in subsets(model.spaces.outcomes(a)):
            pa = model.point_projector(a, ba)
            for bb in subsets(model.spaces.outcomes(b)):
                pb = model.point_projector(b, bb)
                prod = pa @ pb
                r = max(opnorm(prod - pb @ pa), projector_defect_reference(prod))
                wit = f"events {sorted(ba)}@{a!r}, {sorted(bb)}@{b!r}"
                if rel_eq and r > worst_eq:
                    worst_eq, wit_eq = r, wit
                if rel_ind and r > worst_ind:
                    worst_ind, wit_ind = r, wit
    record("equivalent_compatibility", worst_eq, wit_eq)
    record("independent_compatibility", worst_ind, wit_ind)

    worst_u, wit_u = 0.0, ""
    for l in classes.maximal_antichains:
        blocks = _blocks_within(classes, l)
        meet = linalg.meet_projectors(
            [model.unit_p(k) for k in blocks] + [eye], config.rank_tol
        )
        join = linalg.join_projectors(
            [model.unit_i(k) for k in blocks] + [model.initial_projector()],
            config.rank_tol,
        )
        r = opnorm(meet - join)
        if r > worst_u:
            worst_u, wit_u = r, f"slice {sorted(l)}"
    record("unit_balance", worst_u, wit_u)

    record("unit_monotone", *unit_monotone_reference(model, site, classes))

    worst_c, wit_c = 0.0, ""
    for k, gens in model.algebra.items():
        for t in k:
            for b in subsets(model.spaces.outcomes(t)):
                p = model.point_projector(t, b)
                for gi, g in enumerate(gens):
                    r = opnorm(p @ g - g @ p)
                    if r > worst_c:
                        worst_c, wit_c = r, (
                            f"event {sorted(b)}@{t!r} vs generator {gi} of {sorted(k)}"
                        )
    record("algebra_commutation", worst_c, wit_c)

    worst_s, wit_s = 0.0, ""
    for s, ms in model.symmetry.items():
        v = np.asarray(ms.v, dtype=COMPLEX)
        r_iso = opnorm(dagger(v) @ v - eye)
        if r_iso > worst_s:
            worst_s, wit_s = r_iso, f"isometry of {s!r}"
        pmap = dict(site_sym.maps[s]) if site_sym and s in site_sym.maps else {}
        for t, st in pmap.items():
            g = ms.outcome_maps[t]
            for b in subsets(model.spaces.outcomes(st)):
                bs = frozenset(x for x in model.spaces.outcomes(t) if g[x] in b)
                lhs = v @ model.point_projector(t, bs)
                rhs = model.point_projector(st, b) @ v @ model.unit_p({t})
                r = opnorm(lhs - rhs)
                if r > worst_s:
                    worst_s, wit_s = r, f"{s!r} at {t!r} with event {sorted(b)}"
    record("covariance", worst_s, wit_s)
    return entries


def unit_monotone_reference(model, site, classes):
    """The nesting of the essential units above the initial projector: the
    larger of |I_j I_k* - I_k| and |I_j I_k - I_k| over the blocks k <= j."""
    blocks = sorted(
        {frozenset()} | set(model.units_i) | {frozenset({t}) for t in site.points},
        key=lambda k: sorted(map(site.index, k)),
    )
    worst, wit = 0.0, ""
    for k, j in itertools.product(blocks, repeat=2):
        if not classes.subset_le(k, j):
            continue
        ik, ij = model.unit_i(k), model.unit_i(j)
        r = max(opnorm(ij @ dagger(ik) - ik), opnorm(ij @ ik - ik))
        if r > worst:
            worst, wit = r, f"{sorted(k)} <= {sorted(j)}"
    return worst, wit


def unit_monotone_parent(model, site, classes):
    """The entry's earlier formula: |I_k I_j - I_k| over the nonempty blocks
    k <= j, without the initial projector and the I_k* term."""
    worst, wit = 0.0, ""
    keyset = set(model.units_i) | {frozenset({t}) for t in site.points}
    for k, kp in itertools.product(keyset, repeat=2):
        if not k or not kp or not classes.subset_le(k, kp):
            continue
        ik, ikp = model.unit_i(k), model.unit_i(kp)
        r = opnorm(ik @ ikp - ik)
        if r > worst:
            worst, wit = r, f"{sorted(k)} <= {sorted(kp)}"
    return worst, wit


def dynamicity_reference(model, site, config=RunConfig()):
    classes = derive_classes(site)
    worst_m, wit_m = 0.0, ""
    worst_w, wit_w = 0.0, ""
    for l in classes.maximal_antichains:
        e_l = slice_projector(model, classes, l, config)
        alg = slice_algebra(model, classes, l, e_l)
        for lp in classes.maximal_antichains:
            if not classes.subset_le(l, lp):
                continue
            for ev in _slice_events(model, site, lp):
                op = model.block_projector(site, ev)
                compressed = e_l @ op @ e_l
                d = alg.membership_distance(compressed)
                if d > worst_m:
                    worst_m, wit_m = d, (
                        f"event {event_label(ev)} compressed to slice {sorted(l)}"
                    )
                for t in sorted(l, key=site.index):
                    for x in model.spaces.outcomes(t):
                        own = e_l @ model.atoms[t][x] @ e_l
                        c = opnorm(compressed @ own - own @ compressed)
                        if c > worst_w:
                            worst_w, wit_w = c, (
                                f"[{event_label(ev)} compressed, atom {x!r}@{t!r}]"
                            )
    return [("dynamicity", worst_m, wit_m), ("weak_commutativity", worst_w, wit_w)]


def composition_reference(model, site, config=RunConfig()):
    """The `regression_composition` entry of `check_regression`."""
    classes = derive_classes(site)
    slices = _ordered_slices(classes)
    e_proj = {l: slice_projector(model, classes, l, config) for l in slices}
    emb = model.embedding
    basis = {
        l: slice_algebra(model, classes, l, e_proj[l]).basis_operators() for l in slices
    }
    worst_c, wit_c = 0.0, ""
    for i, l in enumerate(slices):
        for j in range(i, len(slices)):
            lp = slices[j]
            for a in basis[lp]:
                theta = e_proj[l] @ a @ e_proj[l]
                lhs = dagger(emb) @ theta @ emb
                rhs = dagger(emb) @ a @ emb
                r = opnorm(lhs - rhs)
                if r > worst_c:
                    worst_c, wit_c = r, (
                        f"initial compression through slice {sorted(l)} of an "
                        f"operator on slice {sorted(lp)}"
                    )
                for i0 in range(i + 1):
                    l0 = slices[i0]
                    lhs2 = e_proj[l0] @ theta @ e_proj[l0]
                    rhs2 = e_proj[l0] @ a @ e_proj[l0]
                    r2 = opnorm(lhs2 - rhs2)
                    if r2 > worst_c:
                        worst_c, wit_c = r2, (
                            f"compression to slice {sorted(l0)} through {sorted(l)}"
                        )
    return ("regression_composition", worst_c, wit_c)


def narrow_commutativity_reference(model, site):
    classes = derive_classes(site)
    worst, wit = 0.0, ""
    for l, lp in itertools.product(classes.maximal_antichains, repeat=2):
        if l == lp or not classes.subset_le(l, lp):
            continue
        for t, tp in itertools.product(sorted(l), sorted(lp)):
            for x, xp in itertools.product(
                model.spaces.outcomes(t), model.spaces.outcomes(tp)
            ):
                a, b = model.atoms[t][x], model.atoms[tp][xp]
                r = opnorm(a @ b - b @ a)
                if r > worst:
                    worst, wit = r, f"[{x!r}@{t!r}, {xp!r}@{tp!r}]"
    return ("narrow_commutativity", worst, wit)


def relaxation_reference(model, site, config=RunConfig()):
    classes = derive_classes(site)
    words = enumerate_words(site, model.spaces, config.policy, config.cap)
    minimal = classes.minimal_antichains()
    p0 = model.initial_projector()
    columns = {l: _slice_columns(model, site, words, l) for l in classes.maximal_antichains}
    span = {
        l: linalg.projector_onto_columns(c, config.rank_tol) for l, c in columns.items()
    }
    algebras = {l: slice_algebra(model, classes, l, span[l]) for l in span}
    worst, wit = 0.0, ""
    for l0 in minimal:
        e_l0 = span[l0]
        for l in classes.maximal_antichains:
            if not classes.subset_le(l0, l):
                continue
            for a in algebras[l].basis_operators():
                r = opnorm(e_l0 @ a @ e_l0 - p0 @ a @ p0)
                if r > worst:
                    worst, wit = r, (
                        f"operator on slice {sorted(l)} compressed to {sorted(l0)}"
                    )
    worst_i, wit_i = 0.0, ""
    rng = np.random.default_rng(PERTURBATION_SEED)
    for l0 in minimal:
        perturbed = _rotate_slice_atoms(model, l0, rng)
        e_l0 = span[l0]
        e_l0_pert = linalg.projector_onto_columns(
            _slice_columns(perturbed, site, words, l0), config.rank_tol
        )
        cols = columns[l0]
        norms = np.linalg.norm(cols, axis=0)
        vecs = cols[:, norms >= 1e-12] / norms[norms >= 1e-12]
        for l in classes.maximal_antichains:
            if not classes.subset_le(l0, l):
                continue
            for a in algebras[l].basis_operators():
                base = _limit_states(vecs, e_l0, a)
                moved = _limit_states(vecs, e_l0_pert, a)
                r = float(np.max(np.abs(base - moved))) if base.size else 0.0
                if r > worst_i:
                    worst_i, wit_i = r, (
                        f"limit state on slice {sorted(l)} after replacing the "
                        f"measurements on {sorted(l0)}"
                    )
    return [("relaxation", worst, wit), ("limit_state_independence", worst_i, wit_i)]


def lift_reference(field_atoms, initial, depth, spaces, config=RunConfig()):
    """The constant-unit, narrow-unit and level-independence entries of
    `verify_lift`."""
    model, site, sym = lift_process(field_atoms, initial, depth, spaces)
    words = enumerate_level_words(model, site, config)
    oracle = model.kernel_table(site, list(words), site_sym=sym)
    recon = reconstruct(oracle, config, strict_closure=False)
    worst_c, wit_c = 0.0, ""
    for (la, pa), (lb, pb) in itertools.combinations(recon.lattice.slices.items(), 2):
        r = opnorm(pa - pb)
        if r > worst_c:
            worst_c, wit_c = r, f"slice spans {sorted(la)} vs {sorted(lb)}"
    worst_n, wit_n = 0.0, ""
    eye = np.eye(recon.rank, dtype=COMPLEX)
    for k, p in recon.lattice.joins.items():
        r = opnorm(p - eye)
        if r > worst_n:
            worst_n, wit_n = r, f"unit of block {sorted(k)}"
    worst_l, wit_l = 0.0, ""
    for x in site.meta["positions"]:
        for la, lb in itertools.combinations(range(1, depth), 2):
            ta, tb = level_point(la, x), level_point(lb, x)
            for o in model.spaces.outcomes(ta):
                r = opnorm(recon.model.atoms[ta][o] - recon.model.atoms[tb][o])
                if r > worst_l:
                    worst_l, wit_l = r, f"atom {o!r} of {x!r} at levels {la},{lb}"
    return {
        "constant_slice_units": (worst_c, wit_c),
        "narrow_units_on_minimal_space": (worst_n, wit_n),
        "level_independent_events": (worst_l, wit_l),
    }


def interference_reference(model, site, t_marginal, config=RunConfig()):
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
    worst = 0.0
    for b in base:
        for parts in partitions:
            summed = 0.0
            for _ in parts:
                summed += next(split)
            worst = max(worst, abs(b - summed))
    return worst


def classical_reference(model, site, config=RunConfig()):
    """The refusal message of `classical_reduce`, or its marginal residual."""
    worst_comm, comm_wit = 0.0, ""
    for a, b in itertools.combinations(site.points, 2):
        for x, y in itertools.product(
            model.spaces.outcomes(a), model.spaces.outcomes(b)
        ):
            pa, pb = model.atoms[a][x], model.atoms[b][y]
            r = opnorm(pa @ pb - pb @ pa)
            if r > worst_comm:
                worst_comm, comm_wit = r, f"[{x!r}@{a!r}, {y!r}@{b!r}]"
    if worst_comm > config.commutativity_tol:
        witness = None
        for t in site.points:
            if any(site.strictly_precedes(t, u) for u in site.points):
                defect = interference_reference(model, site, t, config)
                if defect > config.classical_tol:
                    witness = f"marginalizing {t!r} changes later statistics by {defect:.3g}"
                    break
        witness = witness or f"commutator {comm_wit} has norm {worst_comm:.3g}"
        return "the model does not commute, so its distribution is not additive: " + witness
    pts = tuple(site.points)
    outs = [model.spaces.outcomes(t) for t in pts]
    mass = np.array(_probabilities(model, site, [
        EventWord.from_dict({t: {x} for t, x in zip(pts, traj)}, model.spaces)
        for traj in itertools.product(*outs)
    ])).reshape([len(o) for o in outs])
    worst_marg = 0.0
    if len(pts) > 1:
        for drop in range(len(pts)):
            sub_pts = pts[:drop] + pts[drop + 1:]
            direct = _probabilities(model, _subsite(site, sub_pts), [
                EventWord.from_dict({t: {x} for t, x in zip(sub_pts, traj)}, model.spaces)
                for traj in itertools.product(*outs[:drop], *outs[drop + 1:])
            ])
            summed = mass.sum(axis=drop).ravel()
            worst_marg = max(worst_marg, float(np.max(np.abs(direct - summed))))
    return worst_marg


def relation_reference(m_small, m_big, u, site, site_sym=None):
    """(isometry, event, algebra, symmetry) residuals of `check_model_relation`."""
    iso = opnorm(dagger(u) @ u - np.eye(m_small.dim))
    ev = 0.0
    for t in site.points:
        p_small = m_small.unit_p({t})
        for b in subsets(m_small.spaces.outcomes(t)):
            lhs = u @ (m_small.point_projector(t, b) @ p_small)
            rhs = m_big.point_projector(t, b) @ u @ p_small
            ev = max(ev, opnorm(lhs - rhs))
    al = 0.0
    for k, gens in m_small.algebra.items():
        gens_big = m_big.algebra.get(k, ())
        i_small = m_small.unit_i(k)
        for g_small, g_big in zip(gens, gens_big):
            al = max(al, opnorm(u @ g_small - g_big @ u @ i_small))
    sy = 0.0
    for s, ms in m_small.symmetry.items():
        if s not in m_big.symmetry:
            continue
        sy = max(sy, opnorm(u @ ms.v - m_big.symmetry[s].v @ u))
    if site_sym is not None:
        for s, ms in m_small.symmetry.items():
            for t, st in dict(site_sym.maps.get(s, {})).items():
                i_t, i_st = m_small.unit_i({t}), m_small.unit_i({st})
                p_t, p_st = m_small.unit_p({t}), m_small.unit_p({st})
                sy = max(sy, opnorm(ms.v @ i_t - i_st @ ms.v @ i_t))
                sy = max(sy, opnorm(ms.v @ p_t - p_st @ ms.v @ p_t))
    return float(iso), float(ev), float(al), float(sy)


# -- inputs ----------------------------------------------------------------------


def noncommuting_discrete():
    """X and Z devices at two unordered points: no point precedes another,
    so a refused reduction names the commutator."""
    site = discrete_site(("a", "b"))
    spaces = OutcomeSpaces({"a": ("0", "1"), "b": ("+", "-")})
    atoms = {"a": dict(fixtures.Z_ATOMS), "b": dict(fixtures.X_ATOMS)}
    model = HilbertModel(dim=2, embedding=fixtures.KET0, atoms=atoms, spaces=spaces)
    return model, site


MODELS = {
    **{f"random_valid_model({s})": (lambda s=s: fixtures.random_valid_model(s) + (None,))
       for s in range(12)},
    **{f"tensor_chain({n})": (lambda n=n: fixtures.tensor_chain(n) + (None,))
       for n in (2, 3, 4)},
    "qubit_zx": lambda: fixtures.qubit_zx() + (None,),
    "qubit_xz": lambda: fixtures.qubit_xz() + (None,),
    "galilean": fixtures.galilean_shift_fixture,
    "galilean_broken": lambda: fixtures.galilean_shift_fixture(broken=True),
    "ancilla_correlated": lambda: fixtures.ancilla_correlated() + (None,),
    "commuting_diagonal": lambda: fixtures.commuting_diagonal() + (None,),
    "diagonal_kdim2": lambda: fixtures.diagonal_kdim2() + (None,),
    "controlled_kdim2": lambda: fixtures.controlled_kdim2() + (None,),
    "noncommuting_discrete": lambda: noncommuting_discrete() + (None,),
}


@pytest.fixture(params=sorted(MODELS), scope="module")
def case(request):
    return MODELS[request.param]()


def entries(report):
    return [(e.name, e.residual, e.witness) for e in report.checks]


# -- the checks against their sweeps ----------------------------------------------


def test_check_model_matches_sweep(case):
    model, site, sym = case
    expected = check_model_reference(model, site, sym)
    assert entries(check_model(model, site, site_sym=sym)) == expected


def test_unit_monotone_agrees_with_the_parent_formula(case):
    # the nesting adds the initial projector and the I_k* term; on these
    # models (Hermitian units above P0) it moves the residual by rounding only
    model, site, _ = case
    classes, tol = derive_classes(site), RunConfig().projector_tol
    new, _ = unit_monotone_reference(model, site, classes)
    old, _ = unit_monotone_parent(model, site, classes)
    assert (new <= tol) == (old <= tol)
    assert abs(new - old) <= 1e-15


def test_check_dynamicity_matches_sweep(case):
    model, site, _ = case
    assert entries(check_dynamicity(model, site)) == dynamicity_reference(model, site)


def test_check_regression_composition_matches_sweep(case):
    model, site, _ = case
    if _ordered_slices(derive_classes(site)) is None:
        pytest.skip("slices not totally ordered: no composition entry")
    report = check_regression(model, site)
    assert entries(report)[1] == composition_reference(model, site)


def test_check_narrow_commutativity_matches_sweep(case):
    model, site, _ = case
    if not model.is_narrow(site):
        with pytest.raises(ValueError, match="narrow-sense"):
            check_narrow_commutativity(model, site)
        return
    report = check_narrow_commutativity(model, site)
    assert entries(report)[0] == narrow_commutativity_reference(model, site)


def test_check_relaxation_matches_sweep(case):
    model, site, _ = case
    assert entries(check_relaxation(model, site)) == relaxation_reference(model, site)


def test_classical_reduce_matches_sweep(case):
    model, site, _ = case
    if model.kdim != 1 or not model.is_narrow(site):
        return  # refused before either sweep
    expected = classical_reference(model, site)
    try:
        got = classical_reduce(model, site).marginal_residual
    except ReductionRefused as exc:
        got = str(exc)
    assert got == expected


def test_interference_witness_matches_sweep(case):
    model, site, _ = case
    if model.kdim != 1:
        return
    for t in site.points:
        assert interference_witness(model, site, t) == interference_reference(model, site, t)


def test_check_model_relation_matches_sweep(case):
    model, site, sym = case
    padded = fixtures.with_untouched_ancilla(model, 2)
    inclusion = np.zeros((padded.dim, model.dim), dtype=COMPLEX)
    inclusion[: model.dim] = np.eye(model.dim)
    z = np.random.default_rng(3).standard_normal((padded.dim, model.dim, 2))
    rotated = np.linalg.qr(z[..., 0] + 1j * z[..., 1])[0]
    for u in (inclusion, rotated):
        m = check_model_relation(model, padded, u, site, site_sym=sym)
        got = (m.isometry_residual, m.event_residual, m.algebra_residual,
               m.symmetry_residual)
        assert got == relation_reference(model, padded, u, site, sym)


FIELDS = {
    "two_point_field": fixtures.two_point_field,
    # a level-dependent device makes every lift entry positive
    "rotated": lambda: (
        {"z": fixtures.rotated_atoms(0.9), "x": dict(fixtures.X_ATOMS)},
        fixtures.two_point_field()[1],
        fixtures.two_point_field()[2],
    ),
}


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_verify_lift_matches_sweep(field, depth):
    field_atoms, initial, spaces = FIELDS[field]()
    report = verify_lift(field_atoms, initial, depth, spaces)
    got = {e.name: (e.residual, e.witness) for e in report.checks}
    for condition, expected in lift_reference(field_atoms, initial, depth, spaces).items():
        assert got[condition] == expected


# -- the pairing formula ----------------------------------------------------------


def pair_blocks_einsum(stack):
    """The einsum the tables were formed by before `linalg.pair_blocks`."""
    return np.einsum("iak,jal->ijkl", np.conjugate(stack), stack, optimize=True)


PAIR_INPUTS = {
    **{f"random_valid_model({s})": (lambda s=s: fixtures.random_valid_model(s))
       for s in range(12)},
    **{f"tensor_chain({n})": (lambda n=n: fixtures.tensor_chain(n, canonical=False))
       for n in (3, 4, 5)},
    **{name: getattr(fixtures, name) for name in (
        "qubit_zx", "qubit_xz", "ancilla_correlated", "commuting_diagonal",
        "diagonal_kdim2", "controlled_kdim2", "galilean_shift_fixture",
    )},
}


@pytest.mark.parametrize("policy", [POLICY_ALL_SUBSETS, POLICY_ATOMS_PLUS_UNIT])
@pytest.mark.parametrize("name", sorted(PAIR_INPUTS))
def test_pair_blocks_keep_the_einsum_bits(name, policy):
    # the Gram form X* X would differ in the last bit on the 81-word lists
    # of the atoms policy; the transposed GEMM does not, at any thread count
    model, site = PAIR_INPUTS[name]()[:2]
    stack = model.products(site, enumerate_words(site, model.spaces, policy))
    got = linalg.pair_blocks(stack)
    assert got.shape == (len(stack),) * 2 + (model.kdim,) * 2
    assert np.array_equal(got, pair_blocks_einsum(stack))


# -- the helpers --------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 5), (5, 3), (1, 4), (4, 1),
                                   (8, 8), (16, 16), (33, 33), (64, 64)])
def test_opnorms_equal_opnorm(shape):
    rng = np.random.default_rng(sum(shape))
    scale = np.exp(rng.uniform(-20, 20, 50))[:, None, None]
    stack = scale * (rng.standard_normal((50, *shape)) + 1j * rng.standard_normal((50, *shape)))
    got = linalg.opnorms(stack)
    assert got.shape == (50,)
    assert got.tolist() == [opnorm(m) for m in stack]
    assert got.tolist() == [linalg.opnorm(m) for m in stack]
    assert linalg.opnorms(list(stack)).tolist() == got.tolist()


def test_opnorms_of_one_by_one_are_moduli():
    # a batched SVD of a 1x1 matrix need not reproduce |z| to the last bit
    rng = np.random.default_rng(0)
    z = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    z *= np.exp(rng.uniform(-300, 300, 500))
    assert linalg.opnorms(z.reshape(-1, 1, 1)).tolist() == [abs(x) for x in z]
    assert [linalg.opnorm(x) for x in z] == [abs(x) for x in z]


def test_opnorms_of_empty_stacks():
    assert linalg.opnorms([]).shape == (0,)
    assert linalg.opnorms(np.zeros((0, 3, 3))).shape == (0,)
    assert linalg.opnorms(np.zeros((4, 0, 2))).tolist() == [0.0] * 4


def test_projector_defect_takes_stacks():
    rng = np.random.default_rng(1)
    stack = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
    stack[0] = np.diag([1.0, 0.0, 1.0])
    got = linalg.projector_defect(stack)
    assert got.tolist() == [projector_defect_reference(p) for p in stack]
    assert got[0] == 0.0
    assert linalg.projector_defect(stack[1]) == got[1]


def test_worst_first_maximum_wins():
    labels = []

    def witness(i):
        labels.append(i)
        return f"item {i}"

    assert linalg.worst([0.5, 2.0, 1.0, 2.0], witness) == (2.0, "item 1")
    assert labels == [1]  # only the winner is formatted
    assert linalg.worst(np.array([[0.0, 3.0], [3.0, 1.0]]), str) == (3.0, "1")


def test_worst_without_positive_residual():
    def witness(i):
        raise AssertionError("no witness for a zero residual")

    assert linalg.worst([0.0, 0.0, 0.0], witness) == (0.0, "")
    assert linalg.worst([], witness) == (0.0, "")
    assert linalg.worst([0.0, float("nan")], witness) == (0.0, "")
    assert linalg.worst([1.5]) == (1.5, "")  # no witness asked for


def test_embedding_isometry_witness_is_unconditional():
    model, site = fixtures.qubit_zx()
    entry = check_model(model, site).checks[0]
    assert (entry.name, entry.residual, entry.witness) == (
        "embedding_isometry", 0.0, "initial embedding"
    )

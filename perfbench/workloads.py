"""Seeded inputs, reference answers and gated operations of the four workloads.

`build(name, seed, size, workdir)` is the set-up: it generates the inputs from
the seed, computes the reference answers with plain numpy (never with the
routine under test), and writes the input files the CLI operations read.

Every operation is a call into the public API or into `qsproc.cli.main`, made
through module attributes looked up at call time, so that the tracer can wrap
them.  An operation returns its raw output; its gate runs after the timed
pass and returns None when the output meets the expectation fixed here, or the
reason it does not.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

# Module objects, not functions: `qsproc.reconstruct` is shadowed by the
# function of the same name, and late attribute lookup lets tracing rebind.
bridges = importlib.import_module("qsproc.bridges")
cli = importlib.import_module("qsproc.cli")
equivalence = importlib.import_module("qsproc.equivalence")
fixtures = importlib.import_module("qsproc.fixtures")
kernels = importlib.import_module("qsproc.kernels")
markov = importlib.import_module("qsproc.markov")
models = importlib.import_module("qsproc.models")
recon = importlib.import_module("qsproc.reconstruct")
serialize = importlib.import_module("qsproc.serialize")
words_mod = importlib.import_module("qsproc.words")

WORKLOADS = ("battery", "chain", "table-io", "diagnostics")

# Expectations fixed by the benchmark, independent of the library defaults.
ROUNDTRIP_TOL = 1e-8  # worst kernel-table block residual of a round trip
TABLE_TOL = 1e-12  # spot-checked kernel entries against the numpy reference
DEFECT_TOL = 1e-12  # interference defect of qubit_xz against exactly 1/2
MASS_TOL = 1e-12  # total mass of the classical measure against 1
SVD_RANK_TOL = 1e-8  # singular-value cut of the reference rank, relative
SPOT_PAIRS = 32  # kernel entries spot-checked per written table
PROFILE_STRIDE = 10_000  # candidate model seeds per template and benchmark seed

SIZES = {
    # every operation well under 2 s, so that a run repeats each one many times
    "full": {
        "battery_models": 12,
        "chain_n": 4,
        "table_n": 4,
        "table_models": 1,
        "diag_n": (3, 3),
        "lift_depth": 3,
    },
    # the same operations at a few seconds in total, for the self-test
    "tiny": {
        "battery_models": 3,
        "chain_n": 3,
        "table_n": 2,
        "table_models": 1,
        "diag_n": (2, 3),
        "lift_depth": 3,
    },
}


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    gate: Callable[[Any, dict], str | None]
    expect: dict = field(default_factory=dict)

    def check(self, out) -> str | None:
        return self.gate(out, self.expect)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    digest: str  # sha256 of the generated inputs


def build(name: str, seed: int, size: str, workdir: str) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    cfg = SIZES[size]
    if name == "battery":
        return _battery(seed, cfg)
    if name == "chain":
        return _chain(rng, cfg)
    if name == "table-io":
        return _table_io(rng, cfg, workdir)
    return _diagnostics(seed, rng, cfg)


# -- inputs and references ----------------------------------------------------


def chain_angles(rng, n: int) -> tuple[float, ...]:
    """Measurement angles for `tensor_chain(n)`.

    Slot i starts in the state at angle 0.5 + 0.25 i; its measurement basis
    is turned 0.25 to 0.6 rad away from it, so no slot state comes near an
    eigenvector and the analytic rank 2^n holds with a wide spectral margin.
    """
    return tuple(float(0.5 + 0.25 * i + rng.uniform(0.25, 0.6)) for i in range(n))


def all_words(model) -> list[tuple[tuple[str, tuple[str, ...]], ...]]:
    """Every factor assignment, one subset of outcomes per point."""
    per_point = []
    for t in model.spaces.points():
        outs = model.spaces.outcomes(t)
        subsets = [c for r in range(len(outs) + 1) for c in itertools.combinations(outs, r)]
        per_point.append([(t, c) for c in subsets])
    return [tuple(combo) for combo in itertools.product(*per_point)]


def chronological_product(model, site, word) -> np.ndarray:
    """Event projectors applied to the embedding, earliest point first.

    Points are ordered by the size of their down-set, a linear extension of
    the causal order; points it leaves unordered carry commuting devices.
    """
    factors = dict(word)
    order = sorted(site.points, key=lambda t: sum(site.le(s, t) for s in site.points))
    v = np.array(model.embedding)
    for t in order:
        outs = factors.get(t, model.spaces.outcomes(t))
        proj = np.zeros((model.dim, model.dim), dtype=complex)
        for x in outs:
            proj += model.atoms[t][x]
        v = proj @ v
    return v


def reference_rank(model, site) -> int:
    """Rank of the stacked chronological products, by a plain SVD."""
    stack = np.hstack([chronological_product(model, site, w) for w in all_words(model)])
    s = np.linalg.svd(stack, compute_uv=False)
    return int(np.sum(s > SVD_RANK_TOL * s[0]))


def word_count(model) -> int:
    return int(np.prod([2 ** len(model.spaces.outcomes(t)) for t in model.spaces.points()]))


def _profile(model, site) -> tuple:
    return tuple(site.points), tuple(len(model.spaces.outcomes(t)) for t in site.points), model.dim


def profiled_model(template_seed: int, seed: int):
    """A `random_valid_model` shaped like `random_valid_model(template_seed)`.

    The candidates are template_seed + 6 (PROFILE_STRIDE seed + k) for
    k = 0, 1, ...; the shared residue mod 6 keeps the site kind and point
    count, and the first candidate with the template's outcome counts and
    dimension is taken, so that a workload costs the same on every seed while
    bases, partitions and initial vectors vary.  Seed 0 gives the template.
    """
    want = _profile(*fixtures.random_valid_model(template_seed))
    for k in range(PROFILE_STRIDE):
        model_seed = template_seed + 6 * (PROFILE_STRIDE * seed + k)
        model, site = fixtures.random_valid_model(model_seed)
        if _profile(model, site) == want:
            return model_seed, model, site
    raise ValueError(f"no model shaped like random_valid_model({template_seed}) for seed {seed}")


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def _model_text(model, site) -> str:
    return serialize.dumps(
        {"model": serialize.model_to_json(model), "site": serialize.site_to_json(site)}
    )


# -- battery and chain: the whole pipeline through the API --------------------


def _pipeline(model, site):
    report = models.check_model(model, site)
    words = words_mod.enumerate_words(site, model.spaces)
    oracle = model.kernel_table(site, words)
    axioms = kernels.check_axioms(oracle)
    rec = recon.reconstruct(oracle)
    decomp = recon.verify_decomposition(rec, oracle)
    return report, len(words), axioms, rec.rank, decomp


def _pipeline_gate(out, expect) -> str | None:
    report, n_words, axioms, rank, decomp = out
    if not report.ok:
        return f"check_model violations {[e.condition for e in report.violations()]}"
    if n_words != expect["words"]:
        return f"{n_words} words, expected {expect['words']}"
    if not axioms.ok:
        return f"axioms not passing {[c.name for c in axioms.checks if not c.ok]}"
    if rank != expect["rank"]:
        return f"rank {rank}, expected {expect['rank']}"
    if not decomp.ok or decomp.max_residual > ROUNDTRIP_TOL:
        return f"round-trip residual {decomp.max_residual:.3e}"
    return None


def _pipeline_op(name, model, site, rank) -> Op:
    return Op(
        name,
        lambda: _pipeline(model, site),
        _pipeline_gate,
        {"words": word_count(model), "rank": rank},
    )


def _battery(seed: int, cfg) -> Workload:
    ops, texts = [], []
    for i in range(cfg["battery_models"]):
        model_seed, model, site = profiled_model(i, seed)
        ops.append(
            _pipeline_op(f"random_valid_model({model_seed})", model, site,
                         reference_rank(model, site))
        )
        texts.append(_model_text(model, site))
    return Workload("battery", ops, _digest(texts))


def _chain(rng, cfg) -> Workload:
    n = cfg["chain_n"]
    model, site = fixtures.tensor_chain(n, canonical=False, angles=chain_angles(rng, n))
    op = _pipeline_op(f"tensor_chain({n})", model, site, 2**n)
    return Workload("chain", [op], _digest([_model_text(model, site)]))


# -- table-io: the kernel table through the CLI and back ----------------------


def _run_cli(argv: list[str], out_path: str) -> tuple[int, str]:
    err = io.StringIO()
    with open(out_path, "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _read_matrix(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def _kernels_gate(out, expect) -> str | None:
    code, err = out
    if code != 0:
        return f"kernels exit code {code}: {err.strip()}"
    with open(expect["table"], "r", encoding="utf-8") as fh:
        table = json.load(fh)
    n = len(expect["products"])
    if len(table["words"]) != n or len(table["values"]) != n * n:
        return f"{len(table['words'])} words and {len(table['values'])} entries, expected {n}"
    index = {
        tuple((t, tuple(sorted(b))) for t, b in sorted(w.items())): i
        for i, w in enumerate(table["words"])
    }
    for a, b in expect["pairs"]:
        i, j = index.get(a), index.get(b)
        if i is None or j is None:
            return "a reference word is missing from the table"
        ref = expect["products"][a].conj().T @ expect["products"][b]
        got = _read_matrix(table["values"][f"{i},{j}"])
        if np.max(np.abs(got - ref)) > TABLE_TOL:
            return f"kernel entry {i},{j} is off by {np.max(np.abs(got - ref)):.3e}"
    return None


def _reconstruct_gate(out, expect) -> str | None:
    code, err = out
    if code != 0:
        return f"reconstruct exit code {code}: {err.strip()}"
    with open(expect["report"], "r", encoding="utf-8") as fh:
        report = json.load(fh)
    verification, idempotence = report["verification"], report["idempotence"]
    if not verification["ok"] or verification["max_residual"] > ROUNDTRIP_TOL:
        return f"round-trip residual {verification['max_residual']:.3e}"
    if not idempotence["ok"]:
        return "idempotence fails"
    if report["provenance"]["rank"] != expect["rank"]:
        return f"rank {report['provenance']['rank']}, expected {expect['rank']}"
    return None


def _canonical(model, word) -> tuple:
    """The word as the table file lists it: full factors left out."""
    return tuple(sorted(
        (t, tuple(sorted(b))) for t, b in word
        if len(b) != len(model.spaces.outcomes(t))
    ))


def _table_io(rng, cfg, workdir: str) -> Workload:
    n = cfg["table_n"]
    ops, texts = [], []
    for m in range(cfg["table_models"]):
        model, site = fixtures.tensor_chain(n, canonical=False, angles=chain_angles(rng, n))
        paths = {k: os.path.join(workdir, f"{k}{m}.json") for k in ("model", "site", "table", "report")}
        with open(paths["model"], "w", encoding="utf-8") as fh:
            fh.write(serialize.dumps(serialize.model_to_json(model)))
        with open(paths["site"], "w", encoding="utf-8") as fh:
            fh.write(serialize.dumps(serialize.site_to_json(site)))
        texts.append(_model_text(model, site))
        products = {
            _canonical(model, w): chronological_product(model, site, w) for w in all_words(model)
        }
        keys = sorted(products)
        picks = rng.integers(0, len(keys), size=(SPOT_PAIRS, 2))
        pairs = [((), ())] + [(keys[i], keys[j]) for i, j in picks]
        kernels_argv = ["kernels", paths["model"], paths["site"]]
        reconstruct_argv = ["reconstruct", paths["table"], "--verify"]
        ops.append(Op(
            f"cli kernels model{m}",
            lambda argv=kernels_argv, out=paths["table"]: _run_cli(argv, out),
            _kernels_gate,
            {"table": paths["table"], "products": products, "pairs": pairs},
        ))
        ops.append(Op(
            f"cli reconstruct --verify table{m}",
            lambda argv=reconstruct_argv, out=paths["report"]: _run_cli(argv, out),
            _reconstruct_gate,
            {"report": paths["report"], "rank": 2**n},
        ))
    return Workload("table-io", ops, _digest(texts))


# -- diagnostics: the pair-loop checks ----------------------------------------


def _ok_gate(out, expect) -> str | None:
    return None if out.ok else "the verdict is not ok"


def _classical_gate(out, expect) -> str | None:
    if not out.ok:
        return "classical reduction fails"
    if abs(out.total_mass - 1.0) > MASS_TOL:
        return f"total mass {out.total_mass!r}"
    return None


def _defect_gate(out, expect) -> str | None:
    return None if abs(out - expect["defect"]) <= DEFECT_TOL else f"defect {out!r}, expected 0.5"


def _unitary(model, padded, site):
    words = words_mod.enumerate_words(site, model.spaces)
    m1 = equivalence.minimal_modification(model, site, words)
    m2 = equivalence.minimal_modification(padded, site, words)
    return equivalence.build_unitary(m1, m2, site, words)


def _diagnostics(seed: int, rng, cfg) -> Workload:
    ops, texts = [], []
    for k, n in enumerate(cfg["diag_n"]):
        model, site = fixtures.tensor_chain(
            n, eigen_aligned_first=True, angles=chain_angles(rng, n)
        )
        texts.append(_model_text(model, site))
        for check in ("check_regression", "check_dynamicity", "check_relaxation"):
            ops.append(Op(
                f"{check} tensor_chain({n}) #{k}",
                lambda check=check, model=model, site=site:
                    getattr(markov, check)(model, site),
                _ok_gate,
            ))
    field_atoms, initial, spaces = fixtures.two_point_field()
    depth = cfg["lift_depth"]
    ops.append(Op(
        f"verify_lift depth {depth}",
        lambda: bridges.verify_lift(field_atoms, initial, depth, spaces),
        _ok_gate,
    ))
    commuting, csite = fixtures.commuting_diagonal()
    ops.append(Op("classical_reduce commuting_diagonal",
                  lambda: bridges.classical_reduce(commuting, csite), _classical_gate))
    qubit, qsite = fixtures.qubit_xz()
    ops.append(Op("interference_witness qubit_xz",
                  lambda: bridges.interference_witness(qubit, qsite, "t1"),
                  _defect_gate, {"defect": 0.5}))
    # a two-point chain of 64 words in dimension 4, and its padded copy
    model_seed, model, site = profiled_model(0, seed)
    padded = fixtures.with_untouched_ancilla(model, 3)
    texts.append(_model_text(model, site))
    ops.append(Op(f"build_unitary random_valid_model({model_seed})",
                  lambda: _unitary(model, padded, site), _ok_gate))
    return Workload("diagnostics", ops, _digest(texts))

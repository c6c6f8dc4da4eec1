"""Spans around the library's stage-level public functions.

The tracer wraps functions from outside the library: `install` rebinds each
stage function wherever a loaded qsproc module holds it (its own module and
every `from ... import` of it), and `uninstall` puts the originals back.  Hot
helpers such as `linalg.opnorm` or `HilbertModel.feynman`, called about a
million times per pass, are left alone.

A span records its name, start, end, parent span and operation id, plus
the counts its probe reads off the return value.  Spans stay in memory until
the benchmark writes them out.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from dataclasses import dataclass, field

# module -> stage functions; "Class.method" wraps a method on the class
STAGES = {
    "cli": ["main"],
    "serialize": [
        "dumps", "oracle_to_json", "oracle_from_json", "model_to_json",
        "model_from_json", "site_to_json", "site_from_json",
    ],
    "models": ["check_model", "HilbertModel.kernel_table"],
    "words": ["enumerate_words"],
    "kernels": [
        "check_axioms", "check_positivity", "check_normalization",
        "check_sigma_additivity", "check_factorizability", "check_covariance",
        "check_projectivity", "check_regularity",
    ],
    "reconstruct": [
        "reconstruct", "build_space", "represent_events", "represent_algebra",
        "represent_symmetry", "compute_subspace_lattice", "verify_decomposition",
    ],
    "equivalence": [
        "minimal_modification", "check_wide_equivalence", "build_unitary",
        "check_model_relation",
    ],
    "markov": [
        "check_dynamicity", "check_regression", "check_narrow_commutativity",
        "check_relaxation",
    ],
    "bridges": [
        "verify_lift", "lift_process", "check_ultrastationarity",
        "classical_reduce", "interference_witness",
    ],
}


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at the top
    op: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)


# -- probes: counts read off a stage's arguments and return value ---------------


def _ratio(residual, tolerance) -> float:
    return float(residual) / float(tolerance)


def _entries_margin(out, args, kwargs):
    return {"residual_over_tol": max(
        (_ratio(e.residual, e.tolerance) for e in out.entries), default=0.0)}


def _check_margin(out, args, kwargs):
    return {"residual_over_tol": _ratio(out.residual, out.tolerance)}


def _projectivity(out, args, kwargs):
    n = len(args[0].words)
    cap = kwargs.get("pair_cap", args[2] if len(args) > 2 else None)
    if cap is None:
        cap = inspect.signature(sys.modules["qsproc.kernels"].check_projectivity).parameters["pair_cap"].default
    counts = _check_margin(out, args, kwargs)
    counts.update(projectivity_words=n, sampled_words=len(range(0, n, max(1, n // cap))))
    return counts


def _build_space(out, args, kwargs):
    counts = {"rank": out.rank}
    dropped = max((abs(float(v)) for v in out.dropped_eigenvalues), default=0.0)
    if dropped > 0.0 and out.rank:
        counts["cut_gap"] = float(min(out.kept_eigenvalues)) / dropped
    return counts


def _lift(out, args, kwargs):
    entries = (out.ultrastationarity, out.constant_units, out.level_independent_events,
               out.narrow_units, out.decomposition)
    return {"residual_over_tol": max(_ratio(e.residual, e.tolerance) for e in entries)}


def _classical(out, args, kwargs):
    tol = out.tolerance
    return {"residual_over_tol": max(
        _ratio(abs(out.total_mass - 1.0), tol),
        _ratio(out.factorization_residual, max(tol, 1e-9)),
        _ratio(out.additivity_residual, tol),
        _ratio(out.marginal_residual, tol),
    )}


def _morphism(out, args, kwargs):
    worst = max(out.isometry_residual, out.event_residual, out.algebra_residual,
                out.symmetry_residual)
    return {"residual_over_tol": _ratio(worst, out.tolerance)}


def _cli_read(out, args, kwargs):
    argv = args[0] if args else kwargs.get("argv") or []
    return {"bytes_read": sum(os.path.getsize(a) for a in argv if os.path.isfile(a))}


PROBES = {
    "cli.main": _cli_read,
    "serialize.dumps": lambda out, args, kwargs: {"bytes_written": len(out)},
    "models.check_model": _entries_margin,
    "models.kernel_table": lambda out, args, kwargs: {"gram_order": len(out.words) * out.kdim},
    "words.enumerate_words": lambda out, args, kwargs: {"words": len(out)},
    "kernels.check_positivity": _check_margin,
    "kernels.check_normalization": _check_margin,
    "kernels.check_sigma_additivity": _check_margin,
    "kernels.check_factorizability": _check_margin,
    "kernels.check_covariance": _check_margin,
    "kernels.check_projectivity": _projectivity,
    "reconstruct.build_space": _build_space,
    "reconstruct.verify_decomposition": lambda out, args, kwargs: {
        "residual_over_tol": _ratio(out.max_residual, out.tolerance)},
    "equivalence.check_wide_equivalence": lambda out, args, kwargs: {
        "residual_over_tol": _ratio(out.max_residual, out.tolerance)},
    "equivalence.build_unitary": _morphism,
    "markov.check_dynamicity": _entries_margin,
    "markov.check_regression": _entries_margin,
    "markov.check_relaxation": _entries_margin,
    "bridges.verify_lift": _lift,
    "bridges.classical_reduce": _classical,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def install(self) -> None:
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "qsproc" or n.startswith("qsproc."))]
        for modname, names in STAGES.items():
            module = sys.modules[f"qsproc.{modname}"]
            for dotted in names:
                *cls, attr = dotted.split(".")
                owner = getattr(module, cls[0]) if cls else module
                orig = vars(owner)[attr]
                wrapper = self._wrap(f"{modname}.{attr}", orig)
                for holder in [owner] if cls else loaded:
                    for key, value in list(vars(holder).items()):
                        if value is orig:
                            self._rebind(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def _rebind(self, owner, key, wrapper) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                span.counts = probe(out, args, kwargs)
            return out

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


# probe count -> per-pass metric: summed, or the minimum over the pass
SUMS = {
    "words": "words.count",
    "gram_order": "kernels.gram_order",
    "rank": "reconstruct.rank",
    "projectivity_words": "kernels.check_projectivity.words",
    "sampled_words": "kernels.check_projectivity.sampled_words",
    "bytes_written": "serialize.bytes_written",
    "bytes_read": "serialize.bytes_read",
}
MINIMA = {"cut_gap": "reconstruct.cut_gap"}
# stages whose probe reads a residual and its tolerance; the pass keeps the worst
MARGINS = tuple(n for n in PROBES if n not in (
    "cli.main", "serialize.dumps", "models.kernel_table", "words.enumerate_words",
    "reconstruct.build_space"))
TRACE_METRICS = {"trace.coverage": "ratio", "trace.run_s": "s", "trace.plain_run_s": "s",
                 "trace.overhead_s": "s", "trace.ref_s": "s"}


def stage_names() -> list[str]:
    return [f"{m}.{f.split('.')[-1]}" for m, fs in STAGES.items() for f in fs]


def metric_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in output order."""
    units = {}
    for name in stage_names():
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update({f"{n}.residual_over_tol": "ratio" for n in MARGINS})
    units.update({m: "bytes" if m.startswith("serialize.") else "count" for m in SUMS.values()})
    units.update({m: "ratio" for m in MINIMA.values()})
    units.update(TRACE_METRICS)
    return units


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times, calls and counts of one traced pass.

    A count no span reported reads 0; the `.calls` beside it tells an absent
    stage from a zero result.
    """
    out: dict[str, float] = {}
    for name in stage_names():
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    out.update({f"{n}.residual_over_tol": 0.0 for n in MARGINS})
    out.update({m: 0 for m in SUMS.values()})
    minima = {m: math.inf for m in MINIMA.values()}
    for span, own in zip(spans, self_times(spans)):
        out[f"{span.name}.self_s"] += own
        out[f"{span.name}.calls"] += 1
        for key, value in span.counts.items():
            if key in SUMS:
                out[SUMS[key]] += value
            elif key in MINIMA:
                minima[MINIMA[key]] = min(minima[MINIMA[key]], value)
            else:
                name = f"{span.name}.{key}"
                out[name] = max(out[name], value)
    out.update({m: v if math.isfinite(v) else 0.0 for m, v in minima.items()})
    out["trace.self_s"] = sum(self_times(spans))
    return out

"""The library surface the benchmark's probes and gates read.

`perfbench/spans.py` wraps the stage functions it names and reads counts off
their return values; `perfbench/workloads.py` gates each operation on a few
more attributes.  Running one call of each probed stage under the tracer
makes a renamed function or attribute fail here, in about a second, rather
than only in `perfbench/selftest.py`.
"""

import json
import math
import os
import sys

import qsproc.cli  # noqa: F401  (the tracer rebinds stages in every module)
from qsproc import bridges, equivalence, fixtures, kernels, markov, models, serialize
from qsproc import reconstruct as recon
from qsproc.words import enumerate_words

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
try:
    import spans
finally:
    sys.path.remove(os.path.join(ROOT, "perfbench"))

PROBED = (
    "models.check_model", "kernels.check_axioms", "kernels.check_positivity",
    "kernels.check_normalization", "kernels.check_sigma_additivity",
    "kernels.check_factorizability", "kernels.check_covariance",
    "bridges.check_ultrastationarity",
    "kernels.check_projectivity", "reconstruct.build_space",
    "reconstruct.verify_decomposition", "markov.check_dynamicity",
    "bridges.verify_lift", "bridges.lift_process", "equivalence.build_unitary",
    "equivalence.check_wide_equivalence", "bridges.classical_reduce",
)


def run_stages():
    """One call of each probed stage on a tiny fixture, and the attributes
    the workloads' gates read."""
    model, site = fixtures.qubit_zx()
    report = models.check_model(model, site)
    assert report.ok and [e.condition for e in report.violations()] == []
    words = enumerate_words(site, model.spaces)
    oracle = model.kernel_table(site, words)
    axioms = kernels.check_axioms(oracle)
    assert axioms.ok and [c.name for c in axioms.checks if not c.ok] == []
    assert kernels.check_sigma_additivity(oracle).ok
    assert kernels.check_factorizability(oracle).ok
    rec = recon.reconstruct(oracle)
    assert recon.verify_decomposition(rec, oracle).ok
    assert not markov.check_dynamicity(model, site).ok
    atoms, initial, spaces = fixtures.two_point_field()
    assert bridges.verify_lift(atoms, initial, 1, spaces).ok
    lifted, lsite = bridges.lift_process(atoms, initial, 2, spaces)
    lwords = bridges.enumerate_level_words(lifted, lsite)
    assert bridges.check_ultrastationarity(lifted, lsite, lwords).ok
    padded = fixtures.with_untouched_ancilla(model, 1)
    m1, m2 = (equivalence.minimal_modification(m, site, words) for m in (model, padded))
    assert equivalence.build_unitary(m1, m2, site, words).ok
    assert equivalence.check_wide_equivalence(m1, m2, site, words).ok
    commuting, csite = fixtures.commuting_diagonal()
    assert bridges.classical_reduce(commuting, csite).ok
    return len(words)


def test_probes_read_every_stage():
    tracer = spans.Tracer()
    tracer.install()
    try:
        n_words = run_stages()
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = [m["name"] for m in json.load(fh)["per_layer"]]
    missing = [m for m in per_layer if not m.startswith("trace.") and m not in metrics]
    assert missing == []
    for stage in PROBED:
        assert metrics[f"{stage}.calls"] >= 1, stage
    for stage in spans.MARGINS:
        if metrics[f"{stage}.calls"]:
            value = metrics[f"{stage}.residual_over_tol"]
            assert math.isfinite(value) and value >= 0.0, stage
    assert metrics["kernels.check_projectivity.words"] == n_words


def test_tracer_rebinds_module_level_imports():
    # `verify_lift` calls `reconstruct` and `verify_decomposition` through
    # the names bridges imported, so their spans open only if those rebind
    before = (bridges.reconstruct, bridges.verify_decomposition)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert bridges.reconstruct is recon.reconstruct is not before[0]
        assert bridges.verify_decomposition is recon.verify_decomposition is not before[1]
        atoms, initial, spaces = fixtures.two_point_field()
        assert bridges.verify_lift(atoms, initial, 1, spaces).ok
    finally:
        tracer.uninstall()
    assert (bridges.reconstruct, bridges.verify_decomposition) == before
    names = [s.name for s in tracer.spans]
    assert {"reconstruct.reconstruct", "reconstruct.verify_decomposition"} <= set(names)


def test_tracer_leaves_the_library_as_it_found_it():
    before = (models.check_model, kernels.check_axioms, serialize.dumps)
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert (models.check_model, kernels.check_axioms, serialize.dumps) == before

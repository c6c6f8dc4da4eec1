"""Command-line drivers over the library.

Exit codes: 0 when every requested check passes, 1 on a mathematical failure
(axiom violation, refused construction), 2 on unreadable or malformed input.
Reports are deterministic: identical inputs and configuration produce
byte-identical output.

Each handler returns its report and verdict; `main` alone prints them, and
turns the library's refusals (exit 1) and input faults (exit 2) into one
stderr line through `_failures`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import sys

from . import __version__, bridges, equivalence, markov, serialize
from .config import RunConfig
from .kernels import check_axioms, require_on_site
from .models import Check, check_model, require_representation
from .reconstruct import ReconstructionRefused, reconstruct, verify_decomposition
from .words import enumerate_words

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2

REFUSED = {  # each refusal of the library, as its stderr line begins
    ReconstructionRefused: "reconstruction refused",
    equivalence.EquivalenceRefused: "unitary construction refused",
    bridges.ReductionRefused: "classical reduction refused",
}
JSON_FAULTS = (KeyError, TypeError, ValueError)  # a JSON node of the wrong shape


class Failure(Exception):
    """A run that ends with no report: its args are its stderr line and exit code."""


@contextlib.contextmanager
def _failures(prefix: str = "", refused: str | None = None,
              faults=(OSError, ValueError)):
    """Turn a refusal of the library raised in the block into a `Failure`
    with exit 1, worded `refused` or as `REFUSED` words it, and any other of
    `faults` into an input error with exit 2, its message after `prefix`.
    A refusal is a ValueError, so it is matched first."""
    try:
        yield
    except tuple(REFUSED) as exc:
        raise Failure(f"{refused or REFUSED[type(exc)]}: {exc}", EXIT_MATH) from None
    except faults as exc:
        raise Failure(f"input error: {prefix}{exc}", EXIT_INPUT) from None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        with _failures():
            report, ok = args.handler(args, config)
    except Failure as exc:
        line, code = exc.args
        print(line, file=sys.stderr)
        return code
    if report is not None:
        _emit(report, config)
    return EXIT_OK if ok else EXIT_MATH


def build_parser() -> argparse.ArgumentParser:
    # shared flags live on the main parser and, with suppressed defaults, on
    # every subparser, so they are accepted on either side of the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", default=argparse.SUPPRESS,
        help="JSON file with configuration overrides",
    )
    common.add_argument(
        "--policy", choices=["all", "atoms"], default=argparse.SUPPRESS,
        help="word enumeration policy",
    )
    common.add_argument(
        "--cap", type=int, default=argparse.SUPPRESS,
        help="word enumeration cap",
    )
    common.add_argument(
        "--format", choices=["json", "text"], default=argparse.SUPPRESS,
        help="report format",
    )
    parser = argparse.ArgumentParser(
        prog="qsproc",
        parents=[common],
        description=(
            "Causal correlation kernels of sequential measurement models: "
            "validation, axiom checking, minimal reconstruction, equivalence, "
            "Markov diagnostics, level lifts, and classical reduction."
        ),
    )
    sub = parser.add_subparsers(required=True)

    def command(name, handler, help, *positionals, actions=None):
        """The subcommand `name`, run by `handler`: an action among
        `actions`, if given, then `positionals`."""
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(handler=handler)
        if actions:
            p.add_argument("action", choices=actions)
        for positional in positionals:
            p.add_argument(positional)
        return p

    command("check", cmd_check, "validate a model and its kernel axioms", "model", "site")
    command("kernels", cmd_kernels, "emit the kernel table of a model", "model", "site")
    p = command("reconstruct", cmd_reconstruct, "minimal model from a kernel table")
    p.add_argument("source", help="kernel table JSON, or a model JSON with --site")
    p.add_argument("--site", help="site JSON when reconstructing from a model")
    p.add_argument("--verify", action="store_true", help="also verify the round trip")
    command("roundtrip", cmd_roundtrip, "reconstruct and compare the tables", "model", "site")
    command("equiv", cmd_equiv, "wide-sense equivalence of two models",
            "model1", "model2", "site", actions=["check", "unitary"])
    command("markov", cmd_markov, "dynamicity, regression, commutativity",
            "model", "site", actions=["check"])
    p = command("lift", cmd_lift, "level lift of a device field")
    p.add_argument("field", help="field JSON: devices, initial vector, depth")
    command("classical", cmd_classical, "reduce a commuting model to a measure",
            "model", "site")
    return parser


def _config_from_args(args) -> RunConfig:
    # shared flags may be absent from the namespace entirely (suppressed
    # defaults keep the subcommand position from clobbering the global one)
    config_file = getattr(args, "config", None)
    config = RunConfig.from_dict(_read_json(config_file)) if config_file else RunConfig()
    overrides = {}
    policy = getattr(args, "policy", None)
    if policy:
        overrides["policy"] = "all_subsets" if policy == "all" else "atoms_plus_unit"
    if getattr(args, "cap", None) is not None:
        overrides["cap"] = args.cap
    if getattr(args, "format", None):
        overrides["format"] = args.format
    if overrides:
        config = RunConfig.from_dict({**config.to_dict(), **overrides})
    return config


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members as a dict, refusing a key spelled twice."""
    out = dict(pairs)
    if len(out) < len(pairs):
        seen: set = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"duplicate key {key!r}")
    return out


def _read_json(path: str, table: bool = False):
    """Every input file's reader: the configuration, models, sites, tables
    and fields.  The parse makes no reference cycles, so the cyclic
    collector pauses for it (`_collector_paused`).

    With `table`, an object whose first key spells a kernel entry keeps
    json's pair list (`serialize.EntryPairs`): the table's ``"values"`` go to
    `serialize.oracle_from_json`, which refuses a repeated entry, and any
    other such object is held to the refusal here."""
    entries = []

    def members(pairs: list):
        if table and pairs and serialize.is_entry_key(pairs[0][0]):
            entries.append(serialize.EntryPairs(pairs))
            return entries[-1]
        return _unique_keys(pairs)

    with _collector_paused(), open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh, object_pairs_hook=members)
    for e in entries:
        if not (isinstance(data, dict) and data.get("values") is e):
            _unique_keys(e.pairs)
    return data


@contextlib.contextmanager
def _collector_paused():
    """The cyclic collector paused for the block, which makes no reference
    cycles: on a 5.9 MB table it took 40% of the parse, and after the parse
    a young-generation pass over every container the parse made."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def _load_json(path: str, table: bool = False) -> dict:
    with _failures(f"{path}: "):
        return _read_json(path, table)


def _load_model_site(model_path: str, site_path: str):
    with _failures(faults=JSON_FAULTS):
        site = serialize.site_from_json(_load_json(site_path))
        model = serialize.model_from_json(_load_json(model_path))
    require_on_site(site, model.spaces, ())
    points = set(site.points)
    for name, blocks in (("unit 'p'", model.units_p), ("unit 'i'", model.units_i),
                         ("algebra", model.algebra)):
        for k in blocks:
            if not k <= points:
                raise ValueError(f"{name} block {sorted(k)} names point "
                                 f"{min(k - points)!r}, which is not in the site")
    # an element the site does not act by is left to the command: `check`
    # reports its covariance inconclusive, a kernel table refuses it
    acted = site.symmetry.maps if site.symmetry else {}
    require_representation({s: r for s, r in model.symmetry.items() if s in acted},
                           "model", model.dim, site, model.spaces)
    return model, site


def _load_oracle(model_path: str, site_path: str, config: RunConfig):
    """A model and site file, and the model's kernel table on the configured
    word list."""
    model, site = _load_model_site(model_path, site_path)
    words = enumerate_words(site, model.spaces, config.policy, config.cap)
    return model, model.kernel_table(site, words)


def _load_table(path: str):
    """A kernel table file as an oracle.  The collector stays paused until
    the parse is converted and dropped, so no collection sweeps its
    containers; a repeated entry is named with the file, as at the parse."""
    with _collector_paused():
        data = _load_json(path, table=True)
        with _failures(faults=JSON_FAULTS), \
                _failures(f"{path}: ", faults=serialize.DuplicateKey):
            oracle = serialize.oracle_from_json(data)
        del data
    oracle.unit_index()  # the initial space sits at the unit word
    return oracle


def _load_field(path: str, config: RunConfig):
    """A `lift` field file's devices, initial vector, depth, spaces and level words."""
    data = _load_json(path)
    with _failures(faults=JSON_FAULTS):
        devices = {
            x: {o: serialize.matrix_from_json(m, f"device {x!r}/{o!r}")
                for o, m in serialize.json_object(fam, f"device {x!r}").items()}
            for x, fam in serialize.json_object(data["devices"], '"devices"').items()
        }
        initial = serialize.matrix_from_json(data["initial"], "initial vector")
        depth = serialize.json_int(data["depth"], '"depth"', 1)
        spaces = serialize.spaces_from_json(data["spaces"]).spaces
        model, site = bridges.lift_process(devices, initial, depth, spaces)
        words = bridges.enumerate_level_words(model, site, config)
    return devices, initial, depth, spaces, words


def _emit(report: dict, config: RunConfig) -> None:
    report = {"version": __version__, "config": config.to_dict(), **report}
    if config.format == "json":
        print(serialize.dumps(report))
    else:
        _print_text(report)


def _print_text(report: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_text(value, indent + 1)
        elif isinstance(value, list):
            print(f"{pad}{key}: {json.dumps(value, sort_keys=True)}")
        else:
            print(f"{pad}{key}: {value}")


def _reproduces(check: Check, verdict: str = "ok") -> dict:
    """A check that a model reproduces a table (`verify_decomposition`,
    `check_wide_equivalence`) as reports write it, its pass under `verdict`."""
    return {verdict: check.ok, "max_residual": check.residual,
            "witness": check.witness, "tolerance": check.tolerance}


# -- handlers: each returns its report, or None, and its verdict -----------------


def cmd_check(args, config: RunConfig):
    model, oracle = _load_oracle(args.model, args.site, config)
    model_report = check_model(model, oracle.site, config)
    axiom_report = check_axioms(oracle, config)
    # inconclusive checks (restricted word policies) are not violations
    ok = model_report.ok and not axiom_report.failed
    return {
        "model": model_report.to_dict(),
        "axioms": axiom_report.to_dict(),
        "words": len(oracle.words),
        "ok": ok,
    }, ok


def cmd_kernels(args, config: RunConfig):
    _, oracle = _load_oracle(args.model, args.site, config)
    print(serialize.dumps(serialize.oracle_to_json(oracle)))
    return None, True


def cmd_reconstruct(args, config: RunConfig):
    if args.site:
        _, oracle = _load_oracle(args.source, args.site, config)
    else:
        oracle = _load_table(args.source)
    recon = reconstruct(oracle, config)
    report = {
        "model": serialize.model_to_json(recon.model),
        "provenance": recon.provenance(),
    }
    if not args.verify:
        return report, True
    decomp = verify_decomposition(recon, oracle, config)
    report["verification"] = _reproduces(decomp)
    # idempotence: the emitted model is unitarily equivalent to its minimal
    # modification, both read off its kernel oracle on the table's plan
    with _failures("idempotence table: ", "idempotence refused"):
        emitted = recon.model.kernel_oracle(oracle.plan)
        second = reconstruct(emitted, config, strict_closure=False).model
        morphism = equivalence.intertwine(recon.model, second, emitted, config)
    report["idempotence"] = morphism.to_dict()
    return report, decomp.ok and morphism.ok


def cmd_roundtrip(args, config: RunConfig):
    model, oracle = _load_oracle(args.model, args.site, config)
    recon = reconstruct(oracle, config)
    decomp = verify_decomposition(recon, oracle, config)
    shrink = {"ambient_dimension": model.dim, "minimal_dimension": recon.rank}
    return {"roundtrip": _reproduces(decomp), "dimensions": shrink}, decomp.ok


def cmd_equiv(args, config: RunConfig):
    m1, site = _load_model_site(args.model1, args.site)
    m2, _ = _load_model_site(args.model2, args.site)
    if m2.kdim != m1.kdim:
        raise ValueError(f"initial spaces differ ({m1.kdim} vs {m2.kdim})")
    for t in site.points:
        if set(m2.spaces.outcomes(t)) != set(m1.spaces.outcomes(t)):
            raise ValueError(f"the models' outcome labels differ at point {t!r}")
    words = enumerate_words(site, m1.spaces, config.policy, config.cap)
    if args.action == "check":
        verdict = equivalence.check_wide_equivalence(m1, m2, site, words, config)
        return {"equivalence": _reproduces(verdict, "equivalent")}, verdict.ok
    mm1, mm2 = (
        equivalence.minimal_modification(m, site, words, config=config)
        for m in (m1, m2)
    )
    morphism = equivalence.build_unitary(mm1, mm2, site, words, config)
    return {
        "morphism": morphism.to_dict(),
        "unitary": serialize.matrix_to_json(morphism.u),
        "dimensions": {
            "first_minimal": mm1.dim,
            "second_minimal": mm2.dim,
        },
    }, morphism.ok


def cmd_markov(args, config: RunConfig):
    model, site = _load_model_site(args.model, args.site)
    words = enumerate_words(site, model.spaces, config.policy, config.cap)
    dyn = markov.check_dynamicity(model, site, config)
    report = {"dynamicity": dyn.to_dict()}
    ok = dyn.ok
    if dyn.ok:
        reg = markov.check_regression(model, site, words, config)
        report["regression"] = reg.to_dict()
        ok = ok and reg.ok
    if model.is_narrow(site, config):
        comm = markov.check_narrow_commutativity(model, site, words, config)
        report["narrow_commutativity"] = comm.to_dict()
    return report, ok


def cmd_lift(args, config: RunConfig):
    report = bridges.verify_lift(*_load_field(args.field, config), config)
    return {"lift": report.to_dict()}, report.ok


def cmd_classical(args, config: RunConfig):
    model, site = _load_model_site(args.model, args.site)
    reduction = bridges.classical_reduce(model, site, config)
    return {"classical": reduction.to_dict()}, reduction.ok


if __name__ == "__main__":
    sys.exit(main())

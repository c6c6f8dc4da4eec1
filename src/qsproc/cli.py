"""Command-line drivers over the library.

Exit codes: 0 when every requested check passes, 1 on a mathematical failure
(axiom violation, refused construction), 2 on unreadable or malformed input.
Reports are deterministic: identical inputs and configuration produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from . import __version__
from .config import RunConfig
from .kernels import check_axioms
from .models import check_model
from .sites import SiteSymmetry, derive_classes
from .words import enumerate_words
from . import serialize

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.handler(args, config)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


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

    p = sub.add_parser("check", parents=[common],
                       help="validate a model and its kernel axioms")
    p.add_argument("model")
    p.add_argument("site")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("kernels", parents=[common],
                       help="emit the kernel table of a model")
    p.add_argument("model")
    p.add_argument("site")
    p.set_defaults(handler=cmd_kernels)

    p = sub.add_parser("reconstruct", parents=[common],
                       help="minimal model from a kernel table")
    p.add_argument("source", help="kernel table JSON, or a model JSON with --site")
    p.add_argument("--site", help="site JSON when reconstructing from a model")
    p.add_argument("--verify", action="store_true", help="also verify the round trip")
    p.set_defaults(handler=cmd_reconstruct)

    p = sub.add_parser("roundtrip", parents=[common],
                       help="reconstruct and compare the tables")
    p.add_argument("model")
    p.add_argument("site")
    p.set_defaults(handler=cmd_roundtrip)

    p = sub.add_parser("equiv", parents=[common],
                       help="wide-sense equivalence of two models")
    p.add_argument("action", choices=["check", "unitary"])
    p.add_argument("model1")
    p.add_argument("model2")
    p.add_argument("site")
    p.set_defaults(handler=cmd_equiv)

    p = sub.add_parser("markov", parents=[common],
                       help="dynamicity, regression, commutativity")
    p.add_argument("action", choices=["check"])
    p.add_argument("model")
    p.add_argument("site")
    p.set_defaults(handler=cmd_markov)

    p = sub.add_parser("lift", parents=[common],
                       help="level lift of a device field")
    p.add_argument("field", help="field JSON: devices, initial vector, depth")
    p.set_defaults(handler=cmd_lift)

    p = sub.add_parser("classical", parents=[common],
                       help="reduce a commuting model to a measure")
    p.add_argument("model")
    p.add_argument("site")
    p.set_defaults(handler=cmd_classical)
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
    collector pauses for it (on a 5.9 MB table it took 40% of the parse).

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

    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=members)
    finally:
        if collecting:
            gc.enable()
    for e in entries:
        if not (isinstance(data, dict) and data.get("values") is e):
            _unique_keys(e.pairs)
    return data


def _load_json(path: str, table: bool = False) -> dict:
    try:
        return _read_json(path, table)
    except (OSError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_model_site(model_path: str, site_path: str):
    try:
        site, sym = serialize.site_from_json(_load_json(site_path))
        model = serialize.model_from_json(_load_json(model_path))
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(str(exc)) from None
    for t in site.points:
        if t not in model.spaces.spaces:
            raise InputError(f"no outcome space declared at point {t!r}")
    points = set(site.points)
    for name, blocks in (("unit 'p'", model.units_p), ("unit 'i'", model.units_i),
                         ("algebra", model.algebra)):
        for k in blocks:
            if not k <= points:
                raise InputError(f"{name} block {sorted(k)} names point "
                                 f"{min(k - points)!r}, which is not in the site")
    return model, site, sym


def _load_oracle(model_path: str, site_path: str, config: RunConfig):
    """A model and site file, and the model's kernel table on the configured
    word list."""
    model, site, sym = _load_model_site(model_path, site_path)
    words = _word_list(site, model.spaces, config)
    try:
        return model, sym, model.kernel_table(site, words, site_sym=sym)
    except ValueError as exc:
        raise InputError(str(exc)) from None


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


def _word_list(site, spaces, config: RunConfig):
    try:
        return enumerate_words(site, spaces, config.policy, config.cap)
    except ValueError as exc:
        raise InputError(str(exc)) from None


# -- handlers ---------------------------------------------------------------------


def cmd_check(args, config: RunConfig) -> int:
    model, sym, oracle = _load_oracle(args.model, args.site, config)
    model_report = check_model(model, oracle.site, oracle.classes, config, sym)
    axiom_report = check_axioms(oracle, config)
    # inconclusive checks (restricted word policies) are not violations
    ok = model_report.ok and not axiom_report.failed
    _emit(
        {
            "model": model_report.to_dict(),
            "axioms": axiom_report.to_dict(),
            "words": len(oracle.words),
            "ok": ok,
        },
        config,
    )
    return EXIT_OK if ok else EXIT_MATH


def cmd_kernels(args, config: RunConfig) -> int:
    _, _, oracle = _load_oracle(args.model, args.site, config)
    print(serialize.dumps(serialize.oracle_to_json(oracle)))
    return EXIT_OK


def cmd_reconstruct(args, config: RunConfig) -> int:
    from .reconstruct import ReconstructionRefused, reconstruct, verify_decomposition

    if args.site:
        _, _, oracle = _load_oracle(args.source, args.site, config)
    else:
        try:
            oracle = serialize.oracle_from_json(_load_json(args.source, table=True))
            oracle.unit_index()  # the initial space sits at the unit word
        except serialize.DuplicateKey as exc:  # named with its file, as at the parse
            raise InputError(f"{args.source}: {exc}") from None
        except (KeyError, ValueError, TypeError) as exc:
            raise InputError(str(exc)) from None
    try:
        recon = reconstruct(oracle, config)
    except ReconstructionRefused as exc:
        print(f"reconstruction refused: {exc}", file=sys.stderr)
        return EXIT_MATH
    report = {
        "model": serialize.model_to_json(recon.model),
        "provenance": recon.provenance(),
    }
    if args.verify:
        from .equivalence import EquivalenceRefused, build_unitary, minimal_modification

        decomp = verify_decomposition(recon, oracle, config)
        report["verification"] = decomp.to_dict()
        # idempotence: the emitted model's minimal modification on the same
        # words is unitarily equivalent to it; the model declares the
        # oracle's symmetry elements, so its table reads their point maps
        maps = {s: sym.point_map for s, sym in oracle.symmetry.items()}
        site_sym = SiteSymmetry(tuple(maps), maps, {})
        try:
            second = minimal_modification(
                recon.model, oracle.site, oracle.words, config=config, site_sym=site_sym
            )
            morphism = build_unitary(
                recon.model, second, oracle.site, oracle.words, config
            )
        except (ReconstructionRefused, EquivalenceRefused) as exc:
            print(f"idempotence refused: {exc}", file=sys.stderr)
            return EXIT_MATH
        except ValueError as exc:  # the emitted model's own table
            raise InputError(f"idempotence table: {exc}") from None
        report["idempotence"] = morphism.to_dict()
        if not decomp.ok or not morphism.ok:
            _emit(report, config)
            return EXIT_MATH
    _emit(report, config)
    return EXIT_OK


def cmd_roundtrip(args, config: RunConfig) -> int:
    from .reconstruct import ReconstructionRefused, reconstruct, verify_decomposition

    model, _, oracle = _load_oracle(args.model, args.site, config)
    try:
        recon = reconstruct(oracle, config)
    except ReconstructionRefused as exc:
        print(f"reconstruction refused: {exc}", file=sys.stderr)
        return EXIT_MATH
    decomp = verify_decomposition(recon, oracle, config)
    shrink = {"ambient_dimension": model.dim, "minimal_dimension": recon.rank}
    _emit({"roundtrip": decomp.to_dict(), "dimensions": shrink}, config)
    return EXIT_OK if decomp.ok else EXIT_MATH


def cmd_equiv(args, config: RunConfig) -> int:
    from .equivalence import (
        EquivalenceRefused,
        build_unitary,
        check_wide_equivalence,
        minimal_modification,
    )
    from .reconstruct import ReconstructionRefused

    m1, site, sym = _load_model_site(args.model1, args.site)
    m2, _, _ = _load_model_site(args.model2, args.site)
    if m2.kdim != m1.kdim:
        raise InputError(f"initial spaces differ ({m1.kdim} vs {m2.kdim})")
    for t in site.points:
        if set(m2.spaces.outcomes(t)) != set(m1.spaces.outcomes(t)):
            raise InputError(f"the models' outcome labels differ at point {t!r}")
    words = _word_list(site, m1.spaces, config)
    if args.action == "check":
        verdict = check_wide_equivalence(m1, m2, site, words, config)
        _emit({"equivalence": verdict.to_dict()}, config)
        return EXIT_OK if verdict.equivalent else EXIT_MATH
    try:
        mm1, mm2 = (minimal_modification(m, site, words, config=config, site_sym=sym)
                    for m in (m1, m2))
    except ReconstructionRefused as exc:
        print(f"reconstruction refused: {exc}", file=sys.stderr)
        return EXIT_MATH
    except ValueError as exc:
        raise InputError(str(exc)) from None
    try:
        morphism = build_unitary(mm1, mm2, site, words, config)
    except EquivalenceRefused as exc:
        print(f"unitary construction refused: {exc}", file=sys.stderr)
        return EXIT_MATH
    _emit(
        {
            "morphism": morphism.to_dict(),
            "unitary": serialize.matrix_to_json(morphism.u),
            "dimensions": {
                "first_minimal": mm1.dim,
                "second_minimal": mm2.dim,
            },
        },
        config,
    )
    return EXIT_OK if morphism.ok else EXIT_MATH


def cmd_markov(args, config: RunConfig) -> int:
    from .markov import check_dynamicity, check_narrow_commutativity, check_regression

    model, site, _ = _load_model_site(args.model, args.site)
    classes = derive_classes(site)
    words = _word_list(site, model.spaces, config)
    dyn = check_dynamicity(model, site, classes, config)
    report = {"dynamicity": dyn.to_dict()}
    ok = dyn.ok
    if dyn.ok:
        reg = check_regression(model, site, words, classes, config)
        report["regression"] = reg.to_dict()
        ok = ok and reg.ok
    if model.is_narrow(site, config):
        comm = check_narrow_commutativity(model, site, classes, words, config)
        report["narrow_commutativity"] = comm.to_dict()
    _emit(report, config)
    return EXIT_OK if ok else EXIT_MATH


def cmd_lift(args, config: RunConfig) -> int:
    from .bridges import enumerate_level_words, lift_process, verify_lift

    data = _load_json(args.field)
    try:
        devices = {
            x: {o: serialize.matrix_from_json(m, f"device {x!r}/{o!r}")
                for o, m in serialize.json_object(fam, f"device {x!r}").items()}
            for x, fam in serialize.json_object(data["devices"], '"devices"').items()
        }
        initial = serialize.matrix_from_json(data["initial"], "initial vector")
        depth = serialize.json_int(data["depth"], '"depth"', 1)
        spaces = serialize.spaces_from_json(data["spaces"]).spaces
        model, site, _ = lift_process(devices, initial, depth, spaces)
        words = enumerate_level_words(model, site, config)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(str(exc)) from None
    report = verify_lift(devices, initial, depth, spaces, words, config)
    _emit({"lift": report.to_dict()}, config)
    return EXIT_OK if report.ok else EXIT_MATH


def cmd_classical(args, config: RunConfig) -> int:
    from .bridges import ReductionRefused, classical_reduce

    model, site, _ = _load_model_site(args.model, args.site)
    try:
        reduction = classical_reduce(model, site, config)
    except ReductionRefused as exc:
        print(f"classical reduction refused: {exc}", file=sys.stderr)
        return EXIT_MATH
    except ValueError as exc:
        raise InputError(str(exc)) from None
    _emit({"classical": reduction.to_dict()}, config)
    return EXIT_OK if reduction.ok else EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())

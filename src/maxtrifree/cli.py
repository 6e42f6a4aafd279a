"""Command-line surface: construct, enumerate, mis, reduce, verify, report.

Each command takes only the common flags it reads (--seed, --shards, --guard,
--json), and those take defaults from MAXTRIFREE_-prefixed environment
variables (MAXTRIFREE_SEED, MAXTRIFREE_SHARDS, MAXTRIFREE_GUARD_<KEY>).
Guards are run settings that verify and enumerate read, and the reports of
reduce and construct --stats are timed here with ``report.timed``.
verify, reduce and report exit 1 when any check fails; bad input (a missing
or malformed file, a non-integer environment value, a seed outside
0..2^64-1, a guard below the smallest n its checks run, a missing or
conflicting option, an explicit option the chosen mode would ignore, a size
past a cap, an output path that cannot be written, which is tried before
any computation) prints ``error: ...`` and exits 2.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import constructions, enumeration, reduction, suites
from .graph import Graph, GuardError, iter_bits
from .graph6 import WHITESPACE, Graph6Error, decode_graph6, encode_graph6
from .mis import HUJTER_TUZA_MAX_N, enumerate_mis, mis_count
from .reduction import InstanceError
from .report import (
    DEFAULT_GUARDS,
    GUARD_MINIMUMS,
    STREAM_FOLKLORE_SAMPLES,
    STREAM_KR_SAMPLES,
    RunConfig,
    VerificationReport,
    dumps_reports,
    loads_reports,
    read_utf8,
    rng_for,
    timed,
)

ENV_PREFIX = "MAXTRIFREE_"


def _env_int(name: str, fallback: int | None = None) -> int | None:
    raw = os.environ.get(ENV_PREFIX + name)
    if not raw:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ENV_PREFIX}{name} must be an integer, got {raw!r}") from None


def _env_guards(typed: dict[str, int]) -> dict[str, int]:
    """The MAXTRIFREE_GUARD_<KEY> values; one below its guard's minimum that
    no --guard in *typed* replaces is an error naming the variable."""
    guards = {}
    for key in DEFAULT_GUARDS:
        name = "GUARD_" + key.upper()
        value = _env_int(name)
        if value is None:
            continue
        if key not in typed and value < GUARD_MINIMUMS[key]:
            raise ValueError(f"{ENV_PREFIX}{name}={value} is below {GUARD_MINIMUMS[key]}, "
                             f"the smallest n its checks run")
        guards[key] = value
    return guards


def _parse_guard(text: str) -> tuple[str, int]:
    key, _, value = text.partition("=")
    if not value:
        raise argparse.ArgumentTypeError(f"expected KEY=VAL, got {text!r}")
    return key, int(value)


def _add_common(parser: argparse.ArgumentParser, *options: str) -> None:
    """Add the named common options ("seed", "shards", "guard", "json")."""
    if "seed" in options:
        parser.add_argument("--seed", type=int,
                            help="64-bit seed for every random draw "
                                 "(default: MAXTRIFREE_SEED, else 1)")
    if "shards" in options:
        parser.add_argument("--shards", type=int,
                            help="split the work into this many deterministic partitions, "
                                 "run one after another in this process (not in parallel); "
                                 "reports do not depend on it "
                                 "(default: MAXTRIFREE_SHARDS, else 1)")
    if "guard" in options:
        parser.add_argument("--guard", type=_parse_guard, action="append", default=[],
                            metavar="KEY=VAL",
                            help=f"override a size cap {sorted(DEFAULT_GUARDS)}")
    if "json" in options:
        parser.add_argument("--json", dest="json_path", metavar="PATH",
                            help="write the JSON report array here")


def _config(args) -> RunConfig:
    # environment defaults are read here, inside main's error handling, and
    # only for the options the command takes
    config = {}
    if "seed" in args:
        config["seed"] = _env_int("SEED", 1) if args.seed is None else args.seed
    if "shards" in args:
        config["shards"] = _env_int("SHARDS", 1) if args.shards is None else args.shards
    if "guard" in args:
        typed = dict(args.guard)
        config["guards"] = {**_env_guards(typed), **typed}
    return RunConfig(**config)


def _check_writable(*paths: str | None) -> None:
    """Open each given output path for appending and close it, so a path that
    cannot be written fails before any computation; an absent file is left
    empty until the command writes it."""
    for path in paths:
        if path:
            open(path, "ab").close()


def _emit_reports(reports: list[VerificationReport], json_path: str | None) -> int:
    for rep in reports:
        print(rep.summary_line())
    if json_path:
        with open(json_path, "w", encoding="ascii") as fh:
            fh.write(dumps_reports(reports))
            fh.write("\n")
    return 0 if all(r.passed for r in reports) else 1


def _load_single_graph(args) -> Graph:
    if args.g6 is not None and args.infile is not None:
        raise ValueError("--g6 and --in both give the graph; provide one")
    if args.g6 is not None:
        return decode_graph6(args.g6)
    if args.infile is not None:
        # latin-1 maps every byte to one character, so a non-ASCII byte reaches
        # decode_graph6's range check instead of failing the whole read
        with open(args.infile, "r", encoding="latin-1") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if raw.strip(WHITESPACE):
                    return decode_graph6(raw, line=lineno)
        raise ValueError(f"no graphs in {args.infile}")
    raise ValueError("provide --g6 or --in")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_construct(args) -> int:
    config = _config(args)
    if args.family == "kr" and args.r is None:
        raise ValueError("--r is required for the kr family")
    if args.family == "folklore" and args.r is not None:
        raise ValueError("--r sets the kr family's class count; the folklore family has none")
    if args.stats:
        if args.family != "folklore":
            raise ValueError("--stats is only available for the folklore family")
        if args.stream:
            raise ValueError("--stream writes members, which --stats does not emit")
        if args.choice is not None or args.samples is not None:
            raise ValueError("--choice and --samples pick members, which --stats does not emit")
        if args.seed is not None:
            raise ValueError("--seed draws random members, which --stats does not emit")
        _check_writable(args.json_path)
        rep = timed(lambda: constructions.folklore_family_stats(args.n))
        return _emit_reports([rep], args.json_path)
    if args.json_path:
        raise ValueError("--json writes a report, which only --stats makes")
    if args.choice is not None and args.samples is not None:
        raise ValueError("--samples draws random members, which --choice replaces")
    if args.choice is not None and args.seed is not None:
        raise ValueError("--seed draws random members, which --choice replaces")
    samples = 1 if args.samples is None else args.samples
    if samples < 1:
        raise ValueError(f"--samples must be positive, got {samples}")
    if args.family == "folklore":
        choice_type, build = constructions.FolkloreChoice, constructions.folklore_graph
        stream_base, shape = STREAM_FOLKLORE_SAMPLES, (args.n,)
    else:
        choice_type, build = constructions.KrChoice, constructions.kr_free_graph
        stream_base, shape = STREAM_KR_SAMPLES, (args.n, args.r)
    if args.choice is not None:
        choices = [choice_type.from_hex(*shape, args.choice)]
    else:
        choices = [choice_type.random(*shape, rng_for(config.seed, stream_base + i))
                   for i in range(samples)]
    _check_writable(args.stream)
    lines = [encode_graph6(build(c)) for c in choices]
    if args.stream:
        with open(args.stream, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    return 0


def _cmd_enumerate(args) -> int:
    config = _config(args)
    ignored = sorted({key for key, _ in args.guard} - {"enumeration_n"})
    if ignored:
        raise ValueError(f"--guard {ignored[0]} caps a verify check; enumerate reads "
                         f"only enumeration_n")
    guard, default = config.guard("enumeration_n"), DEFAULT_GUARDS["enumeration_n"]
    # a size limit is an error before any warning is printed or any n is run
    if args.n > guard:
        raise GuardError(f"n={args.n} is past the enumeration_n guard {guard}; "
                         f"raise it with --guard enumeration_n={args.n} to go further")
    enumeration.check_size(args.n)
    _check_writable(args.stream, args.json_path)
    if args.n > default and args.stream:
        # a count takes about a second at n = 11; the stream file grows with the family
        print(f"warning: n={args.n} beyond the default guard {default}; "
              f"this may take very long", file=sys.stderr)
    rows = enumeration.growth_table(args.n, shards=config.shards, stream_path=args.stream)
    print(f"{'n':>3} {'count':>12} {'log2/n^2':>10} {'ms':>8}")
    for r in rows:
        print(f"{r.n:>3} {r.labeled_count:>12} {r.log2_count_over_n2:>10.6f} {r.wall_time_ms:>8}")
    if args.json_path:
        with open(args.json_path, "w", encoding="ascii") as fh:
            json.dump([dataclasses.asdict(r) for r in rows], fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def _cmd_mis(args) -> int:
    if args.count_only and args.json_path:
        raise ValueError("--json writes the listed sets, which --count-only skips")
    g = _load_single_graph(args)
    _check_writable(args.json_path)
    if args.count_only:
        print(mis_count(g.rows))
        return 0
    sets = enumerate_mis(g.rows)
    for word in sets:
        print(f"{word:#x}", " ".join(str(v) for v in iter_bits(word)))
    print(f"total {len(sets)}")
    if args.json_path:
        payload = {"graph": encode_graph6(g), "mis_count": len(sets),
                   "sets": [list(iter_bits(w)) for w in sets]}
        with open(args.json_path, "w", encoding="ascii") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def _cmd_reduce(args) -> int:
    config = _config(args)
    checks = args.check.split(",")
    unknown = set(checks) - set(suites.INSTANCE_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    if args.random < 0:
        raise ValueError(f"--random must be at least 0, got {args.random}")
    if not args.random and (args.seed is not None or args.n is not None):
        raise ValueError("--seed and --n shape the --random instances, which are not asked for")
    if args.n is not None and args.n < 4:
        raise ValueError(f"--n {args.n} is below 4, the fewest vertices a random instance has")
    caps = [(name, reduction.H_STAR_MAX_N) for name in ("chain", "claim2") if name in checks]
    for name, cap in caps:
        if args.n is not None and args.n > cap:
            raise GuardError(f"--n {args.n} is beyond the {name} check's cap of n={cap}")
    instances: list[reduction.ReductionInstance] = []
    if args.instance:
        inst = reduction.ReductionInstance.load(args.instance)
        for name, cap in caps:
            if inst.n > cap:
                raise GuardError(f"{args.instance}: n={inst.n} is beyond "
                                 f"the {name} check's cap of n={cap}")
        instances.append(inst)
    if args.random:
        for i in range(args.random):
            instances.append(reduction.random_instance(
                rng_for(config.seed, i), n_min=4, n_max=8 if args.n is None else args.n))
    if not instances:
        raise ValueError("provide --instance and/or --random")
    _check_writable(args.json_path)
    reports = []
    for idx, inst in enumerate(instances):
        suffix = f"_{idx}" if len(instances) > 1 else ""
        for name, check in suites.INSTANCE_CHECKS.items():
            if name in checks:
                rep = timed(lambda: check(inst))
                rep.check_name += suffix
                reports.append(rep)
    return _emit_reports(reports, args.json_path)


def _cmd_verify(args) -> int:
    config = _config(args)
    _check_writable(args.json_path)
    guard, default = config.guard("hujter_tuza_m"), DEFAULT_GUARDS["hujter_tuza_m"]
    # past the cap the check fails at once, so only a guard that runs is warned of
    if args.suite in ("hujter-tuza", "all") and default < guard <= HUJTER_TUZA_MAX_N:
        print(f"warning: hujter_tuza_m={guard} beyond the default guard {default}; "
              f"this may take a while", file=sys.stderr)
    reports = suites.run_suite(config, args.suite)
    return _emit_reports(reports, args.json_path)


def _cmd_report(args) -> int:
    text = read_utf8(args.json_path)
    try:
        reports = loads_reports(text)
    except ValueError as exc:
        raise ValueError(f"{args.json_path}: {exc}") from None
    for rep in reports:
        print(rep.summary_line())
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxtrifree",
        description="enumeration, constructions, and proof checks for maximal "
                    "triangle-free graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build family members or family stats")
    p.add_argument("--family", choices=("folklore", "kr"), default="folklore")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--choice", metavar="HEX", help="explicit choice vector")
    p.add_argument("--samples", type=int, help="random members to emit (default: 1)")
    p.add_argument("--stats", action="store_true", help="enumerate the whole family")
    p.add_argument("--stream", metavar="PATH", help="write graph6 lines here")
    _add_common(p, "seed", "json")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("enumerate", help="count maximal triangle-free graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stream", metavar="PATH", help="stream the n-vertex family as graph6")
    _add_common(p, "shards", "guard", "json")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("mis", help="enumerate maximal independent sets of one graph")
    p.add_argument("--g6", help="graph6 string")
    p.add_argument("--in", dest="infile", metavar="PATH", help="graph6 file (first line)")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--json", dest="json_path", metavar="PATH",
                   help="write the listed sets here")
    p.set_defaults(func=_cmd_mis)

    p = sub.add_parser("reduce", help="run proof checks on reduction instances")
    p.add_argument("--instance", metavar="PATH", help="instance JSON file")
    p.add_argument("--check", default="claim1,claim2,chain",
                   help="comma list from claim1,claim2,chain")
    p.add_argument("--random", type=int, default=0, metavar="K",
                   help="also run K seeded random instances")
    p.add_argument("--n", type=int, help="max vertices for random instances")
    _add_common(p, "seed", "json")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=suites.SUITES, default="all")
    _add_common(p, "seed", "shards", "guard", "json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="summarize a JSON report array")
    p.add_argument("--json", dest="json_path", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GuardError, Graph6Error, InstanceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
